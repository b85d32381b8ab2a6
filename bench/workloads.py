"""Benchmark inputs, commands and the correctness gate.

A workload is a list of Commands.  Each Command is one `dpcolor` argv
plus a check that compares the exit code and output with the verdict
recorded in bench/data when the inputs were frozen.  Setup loads the
frozen files, checks their sha256 against bench/data/MANIFEST.json, and
writes the seeded per-run inputs (permuted streams and command orders,
random matchings) into a work directory.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA_DIR = Path(__file__).resolve().parent / "data"

RANDOM_MATCHINGS = 24
POLYHEDRA = ("dodecahedron", "truncated_tetrahedron", "cube", "prism")
DISCHARGE_VARIANTS = ("a", "b67", "b68")


class SetupError(RuntimeError):
    """The frozen inputs are missing or do not match their recorded hash."""


@dataclass
class Command:
    """One CLI invocation and the check of its outcome.

    check(code, stdout) returns None when the outcome is the expected one,
    else a one-line description of the mismatch.
    """

    argv: list[str]
    check: Callable[[int, str], str | None]


@dataclass
class Workload:
    commands: list[Command]
    out_dir: Path
    input_hashes: dict[str, str]


# ---------------------------------------------------------------------------
# Frozen inputs.

def load_frozen(names, data_dir: Path = DATA_DIR
                ) -> tuple[dict[str, str], dict[str, str]]:
    """Read the named data files after checking each against the manifest.
    Returns (texts, sha256 digests), both keyed by file name."""
    try:
        manifest = json.loads((data_dir / "MANIFEST.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the input manifest: {exc}") from exc
    texts = {}
    for name in names:
        if name not in manifest:
            raise SetupError(f"{name} is not in the input manifest")
        try:
            raw = (data_dir / name).read_bytes()
        except OSError as exc:
            raise SetupError(f"cannot read input {name}: {exc}") from exc
        digest = hashlib.sha256(raw).hexdigest()
        if digest != manifest[name]:
            raise SetupError(f"input {name} has sha256 {digest}, "
                             f"manifest records {manifest[name]}")
        texts[name] = raw.decode("utf-8")
    return texts, {name: manifest[name] for name in names}


def _tsv(text: str) -> list[tuple[str, str]]:
    return [tuple(line.split("\t")) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# Checks.  Each returns None on the expected outcome, else a message.

def expect_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit {code}, expected {want}"


def check_verify_rows(expected: list[tuple[str, str]]):
    """verify-theorem2: exit 0, one row per input line in input order with
    the recorded status, and a summary line whose counts match."""
    checked = sum(1 for _, status in expected if status == "pass")
    summary = f"# checked={checked} pass={checked} fail=0 budget=0"

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return expect_exit(code, 0)
        lines = out.splitlines()
        rows = [tuple(ln.split("\t")) for ln in lines if "\t" in ln]
        if rows != expected:
            bad = sum(1 for a, b in zip(rows, expected) if a != b)
            return (f"{bad + abs(len(rows) - len(expected))} of "
                    f"{len(expected)} rows differ from the recorded statuses")
        if not lines or lines[-1] != summary:
            return f"summary {lines[-1:]!r}, expected {summary!r}"
        return None

    return check


def check_output(want_code: int, want_stdout: str):
    def check(code: int, out: str) -> str | None:
        if code != want_code:
            return expect_exit(code, want_code)
        if out != want_stdout:
            return f"stdout {out!r}, expected {want_stdout!r}"
        return None

    return check


def check_certificate(path: Path, recorded: str):
    """chi-dp --certificate: exit 1 and the recorded first certificate."""

    def check(code: int, out: str) -> str | None:
        if code != 1:
            return expect_exit(code, 1)
        try:
            text = path.read_text()
        except OSError:
            return "no certificate file written"
        if text != recorded:
            return "certificate differs from the recorded one"
        return None

    return check


def check_coloring(is_valid: Callable[[tuple[int, ...]], bool]):
    """color: exit 0 and a coloring that is valid for the matching."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return expect_exit(code, 0)
        if not out.startswith("coloring: "):
            return f"unexpected output {out[:60]!r}"
        coloring = tuple(int(tok.split(":")[1])
                         for tok in out[len("coloring: "):].split())
        return None if is_valid(coloring) else "invalid coloring"

    return check


def check_discharge_total(json_path: Path):
    """discharge: exit 0 and a --json sidecar whose total is exactly -8.
    The sidecar is removed after reading so a later run cannot reuse it."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return expect_exit(code, 0)
        try:
            doc = json.loads(json_path.read_text())
            json_path.unlink()
        except (OSError, ValueError) as exc:
            return f"unreadable --json sidecar: {exc}"
        total = doc.get("total")
        return None if total == "-8" else f"total {total!r}, expected '-8'"

    return check


# ---------------------------------------------------------------------------
# Workload builders.

def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _verify_command(stream: list[tuple[str, str]], variant: str,
                    work: Path) -> Command:
    path = _write(work / f"stream_{variant}.g6",
                  "".join(g6 + "\n" for g6, _ in stream))
    return Command(["verify-theorem2", path, "--variant", variant,
                    "--jobs", "1"], check_verify_rows(stream))


def _census_filter(rng, work, dpcolor):
    name = "census_filter_a.tsv"
    texts, digests = load_frozen([name])
    rows = _tsv(texts[name])
    rng.shuffle(rows)
    return [_verify_command(rows, "a", work)], digests


def _census_search(rng, work, dpcolor):
    names = ["census_search_b68.tsv", "census_search_a.tsv"]
    texts, digests = load_frozen(names)
    commands = []
    for name, variant in zip(names, ("b68", "a")):
        rows = _tsv(texts[name])
        rng.shuffle(rows)
        commands.append(_verify_command(rows, variant, work))
    return commands, digests


def _hard_dp(rng, work, dpcolor):
    name = "hard_dp.json"
    texts, digests = load_frozen([name])
    doc = json.loads(texts[name])
    out = work / "out"
    commands = []
    for label, g6 in sorted(doc["colorable"].items()):
        path = _write(work / f"{label}.g6", g6 + "\n")
        commands.append(Command(["chi-dp", path, "--k", "3", "--jobs", "1"],
                                check_output(0, "DP-3-colorable: yes\n")))
    for i, (g6, recorded) in enumerate(sorted(doc["refuted"].items())):
        path = _write(work / f"refuted{i}.g6", g6 + "\n")
        cert = out / f"refuted{i}.cert"
        commands.append(Command(
            ["chi-dp", path, "--k", "3", "--jobs", "1",
             "--certificate", str(cert)],
            check_certificate(cert, recorded)))
        commands.append(Command(["color", path, "--matching", str(cert),
                                 "--k", "3"],
                                check_output(1, "UNSATISFIABLE\n")))
    tt_g6 = doc["colorable"]["truncated_tetrahedron"]
    tt_path = str(work / "truncated_tetrahedron.g6")
    g = dpcolor.parse_graph6(tt_g6)
    lists = dpcolor.uniform_lists(g.n, 3)
    for i in range(RANDOM_MATCHINGS):
        perms = {}
        for e in sorted(g.edges):
            p = [0, 1, 2]
            rng.shuffle(p)
            perms[e] = tuple(p)
        lines = ["default identity k=3"]
        lines += [f"{u} {v} : " + ", ".join(f"{a}-{b}" for a, b in enumerate(p))
                  for (u, v), p in perms.items()]
        mpath = _write(work / f"matching{i}.txt", "\n".join(lines) + "\n")
        matching = dpcolor.MatchingAssignment.from_permutations(g, 3, perms)
        commands.append(Command(
            ["color", tt_path, "--matching", mpath],
            check_coloring(lambda c, m=matching: dpcolor.is_valid_coloring(
                g, lists, m, c))))
    return commands, digests


def _hard_list(rng, work, dpcolor):
    name = "chi_list.tsv"
    texts, digests = load_frozen([name])
    rows = _tsv(texts[name])
    rng.shuffle(rows)
    commands = []
    for i, (g6, value) in enumerate(rows):
        path = _write(work / f"list{i}.g6", g6 + "\n")
        commands.append(Command(["chi-list", path, "--jobs", "1"],
                                check_output(0, f"chi_list = {value}\n")))
    return commands, digests


def _discharge(rng, work, dpcolor):
    names = [f"plane/{p}.json" for p in POLYHEDRA]
    names += ["plane/random.json", "patterns/pattern0.json",
              "patterns/pattern1.json"]
    texts, digests = load_frozen(names)
    patterns = []
    for name in names[-2:]:
        patterns += ["--pattern", _write(work / Path(name).name, texts[name])]
    embeddings = [_write(work / Path(name).name, texts[name])
                  for name in names[:len(POLYHEDRA)]]
    for i, doc in enumerate(json.loads(texts["plane/random.json"])):
        embeddings.append(_write(work / f"random{i}.json", json.dumps(doc)))
    sidecar = work / "out" / "discharge.json"
    commands = [
        Command(["discharge", emb, "--variant", variant, *patterns,
                 "--json", str(sidecar)], check_discharge_total(sidecar))
        for emb in embeddings for variant in DISCHARGE_VARIANTS
    ]
    rng.shuffle(commands)
    return commands, digests


BUILDERS = {
    "census-filter": _census_filter,
    "census-search": _census_search,
    "hard-dp": _hard_dp,
    "hard-list": _hard_list,
    "discharge": _discharge,
}


def build(name: str, seed: int, work: Path, dpcolor) -> Workload:
    """Load and check the frozen inputs, then write this seed's inputs."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    commands, digests = BUILDERS[name](rng, work, dpcolor)
    return Workload(commands, work / "out", digests)
