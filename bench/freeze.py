"""Regenerate the frozen benchmark inputs and their expected outputs.

Run from the repository root:

    PYTHONPATH=src:tests python3 bench/freeze.py

It enumerates the census streams with tests/smallgraphs.py (about a
minute), runs the current dpcolor CLI once over every input to record the
expected row statuses, chi_list values and first certificates, and writes
bench/data/ plus bench/data/MANIFEST.json with the sha256 of every file.
The benchmark itself never regenerates anything: it only loads these
files and checks their hashes.  Rerun this only on purpose, from a commit
whose verdicts are trusted, and commit the result as its own change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from dpcolor import (FORBIDDEN_VARIANTS, ConfigPattern, dump_embedding,
                     encode_graph6, from_edge_list, load_embedding,
                     pattern_to_json)
from dpcolor.cli import main
from dpcolor.solver import BudgetExceeded, chi_list

import fixtures
from smallgraphs import connected_graphs

DATA = Path(__file__).resolve().parent / "data"

REFUTED = ["Fs`vo", "Fs\\v_", "FqNcw"]
CHI_LIST_SIX_VERTEX_BUDGET = 60_000
RANDOM_EMBEDDINGS = 200
EMBEDDING_SIZES = (20, 60)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _verify_rows(lines: list[str], variant: str, tmp: Path) -> list[str]:
    stream = tmp / "stream.g6"
    stream.write_text("".join(line + "\n" for line in lines))
    code, out = _run(["verify-theorem2", str(stream), "--variant", variant,
                      "--jobs", "1"])
    assert code == 0, code
    rows = [ln.split("\t") for ln in out.splitlines() if "\t" in ln]
    assert [r[0] for r in rows] == lines
    return [f"{g6}\t{status}\n" for g6, status in rows]


def _prism_over_cycle(n: int):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return from_edge_list(edges)


# ---------------------------------------------------------------------------
# Random plane embeddings for the discharge workload.

def _face_corners(rot: list[list[int]], u: int, v: int) -> list[tuple[int, int]]:
    """Corners (previous vertex, vertex) along the face left of dart u->v,
    using the successor rule of dpcolor.planar.trace_faces."""
    corners = []
    a, b = u, v
    while True:
        corners.append((a, b))
        nbrs = rot[b]
        a, b = b, nbrs[(nbrs.index(a) + 1) % len(nbrs)]
        if (a, b) == (u, v):
            return corners


def random_plane_rotation(rng: random.Random, n: int) -> list[list[int]]:
    """Rotation system of a random connected plane graph on n vertices.

    Starts from a short cycle and adds vertices inside random faces, each
    joined to one, two or three distinct corners of that face, then adds a
    few chords.  Every step keeps the rotation planar, so the result is
    long and sparse, with mixed face lengths and degrees 1 to about 6.
    """
    start = rng.randint(3, 6)
    rot = [[(i - 1) % start, (i + 1) % start] for i in range(start)]
    while len(rot) < n:
        u = rng.randrange(len(rot))
        corners = _face_corners(rot, u, rng.choice(rot[u]))
        want = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
        picked, seen = [], set()
        for i in sorted(rng.sample(range(len(corners)), min(want, len(corners)))):
            if corners[i][1] not in seen:
                seen.add(corners[i][1])
                picked.append(corners[i])
        x = len(rot)
        rot.append([c for _, c in reversed(picked)])
        for p, c in picked:
            rot[c].insert(rot[c].index(p) + 1, x)
    for _ in range(n // 20):
        u = rng.randrange(n)
        corners = _face_corners(rot, u, rng.choice(rot[u]))
        if len(corners) < 4:
            continue
        (p1, c1), (p2, c2) = rng.sample(corners, 2)
        if c1 == c2 or c2 in rot[c1]:
            continue
        rot[c1].insert(rot[c1].index(p1) + 1, c2)
        rot[c2].insert(rot[c2].index(p2) + 1, c1)
    return rot


def _write(name: str, text: str) -> None:
    path = DATA / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def main_freeze() -> None:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)

        upto8 = [encode_graph6(g) for g in connected_graphs(8)]
        _write("census_filter_a.tsv", "".join(_verify_rows(upto8, "a", tmp)))
        for variant in ("b68", "a"):
            graphs = [encode_graph6(g)
                      for g in connected_graphs(9, forbid_cycles=FORBIDDEN_VARIANTS[variant])]
            rows = _verify_rows(graphs, variant, tmp)
            assert all(r.endswith("\tpass\n") for r in rows), variant
            _write(f"census_search_{variant}.tsv", "".join(rows))

        chosen = [g for g in connected_graphs(6) if g.n <= 5]
        for g in connected_graphs(6):
            if g.n != 6:
                continue
            try:
                chi_list(g, budget=CHI_LIST_SIX_VERTEX_BUDGET)
            except BudgetExceeded:
                continue
            chosen.append(g)
        rows = []
        for g in chosen:
            g6 = encode_graph6(g)
            path = tmp / "g.g6"
            path.write_text(g6 + "\n")
            code, out = _run(["chi-list", str(path), "--jobs", "1"])
            assert code == 0 and out.startswith("chi_list = "), out
            rows.append(f"{g6}\t{int(out.split('=')[1])}\n")
        _write("chi_list.tsv", "".join(rows))

        hard = {
            "colorable": {
                "c5xk2": encode_graph6(_prism_over_cycle(5)),
                "truncated_tetrahedron": encode_graph6(
                    fixtures.truncated_tetrahedron().graph),
            },
            "refuted": {},
        }
        for g6 in REFUTED:
            path = tmp / "g.g6"
            path.write_text(g6 + "\n")
            cert = tmp / "cert.txt"
            code, _ = _run(["chi-dp", str(path), "--k", "3", "--jobs", "1",
                            "--certificate", str(cert)])
            assert code == 1, (g6, code)
            hard["refuted"][g6] = cert.read_text()
        _write("hard_dp.json", json.dumps(hard, indent=2, sort_keys=True) + "\n")

    for name in ("dodecahedron", "truncated_tetrahedron", "cube", "prism"):
        _write(f"plane/{name}.json",
               dump_embedding(getattr(fixtures, name)()) + "\n")
    rng = random.Random("discharge:0")
    low, high = EMBEDDING_SIZES
    docs = []
    for i in range(RANDOM_EMBEDDINGS):
        # sizes spread evenly over the range
        n = low + i * (high - low + 1) // RANDOM_EMBEDDINGS
        doc = {"n": n, "rotation": random_plane_rotation(rng, n)}
        load_embedding(doc)  # checks Euler's formula
        docs.append(doc)
    _write("plane/random.json",
           "[\n" + ",\n".join(json.dumps(d) for d in docs) + "\n]\n")
    patterns = [
        ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                            host_degree=(2, 3, 3), order=[0, 1, 2],
                            name="hanging triangle"),
        ConfigPattern.build(edges=[(0, 1), (1, 2)], host_degree=(2, 3, 2),
                            order=[0, 2, 1], name="2-3-2 path"),
    ]
    for i, pat in enumerate(patterns):
        _write(f"patterns/pattern{i}.json", pattern_to_json(pat) + "\n")

    files = sorted(p for p in DATA.rglob("*") if p.is_file()
                   and p.name != "MANIFEST.json")
    manifest = {p.relative_to(DATA).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    _write("MANIFEST.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"froze {len(manifest)} files into {DATA}", file=sys.stderr)


if __name__ == "__main__":
    main_freeze()
