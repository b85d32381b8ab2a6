"""Command-line front end.

Exit codes are a stable contract: 0 means success (or colorable), 1 means a
certificate or refutation was found, 2 means the search budget ran out, and
3 means bad input or another runtime error.  A graph file is graph6 or an
edge list, told apart by its first line (_read_graph), and the case budget
is set by --budget alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import discharging, planar, reducibility, solver
from .dp import (MatchingAssignment, find_coloring, format_matching_file,
                 parse_matching_file, uniform_lists)
from .graphs import (FORBIDDEN_VARIANTS, Graph, cycle_spectrum, filter_graph6,
                     parse_edge_list, parse_graph6)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, keeping 2 for budgets
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _read_graph(path: str) -> Graph:
    text = _read_text(path)
    # the format is detected on, and graph6 read from, the first line left
    # once '#' comments are stripped: graph6 has no whitespace, so two or
    # more tokens there mean an edge list
    first = next(filter(None, (ln.split("#", 1)[0].strip()
                               for ln in text.splitlines())), "")
    if not first:
        raise ValueError(f"{path}: empty input, expected a graph")
    if len(first.split()) < 2:
        return parse_graph6(first)
    g, _ = parse_edge_list(text)
    return g


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        # one write of the whole text: json.dump writes many small chunks
        text = json.dumps(payload, indent=2, default=str)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_matching(path: str, g: Graph, k: int | None
                   ) -> tuple[MatchingAssignment, int]:
    """The matching file at path, and k: --k if given, else the file's
    'default identity' k."""
    matching, default_k = parse_matching_file(_read_text(path), g)
    if k is None:
        k = default_k
    if k is None:
        raise ValueError(f"{path}: no 'default identity k=K' line, so --k "
                         f"is needed")
    return matching, k


def cmd_cycles(args) -> int:
    g = _read_graph(args.input)
    # one search answers both the lengths up to --max-len and, through
    # lengths up to 9, which variants g satisfies
    present = cycle_spectrum(g, max_len=max(args.max_len, 9))
    spectrum = sorted(x for x in present if x <= args.max_len)
    variants = sorted(name for name, lengths in FORBIDDEN_VARIANTS.items()
                      if not lengths & present)
    print(f"n={g.n} m={g.m}")
    print(f"cycle spectrum (<= {args.max_len}): {spectrum}")
    label = "all" if len(variants) == 3 else (", ".join(variants) or "none")
    print(f"forbidden-cycle variants satisfied: {label}")
    _write_json(args.json, {
        "n": g.n, "m": g.m,
        "spectrum": spectrum,
        "variants": variants,
    })
    return EXIT_OK


def cmd_chi(args) -> int:
    g = _read_graph(args.input)
    value = solver.chi(g)
    print(f"chi = {value}")
    _write_json(args.json, {"chi": value})
    return EXIT_OK


def _certificate_needs_k(args) -> None:
    # only a search at one k has a failing assignment to write
    if args.certificate and args.k is None:
        raise ValueError("--certificate needs --k")


def cmd_chi_list(args) -> int:
    _certificate_needs_k(args)
    g = _read_graph(args.input)
    if args.k is not None:
        result = solver.is_k_choosable(g, args.k, budget=args.budget)
        if result is True:
            print(f"{args.k}-choosable: yes")
            _write_json(args.json, {"k": args.k, "choosable": True})
            return EXIT_OK
        print(f"{args.k}-choosable: no")
        lists = {v: list(L) for v, L in enumerate(result.lists)}
        print(f"failing list assignment: {lists}")
        if args.certificate:
            with open(args.certificate, "w", encoding="utf-8") as fh:
                json.dump(lists, fh, indent=2)
        _write_json(args.json, {"k": args.k, "choosable": False, "lists": lists})
        return EXIT_CERTIFICATE
    value = solver.chi_list(g, budget=args.budget)
    print(f"chi_list = {value}")
    _write_json(args.json, {"chi_list": value})
    return EXIT_OK


def cmd_chi_dp(args) -> int:
    _certificate_needs_k(args)
    g = _read_graph(args.input)
    if args.k is not None:
        result = solver.is_dp_k_colorable(g, args.k, budget=args.budget,
                                          jobs=args.jobs)
        if result is True:
            print(f"DP-{args.k}-colorable: yes")
            _write_json(args.json, {"k": args.k, "dp_colorable": True})
            return EXIT_OK
        print(f"DP-{args.k}-colorable: no")
        text = format_matching_file(result.matching, g)
        print("failing matching assignment:")
        print(text, end="")
        if args.certificate:
            with open(args.certificate, "w", encoding="utf-8") as fh:
                fh.write(text)
        _write_json(args.json, {"k": args.k, "dp_colorable": False})
        return EXIT_CERTIFICATE
    value = solver.chi_dp(g, budget=args.budget, jobs=args.jobs)
    print(f"chi_DP = {value}")
    _write_json(args.json, {"chi_dp": value})
    return EXIT_OK


def cmd_color(args) -> int:
    g = _read_graph(args.input)
    if args.matching:
        matching, k = _read_matching(args.matching, g, args.k)
    elif args.k is None:
        raise ValueError("need --k or a matching file")
    else:
        k = args.k
        matching = MatchingAssignment.identity(g, k)
    coloring = find_coloring(g, uniform_lists(g.n, k), matching)
    if coloring is None:
        print("UNSATISFIABLE")
        _write_json(args.json, {"satisfiable": False})
        return EXIT_CERTIFICATE
    print("coloring: " + " ".join(f"{v}:{c}" for v, c in enumerate(coloring)))
    _write_json(args.json, {"satisfiable": True, "coloring": list(coloring)})
    return EXIT_OK


def cmd_extend(args) -> int:
    g = _read_graph(args.input)
    matching, k = _read_matching(args.matching, g, args.k)
    partial = json.loads(_read_text(args.partial))
    if not (isinstance(partial, dict)
            and all(type(c) is int for c in partial.values())):
        raise ValueError(f"{args.partial}: expected a JSON object mapping "
                         f"each vertex to an integer color")
    partial = {int(v): c for v, c in partial.items()}
    order = [int(x) for x in args.order.split(",")]
    lists = uniform_lists(g.n, k)
    try:
        full = reducibility.extend_coloring(g, order, lists, matching, partial)
    except reducibility.ConditionsViolated as exc:
        print(f"extension conditions violated ({exc.condition}): {exc}")
        return EXIT_CERTIFICATE
    print("coloring: " + " ".join(f"{v}:{full[v]}" for v in sorted(full)))
    _write_json(args.json, {"coloring": {str(v): full[v] for v in sorted(full)}})
    return EXIT_OK


def cmd_find_config(args) -> int:
    g = _read_graph(args.input)
    pat = reducibility.pattern_from_json(json.loads(_read_text(args.pattern)))
    hits = reducibility.find_pattern(g, pat)
    print(f"pattern '{pat.name}': {len(hits)} occurrences")
    for image in hits[:args.show]:
        print(f"  {image}")
    certified = reducibility.certify_reducible(g, pat, args.k)
    print(f"reducible for k={args.k}: {'yes' if certified else 'no'}")
    _write_json(args.json, {
        "pattern": pat.name, "occurrences": len(hits),
        "reducible": certified, "k": args.k,
    })
    return EXIT_OK if certified or not hits else EXIT_CERTIFICATE


def cmd_discharge(args) -> int:
    emb = planar.load_embedding(json.loads(_read_text(args.input)))
    patterns = [reducibility.pattern_from_json(json.loads(_read_text(p)))
                for p in args.pattern or []]
    try:
        report = discharging.audit(emb, args.variant, patterns=patterns,
                                   strict=args.strict)
    except discharging.ForbiddenCyclePresent as exc:
        print(f"strict mode: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    print(report.format())
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(discharging.format_transfer_log(report.state))
    _write_json(args.json, {
        "variant": report.variant,
        "hypothesis_ok": report.hypothesis_ok,
        "total": str(report.total),
        "findings": report.findings,
    })
    return EXIT_OK


def _filter_status(line: str, forbidden
                   ) -> tuple[str | None, tuple[int, ...] | None]:
    """The row status of a graph6 line that the filters drop, with None; or
    None with the neighbor bitmasks of a candidate."""
    status, masks = filter_graph6(line, forbidden)
    if status is not None:
        return status, None
    try:
        # filter_graph6 has established connectivity
        if not planar._is_planar_connected(masks):
            return "filtered:nonplanar", None
    except planar.NonPlanarOrTooLarge:
        return "skipped:embed-bound", None
    return None, masks


def cmd_verify(args) -> int:
    """Scan a graph6 stream: keep connected graphs that satisfy the variant's
    cycle condition and are planar, and check each is DP-3-colorable.

    The filters run cheapest first on the neighbor bitmasks that
    graphs.filter_graph6 decodes from the line: connectivity and the cycle
    filter there, then planarity (planar.is_planar without its second
    connectivity test, on the graph reduced by degree).  No vertex count
    is bounded: skipped:embed-bound means the reduced graph has too many
    rotation systems to search.  One solver.settle_dp call on the bitmasks
    settles each candidate: an empty 3-core passes without a search, else
    the 3-core's components are searched, so --budget counts their cases.
    Rows are settled one at a time in input order, and the refutation
    certificates are printed before them, all in one write.  A line that
    is not graph6 raises ValueError with the input's path and the line
    number in front of the decoder's message."""
    forbidden = FORBIDDEN_VARIANTS[args.variant]
    rows: list[dict] = []
    refutations: list[tuple[str, str]] = []
    for lineno, line in enumerate(_read_text(args.input).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            status, masks = _filter_status(line, forbidden)
        except ValueError as exc:
            raise ValueError(f"{args.input}:{lineno}: {exc}") from None
        row = {"graph6": line, "status": status}
        if status is None:
            try:
                verdict, row["settled_by"] = solver.settle_dp(
                    masks, 3, budget=args.budget, jobs=args.jobs)
            except solver.BudgetExceeded:
                row["status"], row["settled_by"] = "budget", "search"
            else:
                row["status"] = "pass"
                if verdict is not True:
                    row["status"] = "FAIL"
                    refutations.append((line, format_matching_file(
                        verdict.matching, parse_graph6(line))))
        rows.append(row)
    checked = sum("settled_by" in row for row in rows)
    failures = len(refutations)
    budget_hits = sum(row["status"] == "budget" for row in rows)
    out = [f"refutation candidate {line}:\n{certificate}"
           for line, certificate in refutations]
    out += [f"{row['graph6']}\t{row['status']}\n" for row in rows]
    out.append(f"# checked={checked} pass={checked - failures - budget_hits} "
               f"fail={failures} budget={budget_hits}\n")
    sys.stdout.write("".join(out))
    _write_json(args.json, {
        "variant": args.variant,
        "rows": rows,
        "checked": checked, "fail": failures, "budget": budget_hits,
    })
    if failures:
        return EXIT_CERTIFICATE
    if budget_hits:
        return EXIT_BUDGET
    return EXIT_OK


def build_parser() -> _Parser:
    top = _Parser(prog="dpcolor",
                  description="exact DP-coloring and discharging toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    # option groups shared by several subcommands, declared once here
    graph = _Parser(add_help=False)
    graph.add_argument("input", help="graph file, or - for standard input")
    search = _Parser(add_help=False)
    search.add_argument("--budget", type=_at_least(0),
                        default=solver.DEFAULT_BUDGET, help="case budget")
    search.add_argument("--jobs", type=_at_least(1), default=1)

    def command(name, func, help, *groups):
        p = sub.add_parser(name, help=help, parents=groups)
        p.set_defaults(func=func)
        return p

    p = command("cycles", cmd_cycles, "cycle spectrum and variant check", graph)
    p.add_argument("--max-len", type=_at_least(3), default=9)

    command("chi", cmd_chi, "chromatic number", graph)

    for name, func, help in (("chi-list", cmd_chi_list, "choosability"),
                             ("chi-dp", cmd_chi_dp, "DP-chromatic number")):
        p = command(name, func, help, graph, search)
        p.add_argument("--k", type=_at_least(1), default=None,
                       help="test one k instead of computing the minimum")
        p.add_argument("--certificate", default=None,
                       help="write the failing assignment here (needs --k)")

    p = command("color", cmd_color, "find one coloring for a matching file",
                graph)
    p.add_argument("--matching", default=None, help="matching-assignment file")
    p.add_argument("--k", type=_at_least(1), default=None)

    p = command("extend", cmd_extend,
                "extend a coloring across an ordered subgraph", graph)
    p.add_argument("--matching", required=True)
    p.add_argument("--partial", required=True,
                   help="JSON file {vertex: color} covering the rest")
    p.add_argument("--order", required=True, help="comma-separated vertices")
    p.add_argument("--k", type=_at_least(1), default=None)

    p = command("find-config", cmd_find_config, "locate and certify a pattern",
                graph)
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--k", type=_at_least(1), default=3)
    p.add_argument("--show", type=_at_least(0), default=5)

    p = command("discharge", cmd_discharge,
                "run the charge rules on an embedding")
    p.add_argument("input", help="embedding JSON file, or - for stdin")
    p.add_argument("--variant", choices=sorted(FORBIDDEN_VARIANTS),
                   required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--log", default=None, help="write the transfer log (TSV)")
    p.add_argument("--pattern", action="append", default=None)

    p = command("verify-theorem2", cmd_verify, "DP-3 check over a graph6 stream",
                search)
    p.add_argument("input", help="graph6 lines, or - for stdin")
    p.add_argument("--variant", choices=sorted(FORBIDDEN_VARIANTS),
                   required=True)

    for p in sub.choices.values():  # every command can write a JSON report
        p.add_argument("--json", default=None)
    return top


@functools.cache
def _shared_parser() -> _Parser:
    # parse_args keeps no state between calls, so one parser serves every
    # main call in a process; it is built at the first call, not at import
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except solver.BudgetExceeded as exc:
        print(f"budget exceeded after {exc.attempted} cases", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # the searches are loops, but json.loads recurses once per level of
        # nesting, so a deeply nested JSON input exceeds the recursion limit
        print(f"error: input too large: search deeper than the recursion "
              f"limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
