"""Command-line front end.

Exit codes are a stable contract: 0 means success (or colorable), 1 means a
certificate or refutation was found, 2 means the search budget ran out, and
3 means bad input or another runtime error.  DPCOLOR_BUDGET sets the
default case budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import discharging, planar, reducibility, solver
from .dp import (MatchingAssignment, find_coloring, format_matching_file,
                 parse_matching_file, uniform_lists)
from .graphs import (Graph, cycle_spectrum, filter_graph6, parse_edge_list,
                     parse_graph6, satisfied_variants)

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


def _budget(args) -> int:
    """The case budget: --budget if given, else DPCOLOR_BUDGET if set, else
    solver.DEFAULT_BUDGET.  Zero is a budget like any other."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("DPCOLOR_BUDGET")
    if not raw:
        return solver.DEFAULT_BUDGET
    try:
        return _at_least(0)(raw)
    except ValueError:
        raise ValueError(f"DPCOLOR_BUDGET must be a non-negative integer, "
                         f"got {raw!r}") from None


def _read_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if not text.strip():
        raise ValueError(f"{path}: empty input, expected a graph")
    if fmt == "auto":
        stripped = next(
            (ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")),
            "",
        )
        fmt = "edges" if len(stripped.split()) == 2 else "graph6"
    if fmt == "graph6":
        return parse_graph6(text.strip().splitlines()[0])
    g, _ = parse_edge_list(text)
    return g


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)


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
    g = _read_graph(args.input, args.format)
    spec = cycle_spectrum(g, max_len=args.max_len)
    variants = sorted(satisfied_variants(g))
    print(f"n={g.n} m={g.m}")
    print(f"cycle spectrum (<= {spec.search_bound}): {sorted(spec.present)}")
    label = "all" if len(variants) == 3 else (", ".join(variants) or "none")
    print(f"forbidden-cycle variants satisfied: {label}")
    _write_json(args.json, {
        "n": g.n, "m": g.m,
        "spectrum": sorted(spec.present),
        "variants": variants,
    })
    return EXIT_OK


def cmd_chi(args) -> int:
    g = _read_graph(args.input, args.format)
    value = solver.chi(g)
    print(f"chi = {value}")
    _write_json(args.json, {"chi": value})
    return EXIT_OK


def cmd_chi_list(args) -> int:
    g = _read_graph(args.input, args.format)
    budget = _budget(args)
    if args.k is not None:
        result = solver.is_k_choosable(g, args.k, budget=budget)
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
    value = solver.chi_list(g, budget=budget)
    print(f"chi_list = {value}")
    _write_json(args.json, {"chi_list": value})
    return EXIT_OK


def cmd_chi_dp(args) -> int:
    g = _read_graph(args.input, args.format)
    budget = _budget(args)
    if args.k is not None:
        result = solver.is_dp_k_colorable(g, args.k, budget=budget,
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
    value = solver.chi_dp(g, budget=budget, jobs=args.jobs)
    print(f"chi_DP = {value}")
    _write_json(args.json, {"chi_dp": value})
    return EXIT_OK


def cmd_color(args) -> int:
    g = _read_graph(args.input, args.format)
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
    g = _read_graph(args.input, args.format)
    matching, k = _read_matching(args.matching, g, args.k)
    partial = json.loads(_read_text(args.partial))
    if not (isinstance(partial, dict)
            and all(isinstance(c, int) for c in partial.values())):
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
    g = _read_graph(args.input, args.format)
    pat = reducibility.pattern_from_json(json.loads(_read_text(args.pattern)))
    hits = reducibility.find_pattern(g, pat)
    print(f"pattern '{pat.name}': {len(hits)} occurrences")
    for image in hits[:args.show]:
        print(f"  {image}")
    certified = reducibility.certify_reducible(
        g, pat, args.k, search_orders=args.search_order)
    print(f"reducible for k={args.k}: {'yes' if certified else 'no'}")
    if args.validate and certified and hits:
        failures = _monte_carlo_validate(g, pat, hits, args.k,
                                         args.validate, args.seed)
        print(f"randomized extension check: {args.validate - failures}/"
              f"{args.validate} trials extended")
        if failures:
            return EXIT_CERTIFICATE
    _write_json(args.json, {
        "pattern": pat.name, "occurrences": len(hits),
        "reducible": certified, "k": args.k,
    })
    return EXIT_OK if certified or not hits else EXIT_CERTIFICATE


def _monte_carlo_validate(g, pat, hits, k, trials, seed) -> int:
    """Random full matchings and colorings of the rest; count failed extensions."""
    import random

    from .dp import is_valid_coloring
    from .graphs import delete_vertices

    failures = 0
    lists = uniform_lists(g.n, k)
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        image = hits[rng.randrange(len(hits))]
        order = [image[i] for i in pat.order]
        perms = {}
        for e in g.edges:
            p = list(range(k))
            rng.shuffle(p)
            perms[e] = tuple(p)
        matching = MatchingAssignment.from_permutations(g, k, perms)
        rest, remap = delete_vertices(g, set(order))
        rest_matching = MatchingAssignment({
            (remap[u], remap[v]): matching.pairs(u, v)
            for u, v in g.edges if u in remap and v in remap
        })
        sub = find_coloring(rest, uniform_lists(rest.n, k), rest_matching)
        if sub is None:
            continue
        partial = {old: sub[new] for old, new in remap.items()}
        try:
            full = reducibility.extend_coloring(g, order, lists, matching, partial)
        except reducibility.ConditionsViolated:
            failures += 1
            continue
        if not is_valid_coloring(g, lists, matching,
                                 tuple(full[v] for v in range(g.n))):
            failures += 1
    return failures


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


def _verify_search(g: Graph, budget: int, jobs: int
                   ) -> tuple[str, str | None]:
    """Row status and certificate text for one candidate that reaches the
    DP-3 search."""
    try:
        result = solver.is_dp_k_colorable(g, 3, budget=budget, jobs=jobs)
    except solver.BudgetExceeded:
        return "budget", None
    if result is True:
        return "pass", None
    return "FAIL", format_matching_file(result.matching, g)


def _filter_status(line: str, forbidden, n_max: int | None
                   ) -> tuple[str | None, Graph | None]:
    """The row status of a graph6 line that the filters drop, with None; or
    None with the Graph of a candidate."""
    status, g = filter_graph6(line, forbidden, n_max)
    if status is not None:
        return status, None
    bound = 9 if n_max is None else max(9, n_max)
    try:
        if not planar.is_planar(g, max_n=bound):
            return "filtered:nonplanar", None
    except planar.NonPlanarOrTooLarge:
        return "skipped:embed-bound", None
    return None, g


def cmd_verify(args) -> int:
    """Scan a graph6 stream: keep connected graphs that satisfy the variant's
    cycle condition and are planar, and check each is DP-3-colorable.

    The filters run cheapest first: graphs.filter_graph6 applies the vertex
    bound, connectivity and the cycle filter to the line's bitmasks, then
    planarity, decided by planar.is_planar on the graph reduced by degree.
    A Graph is built only for the lines that reach planarity.  A candidate
    with an empty 3-core (solver.core_components) passes without a search;
    the others go to solver.is_dp_k_colorable, which splits each large
    search across --jobs processes.  Rows are settled one at a time in
    input order, and the refutation certificates are printed before them.
    A line that is not graph6 raises ValueError with the input's path and
    the line number in front of the decoder's message."""
    budget = _budget(args)
    forbidden = discharging.VARIANTS[args.variant].forbidden
    rows: list[dict] = []
    refutations: list[tuple[str, str]] = []
    for lineno, line in enumerate(_read_text(args.input).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            status, g = _filter_status(line, forbidden, args.n_max)
        except ValueError as exc:
            raise ValueError(f"{args.input}:{lineno}: {exc}") from None
        row = {"graph6": line, "status": status}
        if status is None:
            # an empty 3-core: each vertex, colored in reverse order of
            # deletion, has at most 2 colored neighbors, so every 3-fold
            # cover is colored without a search
            if not solver.core_components(g, 3):
                row["status"], row["settled_by"] = "pass", "core-empty"
            else:
                row["status"], certificate = _verify_search(g, budget,
                                                            args.jobs)
                row["settled_by"] = "search"
                if certificate is not None:
                    refutations.append((line, certificate))
        rows.append(row)
    checked = sum("settled_by" in row for row in rows)
    failures = len(refutations)
    budget_hits = sum(row["status"] == "budget" for row in rows)
    for line, certificate in refutations:
        print(f"refutation candidate {line}:")
        print(certificate, end="")
    for row in rows:
        print(f"{row['graph6']}\t{row['status']}")
    print(f"# checked={checked} pass={checked - failures - budget_hits} "
          f"fail={failures} budget={budget_hits}")
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
    graph.add_argument("--format", choices=["auto", "graph6", "edges"],
                       default="auto")
    search = _Parser(add_help=False)
    search.add_argument("--budget", type=_at_least(0), default=None,
                        help="case budget (default from DPCOLOR_BUDGET)")
    search.add_argument("--jobs", type=_at_least(1), default=1)

    def command(name, func, help, *groups):
        p = sub.add_parser(name, help=help, parents=groups)
        p.set_defaults(func=func)
        return p

    p = command("cycles", cmd_cycles, "cycle spectrum and variant check", graph)
    p.add_argument("--max-len", type=int, default=9)

    command("chi", cmd_chi, "chromatic number", graph)

    for name, func, help in (("chi-list", cmd_chi_list, "choosability"),
                             ("chi-dp", cmd_chi_dp, "DP-chromatic number")):
        p = command(name, func, help, graph, search)
        p.add_argument("--k", type=int, default=None,
                       help="test one k instead of computing the minimum")
        p.add_argument("--certificate", default=None,
                       help="write the failing assignment here")

    p = command("color", cmd_color, "find one coloring for a matching file",
                graph)
    p.add_argument("--matching", default=None, help="matching-assignment file")
    p.add_argument("--k", type=int, default=None)

    p = command("extend", cmd_extend,
                "extend a coloring across an ordered subgraph", graph)
    p.add_argument("--matching", required=True)
    p.add_argument("--partial", required=True,
                   help="JSON file {vertex: color} covering the rest")
    p.add_argument("--order", required=True, help="comma-separated vertices")
    p.add_argument("--k", type=int, default=None)

    p = command("find-config", cmd_find_config, "locate and certify a pattern",
                graph)
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--k", type=_at_least(1), default=3)
    p.add_argument("--search-order", action="store_true",
                   help="try every ordering of the pattern vertices")
    p.add_argument("--validate", type=_at_least(0), default=0,
                   help="randomized extension trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", type=_at_least(0), default=5)

    p = command("discharge", cmd_discharge,
                "run the charge rules on an embedding")
    p.add_argument("input", help="embedding JSON file, or - for stdin")
    p.add_argument("--variant", choices=sorted(discharging.VARIANTS),
                   required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--log", default=None, help="write the transfer log (TSV)")
    p.add_argument("--pattern", action="append", default=None)

    p = command("verify-theorem2", cmd_verify, "DP-3 check over a graph6 stream",
                search)
    p.add_argument("input", help="graph6 lines, or - for stdin")
    p.add_argument("--variant", choices=sorted(discharging.VARIANTS),
                   required=True)
    p.add_argument("--n-max", type=_at_least(0), default=None)

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
        # dp.search_positions recurses once per vertex, so about a thousand
        # vertices exceed the interpreter's recursion limit
        print(f"error: input too large: search deeper than the recursion "
              f"limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
