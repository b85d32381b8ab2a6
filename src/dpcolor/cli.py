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
from .graphs import (Graph, cycle_spectrum, encode_graph6, has_cycle_length,
                     is_connected, parse_edge_list, parse_graph6,
                     satisfied_variants)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, keeping 2 for budgets
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _default_budget() -> int:
    raw = os.environ.get("DPCOLOR_BUDGET")
    return int(raw) if raw else solver.DEFAULT_BUDGET


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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


def _add_graph_arg(p: _Parser) -> None:
    p.add_argument("input", help="graph file, or - for standard input")
    p.add_argument("--format", choices=["auto", "graph6", "edges"],
                   default="auto")


def _add_budget_args(p: _Parser) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="case budget (default from DPCOLOR_BUDGET)")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--certificate", default=None,
                   help="write the failing assignment here")


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
    budget = args.budget or _default_budget()
    if args.k is not None:
        result = solver.is_k_choosable(g, args.k, max_n=g.n, budget=budget)
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
    budget = args.budget or _default_budget()
    try:
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
    except solver.BudgetExceeded as exc:
        print(f"budget exceeded after {exc.attempted} cases", file=sys.stderr)
        return EXIT_BUDGET


def cmd_color(args) -> int:
    g = _read_graph(args.input, args.format)
    k = args.k
    if args.matching:
        matching, default_k = parse_matching_file(_read_text(args.matching), g)
        if k is None:
            k = default_k
    else:
        matching = MatchingAssignment.identity(g, k) if k else None
    if k is None:
        print("need --k or a matching file with a 'default identity' directive",
              file=sys.stderr)
        return EXIT_ERROR
    if matching is None:
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
    k = args.k
    matching, default_k = parse_matching_file(_read_text(args.matching), g)
    if k is None:
        k = default_k
    if k is None:
        print("need --k or a 'default identity' directive", file=sys.stderr)
        return EXIT_ERROR
    partial = {int(v): int(c)
               for v, c in json.loads(_read_text(args.partial)).items()}
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
    pat = reducibility.pattern_from_json(_read_text(args.pattern))
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
    emb = planar.load_embedding(_read_text(args.input))
    patterns = [reducibility.pattern_from_json(_read_text(p))
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
        "findings": report.findings(),
    })
    return EXIT_OK


def _verify_worker(payload):
    n, edges, budget = payload
    from .graphs import from_edge_list

    g = from_edge_list(edges, n=n)
    try:
        result = solver.is_dp_k_colorable(g, 3, budget=budget)
    except solver.BudgetExceeded:
        return "budget", None
    if result is True:
        return "pass", None
    return "FAIL", format_matching_file(result.matching, g)


def cmd_verify(args) -> int:
    """Scan a graph6 stream: keep connected graphs that satisfy the variant's
    cycle condition and are planar, and check each is DP-3-colorable.

    The cheap cycle filter runs before the planarity search, so dense
    graphs never reach the rotation enumeration.  With --jobs the DP checks
    run per-graph in a process pool; output order stays the input order."""
    budget = args.budget or _default_budget()
    forbidden = discharging.VARIANTS[args.variant].forbidden
    lines = [ln.strip() for ln in _read_text(args.input).splitlines() if ln.strip()]
    rows: list[tuple[str, str | None]] = []
    candidates: list[tuple[int, str, object]] = []
    for line in lines:
        g = parse_graph6(line)
        if args.n_max and g.n > args.n_max:
            rows.append((line, "skipped:n"))
            continue
        if not is_connected(g):
            rows.append((line, "filtered:disconnected"))
            continue
        if has_cycle_length(g, forbidden):
            rows.append((line, "filtered:cycles"))
            continue
        try:
            planar.brute_force_embed(g, max_n=max(9, args.n_max or 9))
        except planar.NonPlanarOrTooLarge as exc:
            status = ("filtered:nonplanar" if exc.reason == "nonplanar"
                      else "skipped:embed-bound")
            rows.append((line, status))
            continue
        candidates.append((len(rows), line, g))
        rows.append((line, None))
    payloads = [(g.n, tuple(g.edges), budget) for _, _, g in candidates]
    if args.jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_verify_worker, payloads))
    else:
        results = [_verify_worker(p) for p in payloads]
    failures = budget_hits = 0
    checked = len(candidates)
    for (slot, line, _), (status, certificate) in zip(candidates, results):
        rows[slot] = (line, status)
        if status == "FAIL":
            failures += 1
            print(f"refutation candidate {line}:")
            print(certificate, end="")
        elif status == "budget":
            budget_hits += 1
    for line, status in rows:
        print(f"{line}\t{status}")
    print(f"# checked={checked} pass={checked - failures - budget_hits} "
          f"fail={failures} budget={budget_hits}")
    _write_json(args.json, {
        "variant": args.variant,
        "rows": [{"graph6": a, "status": b} for a, b in rows],
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

    p = sub.add_parser("cycles", help="cycle spectrum and variant check")
    _add_graph_arg(p)
    p.add_argument("--max-len", type=int, default=9)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("chi", help="chromatic number")
    _add_graph_arg(p)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("chi-list", help="choosability")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.add_argument("--k", type=int, default=None,
                   help="test one k instead of computing the minimum")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_chi_list)

    p = sub.add_parser("chi-dp", help="DP-chromatic number")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.add_argument("--k", type=int, default=None,
                   help="test one k instead of computing the minimum")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_chi_dp)

    p = sub.add_parser("color", help="find one coloring for a matching file")
    _add_graph_arg(p)
    p.add_argument("--matching", default=None, help="matching-assignment file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("extend", help="extend a coloring across an ordered subgraph")
    _add_graph_arg(p)
    p.add_argument("--matching", required=True)
    p.add_argument("--partial", required=True,
                   help="JSON file {vertex: color} covering the rest")
    p.add_argument("--order", required=True, help="comma-separated vertices")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("find-config", help="locate and certify a pattern")
    _add_graph_arg(p)
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--search-order", action="store_true",
                   help="try every ordering of the pattern vertices")
    p.add_argument("--validate", type=int, default=0,
                   help="randomized extension trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", type=int, default=5)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_find_config)

    p = sub.add_parser("discharge", help="run the charge rules on an embedding")
    p.add_argument("input", help="embedding JSON file, or - for stdin")
    p.add_argument("--variant", choices=sorted(discharging.VARIANTS),
                   required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--log", default=None, help="write the transfer log (TSV)")
    p.add_argument("--pattern", action="append", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_discharge)

    p = sub.add_parser("verify-theorem2",
                       help="DP-3 check over a graph6 stream")
    p.add_argument("input", help="graph6 lines, or - for stdin")
    p.add_argument("--variant", choices=sorted(discharging.VARIANTS),
                   required=True)
    p.add_argument("--n-max", type=int, default=None)
    _add_budget_args(p)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_verify)

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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
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
