import itertools
import math
import sys
import time

import pytest

import dpcolor.solver
from dpcolor import (
    DEFAULT_BUDGET,
    AdversaryCertificate,
    BudgetExceeded,
    MatchingAssignment,
    chi,
    chi_dp,
    chi_list,
    complete_bipartite,
    complete_graph,
    core_components,
    cycle_graph,
    find_coloring,
    format_matching_file,
    from_edge_list,
    from_list_assignment,
    is_dp_k_colorable,
    is_k_choosable,
    normalized_assignment_count,
    parse_graph6,
    parse_matching_file,
    path_graph,
    uniform_lists,
)
from dpcolor.solver import (_AUT_LIMIT, _GaugeOrbits, _automorphisms,
                            _first_edge_blocks)
from dpcolor.dp import search_positions
from oracles import (_dfs_forest, _list_systems, automorphisms_by_permutation,
                     brute_k_colorable, reference_choosable_scan,
                     reference_dp_scan, slow_choosable, slow_dp_verdict,
                     subset_degeneracy)
from fixtures import with_pendant_paths
from smallgraphs import connected_graphs


def petersen():
    return from_edge_list(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )


def prism(m):
    """C_m x K_2: two m-cycles joined by a perfect matching."""
    return from_edge_list(
        [(i, (i + 1) % m) for i in range(m)]
        + [(m + i, m + (i + 1) % m) for i in range(m)]
        + [(i, m + i) for i in range(m)]
    )


def outcome(g, search):
    """Verdict, certificate text or budget count of one adversary run."""
    try:
        result = search()
    except BudgetExceeded as exc:
        return "budget", exc.attempted
    if result is True:
        return "ok", None
    if isinstance(result, AdversaryCertificate):
        result = result.lists if result.kind == "list" else result.matching
    if isinstance(result, MatchingAssignment):
        return "cert", format_matching_file(result, g)
    return "cert", result


def grotzsch():
    """The Mycielskian of C5: triangle-free and 4-chromatic."""
    return from_edge_list(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
        + [(5 + i, 10) for i in range(5)]
    )


def least_proper_k(g):
    return next(k for k in itertools.count(1) if brute_k_colorable(g, k))


def test_chi_basics():
    assert chi(complete_graph(4)) == 4
    assert chi(cycle_graph(5)) == 3
    assert chi(petersen()) == 3


def test_chi_matches_brute_force():
    for g in connected_graphs(6):
        assert chi(g) == least_proper_k(g), g.edges


def test_chi_refutes_below_grotzsch(monkeypatch):
    # the clique bound is 2, so the kernel itself must refute k = 2 and 3
    calls = []

    def spy(adj, sizes, part):
        found = search_positions(adj, sizes, part)
        calls.append((sizes[0], found is not None))
        return found

    monkeypatch.setattr(dpcolor.solver, "search_positions", spy)
    g = grotzsch()
    assert chi(g) == least_proper_k(g) == 4
    assert calls == [(2, False), (3, False), (4, True)]


def mycielskian(g):
    """The Mycielskian of g: chi goes up by one, the clique number stays."""
    n = g.n
    return from_edge_list(
        list(g.edges)
        + [(u, n + v) for u, v in g.edges]
        + [(v, n + u) for u, v in g.edges]
        + [(n + v, 2 * n) for v in range(n)]
    )


def inner_code(func, name):
    """The code object of the function named name nested in func."""
    return next(c for c in func.__code__.co_consts
                if getattr(c, "co_name", None) == name)


def calls_of(codes, call):
    """call()'s result and the number of calls into the code objects in
    codes, counted with sys.settrace."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code in codes:
            count += 1
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


def test_chi_fixes_the_clique_colors_on_mycielski5():
    # 23 vertices, clique number 2, chi 5: refuting k = 2, 3 and 4 without
    # the clique's colors fixed tries every partial coloring again under
    # each relabeling of its colors, about 26,700 steps of the backtracker
    g = mycielskian(mycielskian(mycielskian(path_graph(2))))
    assert (g.n, g.m) == (23, 71)
    solve = inner_code(search_positions, "solve")
    value, steps = calls_of({solve}, lambda: chi(g))
    assert value == 5
    assert steps <= 3_000


def test_core_components():
    assert core_components(complete_graph(5), 4) == [complete_graph(5)]
    assert core_components(complete_graph(5), 5) == []
    assert core_components(cycle_graph(7), 2) == [cycle_graph(7)]
    assert core_components(cycle_graph(7), 3) == []
    assert core_components(path_graph(4), 1) == [path_graph(4)]
    assert core_components(path_graph(4), 2) == []


def test_core_is_empty_exactly_past_the_subset_degeneracy():
    edgeless = from_edge_list([], n=3)
    for g in list(connected_graphs(6)) + [edgeless]:
        d = subset_degeneracy(g)
        for k in range(g.n + 2):
            assert (core_components(g, k) == []) == (k > d), (g.edges, k)
    assert core_components(edgeless, 0) == [from_edge_list([], n=1)] * 3


def test_dp_c4_k2_certificate_has_one_twisted_edge():
    cert = is_dp_k_colorable(cycle_graph(4), 2)
    assert cert is not True and cert.kind == "dp"
    twisted = [e for e in cert.matching.edges()
               if cert.matching.pairs(*e) != ((0, 0), (1, 1))]
    assert len(twisted) == 1
    # replay: the certificate really admits no coloring
    g = cycle_graph(4)
    assert find_coloring(g, uniform_lists(4, 2), cert.matching) is None


def test_dp_c4_k3_true():
    assert normalized_assignment_count(cycle_graph(4), 3) == 6
    assert is_dp_k_colorable(cycle_graph(4), 3) is True


def test_dp_trees_k2_true():
    for g in connected_graphs(6):
        if g.m == g.n - 1:
            assert normalized_assignment_count(g, 2) == 1
            assert is_dp_k_colorable(g, 2) is True


def test_chi_dp_values():
    assert chi_dp(cycle_graph(6)) == 3
    assert chi_dp(complete_graph(4)) == 4
    assert chi_dp(complete_graph(2)) == 2


def test_chi_dp_cycles_both_parities():
    for m in range(3, 9):
        assert chi_dp(cycle_graph(m)) == 3


def test_chi_dp_stops_before_degeneracy_plus_one(monkeypatch):
    calls = []
    search = dpcolor.solver.is_dp_k_colorable

    def counted(g, k, **kwargs):
        calls.append(k)
        return search(g, k, **kwargs)

    monkeypatch.setattr(dpcolor.solver, "is_dp_k_colorable", counted)
    assert chi_dp(cycle_graph(7)) == 3
    assert calls == [1, 2]


def test_chi_dp_matches_search_at_every_k():
    # the least k the adversary search accepts, trying k = 1, 2, ... with
    # no early stop; K5 is left out because its k = 5 space has 120^6
    # cases, and chi(K5) = 5 = degeneracy + 1 pins its value anyway
    for g in connected_graphs(5):
        if g.m == 10:
            assert chi_dp(g) == chi(g) == 5
            continue
        searched = next(k for k in range(1, g.n + 2)
                        if is_dp_k_colorable(g, k) is True)
        assert chi_dp(g) == searched, g.edges


def test_dp_certificates_replay_unsatisfiable():
    for g in connected_graphs(5):
        for k in (2, 3):
            result = is_dp_k_colorable(g, k)
            if result is not True:
                assert find_coloring(
                    g, uniform_lists(g.n, k), result.matching) is None


def test_normalized_search_matches_unrestricted_oracle_small():
    # the full acceptance run covers every connected graph on 5 vertices;
    # here the cheap sizes guard the invariant during development
    for g in connected_graphs(4):
        for k in (2, 3):
            if k == 3 and g.m in (4, 5):
                # 34^4 and 34^5 unrestricted assignments: minutes, not seconds
                continue
            slow = slow_dp_verdict(g, k)
            assert (is_dp_k_colorable(g, k) is True) == slow, (g.edges, k)
            assert (reference_dp_scan(g, k) is True) == slow, (g.edges, k)


def test_adversary_matches_reference_scan(monkeypatch):
    # witness reuse and block splitting must not change the verdict, the
    # first certificate or the attempted count of the plain scan; the pool
    # threshold is lowered so that jobs = 2 runs the split
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    for g in connected_graphs(5):
        for k in (2, 3):
            for budget in (1, 7, 100, DEFAULT_BUDGET):
                want = outcome(g, lambda: reference_dp_scan(g, k, budget))
                for jobs in (1, 2):
                    got = outcome(g, lambda: is_dp_k_colorable(
                        g, k, budget=budget, jobs=jobs))
                    assert got == want, (g.edges, k, budget, jobs)


def test_witness_reuse_skips_most_searches(monkeypatch):
    calls = 0
    kernel = dpcolor.solver.search_positions

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(dpcolor.solver, "search_positions", counted)
    g = prism(5)
    assert normalized_assignment_count(g, 3) == 46_656
    assert is_dp_k_colorable(g, 3) is True
    assert calls <= 100


def test_cycle_rank_beyond_recursion_limit():
    # the scan walks the non-tree edges without recursion, so more of them
    # than sys.getrecursionlimit() still reach a verdict or the budget
    k50 = complete_graph(50)
    assert k50.m - k50.n + 1 == 1176
    cert = is_dp_k_colorable(k50, 3)
    assert isinstance(cert, AdversaryCertificate)
    assert find_coloring(k50, uniform_lists(50, 3), cert.matching) is None
    # K_{20,20,20}: 1141 non-tree edges, and the first case is colorable
    tripartite = from_edge_list([(u, v) for u in range(60)
                                 for v in range(u + 1, 60) if u // 20 != v // 20])
    with pytest.raises(BudgetExceeded) as info:
        is_dp_k_colorable(tripartite, 3, budget=1)
    assert info.value.attempted == 1


def test_budget_exceeded_is_distinct():
    g = cycle_graph(6)
    with pytest.raises(BudgetExceeded) as info:
        is_dp_k_colorable(g, 3, budget=3)
    assert info.value.attempted == 3
    # a certificate found within budget is still returned
    cert = is_dp_k_colorable(cycle_graph(4), 2, budget=2)
    assert cert is not True


def test_small_spaces_open_no_pool(monkeypatch):
    # below the threshold a pool costs more than it saves, so jobs > 1
    # scans in this process
    def no_pool(max_workers):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(dpcolor.solver, "ProcessPoolExecutor", no_pool)
    g = prism(5)
    assert normalized_assignment_count(g, 3) // 6 < dpcolor.solver._POOL_MIN_WORK
    assert is_dp_k_colorable(g, 3, jobs=2) is True
    with pytest.raises(BudgetExceeded) as info:
        is_dp_k_colorable(g, 3, budget=46_655, jobs=2)
    assert info.value.attempted == 46_655


def test_parallel_blocks_agree_with_serial(monkeypatch):
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    g = cycle_graph(5)
    assert is_dp_k_colorable(g, 3, jobs=2) is True
    cert_serial = is_dp_k_colorable(g, 2)
    cert_par = is_dp_k_colorable(g, 2, jobs=2)
    assert cert_par is not True and cert_serial is not True
    assert cert_par.matching == cert_serial.matching


def test_parallel_budget_matches_serial(monkeypatch):
    # every block sees the whole budget, so the verdict and the attempted
    # count do not depend on how the first edge is split
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    for g, k, cases in ((prism(5), 3, 46_656), (prism(3), 4, 331_776)):
        assert normalized_assignment_count(g, k) == cases
        assert is_dp_k_colorable(g, k, budget=cases, jobs=4) is True
        for jobs in (1, 2, 4):
            with pytest.raises(BudgetExceeded) as info:
                is_dp_k_colorable(g, k, budget=cases - 1, jobs=jobs)
            assert info.value.attempted == cases - 1


def test_choosability_even_cycles():
    assert is_k_choosable(cycle_graph(4), 2) is True
    assert is_k_choosable(cycle_graph(6), 2) is True


def test_choosability_triangle_certificate():
    cert = is_k_choosable(cycle_graph(3), 2)
    assert cert is not True
    assert cert.lists == ((0, 1), (0, 1), (0, 1))


def test_k24_smallest_non_2_choosable_bipartite():
    assert is_k_choosable(complete_bipartite(2, 3), 2) is True
    cert = is_k_choosable(complete_bipartite(2, 4), 2)
    assert cert is not True
    g = complete_bipartite(2, 4)
    lists, m = from_list_assignment(g, cert.lists)
    assert find_coloring(g, lists, m) is None


def test_choosability_matches_plain_enumeration():
    for g in connected_graphs(4):
        for k in (1, 2, 3):
            fast = is_k_choosable(g, k) is True
            slow = slow_choosable(g, k)
            assert fast == slow, (g.edges, k)
            assert (reference_choosable_scan(g, k) is True) == slow, (g.edges, k)


def test_choosability_matches_reference_scan():
    # witness reuse must not change the verdict, the first failing lists or
    # the attempted count of the plain scan
    for g in connected_graphs(5):
        for k in (1, 2, 3):
            for budget in (1, 7, 100, DEFAULT_BUDGET):
                want = outcome(g, lambda: reference_choosable_scan(g, k, budget))
                got = outcome(g, lambda: is_k_choosable(g, k, budget=budget))
                assert got == want, (g.edges, k, budget)


def test_choosability_witness_reuse_skips_most_searches(monkeypatch):
    calls = 0
    kernel = dpcolor.solver.search_positions

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(dpcolor.solver, "search_positions", counted)
    # 20,852 list systems, each one kernel call without witness reuse
    assert is_k_choosable(parse_graph6("Dr{"), 3) is True
    assert calls <= 500


def test_choosability_budget_counts_like_dp_adversary():
    # both adversaries check the budget before counting a case, so a search
    # stopped by budget B has attempted exactly B cases
    g = parse_graph6("Dr{")
    for budget in (0, 1, 5):
        with pytest.raises(BudgetExceeded) as lists:
            is_k_choosable(g, 3, budget=budget)
        with pytest.raises(BudgetExceeded) as matchings:
            is_dp_k_colorable(g, 3, budget=budget)
        assert lists.value.attempted == matchings.value.attempted == budget


def choosable_outcomes(g, k, stride):
    """reference_choosable_scan's outcome at every stride-th budget from 0
    to one past the verdict, and at those around the verdict and the
    list-system count.  As in reference_outcomes, the plain scan runs once
    without a limit; one that needs t list systems (all of them for True,
    the certificate's position in _list_systems order for a certificate)
    gives that verdict at every budget >= t and stops with exactly the
    budget below it.  The derivation is checked by a direct run at t - 1."""
    full = outcome(g, lambda: reference_choosable_scan(g, k))
    cases = needed = 0
    for seq in _list_systems(g, k):
        cases += 1
        lists = tuple(tuple(i for i, cls in enumerate(seq) if v in cls)
                      for v in range(g.n))
        if not needed and full == ("cert", lists):
            needed = cases
    needed = needed or cases
    budgets = set(range(0, needed + 2, stride))
    budgets |= {needed - 1, needed, needed + 1, cases, cases + 1}
    want = {b: full if b >= needed else ("budget", b) for b in budgets}
    below = needed - 1
    assert outcome(g, lambda: reference_choosable_scan(g, k, below)) == (
        "budget", below)
    return want


@pytest.mark.parametrize("g, k, stride", [
    (cycle_graph(4), 2, 1),
    (cycle_graph(4), 3, 1),
    (complete_bipartite(2, 3), 2, 1),
    (parse_graph6("Ds["), 2, 1),
    # 9,488 list systems: every 89th budget, and those around the end
    (complete_bipartite(2, 3), 3, 89),
    (parse_graph6("Ds["), 3, 89),
    # a certificate after 1,567 of 6,258 list systems
    (complete_bipartite(2, 4), 2, 7),
    # the walk prunes by 11 and 7 automorphisms: C6 has 1,688 list
    # systems at k = 2, and Dr{ 20,852 at k = 3
    (cycle_graph(6), 2, 7),
    (parse_graph6("Dr{"), 3, 149),
], ids=["C4-2", "C4-3", "K23-2", "Ds[-2", "K23-3", "Ds[-3", "K24-2", "C6-2",
        "Dr{-3"])
def test_every_choosability_budget_matches_reference_scan(g, k, stride):
    # budgets from 0 to one past the verdict, so a budget that runs out
    # inside a subtree counted without a walk is covered
    want = choosable_outcomes(g, k, stride)
    for budget in sorted(want):
        got = outcome(g, lambda: is_k_choosable(g, k, budget=budget))
        assert got == want[budget], (g.edges, k, budget)


def test_choosability_counts_covered_subtrees_without_walking():
    # a witness that fits every class chosen so far colors every leaf
    # below; counting those leaves instead of walking them takes Dr{ at
    # k = 3 from 41,053 rec and 20,852 leaf calls to 12,254 and 1,593
    # (6,199 and 995 with the automorphism pruning too)
    walk = {inner_code(is_k_choosable, "rec"),
            inner_code(is_k_choosable, "leaf")}
    verdict, steps = calls_of(
        walk, lambda: is_k_choosable(parse_graph6("Dr{"), 3))
    assert verdict is True
    assert steps <= 20_000


def test_choosability_prunes_by_automorphisms(monkeypatch):
    # an automorphism that fixes the classes chosen before and maps the
    # next one to an earlier class cuts its subtree: Dr{ (the wheel W4,
    # 8 automorphisms) at k = 3 takes 7,194 rec and leaf calls, against
    # 13,847 with no automorphisms
    walk = {inner_code(is_k_choosable, "rec"),
            inner_code(is_k_choosable, "leaf")}
    g = parse_graph6("Dr{")
    verdict, steps = calls_of(walk, lambda: is_k_choosable(g, 3))
    assert verdict is True
    assert steps <= 9_000
    monkeypatch.setattr(dpcolor.solver, "_automorphisms", lambda g: [])
    verdict, unpruned = calls_of(walk, lambda: is_k_choosable(g, 3))
    assert verdict is True
    assert unpruned > 9_000


def check_automorphisms(g):
    want = automorphisms_by_permutation(g)
    assert tuple(range(g.n)) in want
    got = _automorphisms(g)
    assert len(set(got)) == len(got)
    assert tuple(range(g.n)) not in got
    if len(want) - 1 <= _AUT_LIMIT:
        assert sorted(got) == sorted(p for p in want if p != tuple(range(g.n)))
    else:
        assert len(got) == _AUT_LIMIT
        assert set(got) <= set(want)


def test_automorphisms_match_permutation_oracle():
    for g in connected_graphs(6):
        check_automorphisms(g)
    # two components, one a copy of the other, and the edgeless graph
    check_automorphisms(from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5)]))
    check_automorphisms(from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4)]))
    check_automorphisms(from_edge_list([], n=5))
    assert _automorphisms(from_edge_list([], n=0)) == []


def test_automorphisms_are_bounded():
    # the edgeless graph on 10 vertices has 10! - 1 non-identity
    # automorphisms and K7 5,039; the list stops at _AUT_LIMIT = 64.  C1200
    # has 2,399, more vertices than the recursion limit: the search is a
    # loop
    assert _AUT_LIMIT == 64
    check_automorphisms(complete_graph(7))
    for g in (from_edge_list([], n=10), cycle_graph(1200)):
        got = _automorphisms(g)
        assert len(got) == _AUT_LIMIT
        assert tuple(range(g.n)) not in got
        for sigma in got:
            assert sorted(sigma) == list(range(g.n))
            assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges)


@pytest.mark.parametrize("g, k, want", [
    (from_edge_list([], n=10), 1, True),
    (complete_graph(7), 2, False),
], ids=["edgeless10-1", "K7-2"])
def test_choosability_is_quick_on_symmetric_graphs(g, k, want):
    # the automorphism list is bounded, so a graph with many of them costs
    # no more than one with _AUT_LIMIT
    start = time.perf_counter()
    verdict = is_k_choosable(g, k)
    assert time.perf_counter() - start < 1.0
    assert (verdict is True) == want


def test_chi_list_values():
    assert chi_list(cycle_graph(4)) == 2
    assert chi_list(cycle_graph(5)) == 3
    assert chi_list(complete_graph(4)) == 4
    assert chi_list(complete_graph(5)) == 5
    assert chi_list(complete_bipartite(2, 4)) == 3


def plain_chi_list(g):
    """chi_list without the core reduction: the least k from chi up that
    is_k_choosable accepts on the whole graph, else degeneracy + 1."""
    high = subset_degeneracy(g) + 1
    return next((k for k in range(chi(g), high)
                 if is_k_choosable(g, k) is True), high)


def searched_cores(monkeypatch, name="is_k_choosable"):
    """Record (vertices, edges, k) of every search by the solver function
    name that chi_list or chi_dp makes."""
    searched = []
    scan = getattr(dpcolor.solver, name)

    def spy(g, k, **options):
        searched.append((g.n, g.m, k))
        return scan(g, k, **options)

    monkeypatch.setattr(dpcolor.solver, name, spy)
    return searched


def test_chi_list_matches_plain_loop():
    for g in connected_graphs(5):
        assert chi_list(g) == plain_chi_list(g), g.edges


def test_chi_list_searches_only_the_core(monkeypatch):
    searched = searched_cores(monkeypatch)
    # K2,3 with pendant trees: a path and a star hang from its vertices
    g = with_pendant_paths(complete_bipartite(2, 3), [4], 3)
    g = from_edge_list(list(g.edges) + [(0, 8), (8, 9), (8, 10), (8, 11)])
    assert (g.n, subset_degeneracy(g)) == (12, 2)
    assert chi_list(g) == 2
    assert searched == [(5, 6, 2)]
    searched.clear()
    # K2,4 is not 2-choosable, and a pendant path keeps it that way
    g = with_pendant_paths(complete_bipartite(2, 4), [0], 2)
    assert chi_list(g) == 3
    assert searched == [(6, 8, 2)]
    searched.clear()
    # two K4s joined by a path: chi = 4 = degeneracy + 1 needs no search,
    # and the 3-core is the two K4s, each relabelled to 0..3
    g = from_edge_list(list(complete_graph(4).edges)
                       + [(4 + u, 4 + v) for u, v in complete_graph(4).edges]
                       + [(3, 8), (8, 9), (9, 4)])
    assert chi_list(g) == 4
    assert searched == []
    assert core_components(g, 3) == [complete_graph(4)] * 2
    assert core_components(g, 2) == [g]
    assert core_components(g, 4) == []


def test_chi_list_passes_the_budget_left_to_each_component(monkeypatch):
    # K2,3 and K2,4 side by side: at k = 2 the K2,3 component is settled
    # after its 709 list systems, and the K2,4 one fails after 1,568
    g = from_edge_list(list(complete_bipartite(2, 3).edges)
                       + [(5 + u, 5 + v)
                          for u, v in complete_bipartite(2, 4).edges])
    searched = searched_cores(monkeypatch)
    assert chi_list(g, budget=709 + 1568) == 3
    assert searched == [(5, 6, 2), (6, 8, 2)]
    for budget in (0, 708, 709, 709 + 1567):
        with pytest.raises(BudgetExceeded) as info:
            chi_list(g, budget=budget)
        assert info.value.attempted == budget


def test_chi_dp_searches_only_the_core(monkeypatch):
    searched = searched_cores(monkeypatch, "is_dp_k_colorable")
    # C4 with a pendant path: the 1-core is the whole graph, the 2-core the
    # C4, which is not DP-2-colorable, and the 3-core is empty
    g = with_pendant_paths(cycle_graph(4), [0], 2)
    assert chi_dp(g) == 3
    assert searched == [(6, 6, 1), (4, 4, 2)]
    searched.clear()
    # C5 x K2 and a vertex joined to 0 and 2: the 3-core is the prism
    g = parse_graph6("JheAHCPBL??")
    assert chi_dp(g) == 3
    assert searched == [(11, 17, 1), (11, 17, 2), (10, 15, 3)]
    searched.clear()
    # two K4s joined by a path: the 3-core is the two K4s, and the first
    # one refutes k = 3
    g = from_edge_list(list(complete_graph(4).edges)
                       + [(4 + u, 4 + v) for u, v in complete_graph(4).edges]
                       + [(3, 8), (8, 9), (9, 4)])
    assert chi_dp(g) == 4
    assert searched == [(10, 15, 1), (10, 15, 2), (4, 6, 3)]


def test_dp_scan_of_a_colorable_graph_attempts_every_case():
    # chi_dp subtracts normalized_assignment_count for a component found
    # colorable, so that count must be what its scan attempted
    for g in connected_graphs(5):
        for k in (1, 2, 3):
            if is_dp_k_colorable(g, k) is not True:
                continue
            count = normalized_assignment_count(g, k)
            assert is_dp_k_colorable(g, k, budget=count) is True
            with pytest.raises(BudgetExceeded):
                is_dp_k_colorable(g, k, budget=count - 1)


def test_chi_dp_passes_the_budget_left_to_each_component(monkeypatch):
    # the triangular prism and K4 side by side: at k = 3 the prism is
    # settled after its 1,296 cases, and K4 fails at its first
    g = from_edge_list(list(prism(3).edges)
                       + [(6 + u, 6 + v) for u, v in complete_graph(4).edges])
    searched = searched_cores(monkeypatch, "is_dp_k_colorable")
    assert chi_dp(g, budget=1296 + 1) == 4
    assert searched[-2:] == [(6, 9, 3), (4, 6, 3)]
    for budget in (0, 1295, 1296):
        with pytest.raises(BudgetExceeded) as info:
            chi_dp(g, budget=budget)
        assert info.value.attempted == budget


def test_choosability_bound_guard():
    # no vertex bound: the case budget alone bounds the search
    assert is_k_choosable(cycle_graph(8), 2) is True


def burnside_orbits(k, m):
    """(1/k!) * sum over pi of |C(pi)|^m: the number of m-sequences of
    permutations up to simultaneous conjugation, by Burnside's lemma."""
    perms = list(itertools.permutations(range(k)))

    def compose(p, q):
        return tuple(p[q[c]] for c in range(k))

    total = sum(sum(compose(p, q) == compose(q, p) for q in perms) ** m
                for p in perms)
    assert total % len(perms) == 0
    return total // len(perms)


def kept_sequences(orbits, m):
    """Walk every sequence of m permutation indices through the orbit rows
    the DP adversary uses, and count those no row marks as skipped."""
    nperm = len(orbits.perms)

    def count(eq, left):
        row = orbits[eq]
        if left == 1:
            return sum(row[i] >= 0 for i in range(nperm))
        return sum(count(row[i], left - 1) for i in range(nperm)
                   if row[i] >= 0)

    return count(orbits.start, m)


def test_gauge_orbits_keep_one_sequence_per_burnside_orbit():
    for k, m, orbits, cases in ((3, 7, 47_449, 279_936),
                                (3, 8, 282_251, 1_679_616),
                                (4, 3, 681, 13_824)):
        assert math.factorial(k) ** m == cases
        assert burnside_orbits(k, m) == orbits
        assert kept_sequences(_GaugeOrbits(k), m) == orbits, (k, m)


def test_gauge_orbits_keep_exactly_the_least_conjugate():
    # by brute force over every sequence: a sequence survives every row on
    # its path exactly when no simultaneous conjugate is smaller
    for k, m in ((3, 4), (4, 2)):
        orbits = _GaugeOrbits(k)
        perms = list(itertools.permutations(range(k)))
        position = {p: i for i, p in enumerate(perms)}
        for seq in itertools.product(range(len(perms)), repeat=m):
            eq, kept = orbits.start, True
            for i in seq:
                eq = orbits[eq][i]
                if eq < 0:
                    kept = False
                    break
            images = []
            for pi in perms:
                # pi s pi^-1 sends pi[a] to pi[s[a]]
                conjugates = []
                for i in seq:
                    image = [0] * k
                    for a, b in enumerate(perms[i]):
                        image[pi[a]] = pi[b]
                    conjugates.append(position[tuple(image)])
                images.append(tuple(conjugates))
            assert kept == (min(images) == seq), (k, seq)


class SerialPool:
    """Stands in for ProcessPoolExecutor: the blocks run one after another
    in this process, through the same split and merge."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def reference_outcomes(g, k, budgets):
    """reference_dp_scan's outcome at each budget.  The plain scan is run
    once without a limit; one that needs t cases (all of them for True, the
    certificate's position in itertools.product order for a certificate)
    gives that verdict at every budget >= t and stops with exactly the
    budget below it.  The derivation is checked against direct runs of
    reference_dp_scan around t."""
    full = outcome(g, lambda: reference_dp_scan(g, k))
    cases = normalized_assignment_count(g, k)
    nontree = sorted(set(g.edges) - _dfs_forest(g))
    perms = list(itertools.permutations(range(k)))
    if full[0] == "ok":
        needed = cases
    else:
        matching, _ = parse_matching_file(full[1], g)
        needed = 0
        for u, v in nontree:
            sigma = tuple(b for _, b in matching.pairs(u, v))
            needed = needed * len(perms) + perms.index(sigma)
        needed += 1
    want = {b: full if b >= needed else ("budget", b) for b in budgets}
    for b in {0, needed - 1, needed} & set(budgets):
        assert outcome(g, lambda: reference_dp_scan(g, k, b)) == want[b]
    return want


def test_every_budget_matches_reference_scan(monkeypatch):
    # every budget from 0 to one past the case count, so a budget that runs
    # out inside a skipped subtree, at every depth, is covered; jobs = 2
    # runs the block split and merge with the blocks in this process
    monkeypatch.setattr(dpcolor.solver, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    for g in (complete_graph(4), prism(3), parse_graph6("Dr{")):
        assert g.m - g.n + 1 >= 3
        budgets = range(normalized_assignment_count(g, 3) + 2)
        want = reference_outcomes(g, 3, budgets)
        for jobs in (1, 2):
            for budget in budgets:
                got = outcome(g, lambda: is_dp_k_colorable(
                    g, 3, budget=budget, jobs=jobs))
                assert got == want[budget], (g.edges, budget, jobs)


def test_late_certificate_budgets_match_reference_scan(monkeypatch):
    # a first certificate past many skipped subtrees, with a real pool
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    g = parse_graph6("Es^o")
    cases = normalized_assignment_count(g, 3)
    assert cases == 7_776
    first = 4_033  # the first certificate's position in the plain scan
    budgets = (0, 1, 7, 36, 37, 216, 217, 1296, 1297, first - 1, first,
               cases)
    want = reference_outcomes(g, 3, budgets)
    assert want[first - 1] == ("budget", first - 1)
    assert want[first][0] == "cert"
    for budget in budgets:
        for jobs in (1, 2):
            got = outcome(g, lambda: is_dp_k_colorable(
                g, 3, budget=budget, jobs=jobs))
            assert got == want[budget], (budget, jobs)


def test_k4_matches_reference_scan(monkeypatch):
    # k = 4 has 24 permutations per edge and a conjugation group of 24;
    # jobs 2 to 5 run the block split and merge with the blocks in this
    # process, and the outcome must not depend on jobs
    monkeypatch.setattr(dpcolor.solver, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    for g in (cycle_graph(4), complete_bipartite(2, 3), parse_graph6("Ds{"),
              complete_graph(4)):
        assert g.m - g.n + 1 <= 3
        budgets = (1, 100, DEFAULT_BUDGET)
        want = reference_outcomes(g, 4, budgets)
        for budget in budgets:
            for jobs in (1, 2, 3, 5):
                got = outcome(g, lambda: is_dp_k_colorable(
                    g, 4, budget=budget, jobs=jobs))
                assert got == want[budget], (g.edges, budget, jobs)


@pytest.mark.parametrize("k, kept", [(3, [0, 1, 3]), (4, [0, 1, 3, 7, 9])])
def test_first_edge_blocks_hold_kept_choices(k, kept):
    # the gauge pruning keeps one first choice per conjugacy class; the
    # blocks cover every index in order, and each holds as many kept
    # choices as the others, to one, so none is left without work
    orbits = _GaugeOrbits(k)
    row = orbits[orbits.start]
    nperm = math.factorial(k)
    assert [i for i in range(nperm) if row[i] >= 0] == kept
    for jobs in (2, 3, 4, 5):
        blocks = _first_edge_blocks(k, jobs)
        assert len(blocks) == min(jobs, len(kept)), (k, jobs)
        assert [i for block in blocks for i in block] == list(range(nperm))
        held = [sum(i in block for i in kept) for block in blocks]
        assert min(held) >= 1 and max(held) - min(held) <= 1, (k, jobs, held)
