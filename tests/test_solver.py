import functools
import inspect
import itertools
import math
import sys
import time
from pathlib import Path

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
    cycle_graph,
    delete_vertices,
    encode_graph6,
    find_coloring,
    format_matching_file,
    from_edge_list,
    from_list_assignment,
    is_dp_k_colorable,
    is_k_choosable,
    k_core,
    normalized_assignment_count,
    parse_graph6,
    parse_matching_file,
    path_graph,
    uniform_lists,
)
from dpcolor.solver import (_AT_LIMIT, _AUT_LIMIT, _ClassGroups,
                            _GaugeOrbits, _alon_tarsi, _automorphisms,
                            _breadth_first, _choosability_walk,
                            _core_components, _count_list_systems,
                            _scan_block, _settle, _settle_choosable,
                            _two_choosable)
from dpcolor.dp import search_positions
from oracles import (_dfs_forest, _list_systems, alon_tarsi_certifies,
                     automorphisms_by_permutation, brute_k_colorable,
                     reference_choosable_scan, reference_core_components,
                     reference_dp_scan, reference_search_positions,
                     slow_choosable, slow_dp_f_verdict, slow_dp_verdict,
                     subset_degeneracy)
import oracles
from fixtures import with_pendant_paths
from smallgraphs import connected_graphs, labelled_graphs


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


def line_runs(func, text, call):
    """call()'s result and the number of times the line of func that reads
    text runs, counted with a line tracer on func's frames."""
    lines, first = inspect.getsourcelines(func)
    line = first + next(i for i, t in enumerate(lines) if t.strip() == text)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == line:
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is func.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


def kernel_calls(call):
    """call()'s result and the input of each dp.search_positions call the
    solver makes during it, in order: the sizes and the partner tables."""
    calls = []
    kernel = dpcolor.solver.search_positions

    def spy(adj, sizes, part):
        calls.append((tuple(sizes), {dart: tuple(partners)
                                     for dart, partners in part.items()}))
        return kernel(adj, sizes, part)

    dpcolor.solver.search_positions = spy
    try:
        result = call()
    finally:
        dpcolor.solver.search_positions = kernel
    return result, calls


def walk_steps(call):
    """call()'s result, the nodes its orderly walks enter and the leaves
    offered there, which are the leaves examined when no walk stops
    early."""
    steps = [0, 0]
    walk = dpcolor.solver._orderly_walk

    def counted(orbits, expand, *rest):
        def expand_counted(d, path):
            leaves, inner = expand(d, path)
            steps[0] += 1
            steps[1] += len(leaves)
            return leaves, inner

        return walk(orbits, expand_counted, *rest)

    dpcolor.solver._orderly_walk = counted
    try:
        return (call(), *steps)
    finally:
        dpcolor.solver._orderly_walk = walk


def test_chi_fixes_the_clique_colors_on_mycielski5():
    # 23 vertices, clique number 2, chi 5: refuting k = 2, 3 and 4 without
    # the clique's colors fixed tries every partial coloring again under
    # each relabeling of its colors.  A step of the backtracker is one
    # position tried, a run of the line that sets chosen[v]: 31,160 steps
    # with every vertex on k positions, 1,424 with the clique fixed
    g = mycielskian(mycielskian(mycielskian(path_graph(2))))
    assert (g.n, g.m) == (23, 71)
    value, steps = line_runs(search_positions, "chosen[v] = i",
                             lambda: chi(g))
    assert value == 5
    assert 0 < steps <= 3_000


def test_kernel_matches_the_recursive_reference_on_the_solver_calls(
        monkeypatch):
    # every call the solver makes while chi, chi_dp and chi_list run on the
    # connected graphs with at most 6 vertices, and the list walk at k = 2
    # on them and at k = 3 on those with at most 5: 5,316 calls.  chi_dp
    # stops at its default budget on Er~o and Er~w.  chi_list walks no list
    # system here: the Alon-Tarsi theorem settles every component from k = 3
    same, stopped = [], set()
    kernel = dpcolor.solver.search_positions

    def compared(adj, sizes, part):
        found = kernel(adj, sizes, part)
        same.append(found == reference_search_positions(adj, sizes, part))
        return found

    monkeypatch.setattr(dpcolor.solver, "search_positions", compared)
    for g in connected_graphs(6):
        chi(g)
        for search in (chi_dp, chi_list):
            try:
                search(g)
            except BudgetExceeded:
                stopped.add(g)
        for k in (2, 3) if g.n <= 5 else (2,):
            is_k_choosable(g, k)
    assert stopped == {parse_graph6("Er~o"), parse_graph6("Er~w")}
    assert len(same) > 5_000 and all(same)


def core_components(g, k):
    """The components of g's k-core as _settle builds them."""
    masks = g.masks
    return [core for _, core in _core_components(masks, k_core(masks, k))]


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
    # the bitmask peel against the adjacency-set one, on every labelled
    # graph with at most 6 vertices, connected or not, and the components
    # built from it on the census
    for g in labelled_graphs(6):
        for k in range(1, 6):
            want = reference_core_components(g, k)
            assert k_core(g.masks, k) == sum(1 << v for comp in want
                                             for v in comp), (g.edges, k)
    for g in connected_graphs(6):
        for k in range(1, 6):
            assert core_components(g, k) == [
                delete_vertices(g, set(range(g.n)) - set(comp))[0]
                for comp in reference_core_components(g, k)], (g.edges, k)


def test_dp_c4_k2_certificate_has_one_twisted_edge():
    cert = is_dp_k_colorable(cycle_graph(4), 2)
    assert cert is not True and cert.kind == "dp"
    g = cycle_graph(4)
    twisted = [e for e in g.edges
               if cert.matching.pairs(*e) != ((0, 0), (1, 1))]
    assert len(twisted) == 1
    # replay: the certificate really admits no coloring
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


def test_witness_reuse_skips_most_searches():
    g = prism(5)
    assert normalized_assignment_count(g, 3) == 46_656
    verdict, calls = kernel_calls(lambda: is_dp_k_colorable(g, 3))
    assert verdict is True
    assert len(calls) <= 100


@pytest.mark.parametrize("g6, search, searched, opened, offered", [
    # the two colorable hard-dp instances of the benchmark: 10,077,696 and
    # 46,656 assignments, about one leaf in 3! offered
    ("K{CY?SBG?G_F", is_dp_k_colorable, 74, 9_759, 48_306),
    ("IheAHCPBG", is_dp_k_colorable, 34, 1_708, 8_358),
    # 20,852 list systems
    ("Dr{", is_k_choosable, 207, 6_199, 995),
], ids=["truncated-tetrahedron", "C5xK2", "Dr{"])
def test_kernel_calls_at_k3_are_pinned(g6, search, searched, opened, offered):
    # the walk reuses witnesses and skips covered and cut subtrees: each
    # kernel call is a leaf that none of that settles.  The counts are
    # exact, so a change to the walk's bookkeeping that opens or offers
    # more, or searches more leaves, shows here
    g = parse_graph6(g6)
    verdict, calls = kernel_calls(lambda: search(g, 3))
    assert verdict is True
    assert len(calls) == searched
    assert walk_steps(lambda: search(g, 3)) == (True, opened, offered)


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

    monkeypatch.setattr(dpcolor.solver, "_pool", no_pool)
    g = prism(5)
    assert normalized_assignment_count(g, 3) // 6 < dpcolor.solver._POOL_MIN_WORK
    assert is_dp_k_colorable(g, 3, jobs=2) is True
    with pytest.raises(BudgetExceeded) as info:
        is_dp_k_colorable(g, 3, budget=46_655, jobs=2)
    assert info.value.attempted == 46_655


def test_spaces_past_the_budget_open_no_pool(monkeypatch):
    # a scan past its budget stops within one budget of cases in this
    # process, where every block would do up to that much and the pool
    # would wait for all of them; a space within the budget still splits
    def no_pool(max_workers):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(dpcolor.solver, "_pool", no_pool)
    k5 = complete_graph(5)  # 24^6 cases, past the default budget
    assert normalized_assignment_count(k5, 4) > DEFAULT_BUDGET
    assert is_dp_k_colorable(k5, 4, jobs=2) == is_dp_k_colorable(k5, 4)
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    g = prism(5)
    with pytest.raises(BudgetExceeded) as info:
        is_dp_k_colorable(g, 3, budget=46_655, jobs=2)
    assert info.value.attempted == 46_655
    with pytest.raises(AssertionError, match="a pool was opened"):
        is_dp_k_colorable(g, 3, budget=46_656, jobs=2)


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


def test_choosability_witness_reuse_skips_most_searches():
    # 20,852 list systems, each one kernel call without witness reuse
    verdict, calls = kernel_calls(
        lambda: is_k_choosable(parse_graph6("Dr{"), 3))
    assert verdict is True
    assert len(calls) <= 500


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
    # k = 3 from 41,053 nodes and 20,852 leaves to 12,254 and 1,593
    # (6,199 and 995 with the automorphism pruning too)
    verdict, nodes, leaves = walk_steps(
        lambda: is_k_choosable(parse_graph6("Dr{"), 3))
    assert verdict is True
    assert nodes + leaves <= 20_000


def test_choosability_prunes_by_automorphisms(monkeypatch):
    # an automorphism that fixes the classes chosen before and maps the
    # next one to an earlier class cuts its subtree: Dr{ (the wheel W4,
    # 8 automorphisms) at k = 3 enters 6,199 nodes and examines 995
    # leaves, 7,194 in all, against 13,847 with no automorphisms
    g = parse_graph6("Dr{")
    verdict, nodes, leaves = walk_steps(lambda: is_k_choosable(g, 3))
    assert verdict is True
    assert nodes + leaves <= 9_000
    monkeypatch.setattr(dpcolor.solver, "_automorphisms", lambda g: [])
    verdict, nodes, leaves = walk_steps(lambda: is_k_choosable(g, 3))
    assert verdict is True
    assert nodes + leaves > 9_000


def test_choosability_lists_classes_on_first_use():
    # the uniform 1-list system of a path fails at its first leaf, which
    # needs only the classes of vertex 0, 700 of the 245,350
    g = path_graph(700)
    start = time.perf_counter()
    cert = is_k_choosable(g, 1)
    assert time.perf_counter() - start < 0.5
    assert cert.lists == ((0,),) * 700


def test_class_helpers_do_not_recurse():
    # a path on 100 vertices has 100 classes with least vertex 0 and 2^99
    # list systems at k = 1; the edgeless graph on 100 vertices has one,
    # of 100 classes, so its count goes 100 classes deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        for g, count in ((path_graph(100), 2 ** 99),
                         (from_edge_list([], n=100), 1)):
            groups = _ClassGroups(g, 1)
            assert len(groups[0]) == (100 if g.m else 1)
            left = (1 << 100) - 1  # every vertex needs one class
            assert _count_list_systems(groups, left, 0, {}) == count
    finally:
        sys.setrecursionlimit(limit)


def test_chi_does_not_recurse():
    # the largest clique of K100 and a 3-coloring of C1201 each go a frame
    # per vertex deep: the clique search and the backtracker are loops
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        assert dpcolor.solver._max_clique(complete_graph(100)) == list(
            range(100))
        assert chi(cycle_graph(1201)) == 3
    finally:
        sys.setrecursionlimit(limit)


def check_automorphisms(g):
    # the list, order included: the non-identity automorphisms in the
    # lexicographic order of their images read along the breadth-first
    # order, cut at _AUT_LIMIT
    identity = tuple(range(g.n))
    order = _breadth_first(g)
    want = sorted((p for p in automorphisms_by_permutation(g)
                   if p != identity), key=lambda p: [p[v] for v in order])
    assert _automorphisms(g) == want[:_AUT_LIMIT]


def test_automorphisms_match_permutation_oracle():
    for g in connected_graphs(6):
        check_automorphisms(g)
    # two components, one a copy of the other, and the edgeless graph
    check_automorphisms(from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5)]))
    check_automorphisms(from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4)]))
    check_automorphisms(from_edge_list([], n=5))
    assert _automorphisms(from_edge_list([], n=0)) == []
    # a 5-cycle labelled 0, 2, 1, 4, 3 around, where the breadth-first
    # order 0, 2, 3, 1, 4 sorts its automorphisms unlike the labels do
    assert _breadth_first(parse_graph6("D[S")) == [0, 2, 3, 1, 4]
    check_automorphisms(parse_graph6("D[S"))


def test_automorphisms_are_bounded():
    # the edgeless graph on 10 vertices has 10! - 1 non-identity
    # automorphisms and K7 5,039; the list stops at _AUT_LIMIT = 64.  C1200
    # has 2,399, more vertices than the recursion limit: the search is a
    # loop.  Along its breadth-first order 0, 1, 1199, 2, ... they come as
    # x -> a - x before x -> a + x, a = 0, 1, ...
    assert _AUT_LIMIT == 64
    check_automorphisms(complete_graph(7))
    assert _automorphisms(from_edge_list([], n=10)) == list(
        itertools.islice(itertools.permutations(range(10)), 1, 65))
    assert _automorphisms(cycle_graph(1200)) == [
        tuple((a + s * x) % 1200 for x in range(1200))
        for a in range(33) for s in (-1, 1) if (a, s) != (0, 1)][:64]


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


def searched_cores(monkeypatch):
    """Record (kind, vertices, edges, k) of every adversary scan, kind
    "dp" or "list", and of every Alon-Tarsi check, kind "at", that chi_list
    or chi_dp makes, in order."""
    searched = []
    for kind, name in (("dp", "is_dp_k_colorable"),
                       ("list", "_choosability_walk"), ("at", "_alon_tarsi")):
        scan = getattr(dpcolor.solver, name)

        def spy(g, k, *args, kind=kind, scan=scan, **options):
            searched.append((kind, g.n, g.m, k))
            return scan(g, k, *args, **options)

        monkeypatch.setattr(dpcolor.solver, name, spy)
    return searched


def test_chi_list_matches_plain_loop():
    for g in connected_graphs(5):
        assert chi_list(g) == plain_chi_list(g), g.edges


def test_chi_list_searches_only_the_core(monkeypatch):
    searched = searched_cores(monkeypatch)
    # the wheel W4 (Dr{) with pendant trees: a path and a star hang from
    # its vertices, and the 3-core is the W4, which the Alon-Tarsi theorem
    # settles
    g = with_pendant_paths(parse_graph6("Dr{"), [4], 3)
    g = from_edge_list(list(g.edges) + [(0, 8), (8, 9), (8, 10), (8, 11)])
    assert (g.n, subset_degeneracy(g)) == (12, 3)
    assert chi_list(g) == 3
    assert searched == [("at", 5, 8, 3)]
    searched.clear()
    # k = 2 is settled without a search: K2,3 with the same pendant trees
    # is 2-choosable, and K2,4 is not, and a pendant path keeps it that
    # way; the 3-core of each is empty
    g = with_pendant_paths(complete_bipartite(2, 3), [4], 3)
    g = from_edge_list(list(g.edges) + [(0, 8), (8, 9), (8, 10), (8, 11)])
    assert (g.n, subset_degeneracy(g)) == (12, 2)
    assert chi_list(g) == 2
    g = with_pendant_paths(complete_bipartite(2, 4), [0], 2)
    assert chi_list(g) == 3
    assert searched == []
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


def no_alon_tarsi(monkeypatch):
    """Leave every component from k = 3 to the list walk."""
    monkeypatch.setattr(dpcolor.solver, "_alon_tarsi", lambda g, k: None)


def test_chi_list_passes_the_budget_left_to_each_component(monkeypatch):
    # two wheels W4 (Dr{) side by side: the Alon-Tarsi theorem settles
    # each at k = 3 with none of the budget.  Without it, the walk settles
    # the first after its 20,852 list systems, and the second needs as many
    w4 = parse_graph6("Dr{")
    g = from_edge_list(list(w4.edges) + [(5 + u, 5 + v) for u, v in w4.edges])
    searched = searched_cores(monkeypatch)
    assert chi_list(g, budget=0) == 3
    assert searched == [("at", 5, 8, 3), ("at", 5, 8, 3)]
    no_alon_tarsi(monkeypatch)
    searched.clear()
    assert chi_list(g, budget=2 * 20_852) == 3
    assert searched == [("list", 5, 8, 3), ("list", 5, 8, 3)]
    for budget in (0, 20_851, 20_852, 20_852 + 20_851):
        with pytest.raises(BudgetExceeded) as info:
            chi_list(g, budget=budget)
        assert info.value.attempted == budget
    # K2,3 and K2,4 side by side: k = 2 is settled on each component with
    # no search, so it takes none of the budget
    g = from_edge_list(list(complete_bipartite(2, 3).edges)
                       + [(5 + u, 5 + v)
                          for u, v in complete_bipartite(2, 4).edges])
    searched.clear()
    assert chi_list(g, budget=0) == 3
    assert searched == []


def test_chi_list_falls_back_to_the_walk_after_a_dp_certificate(monkeypatch):
    # Es^o is 3-choosable but not DP-3-colorable, so no DP scan settles it.
    # The Alon-Tarsi theorem does, with none of the budget; without it the
    # list walk settles it on the budget, after its 738,965 list systems
    g = parse_graph6("Es^o")
    assert chi(g) == 3 and core_components(g, 3) == [g]
    assert is_dp_k_colorable(g, 3) is not True
    searched = searched_cores(monkeypatch)
    assert chi_list(g, budget=0) == 3
    assert searched == [("at", 6, 10, 3)]
    no_alon_tarsi(monkeypatch)
    searched.clear()
    total = 738_965
    assert chi_list(g, budget=total) == 3
    assert searched == [("list", 6, 10, 3)]
    for budget in (0, total // 2, total - 1):
        with pytest.raises(BudgetExceeded) as info:
            chi_list(g, budget=budget)
        assert info.value.attempted == budget


def list_system_count(g, k):
    """Every list system of g at k, by _count_list_systems."""
    return _count_list_systems(_ClassGroups(g, k), (1 << g.n * k) - 1, 0, {})


def test_settle_choosable_matches_the_walk(monkeypatch):
    # the Alon-Tarsi theorem settles each of these 3-cores with no search
    # and none of the budget, Euhw and Es^o though neither is
    # DP-3-colorable.  Without it the walk settles the first three, and a
    # walk that says yes has attempted every list system
    searched = searched_cores(monkeypatch)
    for g6 in ("Dr{", "Dvw", "Dl{", "Es\\o", "Eqlo", "Euhw", "Es^o"):
        (core,) = core_components(parse_graph6(g6), 3)
        searched.clear()
        assert _settle_choosable(core, 3, 0) == (True, 0), g6
        assert searched == [("at", core.n, core.m, 3)], g6
    no_alon_tarsi(monkeypatch)
    for g6 in ("Dr{", "Dvw", "Dl{"):
        (core,) = core_components(parse_graph6(g6), 3)
        assert _settle_choosable(core, 3, DEFAULT_BUDGET) == (
            True, list_system_count(core, 3)), g6


def scan_place(g, k, monkeypatch):
    """The certificate's place, from 1, in the plain scan: the number of
    find_coloring calls reference_dp_scan makes before it returns."""
    calls = []

    def counted(*args):
        calls.append(args)
        return find_coloring(*args)

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "find_coloring", counted)
        found = reference_dp_scan(g, k)
    assert found is not True
    return len(calls), format_matching_file(found, g)


def test_certificate_place_is_the_attempted_count(monkeypatch):
    # a DP scan that returns a certificate attempted exactly the cases up
    # to its place in the plain scan
    for g in connected_graphs(5):
        for k in (2, 3):
            cert = is_dp_k_colorable(g, k)
            if cert is True:
                continue
            place, text = scan_place(g, k, monkeypatch)
            assert format_matching_file(cert.matching, g) == text
            assert is_dp_k_colorable(g, k, budget=place) == cert
            with pytest.raises(BudgetExceeded) as info:
                is_dp_k_colorable(g, k, budget=place - 1)
            assert info.value.attempted == place - 1


def theta(*lengths):
    """Two vertices, 0 and 1, joined by internally disjoint paths of the
    given lengths."""
    edges, n = [], 2
    for length in lengths:
        path = [0] + list(range(n, n + length - 1)) + [1]
        n += length - 1
        edges += zip(path, path[1:])
    return from_edge_list(edges, n=n)


def two_cores(max_n):
    return [core for g in connected_graphs(max_n)
            for core in core_components(g, 2)]


def test_two_choosable_matches_the_slow_oracle():
    for core in two_cores(5):
        assert _two_choosable(core) == slow_choosable(core, 2), core.edges


def test_two_choosable_matches_the_walk():
    for core in two_cores(7):
        assert _two_choosable(core) == (is_k_choosable(core, 2) is True), \
            core.edges


def test_two_choosable_families():
    # Erdos, Rubin and Taylor: even cycles and theta_{2,2,2m} are the
    # 2-choosable graphs of minimum degree 2
    for m in range(2, 9):
        assert _two_choosable(cycle_graph(2 * m))
        assert _two_choosable(theta(2, 2, 2 * m - 2))
    assert is_k_choosable(theta(2, 2, 4), 2) is True
    c4 = list(cycle_graph(4).edges)
    dumbbell = from_edge_list(c4 + [(4 + u, 4 + v) for u, v in c4] + [(0, 4)])
    negatives = [complete_bipartite(2, 4), theta(1, 3, 3), theta(2, 4, 4),
                 theta(2, 2, 3), dumbbell]
    negatives += [cycle_graph(2 * m + 1) for m in range(1, 8)]
    for g in negatives:
        assert not _two_choosable(g), g.edges
    assert is_k_choosable(theta(1, 3, 3), 2) is not True
    assert is_k_choosable(dumbbell, 2) is not True


def test_chi_list_settles_two_without_a_search(monkeypatch):
    searched = searched_cores(monkeypatch)
    assert chi_list(theta(2, 2, 40), budget=0) == 2
    assert chi_list(cycle_graph(300), budget=0) == 2
    assert searched == []


def certified_exponents(g, k):
    """The first exponent vector, in itertools.product order, that the
    Eulerian-orientation oracle certifies for g at k, or None."""
    return next((exponents
                 for exponents in itertools.product(range(k), repeat=g.n)
                 if sum(exponents) == g.m
                 and alon_tarsi_certifies(g, k, exponents)), None)


def alon_tarsi_yes(g, k):
    """Assert that _alon_tarsi says yes for g at k and the oracle finds a
    vector; return that vector."""
    assert _alon_tarsi(g, k), (g.edges, k)
    exponents = certified_exponents(g, k)
    assert exponents is not None, (g.edges, k)
    return exponents


def test_alon_tarsi_families():
    # Alon-Tarsi numbers: 2 for even cycles; 3 for odd cycles, K2,4, K3,3
    # and the planar bipartite C4xK2 (at most 3, Alon and Tarsi); 4 for K4,
    # whose graph polynomial is the Vandermonde determinant, with a
    # monomial for each ordering of the exponents 0..3
    for m in range(2, 6):
        alon_tarsi_yes(cycle_graph(2 * m), 2)
    for g in ([cycle_graph(2 * m + 1) for m in range(1, 5)]
              + [complete_bipartite(2, 4), complete_bipartite(3, 3),
                 prism(4)]):
        assert not _alon_tarsi(g, 2), g.edges
        alon_tarsi_yes(g, 3)
    assert not _alon_tarsi(complete_graph(4), 3)
    assert alon_tarsi_yes(complete_graph(4), 4) == (0, 1, 2, 3)
    # the oracle refutes a wrong vector: the all-ones one of C5, whose
    # coefficient is 0; a K4 vector with an exponent past k - 1, or with
    # exponents that are not out-degrees of any orientation
    assert not alon_tarsi_certifies(cycle_graph(5), 2, (1,) * 5)
    assert not alon_tarsi_certifies(complete_graph(4), 3, (3, 2, 1, 0))
    assert not alon_tarsi_certifies(complete_graph(4), 4, (3, 2, 1, 1))
    assert not alon_tarsi_certifies(complete_graph(4), 4, (3, 3, 0, 0))


def test_alon_tarsi_gives_up_past_its_limit(monkeypatch):
    # K3,3 at k = 3 keeps at most 26 monomials after an edge: a limit of
    # 26 lets the expansion finish, 25 stops it.  With no monomial kept,
    # chi_list leaves the W4 to the list walk and gets the same value
    assert _AT_LIMIT == 50_000
    g = complete_bipartite(3, 3)
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", 26)
    alon_tarsi_yes(g, 3)
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", 25)
    assert _alon_tarsi(g, 3) is None
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", 0)
    searched = searched_cores(monkeypatch)
    assert chi_list(parse_graph6("Dr{")) == 3
    assert searched == [("at", 5, 8, 3), ("list", 5, 8, 3)]


@pytest.mark.parametrize("g, k, order, peak", [
    (petersen(), 3, [0, 1, 4, 5, 2, 6, 3, 9, 7, 8], 180),
    (parse_graph6("Dr{"), 3, [0, 1, 2, 4, 3], 13),
    (parse_graph6("Fs^ro"), 4, [0, 1, 2, 3, 5, 4, 6], 133),
], ids=["petersen", "Dr{", "Fs^ro"])
def test_alon_tarsi_multiplies_edges_breadth_first(monkeypatch, g, k, order,
                                                   peak):
    # the expansion takes the edges by the later end in the breadth-first
    # order that _automorphisms reads maps along; the most monomials a step
    # keeps is pinned, as the vertex labels' order would keep 90, 26 and
    # 236 on these graphs
    assert _breadth_first(g) == order
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", peak)
    assert _alon_tarsi(g, k) is not None
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", peak - 1)
    assert _alon_tarsi(g, k) is None


def test_alon_tarsi_says_yes_exactly_where_the_oracle_finds_a_vector():
    # every connected graph with at most 6 vertices at k = 2, 3 and 4: the
    # weighted sum is not 0 exactly when some exponent vector has a
    # nonzero coefficient by the Eulerian-orientation oracle, so no
    # cancellation among the weights lost a yes
    yes = 0
    for g in connected_graphs(6):
        for k in (2, 3, 4):
            found = certified_exponents(g, k) is not None
            assert bool(_alon_tarsi(g, k)) == found, (g.edges, k)
            yes += found
    assert yes == 265


def test_alon_tarsi_settles_cubic_graphs(monkeypatch):
    # a connected graph other than a complete graph or an odd cycle has
    # Alon-Tarsi number at most its maximum degree (Hladky, Kral and
    # Schauz, 2010), so every cubic one but K4 is 3-choosable by it.
    # C9xK2 and C10xK2 keep at most 135 monomials a step, and the 3-core of
    # each is the whole graph.  chi_list found 3 for C9xK2 before the
    # theorem, by a DP scan of its 6^10 normalized covers, and ran out of
    # the default budget on C10xK2
    for g in (petersen(), prism(3), prism(5), prism(6), prism(9), prism(10)):
        assert _alon_tarsi(g, 3), g.edges
    for m in (9, 10):
        assert chi_list(prism(m), budget=0) == 3
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", 135)
    assert _alon_tarsi(prism(10), 3)
    monkeypatch.setattr(dpcolor.solver, "_AT_LIMIT", 134)
    assert _alon_tarsi(prism(10), 3) is None


def test_alon_tarsi_agrees_with_the_slow_oracle():
    # every yes on a connected graph with at most 5 vertices at k = 2 or 3
    # whose k-core is not empty: C4, alone and with a pendant vertex (DqW),
    # at 2 and the wheel W4 (Dr{) at 3.  Past the degeneracy every graph is
    # k-choosable, and slow_choosable would enumerate every list system to
    # say so
    yes = []
    for g in connected_graphs(5):
        for k in (2, 3):
            if k_core(g.masks, k) and _alon_tarsi(g, k):
                assert slow_choosable(g, k), (g.edges, k)
                yes.append((g.n, g.m, k))
    assert yes == [(4, 4, 2), (5, 5, 2), (5, 8, 3)]


def test_alon_tarsi_never_says_yes_where_the_walk_says_no():
    # every connected graph with at most 6 vertices at k = 2, 3 and 4: the
    # theorem says yes at every k past the degeneracy.  Where the k-core is
    # not empty, the walk finds no certificate where the theorem says yes.
    # A graph that the walk finds k-choosable is so at every larger k, so
    # the walk runs at the least k the theorem says yes at, on 2 * 10^6
    # list systems: only Er~w at k = 4 has more (76,828,181), and
    # test_chi_list_keeps_its_values_on_the_six_vertex_census pins its
    # value, 4.  A walk that says yes has attempted every list system
    stopped = []
    for g in connected_graphs(6):
        settled = False
        for k in (2, 3, 4):
            yes = bool(_alon_tarsi(g, k))
            if not k_core(g.masks, k):
                assert yes, (g.edges, k)
                settled = True
            if not yes or settled:
                continue
            settled = True
            try:
                verdict, attempted = _choosability_walk(g, k, 2 * 10 ** 6)
            except BudgetExceeded:
                stopped.append((encode_graph6(g), k))
                continue
            assert verdict is True, (g.edges, k)
            assert attempted == list_system_count(g, k), (g.edges, k)
    assert stopped == [("Er~w", 4)]


def census_values():
    """tests/data/chi_list_6.tsv: chi_list of every connected graph with
    at most 6 vertices, by graph6, as the list walk and the DP scan found
    them before the Alon-Tarsi theorem settled any component."""
    path = Path(__file__).parent / "data" / "chi_list_6.tsv"
    return {g6: int(value) for g6, value in
            (line.split("\t") for line in path.read_text().splitlines())}


def test_chi_list_keeps_its_values_on_the_six_vertex_census(monkeypatch):
    # the same values at the default budget, Er~o and Er~w included, whose
    # list walks attempt 1,340,923 list systems at k = 3 and 76,828,181 at
    # k = 4; no list walk or DP scan runs now.  The 129 rows the hard-list
    # benchmark checks are among them
    want = census_values()
    assert set(want) == {encode_graph6(g) for g in connected_graphs(6)}
    searched = searched_cores(monkeypatch)
    for g6, value in want.items():
        assert chi_list(parse_graph6(g6)) == value, g6
    assert {kind for kind, *_ in searched} == {"at"}
    path = Path(__file__).parents[1] / "bench" / "data" / "chi_list.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    assert len(rows) == 129
    assert all(want[g6] == int(value) for g6, value in rows)


def test_chi_list_settles_seven_vertex_graphs_the_walk_could_not():
    # without the Alon-Tarsi theorem, the list walk on Fqnro runs out of the
    # default budget
    assert chi_list(parse_graph6("Fqnro")) == 4


def test_chi_dp_searches_only_the_core(monkeypatch):
    searched = searched_cores(monkeypatch)
    # C4 with a pendant path: the 1-core is the whole graph, the 2-core the
    # C4, which is not DP-2-colorable, and the 3-core is empty
    g = with_pendant_paths(cycle_graph(4), [0], 2)
    assert chi_dp(g) == 3
    assert searched == [("dp", 6, 6, 1), ("dp", 4, 4, 2)]
    searched.clear()
    # C5 x K2 and a vertex joined to 0 and 2: the 3-core is the prism
    g = parse_graph6("JheAHCPBL??")
    assert chi_dp(g) == 3
    assert searched == [("dp", 11, 17, 1), ("dp", 11, 17, 2),
                        ("dp", 10, 15, 3)]
    searched.clear()
    # two K4s joined by a path: the 3-core is the two K4s, and the first
    # one refutes k = 3
    g = from_edge_list(list(complete_graph(4).edges)
                       + [(4 + u, 4 + v) for u, v in complete_graph(4).edges]
                       + [(3, 8), (8, 9), (9, 4)])
    assert chi_dp(g) == 4
    assert searched == [("dp", 10, 15, 1), ("dp", 10, 15, 2),
                        ("dp", 4, 6, 3)]


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


def test_sized_settle_matches_the_maximal_matching_oracle():
    # every connected graph on at most 4 vertices with f in {1, 2, 3}^n:
    # _settle on sizes f, its peel by f and a scan per component, against
    # every maximal-matching cover; a refuting cover, on lists range(f(v)),
    # leaves its component no coloring, and f = k everywhere is settled as
    # the int k is, case for case
    settle = functools.partial(dpcolor.solver._settle_dp, jobs=1)
    pairs = colorable = 0
    for g in connected_graphs(4):
        for f in itertools.product((1, 2, 3), repeat=g.n):
            verdict, _, vertices, attempted = _settle(g.masks, f, settle,
                                                      DEFAULT_BUDGET)
            assert (verdict is True) == slow_dp_f_verdict(g, f), (g.edges, f)
            pairs += 1
            if len(set(f)) == 1:
                uniform = _settle(g.masks, f[0], settle, DEFAULT_BUDGET)
                assert (uniform[0] is True) == (verdict is True)
                assert uniform[3] == attempted, (g.edges, f)
            if verdict is True:
                colorable += 1
                continue
            (_, core), = _core_components(g.masks,
                                          sum(1 << v for v in vertices))
            assert verdict.lists == tuple(tuple(range(f[v]))
                                          for v in vertices)
            assert find_coloring(core, verdict.lists, verdict.matching) is None
    assert (pairs, colorable) == (552, 267)


def test_sized_scan_keeps_every_choice_on_a_tree_edge_into_fewer_colors():
    # K1,2 with two colors at the center and one at each leaf is not
    # DP-f-colorable: each leaf can take a different color of the center.
    # Rooted at the center, both tree edges go into fewer colors and keep
    # C(2, 1) choices each; rooted at a leaf, the edge into the center
    # keeps the identity and the other two choices.  Either way the second
    # cover refutes; the identity on every tree edge would miss it.
    for edges, f in (([(0, 1), (0, 2)], (2, 1, 1)),
                     ([(0, 1), (1, 2)], (1, 2, 1))):
        g = from_edge_list(edges)
        status, matching, attempted = _scan_block(g, f, None, DEFAULT_BUDGET)
        assert (status, attempted) == ("cert", 2), edges
        lists = tuple(tuple(range(x)) for x in f)
        assert find_coloring(g, lists, matching) is None


def test_chi_dp_passes_the_budget_left_to_each_component(monkeypatch):
    # the triangular prism and K4 side by side: at k = 3 the prism is
    # settled after its 1,296 cases, and K4 fails at its first
    g = from_edge_list(list(prism(3).edges)
                       + [(6 + u, 6 + v) for u, v in complete_graph(4).edges])
    searched = searched_cores(monkeypatch)
    assert chi_dp(g, budget=1296 + 1) == 4
    assert searched[-2:] == [("dp", 6, 9, 3), ("dp", 4, 6, 3)]
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
    """Stands in for the process pool (solver._pool): the blocks run one
    after another in this process, through the same split and merge."""

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
    monkeypatch.setattr(dpcolor.solver, "_pool", SerialPool)
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
    monkeypatch.setattr(dpcolor.solver, "_pool", SerialPool)
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
def test_pool_blocks_start_at_kept_choices(k, kept, monkeypatch):
    # the gauge pruning keeps one first choice per conjugacy class; each
    # kept choice starts a block that runs to the next, the blocks cover
    # every index in order, and no worker is opened beyond one per block
    orbits = _GaugeOrbits(k)
    row = orbits[orbits.start]
    nperm = math.factorial(k)
    assert [i for i in range(nperm) if row[i] >= 0] == kept
    seen = []

    class RecordingPool(SerialPool):
        def map(self, fn, items):
            items = list(items)
            seen.append((self.max_workers, items))
            return map(fn, items)

    monkeypatch.setattr(dpcolor.solver, "_pool", RecordingPool)
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    for jobs in (2, 3, 4, 5, 6):
        seen.clear()
        assert is_dp_k_colorable(cycle_graph(4), k, jobs=jobs) is True
        ((workers, blocks),) = seen
        assert workers == min(jobs, len(kept)), (k, jobs)
        assert [block.start for block in blocks] == kept
        assert [i for block in blocks for i in block] == list(range(nperm))
