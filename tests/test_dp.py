import hashlib
import itertools
import random

import pytest

from dpcolor import (
    InvalidMatching,
    MatchingAssignment,
    NonUniformLists,
    build_cover,
    complete_graph,
    cycle_graph,
    find_coloring,
    format_matching_file,
    from_edge_list,
    from_list_assignment,
    is_valid_coloring,
    parse_matching_file,
    path_graph,
    uniform_lists,
)
from dpcolor.dp import search_positions
from oracles import (NotSpanningTree, brute_k_colorable, gauge_normalize,
                     reference_search_positions)
from smallgraphs import connected_graphs


def digest(results) -> str:
    """Short hash of the colorings find_coloring returned, in call order.

    `dpcolor color` prints these colorings, so the tests below pin the
    exact tuples, not only their validity: a change to the search order of
    the backtracker shows here."""
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


def swap_matching(g, k, edge):
    """Identity everywhere except a cyclic shift on one edge."""
    shift = tuple((i + 1) % k for i in range(k))
    return MatchingAssignment.from_permutations(g, k, {edge: shift})


def test_build_cover_k2_identity():
    g = path_graph(2)
    cover = build_cover(g, uniform_lists(2, 2), MatchingAssignment.identity(g, 2))
    assert cover.node_count == 4 and cover.edge_count == 4  # 2 clique + 2 matching


def test_build_cover_k2_empty():
    g = path_graph(2)
    cover = build_cover(g, uniform_lists(2, 2), MatchingAssignment())
    assert cover.node_count == 4 and cover.edge_count == 2


def test_build_cover_c3_counts():
    g = cycle_graph(3)
    cover = build_cover(g, uniform_lists(3, 3), MatchingAssignment.identity(g, 3))
    assert cover.node_count == 9 and cover.edge_count == 18
    # explicit reconstruction agrees with the closed-form count
    explicit = {frozenset({(v, a), (v, b)})
                for v in range(3)
                for a, b in itertools.combinations(range(3), 2)}
    explicit |= {frozenset({(u, i), (v, i)}) for u, v in g.edges for i in range(3)}
    assert cover.edges == frozenset(explicit)


def test_matching_validation():
    g = path_graph(2)
    with pytest.raises(InvalidMatching):
        MatchingAssignment({(0, 1): ((0, 0), (0, 1))})  # color 0 used twice
    for pairs in (((0, 5),), ((5, 0),)):
        with pytest.raises(InvalidMatching):
            MatchingAssignment({(0, 1): pairs}).validate(g, uniform_lists(2, 2))
    off_edge = MatchingAssignment({(0, 2): ((0, 0),)})
    with pytest.raises(InvalidMatching):
        off_edge.validate(path_graph(3), uniform_lists(3, 2))


def test_find_coloring_c4_identity():
    g = cycle_graph(4)
    got = find_coloring(g, uniform_lists(4, 2), MatchingAssignment.identity(g, 2))
    assert got == (0, 1, 0, 1)  # the lexicographically least proper 2-coloring


def test_find_coloring_c4_one_twist_unsat():
    g = cycle_graph(4)
    lists = uniform_lists(4, 2)
    twisted = swap_matching(g, 2, (0, 3))
    # brute force over all 16 color choices confirms unsatisfiability
    assert not any(
        is_valid_coloring(g, lists, twisted, combo)
        for combo in itertools.product(range(2), repeat=4)
    )
    assert find_coloring(g, lists, twisted) is None


def test_find_coloring_single_vertex():
    g = from_edge_list([], n=1)
    assert find_coloring(g, uniform_lists(1, 1), MatchingAssignment()) == (0,)


def test_identity_matching_is_proper_coloring():
    results = []
    for g in connected_graphs(5):
        for k in (1, 2, 3):
            dp = find_coloring(g, uniform_lists(g.n, k),
                               MatchingAssignment.identity(g, k))
            assert (dp is not None) == brute_k_colorable(g, k), (g.edges, k)
            if dp is not None:
                assert all(dp[u] != dp[v] for u, v in g.edges)
            results.append(dp)
    assert digest(results) == "6d9a7427e08bcb55"


def test_monotonicity_under_matching_growth():
    rng = random.Random(11)
    graphs = [g for g in connected_graphs(5)]
    results = []
    for trial in range(300):
        g = graphs[rng.randrange(len(graphs))]
        k = rng.randint(1, 3)
        lists = uniform_lists(g.n, k)
        small, big = {}, {}
        for e in g.edges:
            perm = rng.sample(range(k), k)
            pairs = tuple((i, perm[i]) for i in range(k))
            keep = rng.randint(0, k)
            small[e] = pairs[:keep]
            big[e] = pairs
        m_small = MatchingAssignment(small)
        m_big = MatchingAssignment(big)
        # every coloring valid under the larger matching is valid under the
        # smaller, so solvable-under-big implies solvable-under-small
        for combo in itertools.product(range(k), repeat=g.n):
            if is_valid_coloring(g, lists, m_big, combo):
                assert is_valid_coloring(g, lists, m_small, combo)
        big_found = find_coloring(g, lists, m_big)
        small_found = find_coloring(g, lists, m_small)
        if big_found is not None:
            assert small_found is not None
        results.append((big_found, small_found))
    assert digest(results) == "9f02ab6d62ad680e"


def test_from_list_assignment_all_equal():
    g = cycle_graph(3)
    lists, m = from_list_assignment(g, ((1, 2, 3),) * 3)
    assert lists == uniform_lists(3, 3)
    assert m == MatchingAssignment.identity(g, 3)


def test_from_list_assignment_partial_overlap():
    g = path_graph(2)
    lists, m = from_list_assignment(g, ((1, 2), (2, 3)))
    assert m.pairs(0, 1) == ((1, 0),)  # color 2 is index 1 at u, index 0 at v


def test_from_list_assignment_disjoint_and_errors():
    g = path_graph(2)
    _, m = from_list_assignment(g, ((1, 2), (3, 4)))
    assert m.pairs(0, 1) == ()
    with pytest.raises(NonUniformLists):
        from_list_assignment(g, ((1, 2), (1, 2, 3)))


def test_list_coloring_equivalence():
    # an L-coloring exists exactly when the translated instance is solvable
    rng = random.Random(5)
    results = []
    for trial in range(200):
        graphs = connected_graphs(4)
        g = graphs[rng.randrange(len(graphs))]
        k = rng.randint(1, 3)
        pool = range(k + 3)
        orig = tuple(tuple(sorted(rng.sample(pool, k))) for _ in range(g.n))
        direct = any(
            all(combo[u] != combo[v] for u, v in g.edges)
            for combo in itertools.product(*orig)
        )
        lists, m = from_list_assignment(g, orig)
        found = find_coloring(g, lists, m)
        assert (found is not None) == direct
        results.append(found)
    assert digest(results) == "145e2b5cc8fc298b"


def test_gauge_normalize_fixpoint():
    g = cycle_graph(4)
    m = MatchingAssignment.identity(g, 2)
    tree = {(0, 1), (1, 2), (2, 3)}
    normalized, perms = gauge_normalize(g, 2, m, tree)
    assert normalized == m
    assert all(p == (0, 1) for p in perms)


def test_gauge_normalize_moves_twist_to_nontree_edge():
    g = cycle_graph(4)
    tree = {(0, 1), (1, 2), (2, 3)}
    twisted = swap_matching(g, 2, (1, 2))
    normalized, _ = gauge_normalize(g, 2, twisted, tree)
    for e in tree:
        assert normalized.pairs(*e) == ((0, 0), (1, 1))
    assert normalized.pairs(0, 3) == ((0, 1), (1, 0))


def test_gauge_normalize_errors():
    g = cycle_graph(4)
    with pytest.raises(NotSpanningTree):
        gauge_normalize(g, 2, MatchingAssignment.identity(g, 2), {(0, 1)})
    partial = MatchingAssignment({(0, 1): ((0, 0),)})
    with pytest.raises(InvalidMatching):
        gauge_normalize(g, 2, partial, {(0, 1), (1, 2), (2, 3)})


def test_gauge_normalize_preserves_verdict():
    rng = random.Random(23)
    graphs = [g for g in connected_graphs(6) if g.n >= 2]
    checked = 0
    results = []
    for trial in range(1000):
        g = graphs[rng.randrange(len(graphs))]
        k = rng.randint(1, 3)
        lists = uniform_lists(g.n, k)
        table = {}
        for e in g.edges:
            perm = rng.sample(range(k), k)
            table[e] = tuple((i, perm[i]) for i in range(k))
        m = MatchingAssignment(table)
        tree = set()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in sorted(g.adj[v]):
                if u not in seen:
                    seen.add(u)
                    tree.add((min(u, v), max(u, v)))
                    stack.append(u)
        normalized, perms = gauge_normalize(g, k, m, tree)
        before = find_coloring(g, lists, m)
        after = find_coloring(g, lists, normalized)
        assert (before is None) == (after is None)
        if before is not None:
            # transport the original coloring through the witness permutations
            moved = tuple(perms[v][before[v]] for v in range(g.n))
            assert is_valid_coloring(g, lists, normalized, moved)
        checked += 1
        results.append((before, after))
    assert checked == 1000
    assert digest(results) == "38e028184381b301"


def test_matching_file_roundtrip():
    g = cycle_graph(4)
    m = swap_matching(g, 2, (0, 3))
    text = format_matching_file(m, g)
    back, _ = parse_matching_file(text, g)
    assert back == m


def test_matching_file_default_identity():
    g = cycle_graph(3)
    text = "default identity k=2\n0 1 : 0-1, 1-0\n"
    m, k = parse_matching_file(text, g)
    assert k == 2
    assert m.pairs(0, 1) == ((0, 1), (1, 0))
    assert m.pairs(1, 2) == ((0, 0), (1, 1))
    assert m.pairs(0, 2) == ((0, 0), (1, 1))


def test_matching_file_omitted_edges_empty():
    g = cycle_graph(3)
    m, k = parse_matching_file("0 1 : 0-0\n", g)
    assert k is None
    assert m.pairs(1, 2) == ()


def test_cover_independent_set_matches_validator():
    # the chosen nodes form an independent set in the explicit cover graph
    # exactly when the direct pair check passes
    rng = random.Random(3)
    g = cycle_graph(4)
    k = 2
    lists = uniform_lists(4, k)
    for trial in range(50):
        table = {}
        for e in g.edges:
            perm = rng.sample(range(k), k)
            keep = rng.randint(0, k)
            table[e] = tuple((i, perm[i]) for i in range(k))[:keep]
        m = MatchingAssignment(table)
        cover = build_cover(g, lists, m)
        for combo in itertools.product(range(k), repeat=4):
            nodes = {(v, combo[v]) for v in range(4)}
            independent = not any(
                frozenset(pair) in cover.edges
                for pair in itertools.combinations(nodes, 2)
            )
            assert independent == is_valid_coloring(g, lists, m, combo)


def random_partner_tables(rng, n):
    """A random graph on n vertices with 1 to 4 positions per vertex and a
    random partial matching on each edge, as search_positions takes it."""
    sizes = [rng.randint(1, 4) for _ in range(n)]
    adj = [[] for _ in range(n)]
    part = {}
    for v in range(n):
        for u in range(v):
            if rng.random() < 0.5:
                continue
            adj[u].append(v)
            adj[v].append(u)
            far = list(range(sizes[v])) + [-1] * rng.randint(0, 3)
            rng.shuffle(far)
            fwd = [-1] * sizes[u]
            bwd = [-1] * sizes[v]
            for i, j in zip(range(sizes[u]), far):
                if j >= 0:
                    fwd[i], bwd[j] = j, i
            part[(u, v)], part[(v, u)] = fwd, bwd
    return adj, sizes, part


def test_kernel_matches_the_recursive_reference_on_random_tables():
    rng = random.Random(29)
    found = {True: 0, False: 0}
    for _ in range(3000):
        adj, sizes, part = random_partner_tables(rng, rng.randint(0, 8))
        want = reference_search_positions(adj, sizes, part)
        assert search_positions(adj, sizes, part) == want, (adj, sizes, part)
        found[want is not None] += 1
    assert min(found.values()) > 300  # both outcomes are exercised
