import functools
import inspect
import itertools
import json
import math
import random
import sys

import pytest

from dpcolor import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConfigPattern,
    Graph,
    MatchingAssignment,
    certify_reducible,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    encode_graph6,
    find_coloring,
    find_pattern,
    from_edge_list,
    is_connected,
    is_valid_coloring,
    parse_graph6,
    pattern_from_json,
    pattern_to_json,
    uniform_lists,
)
import dpcolor.solver
from dpcolor.graphs import _induced
from fixtures import BENCH_DATA, frozen_plane_embeddings
from instances import random_full_matching
from oracles import (all_injections_matching, reference_certify_reducible,
                     slow_dp_f_verdict)
from smallgraphs import connected_graphs


def edge_pattern():
    return ConfigPattern.build(edges=[(0, 1)], host_degree=(3, 3),
                               order=[0, 1], name="(3,3)-edge")


def test_find_pattern_edge_in_cubic_graph():
    k4 = complete_graph(4)
    hits = find_pattern(k4, edge_pattern())
    assert len(hits) == 12  # 6 edges, both orientations


def test_find_pattern_triangle_in_k4():
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(3, 3, 3), order=[0, 1, 2])
    hits = find_pattern(complete_graph(4), pat)
    assert len(hits) == 24  # 4 triangles, 6 labelings each


def test_find_pattern_too_big():
    pat = ConfigPattern.build(edges=[(0, 1)], host_degree=(1, 1), order=[0, 1])
    assert find_pattern(from_edge_list([], n=1), pat) == []


def test_find_pattern_matches_all_injections():
    rng = random.Random(6)
    wheel = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
    hosts = [complete_graph(4), cycle_graph(6),
             from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
             from_edge_list(wheel),
             # a vertex of degree 2 on two rim vertices: degrees 2 to 5
             from_edge_list(wheel + [(1, 6), (2, 6)]),
             complete_graph(6),
             # its neighbor sets do not all iterate in increasing order
             from_edge_list([(u, v) for u in range(12) for v in range(u + 1, 12)
                             if rng.random() < 0.35], n=12)]
    patterns = [
        edge_pattern(),
        ConfigPattern.build(edges=[(0, 1), (1, 2)], host_degree=(2, 3, 2),
                            order=[0, 1, 2]),
        ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                            host_degree=(3, 3, 3), order=[0, 1, 2]),
        ConfigPattern.build(edges=[(0, 1), (0, 2), (1, 2), (2, 3)],
                            host_degree=(5, 3, 4, 2), order=[0, 1, 2, 3]),
        ConfigPattern.build(edges=[(0, 1), (0, 2), (0, 3)],
                            host_degree=(5, 3, 3, 4), order=[0, 1, 2, 3]),
        # vertex 1 has no earlier pattern neighbor
        ConfigPattern.build(edges=[(0, 2), (1, 2)], host_degree=(3, 4, 5),
                            order=[0, 1, 2]),
        ConfigPattern.build(edges=[(0, 2), (1, 2), (2, 3)],
                            host_degree=(2, 3, 4, 4), order=[0, 1, 2, 3]),
    ]
    found = 0
    for g in hosts:
        for pat in patterns:
            # the same list in the same (lexicographic) order
            hits = find_pattern(g, pat)
            assert hits == all_injections_matching(g, pat), (g.edges, pat)
            found += len(hits)
    assert found > 0


def test_find_pattern_matches_all_injections_on_the_bench_embeddings():
    # the discharge benchmark's 204 plane embeddings and both its patterns:
    # the same hits in the same order, 12 hanging triangles and 142 2-3-2
    # paths in all
    patterns = [pattern_from_json(json.loads(
        (BENCH_DATA / "patterns" / f"pattern{i}.json").read_text()))
        for i in (0, 1)]
    embeddings = list(frozen_plane_embeddings())
    assert len(embeddings) == 204
    found = [0, 0]
    for emb in embeddings:
        for i, pat in enumerate(patterns):
            hits = find_pattern(emb.graph, pat)
            assert hits == all_injections_matching(emb.graph, pat)
            found[i] += len(hits)
    assert found == [12, 142]


def test_pattern_masks_are_the_bitmasks_of_its_edges():
    # masks is a pattern's one adjacency, as Graph.masks (conftest.py checks
    # it on every pattern a test builds): the benchmark's patterns, and
    # random ones with edges given in either orientation
    patterns = [pattern_from_json((BENCH_DATA / "patterns" / name).read_text())
                for name in ("pattern0.json", "pattern1.json")]
    rng = random.Random(39)
    for _ in range(200):
        size = rng.randint(1, 8)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in itertools.combinations(range(size), 2)
                 if rng.random() < 0.4]
        patterns.append(ConfigPattern.build(edges, (size,) * size,
                                            range(size)))
    for pat in patterns:
        assert pat.masks == from_edge_list(pat.edges, n=pat.size).masks
        assert not hasattr(pat, "adj")


def test_find_pattern_does_not_recurse():
    # a path pattern on 100 vertices of host degree 2 goes 100 deep, and
    # lies in C200 once per start and direction
    path = ConfigPattern.build(edges=[(i, i + 1) for i in range(99)],
                               host_degree=(2,) * 100, order=list(range(100)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        hits = find_pattern(cycle_graph(200), path)
    finally:
        sys.setrecursionlimit(limit)
    assert len(hits) == 400 and hits == sorted(hits)
    assert hits[:2] == [tuple(range(100)), (0, *range(199, 100, -1))]


def induced(g, image, k):
    """g[image], its vertex i the i-th of the image, and f: k minus each
    vertex's neighbors outside the image."""
    place = {v: i for i, v in enumerate(image)}
    sub = from_edge_list([(place[u], place[v]) for u, v in g.edges
                          if u in place and v in place], n=len(image))
    return sub, tuple(k - len(g.adj[v] - place.keys()) for v in image)


def pattern_of(g, cut):
    """The pattern g[cut], with the host degrees of g."""
    local = {v: i for i, v in enumerate(cut)}
    return ConfigPattern.build(
        edges=[(local[u], local[v]) for u, v in g.edges
               if u in local and v in local],
        host_degree=[g.degree(v) for v in cut], order=range(len(cut)))


def replay_extension(rng, g, image, k):
    """The guarantee certify_reducible gives, replayed once: color g minus
    the image under a random full matching, cut each image vertex's
    residual list (its k colors minus the partner of each colored
    neighbor's color) to f colors, and extend with find_coloring on the
    occurrence.  Returns False when the rest has no coloring, else True;
    an occurrence that does not extend fails the test."""
    matching = random_full_matching(rng, g, k)
    remap = {v: i for i, v in enumerate(
        v for v in range(g.n) if v not in image)}
    rest = Graph(_induced(g.masks, list(remap)))
    rest_matching = MatchingAssignment({
        (remap[u], remap[v]): matching.pairs(u, v)
        for u, v in g.edges if u in remap and v in remap})
    sub = find_coloring(rest, uniform_lists(rest.n, k), rest_matching)
    if sub is None:
        return False
    partial = {old: sub[new] for old, new in remap.items()}
    inside, f = induced(g, image, k)
    own = []
    for v, x in zip(image, f):
        taken = {matching.partner(u, v, partial[u])
                 for u in g.adj[v] if u in partial}
        own.append(tuple(c for c in range(k) if c not in taken)[:x])
        assert len(own[-1]) == x
    inside_matching = MatchingAssignment({
        (i, j): tuple((a, b) for a, b in matching.pairs(image[i], image[j])
                      if a in own[i] and b in own[j])
        for i, j in inside.edges})
    coloring = find_coloring(inside, own, inside_matching)
    assert coloring is not None, (g.edges, image, k)
    full = dict(partial)
    full.update(zip(image, coloring))
    assert is_valid_coloring(g, uniform_lists(g.n, k), matching,
                             tuple(full[v] for v in range(g.n)))
    return True


@functools.cache
def slow_verdict(edges, f) -> bool:
    return slow_dp_f_verdict(from_edge_list(edges, n=len(f)), f)


def oracle_work(occurrence) -> int:
    """The (cover, coloring) pairs slow_dp_f_verdict may try on an
    occurrence, as induced gives it; none when some f(v) <= 0."""
    sub, f = occurrence
    if min(f) <= 0:
        return 0
    return math.prod(f) * math.prod(
        math.perm(max(f[u], f[v]), min(f[u], f[v])) for u, v in sub.edges)


def oracle_reducible(g, pat, k) -> bool:
    """certify_reducible's question, asked of slow_dp_f_verdict on every
    occurrence."""
    for image in find_pattern(g, pat):
        sub, f = induced(g, image, k)
        if min(f) <= 0 or not slow_verdict(tuple(sorted(sub.edges)), f):
            return False
    return True


def cube_graph():
    return from_edge_list([(u, u ^ 1 << b) for u in range(8) for b in range(3)
                           if u < u ^ 1 << b])


def octahedron():
    return from_edge_list([(u, v) for u in range(6) for v in range(u + 1, 6)
                           if u // 2 != v // 2])


def test_certify_single_vertex_pattern():
    # one vertex is reducible exactly when its host degree is below k: it
    # keeps f = k - degree colors, and a lone vertex needs one
    pat = ConfigPattern.build(edges=[], host_degree=(2,), order=[0],
                              name="low-degree vertex")
    g = cycle_graph(5)
    assert certify_reducible(g, pat, 3)
    assert not certify_reducible(g, pat, 2)
    for host in (complete_graph(4), complete_bipartite(2, 3), octahedron()):
        for d in set(host.degrees()):
            pat = ConfigPattern.build(edges=[], host_degree=(d,), order=[0])
            for k in range(1, 6):
                assert certify_reducible(host, pat, k) == (d < k), (d, k)


def test_certify_decides_the_named_cases():
    # the edge of a triangle keeps two colors at each end: reducible
    edge = ConfigPattern.build(edges=[(0, 1)], host_degree=(2, 2),
                               order=[0, 1])
    assert certify_reducible(cycle_graph(3), edge, 3)
    # an induced path of the cube keeps f = (1, 2, 1): each end can take a
    # different color of the middle, which a gauge fixing the identity on
    # every tree edge would miss
    path = ConfigPattern.build(edges=[(0, 1), (1, 2)], host_degree=(3, 3, 3),
                               order=[0, 1, 2])
    assert len(find_pattern(cube_graph(), path)) == 48
    assert not certify_reducible(cube_graph(), path, 3)
    assert oracle_reducible(cube_graph(), path, 3) is False


def test_certify_is_exact_on_small_subcubic_hosts():
    # every connected host with at most 5 vertices and maximum degree at
    # most 3, and each of its connected induced proper subgraphs with at
    # least 2 vertices, at k = 3
    pairs = reducible = 0
    for g in connected_graphs(5):
        if max(g.degrees()) > 3:
            continue
        for size in range(2, g.n):
            for cut in itertools.combinations(range(g.n), size):
                if not is_connected(induced(g, cut, 3)[0]):
                    continue
                pat = pattern_of(g, cut)
                got = certify_reducible(g, pat, 3)
                assert got == oracle_reducible(g, pat, 3), (g.edges, cut)
                pairs += 1
                reducible += got
    assert (pairs, reducible) == (200, 174)


def test_certify_shares_one_budget_and_settles_each_key_once(monkeypatch):
    # a star K1,3 in the octahedron at k = 4: its 144 occurrences relabel
    # to three distinct (edges, f), each settled by a scan of 108, 108 and
    # 324 cases, 540 in all, in one _settle call
    star = ConfigPattern.build(edges=[(2, 3), (1, 2), (0, 2)],
                               host_degree=(4, 4, 4, 4), order=range(4))
    host = octahedron()
    assert len(find_pattern(host, star)) == 144
    settles, scanned = [], []
    settle, walk = dpcolor.solver._settle, dpcolor.solver._dp_walk

    def settle_spy(*args):
        settles.append(args[3])
        return settle(*args)

    def walk_spy(*args, **options):
        out = walk(*args, **options)
        scanned.append(out[1])
        return out

    monkeypatch.setattr(dpcolor.solver, "_settle", settle_spy)
    monkeypatch.setattr(dpcolor.solver, "_dp_walk", walk_spy)
    assert certify_reducible(host, star, 4)
    assert settles == [DEFAULT_BUDGET] and scanned == [108, 108, 324]
    monkeypatch.setattr(dpcolor.solver, "DEFAULT_BUDGET", 540)
    assert certify_reducible(host, star, 4)
    for budget in (539, 216, 107, 0):
        monkeypatch.setattr(dpcolor.solver, "DEFAULT_BUDGET", budget)
        with pytest.raises(BudgetExceeded) as info:
            certify_reducible(host, star, 4)
        assert info.value.attempted == budget


def test_certify_matches_the_per_occurrence_reference(monkeypatch):
    # every connected host with at most 5 vertices, each proper vertex
    # subset as a pattern with its exact host degrees, at k = 3 and 4 and
    # four default budgets: the same verdict and the same attempted cases.
    # The one difference: an occurrence with f <= 0 somewhere answers no
    # before any scan, where the reference may first run out of the budget
    # on an earlier occurrence's scan
    def outcome(certify, g, pat, k):
        try:
            return certify(g, pat, k)
        except BudgetExceeded as exc:
            return "budget", exc.attempted

    calls, early = 0, set()
    for budget in (0, 5, 50, 10 ** 8):
        monkeypatch.setattr(dpcolor.solver, "DEFAULT_BUDGET", budget)
        for g in connected_graphs(5):
            for size in range(1, g.n):
                for cut in itertools.combinations(range(g.n), size):
                    pat = pattern_of(g, cut)
                    for k in (3, 4):
                        got = outcome(certify_reducible, g, pat, k)
                        want = outcome(reference_certify_reducible, g, pat, k)
                        calls += 1
                        if got == want:
                            continue
                        assert got is False and want[0] == "budget"
                        assert any(min(induced(g, image, k)[1]) <= 0
                                   for image in find_pattern(g, pat))
                        early.add((encode_graph6(g), cut, k, budget))
    assert calls == 5824
    # the wheel W4 at k = 3 and budget 0, with the pattern its vertices 0
    # and 3 induce, two non-adjacent vertices of host degree 3: the first
    # occurrence, (0, 1), is an edge and needs a scan, and a later,
    # non-adjacent one has f = 0
    w4 = parse_graph6("Dr{")
    pat = pattern_of(w4, (0, 3))
    assert not pat.edges and pat.host_degree == (3, 3)
    assert find_pattern(w4, pat)[0] == (0, 1) and w4.has_edge(0, 1)
    assert ("Dr{", (0, 3), 3, 0) in early


def test_certify_reaches_the_default_budget_on_the_octahedron():
    # the whole octahedron at k = 4: the scan cannot settle it in budget
    whole = pattern_of(octahedron(), range(6))
    with pytest.raises(BudgetExceeded) as info:
        certify_reducible(octahedron(), whole, 4)
    assert info.value.attempted == DEFAULT_BUDGET


def test_certify_triangle_with_private_vertex():
    # triangle whose first vertex lies only on the triangle
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 3, 3), order=[0, 1, 2],
                              name="hanging triangle")
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    assert find_pattern(host, pat)
    assert certify_reducible(host, pat, 3)


def test_certify_monte_carlo_extension():
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 3, 3), order=[0, 1, 2])
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    assert certify_reducible(host, pat, 3)
    hits = find_pattern(host, pat)
    rng = random.Random(17)
    for trial in range(200):
        image = hits[rng.randrange(len(hits))]
        assert replay_extension(rng, host, image, 3), trial


def test_certify_rejects_interior_violation():
    # vertex 1 has host degree 5, three neighbors outside: f = 0 there
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 5, 3), order=[0, 1, 2])
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3),
                           (1, 4), (1, 5), (4, 5), (3, 4)])
    assert find_pattern(host, pat)
    assert not certify_reducible(host, pat, 3)


def test_search_orders_can_rescue_a_bad_designated_order():
    # the designated order is not consulted: [1, 2, 0], which ends on a
    # vertex with no neighbor outside, gets the verdict of every order
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    for order in itertools.permutations(range(3)):
        pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                                  host_degree=(2, 3, 3), order=order)
        assert find_pattern(host, pat)
        assert certify_reducible(host, pat, 3), order


def test_order_search_matches_every_permutation():
    # certify_reducible, exact with no order search, against the oracle
    # that tries every permutation matching, wherever no occurrence asks it
    # for more than two million (cover, coloring) pairs: on random hosts
    # and patterns cut from them, and on fixed patterns at k = 2, 3, 4
    def agrees(g, pat, k) -> bool:
        if max(oracle_work(induced(g, image, k))
               for image in find_pattern(g, pat)) > 2e6:
            return False
        want = oracle_reducible(g, pat, k)
        assert certify_reducible(g, pat, k) == want, (g.edges, pat, k)
        return True

    rng = random.Random(7)
    checked = positive = 0
    for _ in range(600):
        n = rng.randint(2, 10)
        p = rng.uniform(0.15, 0.6)
        g = from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p], n=n)
        cut = rng.sample(range(n), rng.randint(2, min(n, 6)))
        k = rng.randint(2, 4)
        pat = pattern_of(g, cut)
        if agrees(g, pat, k):
            checked += 1
            positive += certify_reducible(g, pat, k)
    assert checked > 500 and positive > 300, (checked, positive)
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4),
                           (4, 5), (5, 3)])
    checked = 0
    for pat in (
            ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                                host_degree=(2, 3, 3), order=[1, 2, 0]),
            ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],
                                host_degree=(2, 3, 3, 4), order=[3, 0, 1, 2]),
            ConfigPattern.build(edges=[(0, 1), (0, 2)], host_degree=(4, 2, 2),
                                order=[0, 1, 2])):
        for k in (2, 3, 4):
            assert find_pattern(host, pat), pat
            checked += agrees(host, pat, k)
    assert checked == 8


def test_certified_occurrences_extend_under_random_matchings():
    # on random hosts and patterns cut from them, every coloring of the
    # rest under a random full matching extends across every occurrence
    rng = random.Random(23)
    extended = {1: 0, 2: 0}
    for _ in range(300):
        n = rng.randint(2, 8)
        p = rng.uniform(0.2, 0.6)
        g = from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p], n=n)
        cut = rng.sample(range(n), rng.randint(1, min(n, 5)))
        pat = pattern_of(g, cut)
        k = rng.randint(2, 4)
        if not certify_reducible(g, pat, k):
            continue
        for image in find_pattern(g, pat):
            if replay_extension(rng, g, image, k):
                extended[min(pat.size, 2)] += 1
    print(f"extensions: {extended}")
    assert extended[1] > 20 and extended[2] > 20, extended


def test_pattern_json_roundtrip():
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 3, 3), order=[0, 1, 2],
                              name="hanging triangle")
    back = pattern_from_json(pattern_to_json(pat))
    assert back == pat


def test_pattern_json_validates_outside_counts():
    doc = {
        "vertices": [{"hostDegree": 3, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 2}],
        "edges": [[0, 1]],
        "order": [0, 1],
    }
    with pytest.raises(ValueError):
        pattern_from_json(doc)


@pytest.mark.parametrize("field, value", [
    ("hostDegree", True), ("outsideNeighbors", False),
    ("edges", [[False, True]]), ("order", [False, True])])
def test_pattern_json_rejects_booleans_as_integers(field, value):
    doc = {"vertices": [{"hostDegree": 1, "outsideNeighbors": 0},
                        {"hostDegree": 1, "outsideNeighbors": 0}],
           "edges": [[0, 1]], "order": [0, 1]}
    assert pattern_from_json(doc).edges
    if field in ("edges", "order"):
        doc[field] = value
    else:
        doc["vertices"][0][field] = value
    with pytest.raises(ValueError, match="must be"):
        pattern_from_json(doc)


@pytest.mark.parametrize("name", [["x"], 3, None, True])
def test_pattern_json_requires_a_string_name(name):
    doc = {"name": name, "vertices": [{"hostDegree": 1, "outsideNeighbors": 0},
                                      {"hostDegree": 1, "outsideNeighbors": 0}],
           "edges": [[0, 1]]}
    with pytest.raises(ValueError, match="'name' must be a string"):
        pattern_from_json(doc)
    doc["name"] = "x"
    assert pattern_from_json(doc).name == "x"


def test_pattern_json_is_never_a_file_name():
    with pytest.raises(ValueError):
        pattern_from_json('[1]')
