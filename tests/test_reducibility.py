import itertools
import random

import pytest

from dpcolor import (
    ConditionsViolated,
    ConfigPattern,
    InvalidPartial,
    MatchingAssignment,
    check_extension_order,
    certify_reducible,
    complete_graph,
    cycle_graph,
    delete_vertices,
    extend_coloring,
    find_coloring,
    find_pattern,
    from_edge_list,
    is_valid_coloring,
    min_degree_extend,
    pattern_from_json,
    pattern_to_json,
    residual_lists,
    uniform_lists,
)
from instances import (random_extension_instance, random_full_matching,
                       random_low_degree_instance)
from dpcolor.reducibility import _extension_order
from oracles import all_injections_matching, any_extension_order


def test_residual_lists_no_outside_neighbors():
    g = from_edge_list([(0, 1)], n=3)  # vertex 2 isolated from the rest
    lists = uniform_lists(3, 3)
    m = MatchingAssignment.identity(g, 3)
    a = residual_lists(g, {1, 2}, lists, m, {0: 0})
    assert a[2] == {0, 1, 2}
    assert a[1] == {1, 2}  # identity partner of 0 removed


def test_residual_lists_full_vs_empty_matching():
    g = from_edge_list([(0, 1)])
    lists = uniform_lists(2, 3)
    full = MatchingAssignment.identity(g, 3)
    assert len(residual_lists(g, {1}, lists, full, {0: 2})[1]) == 2
    empty = MatchingAssignment()
    assert len(residual_lists(g, {1}, lists, empty, {0: 2})[1]) == 3


def test_residual_lists_rejects_bad_partial():
    g = cycle_graph(3)
    lists = uniform_lists(3, 2)
    m = MatchingAssignment.identity(g, 2)
    with pytest.raises(InvalidPartial):
        residual_lists(g, {2}, lists, m, {0: 0, 1: 0})
    with pytest.raises(InvalidPartial):
        residual_lists(g, {2}, lists, m, {0: 0})  # vertex 1 uncovered


def test_check_extension_order_guaranteed():
    # 4-cycle configuration, first vertex fully inside, last with one
    # outside neighbor, interiors with at most one
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4)])
    report = check_extension_order(g, [0, 1, 2, 3], 3)
    assert report.ok and report.condition1_guaranteed


def test_check_extension_order_interior_violation():
    # interior vertex 1 with two outside neighbors: 1 back + 2 out > k-1
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (3, 4),
                        (1, 4), (1, 5), (4, 5)])
    report = check_extension_order(g, [0, 1, 2, 3], 3)
    assert not report.ok and report.condition1_guaranteed
    assert report.first_bad_interior == 1


def test_check_extension_order_gap_not_guaranteed():
    # both endpoints with outside neighbors: the residual gap can close
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3),
                        (0, 4), (3, 5), (3, 6)])
    report = check_extension_order(g, [0, 1, 2, 3], 3)
    assert not report.condition1_guaranteed
    # brute force over full matchings and outside colorings exhibits
    # |A(v1)| = |A(vl)|
    lists = uniform_lists(g.n, 3)
    rng = random.Random(0)
    hit = False
    for trial in range(200):
        m = random_full_matching(rng, g, 3)
        partial = {4: rng.randrange(3), 5: rng.randrange(3), 6: rng.randrange(3)}
        a = residual_lists(g, {0, 1, 2, 3}, lists, m, partial)
        if len(a[0]) == len(a[3]):
            hit = True
            break
    assert hit


def test_extend_single_edge_configuration():
    # configuration {v1, vl} = {0, 1}: v1 sees one colored neighbor,
    # vl sees two with distinct matched partners
    g = from_edge_list([(0, 1), (0, 2), (1, 3), (1, 4)])
    lists = uniform_lists(5, 3)
    rng = random.Random(1)
    for trial in range(100):
        m = random_full_matching(rng, g, 3)
        partial = {2: rng.randrange(3), 3: rng.randrange(3), 4: rng.randrange(3)}
        a = residual_lists(g, {0, 1}, lists, m, partial)
        if not (len(a[0]) > len(a[1]) >= 1):
            continue
        full = extend_coloring(g, [0, 1], lists, m, partial)
        assert is_valid_coloring(g, lists, m,
                                 tuple(full[v] for v in range(5)))


def test_extend_conditions_violated_error():
    g = from_edge_list([(0, 1), (0, 2), (1, 2)])
    lists = uniform_lists(3, 2)
    m = MatchingAssignment.identity(g, 2)
    with pytest.raises(ConditionsViolated) as info:
        extend_coloring(g, [0, 1], lists, m, {2: 0})
    assert info.value.condition == 1  # both residual lists have size 1


def test_extend_randomized():
    rng = random.Random(42)
    for trial in range(200):
        g, order, lists, matching, partial = random_extension_instance(rng)
        full = extend_coloring(g, order, lists, matching, partial)
        assert is_valid_coloring(g, lists, matching,
                                 tuple(full[v] for v in range(g.n)))


def test_min_degree_extend_isolated():
    g = from_edge_list([(0, 1)], n=3)
    lists = uniform_lists(3, 3)
    m = MatchingAssignment.identity(g, 3)
    full = min_degree_extend(g, 2, lists, m, {0: 0, 1: 1})
    assert full[2] == 0


def test_min_degree_extend_two_neighbors_k3():
    g = from_edge_list([(0, 2), (1, 2), (0, 1)])
    lists = uniform_lists(3, 3)
    m = MatchingAssignment.identity(g, 3)
    full = min_degree_extend(g, 2, lists, m, {0: 0, 1: 1})
    assert full[2] == 2
    with pytest.raises(ValueError):
        min_degree_extend(g, 2, uniform_lists(3, 2), MatchingAssignment.identity(g, 2),
                          {0: 0, 1: 1})


def test_min_degree_extend_randomized():
    rng = random.Random(9)
    for trial in range(200):
        g, v, lists, matching, partial = random_low_degree_instance(rng)
        full = min_degree_extend(g, v, lists, matching, partial)
        assert is_valid_coloring(g, lists, matching,
                                 tuple(full[u] for u in range(g.n)))


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


def test_certify_single_vertex_pattern():
    pat = ConfigPattern.build(edges=[], host_degree=(2,), order=[0],
                              name="low-degree vertex")
    g = cycle_graph(5)
    assert certify_reducible(g, pat, 3)
    assert not certify_reducible(g, pat, 2)


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
    lists = uniform_lists(host.n, 3)
    rng = random.Random(17)
    successes = 0
    for trial in range(200):
        image = hits[rng.randrange(len(hits))]
        order = [image[i] for i in pat.order]
        matching = random_full_matching(rng, host, 3)
        outside = [v for v in range(host.n) if v not in order]
        sub_edges = [(a, b) for a, b in host.edges
                     if a in outside and b in outside]
        remap = {v: i for i, v in enumerate(outside)}
        sub = from_edge_list([(remap[a], remap[b]) for a, b in sub_edges],
                             n=len(outside))
        sub_m = MatchingAssignment({
            (remap[a], remap[b]): matching.pairs(a, b) for a, b in sub_edges})
        sub_col = find_coloring(sub, uniform_lists(sub.n, 3), sub_m)
        assert sub_col is not None
        partial = {v: sub_col[remap[v]] for v in outside}
        full = extend_coloring(host, order, lists, matching, partial)
        assert is_valid_coloring(host, lists, matching,
                                 tuple(full[v] for v in range(host.n)))
        successes += 1
    assert successes == 200


def test_certify_rejects_interior_violation():
    # interior vertex needs host degree 5: too many outside neighbors
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 5, 3), order=[0, 1, 2])
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3),
                           (1, 4), (1, 5), (4, 5), (3, 4)])
    assert find_pattern(host, pat)
    assert not certify_reducible(host, pat, 3)


def test_search_orders_can_rescue_a_bad_designated_order():
    pat = ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                              host_degree=(2, 3, 3), order=[1, 2, 0],
                              name="reversed")
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    hits = find_pattern(host, pat)
    assert hits and not any(
        check_extension_order(host, [image[i] for i in pat.order], 3).ok
        for image in hits)
    assert certify_reducible(host, pat, 3)


def test_order_search_matches_every_permutation():
    rng = random.Random(7)
    positive = 0
    for _ in range(600):
        n = rng.randint(2, 10)
        p = rng.uniform(0.15, 0.6)
        g = from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p], n=n)
        subset = rng.sample(range(n), rng.randint(2, min(n, 6)))
        k = rng.randint(2, 4)
        want = any_extension_order(g, subset, k)
        order = _extension_order(g, subset, k)
        assert (order is not None) == want, (g.edges, subset, k)
        if order is not None:  # the order found is one that passes
            assert sorted(order) == sorted(subset)
            assert check_extension_order(g, order, k).ok, (g.edges, order, k)
        positive += want
    assert positive > 50
    # through certify_reducible, on every pattern occurrence
    host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4),
                           (4, 5), (5, 3)])
    for pat in (
            ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2)],
                                host_degree=(2, 3, 3), order=[1, 2, 0]),
            ConfigPattern.build(edges=[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],
                                host_degree=(2, 3, 3, 4), order=[3, 0, 1, 2]),
            ConfigPattern.build(edges=[(0, 1), (0, 2)], host_degree=(4, 2, 2),
                                order=[0, 1, 2])):
        for k in (2, 3, 4):
            hits = find_pattern(host, pat)
            assert hits, pat
            certified = certify_reducible(host, pat, k)
            assert certified == all(
                any_extension_order(host, image, k) for image in hits)
            # the designated order is one of the orders searched
            assert certified or not all(
                check_extension_order(host, [image[i] for i in pat.order],
                                      k).ok for image in hits)


def test_certified_occurrences_extend_under_random_matchings():
    # the guarantee certify_reducible gives, replayed: on random hosts and
    # patterns cut from them, every coloring of the rest under a random
    # full matching extends across every occurrence, along the searched
    # order or, for one vertex, by the low-degree rule
    rng = random.Random(23)
    extended = {1: 0, 2: 0}
    for _ in range(300):
        n = rng.randint(2, 8)
        p = rng.uniform(0.2, 0.6)
        g = from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < p], n=n)
        cut = rng.sample(range(n), rng.randint(1, min(n, 5)))
        local = {v: i for i, v in enumerate(cut)}
        pat = ConfigPattern.build(
            edges=[(local[u], local[v]) for u, v in g.edges
                   if u in local and v in local],
            host_degree=[g.degree(v) for v in cut], order=range(len(cut)))
        k = rng.randint(2, 4)
        if not certify_reducible(g, pat, k):
            continue
        lists = uniform_lists(g.n, k)
        for image in find_pattern(g, pat):
            matching = random_full_matching(rng, g, k)
            rest, remap = delete_vertices(g, image)
            rest_matching = MatchingAssignment({
                (remap[u], remap[v]): matching.pairs(u, v)
                for u, v in g.edges if u in remap and v in remap})
            sub = find_coloring(rest, uniform_lists(rest.n, k), rest_matching)
            if sub is None:
                continue
            partial = {old: sub[new] for old, new in remap.items()}
            if pat.size == 1:
                full = min_degree_extend(g, image[0], lists, matching, partial)
            else:
                order = _extension_order(g, image, k)
                full = extend_coloring(g, order, lists, matching, partial)
            assert is_valid_coloring(g, lists, matching,
                                     tuple(full[v] for v in range(g.n)))
            extended[min(pat.size, 2)] += 1
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
