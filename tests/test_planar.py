import itertools

import networkx as nx
import pytest

import dpcolor.planar
from dpcolor import (
    Disconnected,
    NonPlanarOrTooLarge,
    NotGenusZero,
    NotOnFace,
    brute_force_embed,
    classify_vertex,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    dump_embedding,
    from_edge_list,
    is_planar,
    load_embedding,
    trace_faces,
)
from fixtures import (
    EMBEDDING_REJECTIONS,
    cube,
    cycle_embedding,
    polygon_with_triangles,
    prism,
    subdivided,
    tetrahedron,
    two_squares_sharing_a_vertex,
    with_pendant_paths,
)
from smallgraphs import connected_graphs


def test_tetrahedron_faces():
    emb = tetrahedron()
    assert sorted(f.length for f in emb.faces) == [3, 3, 3, 3]


def test_cycle_has_two_faces():
    emb = cycle_embedding(6)
    assert [f.length for f in emb.faces] == [6, 6]


def test_k5_never_embeds():
    k5 = complete_graph(5)
    nbrs = [sorted(k5.adj[v]) for v in range(5)]
    count = 0
    for rest in itertools.product(*[itertools.permutations(nb[1:]) for nb in nbrs]):
        rot = tuple((nbrs[v][0],) + rest[v] for v in range(5))
        with pytest.raises(NotGenusZero):
            trace_faces(k5, rot)
        count += 1
        if count >= 20:
            break
    # the exhaustive search visits every rotation and finds none
    with pytest.raises(NonPlanarOrTooLarge):
        brute_force_embed(k5)


def test_k33_not_planar():
    with pytest.raises(NonPlanarOrTooLarge):
        brute_force_embed(complete_bipartite(3, 3))


def test_brute_force_prism():
    emb = brute_force_embed(prism().graph)
    assert sorted(f.length for f in emb.faces) == [3, 3, 4, 4, 4]


def networkx_planar(g):
    h = nx.Graph(sorted(g.edges))
    h.add_nodes_from(range(g.n))
    return nx.check_planarity(h)[0]


def named_planarity_cases():
    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    theta = from_edge_list([(0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                            (0, 5), (5, 6), (6, 7), (7, 1)])
    # K3,3 plus a path of length two beside three of its edges: smoothing
    # the middle vertices makes parallel edges, which are dropped
    eared_k33 = from_edge_list(sorted(k33.edges) + [(0, 6), (6, 3), (1, 7),
                                                    (7, 4), (2, 8), (8, 5)])
    return {
        "K5": (k5, False),
        "K3,3": (k33, False),
        "subdivided K5 with pendant paths":
            (with_pendant_paths(subdivided(k5, 1), [0, 7], 2), False),
        "subdivided K3,3 with pendant paths":
            (with_pendant_paths(subdivided(k33, 1), [0, 9], 3), False),
        "theta": (theta, True),
        "eared K3,3 on 9 vertices": (eared_k33, False),
        "subdivided K4 with a pendant path":
            (with_pendant_paths(subdivided(complete_graph(4), 2), [0], 2), True),
        "prism": (prism().graph, True),
        "octahedron": (from_edge_list([(u, v) for u in range(6)
                                       for v in range(u + 1, 6)
                                       if v != u + 3]), True),
    }


def test_is_planar_named_graphs():
    for name, (g, planar) in named_planarity_cases().items():
        assert networkx_planar(g) == planar, name
        assert is_planar(g) == planar, name


def test_is_planar_matches_networkx_up_to_6_vertices(monkeypatch):
    for g in connected_graphs(6):
        assert is_planar(g) == networkx_planar(g), g.edges
    # every labelled connected graph with at most 6 vertices, as the
    # relabellings of the classes above.  An
    # exhaustive search of the larger nonplanar reductions tries up to
    # 110,592 rotation systems each, so here networkx decides the reduced
    # graph that would go to the search; the search itself is checked on
    # the classes above
    searched = []

    def search(core):
        degrees = [mask.bit_count() for mask in core]
        assert len(core) >= 5 and min(degrees) >= 3, core
        searched.append(len(core))
        pairs = [(u, v) for u, mask in enumerate(core)
                 for v in range(u + 1, len(core)) if mask >> v & 1]
        return () if networkx_planar(from_edge_list(pairs)) else None

    monkeypatch.setattr(dpcolor.planar, "_rotation_search", search)
    labelled = [0] * 7
    for g in connected_graphs(6):
        want = networkx_planar(g)
        seen = set()
        for perm in itertools.permutations(range(g.n)):
            relabelled = from_edge_list(
                [(perm[u], perm[v]) for u, v in g.edges], n=g.n)
            if relabelled.edges in seen:
                continue
            seen.add(relabelled.edges)
            assert is_planar(relabelled) == want, relabelled.edges
        labelled[g.n] += len(seen)
    assert labelled == [0, 1, 1, 4, 38, 728, 26_704]  # OEIS A001187
    assert len(searched) > 5_000


def test_is_planar_keeps_the_search_bounds():
    # no vertex bound: a star reduces to nothing and a cycle to K3
    star = from_edge_list([(0, v) for v in range(1, 12)])
    assert is_planar(star) and is_planar(cycle_graph(10))
    # m > 3n - 6 is nonplanar without a search
    k6 = complete_graph(6)
    k6_minus_e = from_edge_list(sorted(k6.edges)[1:])
    for g in (k6, k6_minus_e):
        assert is_planar(g) is False
        with pytest.raises(NonPlanarOrTooLarge) as exc:
            brute_force_embed(g)
        assert exc.value.reason == "nonplanar"
    # the only bound is the rotation space of the graph searched: the
    # cubic prism C11 x K2 has 2^22 rotation systems, and degree reduction
    # leaves it whole.  brute_force_embed measures the star itself (10! at
    # its centre), which is_planar never searches
    prism_11 = from_edge_list(
        [(i, (i + 1) % 11) for i in range(11)]
        + [(11 + i, 11 + (i + 1) % 11) for i in range(11)]
        + [(i, 11 + i) for i in range(11)])
    for g, check in ((prism_11, is_planar), (prism_11, brute_force_embed),
                     (star, brute_force_embed)):
        with pytest.raises(NonPlanarOrTooLarge) as exc:
            check(g)
        assert exc.value.reason == "too-large"
    two_parts = from_edge_list([(0, 1), (2, 3)])
    for check in (is_planar, brute_force_embed):
        with pytest.raises(Disconnected):
            check(two_parts)


def test_trace_requires_connected():
    g = from_edge_list([(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        trace_faces(g, ((1,), (0,), (3,), (2,)))


def test_single_vertex_and_single_edge():
    g1 = from_edge_list([], n=1)
    emb1 = trace_faces(g1, ((),))
    assert len(emb1.faces) == 1 and emb1.faces[0].length == 0
    g2 = from_edge_list([(0, 1)])
    emb2 = trace_faces(g2, ((1,), (0,)))
    assert len(emb2.faces) == 1 and emb2.faces[0].length == 2


def test_dart_partition_and_length_sum():
    for emb in (tetrahedron(), cube(), prism(), two_squares_sharing_a_vertex()):
        g = emb.graph
        assert sum(f.length for f in emb.faces) == 2 * g.m
        darts = [d for f in emb.faces for d in f.walk]
        assert len(darts) == len(set(darts)) == 2 * g.m


def test_euler_charge_identity():
    for emb in (tetrahedron(), cube(), prism(), cycle_embedding(7)):
        g = emb.graph
        total = sum(g.degree(v) - 4 for v in range(g.n))
        total += sum(f.length - 4 for f in emb.faces)
        assert total == -8


def test_face_adjacency_cube():
    emb = cube()
    for f in emb.faces:
        others = set(emb.across[f.index])
        assert len(others) == 4 and f.index not in others


def test_face_adjacency_cycle_and_k4():
    emb = cycle_embedding(6)
    inner, outer = emb.faces
    assert all(other == outer.index for other in emb.across[inner.index])
    emb = tetrahedron()
    for f in emb.faces:
        neighbors = emb.across[f.index]
        assert len(set(neighbors)) == 3


def test_classify_vertex_rich_at_cut_vertex():
    emb = two_squares_sharing_a_vertex()
    assert emb.graph.degree(0) == 4
    for f in set(emb.corner_faces[0]):
        assert classify_vertex(emb, 0, f) == "rich"
    # vertex 0 appears twice on the outer walk
    outer = max(emb.faces, key=lambda f: f.length)
    assert outer.vertices().count(0) == 2


def test_classify_vertex_poor_and_semi_rich():
    emb = polygon_with_triangles(11, [0, 1, 3, 5, 7, 9])
    g = emb.graph
    # vertex 1 sits between the two glued triangles: degree 4, both flanking
    # faces of the 11-gon are 3-faces
    assert g.degree(1) == 4
    f11 = next(f.index for f in emb.faces if f.length == 11)
    assert classify_vertex(emb, 1, f11) == "poor"
    with pytest.raises(NotOnFace):
        off = next(f.index for f in emb.faces
                   if f.length == 3 and 1 not in f.vertices())
        classify_vertex(emb, 1, off)
    # one flanking 3-face only: an 11-gon with a single glued triangle and a
    # pendant spike keeping the shared vertex at degree 4
    import math

    from fixtures import embed_from_coordinates

    n = 11
    edges = [(i, (i + 1) % n) for i in range(n)] + [(1, 11), (2, 11), (1, 12)]
    coords = [(10 * math.cos(2 * math.pi * i / n),
               10 * math.sin(2 * math.pi * i / n)) for i in range(n)]
    coords.append((13 * math.cos(2 * math.pi * 1.5 / n),
                   13 * math.sin(2 * math.pi * 1.5 / n)))   # apex
    coords.append((14 * math.cos(2 * math.pi / n),
                   14 * math.sin(2 * math.pi / n)))          # pendant
    emb3 = embed_from_coordinates(from_edge_list(edges, n=13), coords)
    assert emb3.graph.degree(1) == 4
    f11 = next(f.index for f in emb3.faces if f.length == 11)
    assert classify_vertex(emb3, 1, f11) == "semi-rich"


def test_classify_vertex_partition():
    emb = polygon_with_triangles(11, [0, 1, 3, 5, 7, 9])
    f11 = next(f.index for f in emb.faces if f.length == 11)
    for v in emb.faces[f11].vertices():
        if emb.graph.degree(v) >= 4:
            assert classify_vertex(emb, v, f11) in {"poor", "semi-rich", "rich"}


def test_embedding_file_roundtrip():
    emb = cube()
    text = dump_embedding(emb)
    back = load_embedding(text)
    assert back.rotation == emb.rotation
    assert sorted(f.length for f in back.faces) == [4] * 6


def test_embedding_file_validation():
    with pytest.raises(ValueError):
        load_embedding('{"n": 2, "rotation": [[1], []]}')
    with pytest.raises(ValueError):
        load_embedding('{"n": 1, "rotation": [[0]]}')
    with pytest.raises(ValueError):
        load_embedding('{"rotation": []}')
    with pytest.raises(ValueError):
        load_embedding('[1]')  # JSON text, never a file name


@pytest.mark.parametrize("doc, kind, message", EMBEDDING_REJECTIONS.values(),
                         ids=EMBEDDING_REJECTIONS)
def test_load_embedding_rejections(doc, kind, message):
    with pytest.raises(ValueError) as exc:
        load_embedding(doc)
    assert type(exc.value) is kind
    assert str(exc.value) == message
