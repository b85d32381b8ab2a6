"""Shared embedding fixtures: polyhedra, decagon gadgets, random plane graphs,
subdivided graphs, and the discharge benchmark's frozen embeddings."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from dpcolor import (Disconnected, Graph, NotGenusZero, PlaneEmbedding,
                     from_edge_list, load_embedding, trace_faces)

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def frozen_plane_embeddings():
    """The embeddings the discharge benchmark runs on: the four polyhedra
    and the 200 frozen random plane embeddings."""
    for path in sorted((BENCH_DATA / "plane").glob("*.json")):
        doc = json.loads(path.read_text())
        for one in doc if isinstance(doc, list) else [doc]:
            yield load_embedding(one)


def rotation_from_faces(n: int, walks) -> tuple[tuple[int, ...], ...]:
    """Reconstruct a rotation system from oriented facial walks.

    Each walk is a vertex sequence; every dart must appear in exactly one
    walk.  The corner x -> v -> y fixes y as the rotation successor of x
    at v.  Raises ValueError if the corners do not close into one cycle
    per vertex.
    """
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    for walk in walks:
        L = len(walk)
        for i, v in enumerate(walk):
            x = walk[i - 1]
            y = walk[(i + 1) % L]
            if x in succ[v]:
                raise ValueError(f"dart ({x}, {v}) appears in two walks")
            succ[v][x] = y
    rotation = []
    for v in range(n):
        if not succ[v]:
            rotation.append(())
            continue
        start = min(succ[v])
        order = [start]
        while True:
            nxt = succ[v][order[-1]]
            if nxt == start:
                break
            if nxt in order or len(order) > len(succ[v]):
                raise ValueError(f"corners at {v} do not close into one cycle")
            order.append(nxt)
        if len(order) != len(succ[v]):
            raise ValueError(f"corners at {v} split into several cycles")
        rotation.append(tuple(order))
    return tuple(rotation)


def embed_from_coordinates(g: Graph, coords) -> PlaneEmbedding:
    """Rotation by angular order around each vertex of a straight-line drawing."""
    rot = []
    for v in range(g.n):
        cx, cy = coords[v]
        nbrs = sorted(
            g.adj[v],
            key=lambda u: math.atan2(coords[u][1] - cy, coords[u][0] - cx),
        )
        rot.append(tuple(nbrs))
    return trace_faces(g, rot)


def subdivided(g: Graph, times: int) -> Graph:
    """g with every edge replaced by a path through `times` new vertices."""
    edges, nxt = [], g.n
    for u, v in sorted(g.edges):
        path = [u, *range(nxt, nxt + times), v]
        nxt += times
        edges += zip(path, path[1:])
    return from_edge_list(edges, n=nxt)


def with_pendant_paths(g: Graph, attach, length: int) -> Graph:
    """g with a path of `length` new vertices hung from each vertex in attach."""
    edges, nxt = list(g.edges), g.n
    for v in attach:
        path = [v, *range(nxt, nxt + length)]
        nxt += length
        edges += zip(path, path[1:])
    return from_edge_list(edges, n=nxt)


def cycle_embedding(n: int) -> PlaneEmbedding:
    g = from_edge_list([(i, (i + 1) % n) for i in range(n)])
    rot = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    return trace_faces(g, rot)


def tetrahedron() -> PlaneEmbedding:
    g = from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    coords = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    return embed_from_coordinates(g, coords)


def cube() -> PlaneEmbedding:
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    edges += [(i, i + 4) for i in range(4)]
    g = from_edge_list(edges)
    outer = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
    inner = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    return embed_from_coordinates(g, outer + inner)


def prism() -> PlaneEmbedding:
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 5)]
    g = from_edge_list(edges)
    outer = [(math.cos(a), math.sin(a)) for a in
             (math.pi / 2 + 2 * math.pi * i / 3 for i in range(3))]
    inner = [(0.4 * x, 0.4 * y) for x, y in outer]
    return embed_from_coordinates(g, [(2 * x, 2 * y) for x, y in outer] + inner)


def dodecahedron() -> PlaneEmbedding:
    """Outer pentagon 0-4, middle decagon 5-14, inner pentagon 15-19."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 10) for i in range(10)]
    edges += [(15 + i, 15 + (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + 2 * i) for i in range(5)]            # outer spokes
    edges += [(6 + 2 * i, 15 + i) for i in range(5)]       # inner spokes
    g = from_edge_list(edges)
    coords = []
    for i in range(5):
        a = math.pi / 2 + 2 * math.pi * i / 5
        coords.append((10 * math.cos(a), 10 * math.sin(a)))
    for i in range(10):
        a = math.pi / 2 + 2 * math.pi * i / 10
        coords.append((6 * math.cos(a), 6 * math.sin(a)))
    for i in range(5):
        a = math.pi / 2 + 2 * math.pi * (2 * i + 1) / 10
        coords.append((3 * math.cos(a), 3 * math.sin(a)))
    return embed_from_coordinates(g, coords)


def truncated_tetrahedron() -> PlaneEmbedding:
    """12 vertices, 4 triangles + 4 hexagons, all degrees 3.

    Vertex (X, Y) is the corner of tetrahedron vertex X facing vertex Y;
    corner triangles plus one edge per tetrahedron edge.  All degrees are
    3, so the rotation search is tiny.
    """
    from dpcolor import brute_force_embed

    ids = {}
    for x in range(4):
        for y in range(4):
            if x != y:
                ids[(x, y)] = len(ids)
    edges = []
    for x in range(4):
        others = [y for y in range(4) if y != x]
        for i in range(3):
            edges.append((ids[(x, others[i])], ids[(x, others[(i + 1) % 3])]))
    for x in range(4):
        for y in range(x + 1, 4):
            edges.append((ids[(x, y)], ids[(y, x)]))
    return brute_force_embed(from_edge_list(edges))


def polygon_with_triangles(n: int, covered_edges) -> PlaneEmbedding:
    """An n-gon (vertices 0..n-1) with an apex triangle glued outside each
    edge (i, i+1) listed in covered_edges."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    apex = n
    for i in covered_edges:
        edges += [(i, apex), ((i + 1) % n, apex)]
        apex += 1
    g = from_edge_list(edges)
    coords = [(10 * math.cos(2 * math.pi * i / n), 10 * math.sin(2 * math.pi * i / n))
              for i in range(n)]
    for i in covered_edges:
        a = 2 * math.pi * (i + 0.5) / n
        coords.append((13 * math.cos(a), 13 * math.sin(a)))
    return embed_from_coordinates(g, coords)


def two_squares_sharing_a_vertex() -> PlaneEmbedding:
    """Cut vertex 0 of degree 4; the outer walk visits it twice."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    g = from_edge_list(edges)
    coords = [(0, 0), (2, 1), (4, 0), (2, -1), (-2, 1), (-4, 0), (-2, -1)]
    return embed_from_coordinates(g, coords)


def good_pair_fixture():
    """A 10-face on ten 3-vertices receiving the 1/6 gift from another 10-face.

    Decagon v0..v9 (face walks below), helpers a (NW triangle with v9, v0),
    b (NE triangle with v1, v2), hub c in the south, and a 6-vertex arc
    p1..p6 in the north.  The donor face runs v0, v1, b, p6..p1, a and
    shares the (3,3)-edge (v0, v1) with the decagon.

    Returns (embedding, donor_index, receiver_index).
    """
    v = list(range(10))
    a, b, c = 10, 11, 12
    p = list(range(13, 19))  # p1..p6
    walks = [
        [v[0], v[9], v[8], v[7], v[6], v[5], v[4], v[3], v[2], v[1]],  # decagon
        [v[9], v[0], a],
        [v[1], v[2], b],
        [v[0], v[1], b, p[5], p[4], p[3], p[2], p[1], p[0], a],        # donor
        [c, v[8], v[9], a],
        [b, v[2], v[3], c],
        [c, v[3], v[4]],
        [c, v[4], v[5]],
        [c, v[5], v[6]],
        [c, v[6], v[7]],
        [c, v[7], v[8]],
        [a, p[0], c],
        [p[5], b, c],
        [c, p[0], p[1], p[2], p[3], p[4], p[5]],                        # outer
    ]
    edges = set()
    for w in walks:
        for i, x in enumerate(w):
            y = w[(i + 1) % len(w)]
            edges.add((min(x, y), max(x, y)))
    g = from_edge_list(sorted(edges), n=19)
    rot = rotation_from_faces(19, walks)
    emb = trace_faces(g, rot)
    receiver = next(f for f, walk in enumerate(emb.faces)
                    if sorted(u for u, _ in walk) == sorted(walks[0]))
    donor = next(f for f, walk in enumerate(emb.faces)
                 if sorted(u for u, _ in walk) == sorted(walks[3]))
    return emb, donor, receiver


def special_vertex_fixture():
    """A degree-4 vertex on a triangle and three 11-faces: semi-rich to two
    of them, rich to the third.

    Returns (embedding, center, triangle_index, rich_face_index,
    semi_rich_face_indices).
    """
    # center 0; spokes x=1, y=2, z=3, w=4; triangle (0, x, y);
    # three length-8 paths y->z, z->w, w->x close the three big faces
    x, y, z, w = 1, 2, 3, 4
    ay = [5 + i for i in range(8)]    # path y .. z
    cz = [13 + i for i in range(8)]   # path z .. w
    bw = [21 + i for i in range(8)]   # path w .. x
    walks = [
        [0, x, y],
        [0, y] + ay + [z],
        [0, z] + cz + [w],
        [0, w] + bw + [x],
        [x, 0,  # outer: around the whole figure
         ] ,
    ]
    # outer face: x, y via triangle edge, then the reversed paths
    outer = [y, x] + list(reversed(bw)) + [w] + list(reversed(cz)) + [z] + list(reversed(ay))
    walks[-1] = outer
    edges = set()
    for wk in walks:
        for i, u in enumerate(wk):
            vtx = wk[(i + 1) % len(wk)]
            edges.add((min(u, vtx), max(u, vtx)))
    g = from_edge_list(sorted(edges), n=29)
    rot = rotation_from_faces(29, walks)
    emb = trace_faces(g, rot)

    def face_index(verts):
        target = sorted(verts)
        return next(f for f, walk in enumerate(emb.faces)
                    if sorted(u for u, _ in walk) == target)

    tri = face_index(walks[0])
    semi1 = face_index(walks[1])
    rich = face_index(walks[2])
    semi2 = face_index(walks[3])
    return emb, 0, tri, rich, (semi1, semi2)


def random_plane_embedding(rng: random.Random, n_target: int,
                           chord_tries: int = 6) -> PlaneEmbedding:
    """Random connected plane graph grown by corner insertions and face chords.

    Starts from one edge; each growth step either hangs a new vertex in a
    random corner or adds a chord between two vertices of one face, both of
    which preserve genus 0 by construction.
    """
    rot: list[list[int]] = [[1], [0]]

    def trace():
        g = from_edge_list(
            [(u, vv) for u in range(len(rot)) for vv in rot[u] if u < vv],
            n=len(rot))
        return trace_faces(g, tuple(tuple(r) for r in rot))

    while len(rot) < n_target:
        emb = trace()
        walk = emb.faces[rng.randrange(len(emb.faces))]
        pos = rng.randrange(len(walk))
        u, vtx = walk[pos]
        # hang a new leaf in the corner entered by this dart
        new = len(rot)
        rot.append([vtx])
        at = rot[vtx].index(u)
        rot[vtx].insert(at + 1, new)
    emb = trace()
    for _ in range(chord_tries):
        walk = emb.faces[rng.randrange(len(emb.faces))]
        if len(walk) < 4:
            continue
        i = rng.randrange(len(walk))
        j = rng.randrange(len(walk))
        u = walk[i][0]
        vtx = walk[j][0]
        if u == vtx or vtx in rot[u]:
            continue
        # insert each endpoint after the reversed previous dart's origin
        pu = walk[i - 1][0]
        pv = walk[j - 1][0]
        rot[u].insert(rot[u].index(pu) + 1, vtx)
        rot[vtx].insert(rot[vtx].index(pv) + 1, u)
        emb = trace()
    return emb


#: One embedding document per way load_embedding rejects its input, with
#: the exception type and message it raises: (document, type, message).
EMBEDDING_REJECTIONS = {
    "rotation length differs from n": (
        '{"n": 3, "rotation": [[1], [0]]}', ValueError,
        "rotation length disagrees with n"),
    "non-integer entry": (
        '{"n": 2, "rotation": [[1.0], [0]]}', ValueError,
        "embedding 'n' must be an integer and 'rotation' a list of integer "
        "lists"),
    "boolean entries": (
        '{"n": 2, "rotation": [[true], [false]]}', ValueError,
        "embedding 'n' must be an integer and 'rotation' a list of integer "
        "lists"),
    "boolean n": (
        '{"n": true, "rotation": [[]]}', ValueError,
        "embedding 'n' must be an integer and 'rotation' a list of integer "
        "lists"),
    "neighbor out of range": (
        '{"n": 2, "rotation": [[2], [0]]}', ValueError,
        "neighbor 2 out of range at vertex 0"),
    "self-loop": (
        '{"n": 2, "rotation": [[0, 1], [0]]}', ValueError,
        "self-loop at vertex 0"),
    "asymmetric edge": (
        '{"n": 2, "rotation": [[1], []]}', ValueError,
        "edge (0, 1) is not symmetric in the rotation"),
    "asymmetric edges, the first in rotation order named": (
        '{"n": 3, "rotation": [[2, 1], [], []]}', ValueError,
        "edge (0, 2) is not symmetric in the rotation"),
    "repeated neighbor": (
        '{"n": 2, "rotation": [[1, 1], [0]]}', ValueError,
        "rotation at 0 is not a permutation of its neighbors"),
    "disconnected": (
        '{"n": 4, "rotation": [[1], [0], [3], [2]]}', Disconnected,
        "face tracing requires a connected graph"),
    "not genus 0": (
        '{"n": 5, "rotation": [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], '
        '[0, 1, 2, 4], [0, 1, 2, 3]]}', NotGenusZero,
        "V-E+F = 5-10+3 = -2, want 2"),
}
