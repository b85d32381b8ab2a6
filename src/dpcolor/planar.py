"""Plane embeddings as rotation systems, with face tracing and incidence tables.

A rotation system gives each vertex a cyclic order of its neighbors.  Faces
are the orbits of the dart successor map: after entering v along (u, v) the
walk leaves along (v, w), where w follows u in the rotation at v.  An
embedding is accepted only if Euler's formula |V| - |E| + |F| = 2 holds,
which certifies genus 0 for connected input.

Face length counts boundary vertices with repetition; bridges and cut
vertices are allowed, so a face may repeat a vertex or be adjacent to
itself across a bridge.  All incidence statistics count such repetitions.

A PlaneEmbedding derives its incidence tables from its faces, rotation and
face_of_dart on first use and keeps them: face lengths (face_lengths), the
face at each corner of each vertex (corner_faces), the face across each
walk dart (across) and each face's boundary vertices (face_vertices).
The discharging rules index them directly.  Two distinct faces share an
edge exactly when one lies across a dart of the other, so across also
answers edge-sharing questions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph, _build_graph, from_edge_list, is_connected

__all__ = [
    "Face",
    "PlaneEmbedding",
    "Disconnected",
    "NotGenusZero",
    "NonPlanarOrTooLarge",
    "NotOnFace",
    "trace_faces",
    "classify_vertex",
    "brute_force_embed",
    "is_planar",
    "rotation_from_faces",
    "load_embedding",
    "dump_embedding",
]

Dart = tuple[int, int]

# bound on the rotation systems an exhaustive search may try
_ROTATION_LIMIT = 2_000_000


class Disconnected(ValueError):
    """Face tracing requires a connected graph."""


class NotGenusZero(ValueError):
    """The rotation system does not embed the graph in the plane."""


class NonPlanarOrTooLarge(ValueError):
    """Exhaustive rotation search failed or was not attempted.

    reason is "nonplanar" when every rotation was tried, else "too-large".
    """

    def __init__(self, message: str, reason: str = "too-large"):
        self.reason = reason
        super().__init__(message)


class NotOnFace(ValueError):
    """The queried vertex does not lie on the face boundary."""


@dataclass(frozen=True)
class Face:
    """One facial walk, stored as a cyclic dart sequence."""

    index: int
    walk: tuple[Dart, ...]

    @property
    def length(self) -> int:
        return len(self.walk)

    def vertices(self) -> tuple[int, ...]:
        """Boundary vertices in walk order, with repetition."""
        return tuple(u for u, _ in self.walk)


@dataclass(frozen=True)
class PlaneEmbedding:
    """A rotation system with its facial walks; face_of_dart maps each dart
    to the index of the face whose walk holds it.

    The incidence tables below are derived from these fields on first use
    and kept, so the queries built on them are tuple reads.
    """

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]
    face_of_dart: dict[Dart, int] = field(compare=False, repr=False)

    @cached_property
    def face_lengths(self) -> tuple[int, ...]:
        return tuple(len(f.walk) for f in self.faces)

    @cached_property
    def corner_faces(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the face at each corner, in rotation order."""
        face_of = self.face_of_dart
        return tuple(tuple(face_of[(u, v)] for u in order)
                     for v, order in enumerate(self.rotation))

    @cached_property
    def across(self) -> tuple[tuple[int, ...], ...]:
        """Per face, the face across each walk dart, in walk order."""
        face_of = self.face_of_dart
        return tuple(tuple(face_of[(v, u)] for u, v in f.walk)
                     for f in self.faces)

    @cached_property
    def face_vertices(self) -> tuple[tuple[int, ...], ...]:
        """Per face, its boundary vertices in walk order, with repetition."""
        return tuple(f.vertices() for f in self.faces)


def trace_faces(g: Graph, rot) -> PlaneEmbedding:
    """Trace facial walks of (g, rot) and verify Euler's formula.

    Raises ValueError unless rot orders each vertex's neighbors exactly
    once, Disconnected for disconnected input and NotGenusZero when the
    face count does not certify a plane embedding.
    """
    if len(rot) != g.n:
        raise ValueError(f"rotation has {len(rot)} entries for {g.n} vertices")
    rotation = tuple(map(tuple, rot))
    # the dart successor map: entering v along (u, v), leave along (v, w)
    # where w follows u in the rotation at v
    succ: dict[Dart, Dart] = {}
    for v, order in enumerate(rotation):
        if len(order) != len(g.adj[v]) or g.adj[v] != set(order):
            raise ValueError(f"rotation at {v} is not a permutation of its neighbors")
        for i, u in enumerate(order):
            succ[(u, v)] = (v, order[i + 1 - len(order)])
    if not is_connected(g):
        raise Disconnected("face tracing requires a connected graph")
    face_of: dict[Dart, int] = {}
    faces: list[Face] = []
    for start in sorted(succ):
        if start in face_of:
            continue
        walk = []
        d = start
        while d not in face_of:
            face_of[d] = len(faces)
            walk.append(d)
            d = succ[d]
        faces.append(Face(index=len(faces), walk=tuple(walk)))
    if not faces:
        # single vertex: one face with an empty boundary walk
        faces = [Face(index=0, walk=())]
    nfaces = len(faces)
    if g.n - g.m + nfaces != 2:
        raise NotGenusZero(
            f"V-E+F = {g.n}-{g.m}+{nfaces} = {g.n - g.m + nfaces}, want 2"
        )
    return PlaneEmbedding(graph=g, rotation=rotation, faces=tuple(faces),
                          face_of_dart=face_of)


def classify_vertex(emb: PlaneEmbedding, v: int, f: int) -> str:
    """Label v relative to f: 'poor', 'semi-rich' or 'rich'.

    Counts the distinct 3-faces that contain v and share an edge with f:
    two or more means poor, one semi-rich, zero rich.  Requires deg(v) >= 4
    and v on f's boundary.
    """
    d = emb.graph.degrees()[v]
    if d < 4:
        raise ValueError(f"vertex {v} has degree {d} < 4")
    if v not in emb.face_vertices[f]:
        raise NotOnFace(f"vertex {v} is not on face {f}")
    length, sides = emb.face_lengths, emb.across[f]
    hits = {t for t in emb.corner_faces[v]
            if t != f and length[t] == 3 and t in sides}
    if len(hits) >= 2:
        return "poor"
    return "semi-rich" if hits else "rich"


def _check_search_bounds(g: Graph, max_n: int) -> None:
    """The guards of the rotation search, applied to the graph as given:
    NonPlanarOrTooLarge past max_n vertices or _ROTATION_LIMIT rotation
    systems, Disconnected for disconnected input."""
    if g.n > max_n:
        raise NonPlanarOrTooLarge(f"n={g.n} exceeds brute-force bound {max_n}")
    if not is_connected(g):
        raise Disconnected("embedding search requires a connected graph")
    space = 1
    for v in range(g.n):
        d = g.degree(v)
        for i in range(2, d):
            space *= i
        if space > _ROTATION_LIMIT:
            raise NonPlanarOrTooLarge(
                f"rotation space exceeds limit {_ROTATION_LIMIT}")


def _rotation_search(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """The first rotation system of connected g that passes the Euler check,
    or None.

    Faces are counted as cycles of the dart successor map without building
    an embedding.  Darts are numbered by head vertex, so the successor map
    of a rotation system is one precomputed block per vertex, concatenated.
    """
    heads = [(u, v) for v in range(g.n) for u in sorted(g.adj[v])]
    index = {d: i for i, d in enumerate(heads)}
    # fix the first neighbor at each vertex: cyclic orders, not linear ones
    choices = []
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        options = []
        for rest in itertools.permutations(nbrs[1:]):
            order = tuple(nbrs[:1]) + rest
            after = {u: order[(i + 1) % len(order)] for i, u in enumerate(order)}
            options.append((order, tuple(index[(v, after[u])] for u in nbrs)))
        choices.append(options)
    # trace_faces counts one face, not none, for a graph without darts
    want = g.m - g.n + 2 - (not heads)
    darts = range(len(heads))
    for combo in itertools.product(*choices):
        succ = [d for _, block in combo for d in block]
        seen = bytearray(len(heads))
        faces = 0
        for start in darts:
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = 1
                    d = succ[d]
        if faces == want:
            return tuple(order for order, _ in combo)
    return None


def brute_force_embed(g: Graph, max_n: int = 9) -> PlaneEmbedding:
    """Search rotation systems for one passing the Euler check.

    Intended for small graphs; raises NonPlanarOrTooLarge when the graph
    exceeds max_n, when the rotation space exceeds _ROTATION_LIMIT, or when
    every rotation fails (certifying non-planarity for connected input).
    """
    _check_search_bounds(g, max_n)
    rotation = _rotation_search(g)
    if rotation is None:
        raise NonPlanarOrTooLarge("no rotation system passes the Euler check",
                                  reason="nonplanar")
    return trace_faces(g, rotation)


def _smooth(g: Graph) -> Graph:
    """g with vertices of degree at most 1 deleted and vertices of degree 2
    smoothed, dropping parallel edges, until neither step applies.

    Both steps keep planarity in both directions, so the result is planar
    exactly when g is.  It has no vertex of degree below 3, so it is empty,
    K4, or has at least 5 vertices.
    """
    adj = [set(a) for a in g.adj]
    removed = [False] * g.n
    stack = [v for v in range(g.n) if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if removed[v] or len(nbrs) > 2:
            continue
        removed[v] = True
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        for u in nbrs:
            if len(adj[u]) <= 2:
                stack.append(u)
    keep = [v for v in range(g.n) if not removed[v]]
    index = {v: i for i, v in enumerate(keep)}
    return from_edge_list([(index[u], index[v]) for u in keep for v in adj[u]
                           if u < v], n=len(keep))


def is_planar(g: Graph, max_n: int = 9) -> bool:
    """Whether g is planar, decided on g reduced by _smooth.

    The bounds of brute_force_embed apply to g itself, before the
    reduction: past them this raises NonPlanarOrTooLarge (reason
    "too-large"), and on disconnected input Disconnected, as
    brute_force_embed does.  The reduced graph is planar when it has at
    most 4 vertices and otherwise goes to the rotation search.
    """
    _check_search_bounds(g, max_n)
    core = _smooth(g)
    if core.n <= 4:
        return True
    return _rotation_search(core) is not None


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


# ---------------------------------------------------------------------------
# Embedding file: {"n": ..., "rotation": [[neighbors in cyclic order], ...]}

def load_embedding(source) -> PlaneEmbedding:
    """Load and validate an embedding document (parsed JSON or JSON text)."""
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict) or "n" not in doc or "rotation" not in doc:
        raise ValueError("embedding document needs 'n' and 'rotation'")
    n, rotation = doc["n"], doc["rotation"]
    if not (isinstance(n, int) and isinstance(rotation, list)
            and all(map(isinstance, rotation, itertools.repeat(list)))
            and all(map(isinstance, itertools.chain.from_iterable(rotation),
                        itertools.repeat(int)))):
        raise ValueError("embedding 'n' must be an integer and 'rotation' a "
                         "list of integer lists")
    rot = [tuple(order) for order in rotation]
    if len(rot) != n:
        raise ValueError("rotation length disagrees with n")
    edges = set()
    for v, order in enumerate(rot):
        for u in order:
            if not 0 <= u < n:
                raise ValueError(f"neighbor {u} out of range at vertex {v}")
            if u == v:
                raise ValueError(f"self-loop at vertex {v}")
            edges.add((v, u) if v < u else (u, v))
    for u, v in edges:
        if u not in rot[v] or v not in rot[u]:
            raise ValueError(f"edge ({u}, {v}) is not symmetric in the rotation")
    # the loops above checked what from_edge_list would; trace_faces checks
    # that each order lists its vertex's neighbors once
    return trace_faces(_build_graph(n, edges), rot)


def dump_embedding(emb: PlaneEmbedding) -> str:
    doc = {"n": emb.graph.n, "rotation": [list(r) for r in emb.rotation]}
    return json.dumps(doc, indent=2)
