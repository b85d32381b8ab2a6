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

is_planar reduces the graph by degree and searches the rotation systems of
what is left; the search settles m > 3n - 6 at once and refuses more than
_ROTATION_LIMIT rotation systems.  No vertex count is bounded.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph, _build_graph, _connected, is_connected

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
    """The rotation search found no plane embedding, or was not attempted.

    reason is "nonplanar" when every rotation failed or m > 3n - 6, else
    "too-large": the graph searched has over _ROTATION_LIMIT rotations.
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


def _rotation_search(masks) -> tuple[tuple[int, ...], ...] | None:
    """The first rotation system of the connected graph with these neighbor
    bitmasks that passes the Euler check, or None.

    A graph with n >= 3 and m > 3n - 6 has none; a rotation space
    prod (deg - 1)! above _ROTATION_LIMIT raises NonPlanarOrTooLarge.
    Faces are counted as cycles of the dart successor map without building
    an embedding.  Darts are numbered by head vertex, so the successor map
    of a rotation system is one precomputed block per vertex, concatenated.
    """
    n, m = len(masks), sum(mask.bit_count() for mask in masks) // 2
    if n >= 3 and m > 3 * n - 6:
        return None
    if math.prod(math.factorial(max(mask.bit_count() - 1, 0))
                 for mask in masks) > _ROTATION_LIMIT:
        raise NonPlanarOrTooLarge(
            f"rotation space exceeds limit {_ROTATION_LIMIT}")
    nbrs = [[u for u in range(n) if mask >> u & 1] for mask in masks]
    heads = [(u, v) for v in range(n) for u in nbrs[v]]
    index = {d: i for i, d in enumerate(heads)}
    # fix the first neighbor at each vertex: cyclic orders, not linear ones
    choices = []
    for v, row in enumerate(nbrs):
        options = []
        for rest in itertools.permutations(row[1:]):
            order = tuple(row[:1]) + rest
            after = {u: order[(i + 1) % len(order)] for i, u in enumerate(order)}
            options.append((order, tuple(index[(v, after[u])] for u in row)))
        choices.append(options)
    # trace_faces counts one face, not none, for a graph without darts
    want = m - n + 2 - (not heads)
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


def brute_force_embed(g: Graph) -> PlaneEmbedding:
    """Search rotation systems of g for one passing the Euler check.

    Raises Disconnected for disconnected input, and NonPlanarOrTooLarge
    when g is not planar (reason "nonplanar") or has more than
    _ROTATION_LIMIT rotation systems ("too-large").
    """
    if not _connected(g.masks):
        raise Disconnected("embedding search requires a connected graph")
    rotation = _rotation_search(g.masks)
    if rotation is None:
        raise NonPlanarOrTooLarge("no rotation system passes the Euler check",
                                  reason="nonplanar")
    return trace_faces(g, rotation)


def _smooth(masks) -> list[int]:
    """The neighbor bitmasks of the graph with bitmasks `masks` after
    deleting vertices of degree at most 1 and smoothing vertices of degree
    2, dropping parallel edges, until neither step applies; the vertices
    left keep their order and are numbered from 0.

    Both steps keep planarity in both directions, so the result is planar
    exactly when the graph is.  It has no vertex of degree below 3, so it
    is empty, K4, or has at least 5 vertices.
    """
    adj = list(masks)
    left = (1 << len(adj)) - 1
    stack = [v for v, mask in enumerate(adj) if mask.bit_count() <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if not left >> v & 1 or nbrs.bit_count() > 2:
            continue
        bit = 1 << v
        left ^= bit
        # drop v from its neighbors' sets and join the two of them, if
        # there are two; an edge already there stays single
        low = nbrs & -nbrs
        high = nbrs ^ low
        for end, other in ((low, high), (high, low)):
            if end:
                u = end.bit_length() - 1
                adj[u] = adj[u] ^ bit | other
                if adj[u].bit_count() <= 2:
                    stack.append(u)
    keep = [v for v in range(len(adj)) if left >> v & 1]
    return [sum(1 << i for i, u in enumerate(keep) if adj[v] >> u & 1)
            for v in keep]


def _is_planar_connected(masks) -> bool:
    """Whether the connected graph with these neighbor bitmasks (as
    Graph.masks) is planar, decided on the graph reduced by _smooth; the
    caller has established connectivity."""
    # on connected input _smooth never raises m - n unless it deletes every
    # vertex, and what it leaves has minimum degree 3, so 2m >= 3n: with
    # m - n <= 2 it leaves at most 4 vertices, and the graph is planar
    if sum(mask.bit_count() for mask in masks) // 2 - len(masks) <= 2:
        return True
    core = _smooth(masks)
    return len(core) <= 4 or _rotation_search(core) is not None


def is_planar(g: Graph) -> bool:
    """Whether connected g is planar, decided on g reduced by degree.

    Raises Disconnected on disconnected input, and NonPlanarOrTooLarge
    (reason "too-large") when the reduced graph has more than 4 vertices
    and more than _ROTATION_LIMIT rotation systems.
    """
    if not _connected(g.masks):
        raise Disconnected("planarity is decided on connected graphs")
    return _is_planar_connected(g.masks)


# ---------------------------------------------------------------------------
# Embedding file: {"n": ..., "rotation": [[neighbors in cyclic order], ...]}

def load_embedding(source) -> PlaneEmbedding:
    """Load and validate an embedding document (parsed JSON or JSON text)."""
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict) or "n" not in doc or "rotation" not in doc:
        raise ValueError("embedding document needs 'n' and 'rotation'")
    n, rotation = doc["n"], doc["rotation"]
    # exact types: a JSON true or false is a bool, which isinstance takes as int
    if not (type(n) is int and isinstance(rotation, list)
            and all(map(isinstance, rotation, itertools.repeat(list)))
            and {*map(type, itertools.chain.from_iterable(rotation))} <= {int}):
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
