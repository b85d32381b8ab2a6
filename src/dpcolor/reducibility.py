"""Reducible configurations: patterns, their occurrences, and an exact
certificate of reducibility.

A configuration is reducible for k when any DP-k-coloring of the rest of
the host extends across it, so it cannot occur in a vertex-minimal graph
that is not DP-k-colorable.  An occurrence on the vertex set S is
reducible exactly when g[S] is DP-f-colorable for f(v) = k - |N_g(v) \\ S|:
a colored neighbor outside takes at most one color of v's list, and
maximal matchings are the worst case.  certify_reducible decides that for
all occurrences in one solver._settle call, and this module makes no
colorability decision of its own.  find_pattern lists the occurrences
with graphs._edge_maps, the search that also lists the choosability
walk's automorphisms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import solver
from .graphs import Graph, _edge_maps, _induced

__all__ = [
    "ConfigPattern",
    "find_pattern",
    "certify_reducible",
    "pattern_from_json",
    "pattern_to_json",
]


@dataclass(frozen=True)
class ConfigPattern:
    """A configuration: pattern graph and exact host degrees.

    edges holds the pattern's edges (u, v), u < v, and masks[i] the
    neighbor bitmask of pattern vertex i, as in Graph.masks, derived from
    them.  outside[i] counts the pattern vertex's neighbors outside the
    configuration, so pattern degree + outside = host degree.  order, a
    permutation of the pattern vertices, is carried for the pattern file
    format and validated there; nothing consults it.
    """

    name: str
    size: int
    edges: frozenset[tuple[int, int]]
    host_degree: tuple[int, ...]
    outside: tuple[int, ...]
    order: tuple[int, ...]
    masks: tuple[int, ...] = field(compare=False, repr=False)

    @staticmethod
    def build(edges, host_degree, order, name: str = "pattern") -> "ConfigPattern":
        host_degree = tuple(host_degree)
        size = len(host_degree)
        if not size:
            raise ValueError("a pattern needs at least one vertex")
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        if any(not 0 <= u < v < size for u, v in norm):
            raise ValueError("pattern edges must join two distinct pattern "
                             "vertices")
        masks = [0] * size
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        outside = tuple(d - mask.bit_count()
                        for d, mask in zip(host_degree, masks))
        if any(x < 0 for x in outside):
            raise ValueError("host degree below pattern degree")
        order = tuple(order)
        if sorted(order) != list(range(size)):
            raise ValueError("order must enumerate the pattern vertices")
        return ConfigPattern(name=name, size=size, edges=norm,
                             host_degree=host_degree, outside=outside,
                             order=order, masks=tuple(masks))


def _is_int_list(x) -> bool:
    # exact types: a JSON true or false is a bool, which isinstance takes as int
    return isinstance(x, list) and all(type(i) is int for i in x)


def pattern_from_json(source) -> ConfigPattern:
    """Load a pattern document, parsed or as JSON text: {"name": "...",
    "vertices": [{"hostDegree": d, "outsideNeighbors": o}, ...],
    "edges": [[i, j], ...], "order": [...]}."""
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise ValueError("pattern document must be a JSON object")
    vertices = doc.get("vertices")
    if not (isinstance(vertices, list) and all(
            isinstance(v, dict) and type(v.get("hostDegree")) is int
            and type(v.get("outsideNeighbors")) is int
            for v in vertices)):
        raise ValueError("pattern 'vertices' must be a list of objects with "
                         "integer 'hostDegree' and 'outsideNeighbors'")
    edges = doc.get("edges")
    order = doc.get("order", list(range(len(vertices))))
    name = doc.get("name", "pattern")
    if not isinstance(name, str):
        raise ValueError("pattern 'name' must be a string")
    if not (isinstance(edges, list) and all(
            _is_int_list(e) and len(e) == 2 for e in edges)
            and _is_int_list(order)):
        raise ValueError("pattern 'edges' must be a list of pairs of integers "
                         "and 'order' a list of integers")
    pat = ConfigPattern.build(
        edges=[tuple(e) for e in edges],
        host_degree=[v["hostDegree"] for v in vertices],
        order=order,
        name=name,
    )
    declared = [v["outsideNeighbors"] for v in vertices]
    if list(pat.outside) != declared:
        raise ValueError(
            f"declared outside neighbors {declared} disagree with "
            f"hostDegree minus pattern degree {list(pat.outside)}")
    return pat


def pattern_to_json(pat: ConfigPattern) -> str:
    doc = {
        "name": pat.name,
        "vertices": [
            {"hostDegree": d, "outsideNeighbors": o}
            for d, o in zip(pat.host_degree, pat.outside)
        ],
        "edges": [list(e) for e in sorted(pat.edges)],
        "order": list(pat.order),
    }
    return json.dumps(doc, indent=2)


def find_pattern(g: Graph, pat: ConfigPattern) -> list[tuple[int, ...]]:
    """All injective maps of the pattern into g that preserve pattern edges
    and give every pattern vertex its exact host degree, in lexicographic
    order: graphs._edge_maps along the pattern vertices 0, 1, ..."""
    return list(_edge_maps(g, pat.masks, pat.host_degree, range(pat.size)))


def certify_reducible(g: Graph, pat: ConfigPattern, k: int) -> bool:
    """True when every occurrence of the pattern in g is reducible for k,
    exactly, by the module docstring's rule: one with f(v) <= 0 somewhere
    is not, before any scan.  The distinct (edges, f) of the others, each
    g[image] in the order of the image, are laid side by side in
    find_pattern order and settled by one solver._settle call on the
    default budget.  The pattern's order is not consulted."""
    masks, f, laid = [], [], set()
    deg = g.degrees()
    for image in find_pattern(g, pat):
        inside = _induced(g.masks, image)
        # f(v) = k - |N_g(v) minus the image|
        sizes = tuple(k - deg[v] + mask.bit_count()
                      for v, mask in zip(image, inside))
        if min(sizes) <= 0:
            return False
        if (inside, sizes) not in laid:
            laid.add((inside, sizes))
            masks += [m << len(f) for m in inside]
            f += sizes
    return solver._settle(masks, tuple(f), solver._dp_walk,
                          solver.DEFAULT_BUDGET)[0] is True
