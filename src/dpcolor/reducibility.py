"""Reducible configurations: residual lists, one constructive extension,
and pattern-driven certification.

A configuration is reducible for k when any DP-k-coloring of the rest of
the host extends across it, so it cannot occur in a vertex-minimal graph
that is not DP-k-colorable.  An occurrence on the vertex set S is
reducible exactly when g[S] is DP-f-colorable for f(v) = k - |N_g(v) \\ S|:
a colored neighbor outside takes at most one color of v's list, and
maximal matchings are the worst case.  certify_reducible decides that for
all occurrences in one solver._settle call, and this module makes no
colorability decision of its own.  find_pattern lists the occurrences
with graphs._edge_maps, the search that also lists the choosability
walk's automorphisms.  extend_coloring replays one extension along an order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import solver
from .graphs import Graph, _edge_maps
from .dp import Lists, MatchingAssignment, is_valid_coloring

__all__ = [
    "InvalidPartial",
    "ConditionsViolated",
    "ConfigPattern",
    "residual_lists",
    "extend_coloring",
    "find_pattern",
    "certify_reducible",
    "pattern_from_json",
    "pattern_to_json",
]


class InvalidPartial(ValueError):
    """The partial coloring is not a valid DP-coloring of its domain."""


class ConditionsViolated(ValueError):
    """An extension precondition fails; .condition names which one."""

    def __init__(self, condition: int, message: str):
        self.condition = condition
        super().__init__(message)


def _check_partial(g: Graph, lists: Lists, matching: MatchingAssignment,
                   partial: dict[int, int]) -> None:
    for v, c in partial.items():
        if c not in lists[v]:
            raise InvalidPartial(f"color {c} not in list of vertex {v}")
    for v, c in partial.items():
        for u in g.adj[v]:
            if u in partial and matching.partner(v, u, c) == partial[u]:
                raise InvalidPartial(f"matched pair chosen on edge ({v}, {u})")


def residual_lists(g: Graph, subset, lists: Lists,
                   matching: MatchingAssignment,
                   partial: dict[int, int]) -> dict[int, set[int]]:
    """Colors still available inside the subset, given a coloring of the rest.

    A(v) is L(v) minus every color matched with the chosen color of a
    colored neighbor outside the subset.  partial must be a valid
    DP-coloring of exactly the vertices outside the subset.
    """
    subset = set(subset)
    outside = set(range(g.n)) - subset
    if set(partial) != outside:
        raise InvalidPartial("partial coloring must cover exactly the outside")
    _check_partial(g, lists, matching, partial)
    return {v: _free_colors(g, lists, matching, partial, v) for v in subset}


def _free_colors(g: Graph, lists: Lists, matching: MatchingAssignment,
                 coloring: dict[int, int], v: int) -> set[int]:
    """L(v) minus the color matched with each colored neighbor's color."""
    free = set(lists[v])
    for u in g.adj[v]:
        if u in coloring:
            p = matching.partner(u, v, coloring[u])
            if p is not None:
                free.discard(p)
    return free


def extend_coloring(g: Graph, order, lists: Lists,
                    matching: MatchingAssignment,
                    partial: dict[int, int]) -> dict[int, int]:
    """Extend a DP-coloring of the rest of g across the ordered subgraph.

    Requires the extension conditions to hold for the actual residual
    lists; raises ConditionsViolated naming the failed condition.  The
    construction: give v1 the smallest available color whose partner at vl
    is not in vl's residual list, color the interior greedily in order,
    then color vl last.  All tie-breaks take the smallest color.
    """
    order = list(order)
    subset = set(order)
    if (len(order) < 2 or len(subset) != len(order)
            or not all(0 <= v < g.n for v in order)):
        raise ValueError(f"order must list at least two distinct vertices "
                         f"of the graph, got {order}")
    v1, vl = order[0], order[-1]
    k = len(lists[vl])
    avail = residual_lists(g, subset, lists, matching, partial)

    if not g.has_edge(v1, vl):
        raise ConditionsViolated(1, "endpoints are not adjacent")
    if not (len(avail[v1]) > len(avail[vl]) >= 1):
        raise ConditionsViolated(
            1, f"|A(v1)|={len(avail[v1])} vs |A(vl)|={len(avail[vl])}")
    out_l = len(g.adj[vl] - subset)
    if g.degree(vl) > k or out_l < 1:
        raise ConditionsViolated(
            2, f"deg(vl)={g.degree(vl)}, outside neighbors {out_l}")
    earlier = {v1}
    for v in order[1:-1]:
        back = len(g.adj[v] & earlier) + len(g.adj[v] - subset)
        if back > len(lists[v]) - 1:
            raise ConditionsViolated(
                3, f"interior vertex {v} has {back} constraining neighbors")
        earlier.add(v)

    coloring = dict(partial)

    # v1: a color whose matched partner misses A(vl) exists because the
    # matching is injective and |A(v1)| > |A(vl)|
    pick1 = None
    for c in sorted(avail[v1]):
        p = matching.partner(v1, vl, c)
        if p is None or p not in avail[vl]:
            pick1 = c
            break
    assert pick1 is not None, "injectivity guarantees a safe color for v1"
    coloring[v1] = pick1

    # the interior in order, then vl, each from what its colored neighbors
    # leave of its list
    for v in order[1:]:
        free = _free_colors(g, lists, matching, coloring, v)
        assert free, f"vertex {v} ran out of colors despite the conditions"
        coloring[v] = min(free)

    assert is_valid_coloring(
        g, lists, matching, tuple(coloring[v] for v in range(g.n)))
    return coloring


# ---------------------------------------------------------------------------
# Patterns.

@dataclass(frozen=True)
class ConfigPattern:
    """A configuration: pattern graph, exact host degrees, and a designated
    coloring order, which certify_reducible does not consult.

    outside[i] counts the pattern vertex's neighbors outside the
    configuration, so pattern degree + outside = host degree.
    """

    name: str
    size: int
    edges: frozenset[tuple[int, int]]
    host_degree: tuple[int, ...]
    outside: tuple[int, ...]
    order: tuple[int, ...]
    adj: tuple[frozenset[int], ...] = field(compare=False, repr=False)

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
        adj = [set() for _ in range(size)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        outside = tuple(host_degree[i] - len(adj[i]) for i in range(size))
        if any(x < 0 for x in outside):
            raise ValueError("host degree below pattern degree")
        order = tuple(order)
        if sorted(order) != list(range(size)):
            raise ValueError("order must enumerate the pattern vertices")
        return ConfigPattern(name=name, size=size, edges=norm,
                             host_degree=host_degree, outside=outside,
                             order=order,
                             adj=tuple(frozenset(a) for a in adj))


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
    return list(_edge_maps(g, pat.adj, pat.host_degree, range(pat.size)))


def certify_reducible(g: Graph, pat: ConfigPattern, k: int) -> bool:
    """True when every occurrence of the pattern in g is reducible for k,
    exactly, by the module docstring's rule: one with f(v) <= 0 somewhere
    is not, before any scan.  The distinct (edges, f) of the others, each
    g[image] in the order of the image, are laid side by side in
    find_pattern order and settled by one solver._settle call on the
    default budget.  The pattern's order is not consulted."""
    masks, f, laid = [], [], set()
    for image in find_pattern(g, pat):
        place = {v: i for i, v in enumerate(image)}
        sizes = tuple(k - sum(u not in place for u in g.adj[v]) for v in image)
        if min(sizes) <= 0:
            return False
        inside = tuple(sum(1 << place[u] for u in g.adj[v] if u in place)
                       for v in image)
        if (inside, sizes) not in laid:
            laid.add((inside, sizes))
            masks += [m << len(f) for m in inside]
            f += sizes
    return solver._settle(masks, tuple(f), solver._dp_walk,
                          solver.DEFAULT_BUDGET)[0] is True
