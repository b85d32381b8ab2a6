"""Reducible-configuration machinery: residual lists, constructive extension,
and pattern-driven certification.

A configuration is reducible for k when any DP-k-coloring of the rest of
the host extends across it, so it cannot occur in a vertex-minimal graph
that is not DP-k-colorable.  The workhorse is an ordered-subgraph extension
argument: order the configuration v1..vl so that v1 and vl are adjacent,
vl has low degree and a neighbor outside, and every interior vertex sees at
most k-1 already-colored vertices at its turn.  Then v1's color can be
picked so it never constrains vl, the interior is colored greedily, and vl
is colored last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graphs import Graph
from .dp import Lists, MatchingAssignment, is_valid_coloring

__all__ = [
    "InvalidPartial",
    "ConditionsViolated",
    "ExtensionCheck",
    "ConfigPattern",
    "residual_lists",
    "check_extension_order",
    "extend_coloring",
    "min_degree_extend",
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
    out: dict[int, set[int]] = {}
    for v in subset:
        avail = set(lists[v])
        for u in g.adj[v]:
            if u in partial:
                p = matching.partner(u, v, partial[u])
                if p is not None:
                    avail.discard(p)
        out[v] = avail
    return out


@dataclass(frozen=True)
class ExtensionCheck:
    """Outcome of the structural extension-order check: first_bad_interior
    is the position in the order of the first interior vertex that fails
    condition 3, or None when every one passes."""

    ok: bool
    condition1_guaranteed: bool
    first_bad_interior: int | None = None


def check_extension_order(g: Graph, order, k: int) -> ExtensionCheck:
    """Check the extension conditions for an ordered subgraph, worst case.

    Conditions 2 (deg(vl) <= k, vl has an outside neighbor) and 3 (every
    interior vertex has at most k-1 neighbors among earlier-or-outside
    vertices) are exact.  Condition 1 (|A(v1)| > |A(vl)| >= 1, v1 adjacent
    to vl) is checked in guaranteed mode: over full matchings, a vertex
    with no outside neighbor keeps all k colors, a vertex with at least one
    loses at least one, and each outside neighbor removes at most one; so
    the condition holds for every coloring of the rest exactly when v1 has
    no outside neighbor and vl has between 1 and k-1.  Full matchings are
    the worst case for a minimal non-colorable host, since any failing
    assignment extends to a failing full one.
    """
    order = list(order)
    subset = set(order)
    if len(order) < 2 or len(subset) != len(order):
        raise ValueError("order must list at least two distinct vertices")
    v1, vl = order[0], order[-1]
    out = {v: len(g.adj[v] - subset) for v in order}
    guaranteed1 = (g.has_edge(v1, vl) and out[v1] == 0
                   and 1 <= out[vl] <= k - 1)
    cond2 = g.degree(vl) <= k and out[vl] >= 1
    first_bad = None
    earlier: set[int] = {v1}
    for i, v in enumerate(order[1:-1], start=1):
        if len(g.adj[v] & earlier) + out[v] > k - 1:
            first_bad = i
            break
        earlier.add(v)
    return ExtensionCheck(
        ok=guaranteed1 and cond2 and first_bad is None,
        condition1_guaranteed=guaranteed1,
        first_bad_interior=first_bad,
    )


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
    for i, v in enumerate(order[1:-1], start=1):
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

    for v in order[1:-1]:
        free = set(lists[v])
        for u in g.adj[v]:
            if u in coloring:
                p = matching.partner(u, v, coloring[u])
                if p is not None:
                    free.discard(p)
        assert free, "interior vertex ran out of colors despite condition 3"
        coloring[v] = min(free)

    free = set(avail[vl])
    for u in g.adj[vl]:
        if u in subset and u in coloring:
            p = matching.partner(u, vl, coloring[u])
            if p is not None:
                free.discard(p)
    assert free, "last vertex ran out of colors despite the conditions"
    coloring[vl] = min(free)

    assert is_valid_coloring(
        g, lists, matching, tuple(coloring[v] for v in range(g.n)))
    return coloring


def min_degree_extend(g: Graph, v: int, lists: Lists,
                      matching: MatchingAssignment,
                      partial: dict[int, int]) -> dict[int, int]:
    """Extend a coloring of g - v across a vertex of degree below its list
    size; at most deg(v) colors are forbidden, so one always remains."""
    if g.degree(v) >= len(lists[v]):
        raise ValueError(
            f"degree {g.degree(v)} is not below list size {len(lists[v])}")
    avail = residual_lists(g, {v}, lists, matching, partial)[v]
    coloring = dict(partial)
    coloring[v] = min(avail)
    return coloring


# ---------------------------------------------------------------------------
# Patterns.

@dataclass(frozen=True)
class ConfigPattern:
    """A configuration: pattern graph, exact host degrees, and a designated
    coloring order (certify_reducible searches orders instead).

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
    if not (isinstance(edges, list) and all(map(_is_int_list, edges))
            and _is_int_list(order)):
        raise ValueError("pattern 'edges' must be a list of integer lists "
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
    order.

    Pattern vertex i takes its candidates from the neighbors of the image
    of its first earlier pattern neighbor, or from every vertex of its host
    degree when it has none, in increasing order either way.
    """
    if pat.size > g.n:
        return []
    adj, deg, want = g.adj, g.degrees(), pat.host_degree
    earlier = [sorted(j for j in pat.adj[i] if j < i) for i in range(pat.size)]
    of_degree = {want[i]: [v for v in range(g.n) if deg[v] == want[i]]
                 for i in range(pat.size) if not earlier[i]}
    image = [-1] * pat.size
    used = [False] * g.n
    out: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == pat.size:
            out.append(tuple(image))
            return
        back = earlier[i]
        if back:
            candidates = sorted(v for v in adj[image[back[0]]]
                                if deg[v] == want[i])
        else:
            candidates = of_degree[want[i]]
        rest = back[1:]
        for v in candidates:
            if used[v]:
                continue
            if rest and any(image[j] not in adj[v] for j in rest):
                continue
            image[i] = v
            used[v] = True
            rec(i + 1)
            used[v] = False
            image[i] = -1

    rec(0)
    return out


def _extension_order(g: Graph, subset, k: int) -> list[int] | None:
    """An order of subset that passes check_extension_order, or None: for
    each v1, vl that pass the guaranteed condition 1 and condition 2, peel
    the interior from the back, dropping each vertex with at most k - 1
    neighbors among the rest, v1 and the outside.  Dropping only lowers
    these counts, so an order exists exactly when the peel empties it, and
    the interior is then the peeled vertices, last peeled first."""
    subset = set(subset)
    out = {v: len(g.adj[v] - subset) for v in subset}
    for v1 in [v for v in subset if not out[v]]:
        for vl in g.adj[v1] & subset:
            if not 1 <= out[vl] <= k - 1 or g.degree(vl) > k:
                continue
            rest = subset - {v1, vl}
            peeled: list[int] = []
            while rest and (low := {
                    v for v in rest
                    if len(g.adj[v] & rest) + (v1 in g.adj[v]) + out[v] < k}):
                rest -= low
                peeled[:0] = sorted(low)
            if not rest:
                return [v1, *peeled, vl]
    return None


def certify_reducible(g: Graph, pat: ConfigPattern, k: int) -> bool:
    """True when every occurrence of the pattern in g has an order of its
    vertices that passes the extension check in guaranteed mode
    (_extension_order), so the pattern cannot occur in a minimal
    non-DP-k-colorable graph shaped like g.  The pattern's own order is
    not consulted: the search finds an order whenever any order passes.

    A single-vertex pattern certifies by the low-degree rule alone.
    """
    if pat.size == 1:
        return pat.host_degree[0] < k
    return all(_extension_order(g, image, k) is not None
               for image in find_pattern(g, pat))
