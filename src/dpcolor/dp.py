"""Cover graphs, matching assignments, and exact DP-coloring search.

A matching assignment gives every edge uv a partial matching between the
color lists L(u) and L(v).  The cover graph has a node per (vertex, color)
pair, a clique on each vertex's list, and exactly the matched pairs between
adjacent lists.  A DP-coloring picks one color per vertex so that no edge's
matched pair is chosen, i.e. an independent transversal of the cover graph.

With identity matchings on uniform lists this is ordinary proper coloring;
with matchings induced by color equality it is list coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

__all__ = [
    "InvalidMatching",
    "NonUniformLists",
    "MatchingAssignment",
    "CoverGraph",
    "uniform_lists",
    "build_cover",
    "find_coloring",
    "is_valid_coloring",
    "from_list_assignment",
    "parse_matching_file",
    "format_matching_file",
]

Lists = tuple[tuple[int, ...], ...]


class InvalidMatching(ValueError):
    """A matching violates injectivity or references a missing color."""


class NonUniformLists(ValueError):
    """Operation requires all lists to share one size k."""


def uniform_lists(n: int, k: int) -> Lists:
    """Lists [0..k-1] for every vertex."""
    if k < 1:
        raise ValueError("lists must be nonempty")
    base = tuple(range(k))
    return tuple(base for _ in range(n))


class MatchingAssignment:
    """Per-edge partial matchings between endpoint color lists: one table
    per edge (u, v), u < v, from each matched color at u to its partner at
    v, given in either orientation but not both.  Edges without an entry
    carry the empty matching.
    """

    def __init__(self, pairs_by_edge: dict[tuple[int, int], tuple] | None = None):
        self._table: dict[tuple[int, int], dict[int, int]] = {}
        for (u, v), pairs in (pairs_by_edge or {}).items():
            if u > v:
                u, v, pairs = v, u, [(b, a) for a, b in pairs]
            if (u, v) in self._table:
                raise InvalidMatching(
                    f"edge ({u}, {v}) is given in both orientations")
            at_u = dict(pairs)
            if not len(pairs) == len(at_u) == len(set(at_u.values())):
                raise InvalidMatching(
                    f"matching on edge ({u}, {v}) reuses a color")
            self._table[(u, v)] = at_u

    @classmethod
    def identity(cls, g: Graph, k: int) -> "MatchingAssignment":
        return cls.from_permutations(g, k, {})

    @classmethod
    def from_permutations(cls, g: Graph, k: int,
                          perms: dict[tuple[int, int], tuple[int, ...]]
                          ) -> "MatchingAssignment":
        """Full matchings: color i at u pairs with perm[i] at v for edge (u, v).

        Unlisted edges get the identity.
        """
        identity = tuple(range(k))
        table = {}
        for e in g.edges:
            sigma = perms.get(e, identity)
            table[e] = tuple((i, sigma[i]) for i in range(k))
        return cls(table)

    def pairs(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """Matched (color at u, color at v) pairs for edge uv."""
        if u <= v:
            return tuple(sorted(self._table.get((u, v), {}).items()))
        return tuple(sorted((b, a) for a, b in self.pairs(v, u)))

    def partner(self, u: int, v: int, color: int) -> int | None:
        """Color of v matched with (u, color), or None."""
        if u <= v:
            return self._table.get((u, v), {}).get(color)
        return next((a for a, b in self.pairs(v, u) if b == color), None)

    def validate(self, g: Graph, lists: Lists) -> None:
        """Raise InvalidMatching unless every pair references listed colors
        on actual edges (injectivity is enforced at construction)."""
        listed = [set(L) for L in lists]
        for (u, v), fwd in self._table.items():
            if not g.has_edge(u, v):
                if fwd:
                    raise InvalidMatching(f"matching on non-edge ({u}, {v})")
                continue
            at_u, at_v = listed[u], listed[v]
            for a, b in fwd.items():
                if a not in at_u or b not in at_v:
                    raise InvalidMatching(
                        f"pair {a}-{b} on edge ({u}, {v}) uses unlisted colors")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatchingAssignment):
            return NotImplemented
        mine = {e: f for e, f in self._table.items() if f}
        theirs = {e: f for e, f in other._table.items() if f}
        return mine == theirs


@dataclass(frozen=True)
class CoverGraph:
    """Explicit cover graph: nodes (v, color), clique + matching edges."""

    nodes: tuple[tuple[int, int], ...]
    edges: frozenset[frozenset[tuple[int, int]]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_cover(g: Graph, lists: Lists, matching: MatchingAssignment) -> CoverGraph:
    """Materialize the cover graph of (g, lists, matching)."""
    matching.validate(g, lists)
    nodes = tuple((v, c) for v in range(g.n) for c in lists[v])
    edges = set()
    for v in range(g.n):
        cs = lists[v]
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                edges.add(frozenset({(v, cs[i]), (v, cs[j])}))
    for u, v in g.edges:
        for a, b in matching.pairs(u, v):
            edges.add(frozenset({(u, a), (v, b)}))
    return CoverGraph(nodes=nodes, edges=frozenset(edges))


def is_valid_coloring(g: Graph, lists: Lists, matching: MatchingAssignment,
                      coloring) -> bool:
    """Independent validity check: listed colors, no matched pair chosen."""
    if len(coloring) != g.n:
        return False
    for v in range(g.n):
        if coloring[v] not in lists[v]:
            return False
    for u, v in g.edges:
        if matching.partner(u, v, coloring[u]) == coloring[v]:
            return False
    return True


def search_positions(adj, sizes, part) -> tuple[int, ...] | None:
    """The one coloring backtracker: find_coloring, chi, the DP adversary
    and the choosability search all run on it (proper coloring as the
    DP-coloring with identity matchings, list coloring as the one whose
    darts pair the positions of equal colors).

    adj[v] lists v's neighbors in increasing order; vertex v chooses a
    position in range(sizes[v]).  part[(v, u)][i] is the position at u
    matched with position i at v, or -1 when i is unmatched on that dart.
    Returns the chosen position per vertex, or None after certifying that
    no choice avoids every matched pair.

    Forward checking removes the matched partner from each uncolored
    neighbor's residual domain, and the next vertex is always one with the
    smallest residual domain (ties to the smallest index), with positions
    tried in increasing order, so the result is deterministic.  bucket[c]
    holds, as a bitmask, the uncolored vertices with c positions left, so
    the next vertex is the lowest bit of the first nonempty bucket.  The
    search is one loop: the frame at depth d is the d-th colored vertex,
    its untried positions and the (neighbor, position) pairs that its
    forward check removed, so no recursion limit bounds the graph's size.
    """
    n = len(adj)
    left = list(sizes)  # positions left at each vertex
    domain = [(1 << k) - 1 for k in left]
    bucket = [0] * (max(left, default=0) + 1)
    for v, k in enumerate(left):
        bucket[k] |= 1 << v
    if bucket[0]:
        return None
    chosen = [-1] * n
    order, untried, undo = [0] * n, [0] * n, [()] * n  # the frames
    d = 0
    while d < n:
        # an uncolored vertex always has a position left, so c stops
        c = 1
        while not bucket[c]:
            c += 1
        low = bucket[c] & -bucket[c]
        bucket[c] ^= low
        v = low.bit_length() - 1
        rest, removed = domain[v], ()
        while True:
            for u, j in removed:  # undo the last position's forward check
                domain[u] |= 1 << j
                k = left[u]
                left[u] = k + 1
                bucket[k] ^= 1 << u
                bucket[k + 1] |= 1 << u
            if not rest:  # back to the frame below
                chosen[v] = -1
                bucket[left[v]] |= 1 << v
                d -= 1
                if d < 0:
                    return None
                v, rest, removed = order[d], untried[d], undo[d]
                continue
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            chosen[v] = i
            removed = []
            for u in adj[v]:
                if chosen[u] >= 0:
                    continue
                j = part[v, u][i]
                if j >= 0 and domain[u] >> j & 1:
                    domain[u] ^= 1 << j
                    removed.append((u, j))
                    k = left[u]
                    left[u] = k - 1
                    bucket[k] ^= 1 << u
                    bucket[k - 1] |= 1 << u
                    if k == 1:  # u has no position left
                        break
            else:  # every neighbor kept a position: a frame up
                order[d], untried[d], undo[d] = v, rest, removed
                d += 1
                break
    return tuple(chosen)


def find_coloring(g: Graph, lists: Lists,
                  matching: MatchingAssignment) -> tuple[int, ...] | None:
    """Exhaustive backtracking search for a DP-coloring.

    Returns a coloring tuple, or None after certifying that none exists.
    Colors are translated to list positions for search_positions, whose
    fixed search order makes the result deterministic.
    """
    matching.validate(g, lists)
    n = g.n
    ks = [len(lists[v]) for v in range(n)]
    index = [{c: i for i, c in enumerate(lists[v])} for v in range(n)]
    part: dict[tuple[int, int], list[int]] = {}
    for u, v in g.edges:
        fwd = [-1] * ks[u]
        bwd = [-1] * ks[v]
        at_u, at_v = index[u], index[v]
        # a matching pairs each color once, so the pairs' order is immaterial
        for a, b in matching._table.get((u, v), {}).items():
            i, j = at_u[a], at_v[b]
            fwd[i] = j
            bwd[j] = i
        part[(u, v)] = fwd
        part[(v, u)] = bwd
    adj = [sorted(g.adj[v]) for v in range(n)]
    chosen = search_positions(adj, ks, part)
    if chosen is None:
        return None
    return tuple(lists[v][chosen[v]] for v in range(n))


def from_list_assignment(g: Graph, lists: Lists
                         ) -> tuple[Lists, MatchingAssignment]:
    """Translate an arbitrary uniform list assignment to lists [k] plus the
    matching that pairs equal original colors.

    Each vertex's list maps to [k] in sorted order, so a coloring of the
    output pulls back via sorted(lists[v])[i].
    """
    sizes = {len(L) for L in lists}
    if len(sizes) != 1:
        raise NonUniformLists(f"list sizes {sorted(sizes)} are not uniform")
    k = sizes.pop()
    ordered = [tuple(sorted(set(L))) for L in lists]
    for v, L in enumerate(ordered):
        if len(L) != k:
            raise NonUniformLists(f"list at {v} has repeated colors")
    table = {}
    for u, v in g.edges:
        pairs = []
        pos_v = {c: j for j, c in enumerate(ordered[v])}
        for i, c in enumerate(ordered[u]):
            if c in pos_v:
                pairs.append((i, pos_v[c]))
        table[(u, v)] = tuple(pairs)
    return uniform_lists(g.n, k), MatchingAssignment(table)


# ---------------------------------------------------------------------------
# Matching-assignment file: one edge per line, "u v : a-b, c-d".  A directive
# "default identity k=K" gives unlisted edges the identity on [K]; otherwise
# unlisted edges carry the empty matching.

def parse_matching_file(text: str, g: Graph) -> tuple[MatchingAssignment, int | None]:
    """Parse the matching file format.  Returns (matching, identity k or None)."""
    table: dict[tuple[int, int], tuple] = {}
    default_k: int | None = None
    given: dict = {}  # the line of each edge, and of the directive
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("default identity"):
            key = "directive"
            try:
                default_k = int(line.split("k=", 1)[1])
            except (IndexError, ValueError):
                default_k = 0
            if default_k < 1:
                raise ValueError(f"line {lineno}: bad directive {raw!r}")
        else:
            if ":" not in line:
                raise ValueError(f"line {lineno}: expected 'u v : pairs'")
            head, _, tail = line.partition(":")
            try:
                u, v = (int(t) for t in head.split())
                pairs = []
                if tail.strip():
                    for chunk in tail.split(","):
                        a, _, b = chunk.strip().partition("-")
                        pairs.append((int(a), int(b)))
            except ValueError:
                raise ValueError(f"line {lineno}: expected 'u v : pairs', "
                                 f"got {raw!r}") from None
            if not (0 <= u < g.n and 0 <= v < g.n):
                raise ValueError(f"line {lineno}: edge ({u}, {v}) is not on "
                                 f"vertices 0..{g.n - 1}")
            key = (u, v) if u < v else (v, u)
            table[key] = tuple(pairs if u < v else [(b, a) for a, b in pairs])
        if given.setdefault(key, lineno) != lineno:
            what = key if key == "directive" else f"edge ({u}, {v})"
            raise ValueError(f"line {lineno}: {what} already given on line "
                             f"{given[key]}")
    if default_k is not None:
        ident = tuple((i, i) for i in range(default_k))
        # in sorted order: the table's order decides which edge
        # MatchingAssignment.validate names first
        for e in sorted(g.edges):
            table.setdefault(e, ident)
    return MatchingAssignment(table), default_k


def format_matching_file(matching: MatchingAssignment, g: Graph) -> str:
    lines = []
    for u, v in sorted(g.edges):
        pairs = matching.pairs(u, v)
        body = ", ".join(f"{a}-{b}" for a, b in pairs)
        lines.append(f"{u} {v} : {body}")
    return "\n".join(lines) + "\n"
