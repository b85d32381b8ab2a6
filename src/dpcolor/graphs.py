"""Simple undirected graphs: construction, file formats, degree and cycle queries.

Vertices are dense integer indices 0..n-1.  File formats may carry other
labels; those are mapped to dense indices on ingestion.

The cycle queries share one depth-first search and ask it only their own
question: cycle_spectrum wants every length up to a bound, forbidden_cycles
wants exactly which of the given lengths occur, and has_cycle_length stops
at the first of the given lengths it finds.  The census filter,
filter_graph6 below, asks that last question too.  Whenever 4 is among the
lengths asked for, a sweep in O(m) mask operations settles it before the
search starts.

The search and the connectivity test work on neighbor bitmasks, one per
vertex, which a Graph builds on first use and keeps (Graph.masks), as it
keeps its degree tuple (Graph.degrees).  The graph6 decoder yields those
bitmasks directly.  Each graph6 byte holds six vertex pairs, so for up to
16 vertices the decoder ORs one entry per byte of a lookup table built for
that vertex count on first use; tables grow as n**4 (74 KB at n = 16), so
larger graphs are decoded one edge at a time.  filter_graph6 runs the
census filters of dpcolor verify-theorem2 (vertex bound, connectivity,
cycle filter) on them and returns them, not a Graph, for a line that
passes; planar.is_planar_masks and solver.k_core take them from there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property

__all__ = [
    "Graph",
    "CycleSpectrum",
    "SelfLoop",
    "MalformedGraph6",
    "from_edge_list",
    "parse_graph6",
    "filter_graph6",
    "encode_graph6",
    "parse_edge_list",
    "cycle_spectrum",
    "forbidden_cycles",
    "has_cycle_length",
    "satisfied_variants",
    "FORBIDDEN_VARIANTS",
    "delete_vertices",
    "is_connected",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "complete_bipartite",
]


class SelfLoop(ValueError):
    """An edge joins a vertex to itself."""


class MalformedGraph6(ValueError):
    """Input is not a valid graph6 string."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    edges holds pairs (u, v) with u < v; adj[v] is the neighbor set of v.
    No self-loops, no parallel edges.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[frozenset[int], ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The neighbor set of each vertex as a bitmask, built on first use."""
        return tuple(_pair_masks(self.n, self.edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(pairs, n: int | None = None) -> Graph:
    """Build a Graph from vertex pairs; duplicates collapse, self-loops raise.

    n defaults to one more than the largest vertex mentioned (isolated
    trailing vertices need an explicit n).
    """
    edges = set()
    top = -1
    for u, v in pairs:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex in edge ({u}, {v})")
        edges.add((u, v) if u < v else (v, u))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    elif top >= n:
        raise ValueError(f"edge mentions vertex {top} but n={n}")
    return _build_graph(n, edges)


def _build_graph(n: int, edges: set[tuple[int, int]]) -> Graph:
    """The Graph on 0..n-1 with the given edges (u, v), u < v; adj is filled
    in the set's iteration order."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n=n, edges=frozenset(edges), adj=tuple(frozenset(a) for a in adj))


def complete_graph(n: int) -> Graph:
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)], n=n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edge_list([(i, (i + 1) % n) for i in range(n)], n=n)


def path_graph(n: int) -> Graph:
    return from_edge_list([(i, i + 1) for i in range(n - 1)], n=n)


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list([(i, a + j) for i in range(a) for j in range(b)], n=a + b)


def _pair_masks(n: int, pairs) -> list[int]:
    """The neighbor set of each of the n vertices as a bitmask, from the
    edges (u, v)."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _connected(masks) -> bool:
    """Whether the graph with these neighbor bitmasks is connected: grow the
    set reached from vertex 0 one layer at a time until it stops growing."""
    n = len(masks)
    if n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= masks[bit.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def is_connected(g: Graph) -> bool:
    return _connected(g.masks)


# ---------------------------------------------------------------------------
# graph6 interchange format (printable bytes offset by 63).

_G6_HEADER = ">>graph6<<"


_G6_BYTES = re.compile("[?-~]*")  # the bytes 63..126
# byte value minus 63, modulo 256: graph6 bytes '?'..'~' become 0..63
_MINUS_63 = bytes((b - 63) % 256 for b in range(256))
# each 6-bit value with its bits in reverse order
_REVERSED_6 = tuple(int(f"{x:06b}"[::-1], 2) for x in range(64))
# the largest n decoded through _graph6_table: a table has 64 entries of
# n*n bits for each of about n*n/12 bytes, so it grows as n**4, to 74 KB
# at n = 16 but 7.5 MB at n = 62
_TABLE_MAX_N = 16


@cache
def _graph6_table(n: int
                  ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """(rows, shifts, full) for decoding the adjacency bytes of an n-vertex
    graph6 line: rows[b][x] has bits i*n + j and j*n + i for each pair
    (i, j) that byte b sets when its value is x, or is -1 if x sets a
    padding bit; the OR of one entry per byte holds the neighbor set of
    vertex v at bits v*n .. v*n + n - 1, so it is `packed >> shifts[v] &
    full`, and it is negative exactly when some padding bit is set."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    rows = []
    for b in range((len(pairs) + 5) // 6):
        row = [0] * 64
        for t in range(6):  # bit 5 - t of byte b is pair k
            k = 6 * b + t
            if k < len(pairs):
                i, j = pairs[k]
                row[32 >> t] = 1 << (i * n + j) | 1 << (j * n + i)
            else:
                row[32 >> t] = -1
        for x in range(1, 64):
            row[x] = row[x & x - 1] | row[x & -x]
        rows.append(tuple(row))
    return tuple(rows), tuple(v * n for v in range(n)), (1 << n) - 1


def _decode_graph6(s: str) -> tuple[int, tuple[int, ...]]:
    """Decode one graph6 line, without surrounding whitespace, into
    (n, masks): masks[v] is the neighbor set of vertex v as a bitmask.

    Each adjacency byte sets up to six vertex pairs.  For n <= _TABLE_MAX_N
    the masks come from one OR per byte of a _graph6_table entry, the table
    built on the first line with that n; a larger n would need a table
    growing as n**4, so its bytes are read into one integer and scattered
    into the masks one edge at a time."""
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise MalformedGraph6("empty graph6 string")
    if s[0] in ":;&":
        raise MalformedGraph6("sparse6/digraph6 input is not supported")
    if not _G6_BYTES.fullmatch(s):
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise MalformedGraph6(f"byte {bad!r} out of graph6 range")
    vals = s.encode("ascii").translate(_MINUS_63)
    if vals[0] < 63:
        n = vals[0]
        idx = 1
    elif len(vals) >= 4 and vals[1] < 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        idx = 4
    elif len(vals) >= 8:
        n = 0
        for x in vals[2:8]:
            n = (n << 6) | x
        idx = 8
    else:
        raise MalformedGraph6("truncated vertex count")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(vals) - idx != need:
        raise MalformedGraph6(
            f"expected {need} adjacency bytes for n={n}, got {len(vals) - idx}"
        )
    if n <= _TABLE_MAX_N:
        rows, shifts, full = _graph6_table(n)
        packed = 0
        for row, x in zip(rows, vals[idx:]):
            packed |= row[x]
        if packed < 0:
            raise MalformedGraph6("nonzero padding bits")
        return n, tuple([packed >> shift & full for shift in shifts])
    # the adjacency bits as one integer, read from the last byte back: bit k
    # of the upper triangle in column order (0,1), (0,2), (1,2), (0,3), ...
    # is bit k of word, and the padding lies above bit nbits - 1
    word = 0
    for x in reversed(vals[idx:]):
        word = (word << 6) | _REVERSED_6[x]
    if word >> nbits:
        raise MalformedGraph6("nonzero padding bits")
    masks = [0] * n
    for j in range(1, n):
        column = word & ((1 << j) - 1)  # bit i: the pair (i, j)
        word >>= j
        masks[j] = column
        while column:
            bit = column & -column
            column ^= bit
            masks[bit.bit_length() - 1] |= 1 << j
    return n, tuple(masks)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph that keeps the decoded neighbor
    bitmasks.  Its edges are added in column order (0,1), (0,2), (1,2),
    (0,3), ..., the order of the line, so it equals from_edge_list of the
    line's pairs, with edges and every adj[v] iterating alike."""
    masks = _decode_graph6(text.strip())[1]
    edges = set()
    for j, mask in enumerate(masks):
        below = mask & ((1 << j) - 1)
        while below:
            bit = below & -below
            below ^= bit
            edges.add((bit.bit_length() - 1, j))
    g = _build_graph(len(masks), edges)
    object.__setattr__(g, "masks", masks)
    return g


def filter_graph6(line: str, forbidden, n_max: int | None = None
                  ) -> tuple[str | None, tuple[int, ...] | None]:
    """The census filters that need no Graph, on one graph6 line without
    surrounding whitespace: at most n_max vertices (if n_max is set),
    connected, and no cycle of a length in `forbidden`.

    They run on the decoded neighbor bitmasks.  Returns the status of a
    line they drop, "skipped:n", "filtered:disconnected" or
    "filtered:cycles", with None; or None with the line's bitmasks, equal
    to parse_graph6(line).masks.
    """
    n, masks = _decode_graph6(line)
    if n_max is not None and n > n_max:
        return "skipped:n", None
    if not _connected(masks):
        return "filtered:disconnected", None
    if _cycle_lengths(masks, forbidden, 1):
        return "filtered:cycles", None
    return None, masks


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (inverse of parse_graph6)."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> (6 * i)) & 63 for i in range(5, -1, -1)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    words = [
        (bits[i] << 5) | (bits[i + 1] << 4) | (bits[i + 2] << 3)
        | (bits[i + 3] << 2) | (bits[i + 4] << 1) | bits[i + 5]
        for i in range(0, len(bits), 6)
    ]
    return "".join(chr(x + 63) for x in head + words)


def parse_edge_list(text: str) -> tuple[Graph, tuple[str, ...]]:
    """Parse plain edge-list text: one "u v" pair per line, '#' comments.

    Labels may be arbitrary tokens; they are mapped to dense indices in
    order of first appearance.  Returns (graph, labels).
    """
    labels: dict[str, int] = {}

    def intern(tok: str) -> int:
        if tok not in labels:
            labels[tok] = len(labels)
        return labels[tok]

    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        pairs.append((intern(parts[0]), intern(parts[1])))
    g = from_edge_list(pairs, n=len(labels))
    return g, tuple(labels)


# ---------------------------------------------------------------------------
# Cycle queries.

@dataclass(frozen=True)
class CycleSpectrum:
    """Exact set of cycle lengths present up to a search bound."""

    present: frozenset[int]
    search_bound: int


def _has_four_cycle(adj) -> bool:
    """Whether the graph with neighbor bitmasks adj has a 4-cycle: some
    vertex u has two neighbors with a common neighbor other than u.  One
    pass over the neighbors of each u, O(m) mask operations."""
    for u, nbrs in enumerate(adj):
        others = ~(1 << u)
        seen = 0  # the neighbors, u aside, of u's neighbors passed so far
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            two_away = adj[bit.bit_length() - 1] & others
            if seen & two_away:
                return True
            seen |= two_away
    return False


def _cycle_lengths(adj, lengths, enough: int) -> set[int]:
    """The lengths in `lengths` at which the graph with neighbor bitmasks
    adj has a cycle, searched until `enough` of them are found.

    Length 4, when asked for, is settled first by _has_four_cycle.  The
    others go to a depth-first search over paths whose vertices after the
    first all exceed it, so each cycle is found from its smallest vertex.
    Vertex sets are bitmasks, and a path of p vertices closes to a
    (p+1)-cycle when one of its next vertices is a neighbor of the start,
    which is one mask test.  Lengths below 3 or above n cannot occur and
    are dropped; a path is extended only while a longer missing length
    remains, and a start vertex is tried only if enough vertices follow it
    for the shortest requested length.
    """
    n = len(adj)
    missing = {length for length in lengths if 3 <= length <= n}
    found: set[int] = set()
    enough = min(enough, len(missing))
    if enough <= 0:
        return found
    if 4 in missing:
        missing.discard(4)
        if _has_four_cycle(adj):
            found.add(4)
        # each length is now found or missing, so a search for more than
        # those would never stop
        enough = min(enough, len(found) + len(missing))
        if len(found) >= enough:
            return found
    longest = max(missing)
    for s in range(n - min(missing) + 1):
        above = -2 << s  # every vertex after s
        closers = adj[s] & above
        if not closers & (closers - 1):
            continue  # fewer than two neighbors after s: no cycle starts here
        on_path = 1 << s
        size = 1  # vertices on the path
        pushed = []  # the path's vertices after s, as bits
        frontier = [closers]  # untried next vertices, one mask per depth
        while True:
            nxt = frontier[-1]
            if not nxt:
                frontier.pop()
                if not pushed:
                    break
                on_path ^= pushed.pop()
                size -= 1
                continue
            bit = nxt & -nxt
            frontier[-1] = nxt ^ bit
            ahead = adj[bit.bit_length() - 1] & above & ~(on_path | bit)
            length = size + 2  # the cycle closed through one vertex of ahead
            if ahead & closers and length in missing:
                found.add(length)
                if len(found) >= enough:
                    return found
                missing.discard(length)
                longest = max(missing)
            if length < longest and ahead:
                on_path |= bit
                pushed.append(bit)
                size += 1
                frontier.append(ahead)
    return found


def cycle_spectrum(g: Graph, max_len: int = 9) -> CycleSpectrum:
    """Exact set of lengths l <= max_len for which g contains a cycle.

    The search stops once every possible length in 3..min(max_len, n) is
    witnessed.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    lengths = range(3, min(max_len, g.n) + 1)
    present = _cycle_lengths(g.masks, lengths, len(lengths))
    return CycleSpectrum(present=frozenset(present), search_bound=max_len)


def forbidden_cycles(g: Graph, lengths) -> frozenset[int]:
    """Exactly those lengths in `lengths` at which g has a cycle."""
    lengths = frozenset(lengths)
    return frozenset(_cycle_lengths(g.masks, lengths, len(lengths)))


def has_cycle_length(g: Graph, lengths) -> bool:
    """Whether g has a cycle of some length in `lengths`; the search stops
    at the first one found."""
    return bool(_cycle_lengths(g.masks, lengths, 1))


#: The three forbidden-cycle hypothesis sets, keyed by short name.
FORBIDDEN_VARIANTS: dict[str, frozenset[int]] = {
    "a": frozenset({4, 7, 8, 9}),
    "b67": frozenset({4, 6, 7, 9}),
    "b68": frozenset({4, 6, 8, 9}),
}


def satisfied_variants(g: Graph) -> set[str]:
    """Which of the three forbidden-cycle hypothesis sets g satisfies.

    A variant is satisfied when g has no cycle of any listed length.
    """
    spectrum = cycle_spectrum(g, max_len=9).present
    return {
        name for name, lengths in FORBIDDEN_VARIANTS.items()
        if not (lengths & spectrum)
    }


def delete_vertices(g: Graph, drop) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus drop, plus the old->new index map."""
    drop = set(drop)
    if not drop <= set(range(g.n)):
        raise ValueError("vertices to delete must lie in 0..n-1")
    keep = [v for v in range(g.n) if v not in drop]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u not in drop and v not in drop
    ]
    return from_edge_list(edges, n=len(keep)), remap
