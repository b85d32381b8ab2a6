"""Deliberately dumb reference implementations used to cross-check the fast
paths.  Only reference_dp_scan and reference_choosable_scan share search
code with the package: they call the public find_coloring once per
assignment, so they check the adversaries' enumeration, and
slow_dp_verdict and slow_choosable check them in turn.  gauge_normalize
is the per-vertex relabeling that the adversary's normalization rests on,
done explicitly on one matching assignment, and
automorphisms_by_permutation the symmetry that the choosability walk
prunes by.  decode_graph6_pairs and reference_core_components are the
pair-list graph6 decoder and the adjacency-set k-core peel that the
bitmask versions in dpcolor.graphs and dpcolor.solver replaced.
slow_dp_f_verdict is DP-f-colorability on per-vertex list sizes, by every
maximal-matching cover and every coloring: what the DP scan on sizes and
certify_reducible decide.  replay_charges redoes a discharging run's
transfer log one Fraction at a time from the start charges, the
arithmetic that the integer charge ledger in dpcolor.discharging
replaced.  reference_search_positions is the recursive backtracker with
a scan for the smallest domain that dp.search_positions, one loop over a
frame stack with bucketed domain sizes, replaced.
alon_tarsi_certifies decides whether an exponent vector has a nonzero
coefficient in the graph polynomial in Alon and Tarsi's own terms, an
orientation with those out-degrees and its even and odd Eulerian
subgraphs, with no polynomial; solver._alon_tarsi's weighted sum is
checked against it."""

from __future__ import annotations

import itertools
from fractions import Fraction

from dpcolor import (BudgetExceeded, ChargeState, DEFAULT_BUDGET, Graph,
                     InvalidMatching, MatchingAssignment, PlaneEmbedding,
                     find_coloring, from_list_assignment, is_valid_coloring,
                     uniform_lists)


def brute_has_coloring(g: Graph, lists, pair_sets) -> bool:
    """Try every color tuple; pair_sets maps (u, v) with u < v to a set of
    forbidden (color-at-u, color-at-v) pairs."""
    for combo in itertools.product(*lists):
        ok = True
        for (u, v), bad in pair_sets.items():
            if (combo[u], combo[v]) in bad:
                ok = False
                break
        if ok:
            return True
    return False


def brute_k_colorable(g: Graph, k: int) -> bool:
    """Proper k-colorability as brute_has_coloring on uniform lists with
    identity pair sets on every edge."""
    same = {(c, c) for c in range(k)}
    return brute_has_coloring(g, [range(k)] * g.n,
                              dict.fromkeys(g.edges, same))


def _partial_matchings(k: int):
    """All injective partial matchings between [k] and [k], densest first."""
    out = []
    cols = range(k)
    for size in range(k, -1, -1):
        for left in itertools.combinations(cols, size):
            for right in itertools.permutations(cols, size):
                out.append(tuple(zip(left, right)))
    return out


def slow_dp_verdict(g: Graph, k: int) -> bool:
    """Unrestricted adversary: every partial matching on every edge.

    Densest-first edge options put full permutation assignments first, so a
    failing assignment (when one exists) surfaces early; a True verdict
    still requires exhausting the whole space.
    """
    edges = sorted(g.edges)
    options = _partial_matchings(k)
    lists = [range(k)] * g.n
    for choice in itertools.product(options, repeat=len(edges)):
        pair_sets = {e: set(pairs) for e, pairs in zip(edges, choice)}
        if not brute_has_coloring(g, lists, pair_sets):
            return False
    return True


def _dfs_forest(g: Graph) -> set[tuple[int, int]]:
    """The spanning forest the adversary normalizes on: depth-first from
    each unseen root in index order, neighbors pushed in increasing order."""
    seen = [False] * g.n
    tree = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for u in sorted(g.adj[v]):
                if not seen[u]:
                    seen[u] = True
                    tree.add((min(u, v), max(u, v)))
                    stack.append(u)
    return tree


def reference_dp_scan(g: Graph, k: int, budget: int = DEFAULT_BUDGET):
    """The normalized adversary as a plain scan: every permutation on every
    non-tree edge, in itertools.product order, one find_coloring call each.

    Returns True or the first failing MatchingAssignment; raises
    BudgetExceeded once budget assignments are tried without a verdict.
    Every coloring find_coloring returns is checked, so a search that
    returned an invalid coloring would not pass for a colorable case.
    """
    nontree = sorted(set(g.edges) - _dfs_forest(g))
    lists = uniform_lists(g.n, k)
    attempted = 0
    for choice in itertools.product(itertools.permutations(range(k)),
                                    repeat=len(nontree)):
        if attempted >= budget:
            raise BudgetExceeded(attempted)
        attempted += 1
        matching = MatchingAssignment.from_permutations(
            g, k, dict(zip(nontree, choice)))
        found = find_coloring(g, lists, matching)
        if found is None:
            return matching
        assert is_valid_coloring(g, lists, matching, found), (choice, found)
    return True


class NotSpanningTree(ValueError):
    """The given edge set is not a spanning tree of the graph."""


def gauge_normalize(g: Graph, k: int, matching: MatchingAssignment, tree_edges
                    ) -> tuple[MatchingAssignment, tuple[tuple[int, ...], ...]]:
    """Relabel colors per vertex so every tree edge carries the identity.

    Relabeling by permutations pi_v turns the matching a->b on edge (u, v)
    into pi_u(a) -> pi_v(b) and preserves colorability; the returned
    witness permutations transport colorings back and forth.  Tree edges
    must carry full (size-k) matchings.
    """
    tree = {tuple(sorted(e)) for e in tree_edges}
    if len(tree) != g.n - 1 or not tree <= set(g.edges):
        raise NotSpanningTree("edge set has wrong size or non-edges")
    # BFS from 0 assigns pi_v = pi_u o sigma_uv^-1 along tree edges
    pi: list[tuple[int, ...] | None] = [None] * g.n
    pi[0] = tuple(range(k))
    queue = [0]
    seen = 1
    tree_adj = [[] for _ in range(g.n)]
    for u, v in tree:
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    while queue:
        u = queue.pop()
        for v in tree_adj[u]:
            if pi[v] is not None:
                continue
            sigma = [-1] * k  # color at u -> color at v
            for a, b in matching.pairs(u, v):
                sigma[a] = b
            if -1 in sigma:
                raise InvalidMatching(
                    f"tree edge ({u}, {v}) does not carry a full matching")
            pv = [-1] * k
            for a in range(k):
                pv[sigma[a]] = pi[u][a]
            pi[v] = tuple(pv)
            queue.append(v)
            seen += 1
    if seen != g.n:
        raise NotSpanningTree("edge set does not span the graph")
    table = {}
    for u, v in g.edges:
        pairs = tuple((pi[u][a], pi[v][b]) for a, b in matching.pairs(u, v))
        table[(u, v)] = pairs
    return MatchingAssignment(table), tuple(pi)  # type: ignore[arg-type]


def slow_choosable(g: Graph, k: int) -> bool:
    """Choosability by plain canonical enumeration: each list picks some
    already-used colors plus a block of fresh ones."""

    def rec(v: int, lists: list, used: int) -> bool:
        if v == g.n:
            pair_sets = {
                (u, w): {(c, c) for c in set(lists[u]) & set(lists[w])}
                for u, w in g.edges
            }
            return brute_has_coloring(g, lists, pair_sets)
        for take in range(k + 1):
            fresh = tuple(range(used, used + k - take))
            for old in itertools.combinations(range(used), take):
                if not rec(v + 1, lists + [old + fresh], used + k - take):
                    return False
        return True

    return rec(0, [], 0)


def _connected_classes(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex set that induces a connected subgraph, found by testing
    all subsets, ordered by least vertex and then by decreasing bitmask."""
    out = []
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                for u in (g.adj[stack.pop()] & inside) - seen:
                    seen.add(u)
                    stack.append(u)
            if seen == inside:
                out.append(subset)
    return sorted(out, key=lambda s: (s[0], -sum(1 << v for v in s)))


def _list_systems(g: Graph, k: int):
    """Multisets of connected classes covering every vertex exactly k times,
    in the choosability adversary's order: as nondecreasing sequences of
    positions in _connected_classes order, lexicographically."""
    classes = _connected_classes(g)
    cover = [0] * g.n
    seq: list[tuple[int, ...]] = []

    def rec(start: int):
        if all(c == k for c in cover):
            yield list(seq)
            return
        for i in range(start, len(classes)):
            cls = classes[i]
            if any(cover[v] != k for v in range(cls[0])):
                return  # no class from here on reaches those vertices
            if any(cover[v] == k for v in cls):
                continue
            for v in cls:
                cover[v] += 1
            seq.append(cls)
            yield from rec(i)
            seq.pop()
            for v in cls:
                cover[v] -= 1

    return rec(0)


def reference_choosable_scan(g: Graph, k: int, budget: int = DEFAULT_BUDGET):
    """The choosability adversary as a plain scan: every list system in
    order, one find_coloring call each, on the lists translated by
    from_list_assignment.

    Returns True or the first failing lists (vertex v's list holds the
    indices of the classes that contain v); raises BudgetExceeded once
    budget list systems are tried without a verdict.  Every coloring
    find_coloring returns is checked.
    """
    attempted = 0
    for seq in _list_systems(g, k):
        if attempted >= budget:
            raise BudgetExceeded(attempted)
        attempted += 1
        lists = tuple(tuple(i for i, cls in enumerate(seq) if v in cls)
                      for v in range(g.n))
        uniform, matching = from_list_assignment(g, lists)
        found = find_coloring(g, uniform, matching)
        if found is None:
            return lists
        assert is_valid_coloring(g, uniform, matching, found), (lists, found)
    return True


def all_cycle_lengths(g: Graph, max_len: int) -> set[int]:
    """Every simple cycle length by checking all vertex subsets for a
    spanning cycle (via permutations)."""
    found = set()
    for size in range(3, min(max_len, g.n) + 1):
        for subset in itertools.combinations(range(g.n), size):
            if size in found:
                break
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                cyc = (first,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % size])
                       for i in range(size)):
                    found.add(size)
                    break
    return found


def bfs_connected(g: Graph) -> bool:
    """Connectivity by breadth-first search over g.adj from vertex 0."""
    if g.n == 0:
        return True
    seen = {0}
    queue = [0]
    for v in queue:
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def all_injections_matching(g: Graph, pattern) -> list[tuple[int, ...]]:
    """Pattern occurrences by filtering every injective vertex tuple whose
    vertices have the pattern's host degrees, in lexicographic order."""
    pools = [[v for v in range(g.n) if g.degree(v) == d]
             for d in pattern.host_degree]
    out = []
    for image in itertools.product(*pools):
        if len(set(image)) < pattern.size:
            continue
        if all(g.has_edge(image[u], image[v]) for u, v in pattern.edges):
            out.append(image)
    return out


def slow_dp_f_verdict(g: Graph, f) -> bool:
    """DP-f-colorability with f[v] colors, range(f[v]), at v: every cover
    made of maximal matchings, each edge taking every injection of the
    smaller list into the larger with no normalization, and every
    coloring of each cover."""
    edges = sorted(g.edges)
    options = []
    for u, v in edges:
        if f[u] <= f[v]:
            options.append([set(zip(range(f[u]), p)) for p in
                            itertools.permutations(range(f[v]), f[u])])
        else:
            options.append([set(zip(p, range(f[v]))) for p in
                            itertools.permutations(range(f[u]), f[v])])
    lists = [range(x) for x in f]
    return all(brute_has_coloring(g, lists, dict(zip(edges, choice)))
               for choice in itertools.product(*options))


def subset_degeneracy(g: Graph) -> int:
    """Degeneracy as the largest minimum degree of an induced subgraph,
    over every nonempty vertex subset."""
    best = 0
    for bits in range(1, 1 << g.n):
        members = [v for v in range(g.n) if (bits >> v) & 1]
        best = max(best, min(sum(1 for u in g.adj[v] if (bits >> u) & 1)
                             for v in members))
    return best


def automorphisms_by_permutation(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism, the identity included, as the tuple of vertex
    images: all n! permutations, kept when they map the edge set onto
    itself."""
    return [p for p in itertools.permutations(range(g.n))
            if all(g.has_edge(p[u], p[v]) for u, v in g.edges)]


def decode_graph6_pairs(s: str) -> tuple[int, list[tuple[int, int]]]:
    """A valid graph6 line as (n, pairs): pairs lists the edges (i, j),
    i < j, in column order (0,1), (0,2), (1,2), (0,3), ..., read one bit
    at a time."""
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] < 63:
        n, rest = vals[0], vals[1:]
    elif vals[1] < 63:
        n, rest = (vals[1] << 12) | (vals[2] << 6) | vals[3], vals[4:]
    else:
        n = 0
        for x in vals[2:8]:
            n = (n << 6) | x
        rest = vals[8:]
    bits = [x >> (5 - b) & 1 for x in rest for b in range(6)]
    column_order = [(i, j) for j in range(n) for i in range(j)]
    assert len(bits) - len(column_order) in range(6)
    assert not any(bits[len(column_order):]), "nonzero padding"
    return n, [pair for pair, bit in zip(column_order, bits) if bit]


def reference_core_components(g: Graph, k: int) -> list[list[int]]:
    """The vertices of each component of the k-core of g, ordered by least
    vertex: a degree count per vertex over g.adj, lowered as the vertices
    of degree < k are deleted, then a search over g.adj from each vertex
    left."""
    degs = [len(a) for a in g.adj]
    gone = [d < k for d in degs]
    stack = [v for v in range(g.n) if gone[v]]
    while stack:
        for u in g.adj[stack.pop()]:
            if not gone[u]:
                degs[u] -= 1
                if degs[u] < k:
                    gone[u] = True
                    stack.append(u)
    components = []
    for root in range(g.n):
        if gone[root]:
            continue
        gone[root] = True
        comp = [root]
        for v in comp:
            for u in g.adj[v]:
                if not gone[u]:
                    gone[u] = True
                    comp.append(u)
        components.append(sorted(comp))
    return components


def replay_charges(emb: PlaneEmbedding, state: ChargeState):
    """The final vertex and face charges and the (phase, total) after each
    phase of state.phase_totals, from the start charges d(x) - 4 and
    state.log: each transfer subtracts one Fraction at its source and adds
    one at its sink, in log order, and each total adds the charges one at a
    time."""
    charges = {"v": [Fraction(d - 4) for d in emb.graph.degrees()],
               "f": [Fraction(x - 4) for x in emb.face_lengths]}
    totals = []
    for phase, _ in state.phase_totals:
        for t in state.log:
            if t.phase == phase:
                charges[t.source[0]][int(t.source[1:])] -= t.amount
                charges[t.sink[0]][int(t.sink[1:])] += t.amount
        totals.append((phase, sum(charges["v"] + charges["f"], Fraction(0))))
    return charges["v"], charges["f"], totals


def reference_search_positions(adj, sizes, part):
    """dp.search_positions by recursion: the same forward checking, the
    next vertex the uncolored one with the fewest positions left (ties to
    the smallest index) found by a scan, positions in increasing order."""
    n = len(adj)
    domain = [(1 << k) - 1 for k in sizes]
    chosen = [-1] * n
    uncolored = set(range(n))

    def solve() -> bool:
        if not uncolored:
            return True
        v = min(uncolored, key=lambda w: (domain[w].bit_count(), w))
        if domain[v] == 0:
            return False
        uncolored.discard(v)
        d = domain[v]
        while d:
            bit = d & -d
            d ^= bit
            i = bit.bit_length() - 1
            chosen[v] = i
            removed = []
            dead = False
            for u in adj[v]:
                if chosen[u] >= 0:
                    continue
                j = part[(v, u)][i]
                if j >= 0 and (domain[u] >> j) & 1:
                    domain[u] ^= 1 << j
                    removed.append((u, j))
                    if domain[u] == 0:
                        dead = True
                        break
            if not dead and solve():
                return True
            for u, j in removed:
                domain[u] ^= 1 << j
            chosen[v] = -1
        uncolored.add(v)
        return False

    return tuple(chosen) if solve() else None


def alon_tarsi_certifies(g: Graph, k: int, exponents) -> bool:
    """Whether exponents, one per vertex and each at most k - 1, are the
    out-degrees of an orientation D of g with EE(D) != EO(D): D's spanning
    Eulerian subgraphs (in-degree equal to out-degree at every vertex)
    with an even number of arcs outnumber or are outnumbered by those with
    an odd number.  That difference is, up to sign, the coefficient of
    prod_v x_v^exponents[v] in the graph polynomial (Alon and Tarsi,
    1992).  D is the first orientation found by a search over the edges
    in sorted order, each tried from its smaller end first; the subgraphs
    are counted arc by arc, by the balance (out minus in) at each vertex
    and parity."""
    if len(exponents) != g.n or any(not 0 <= d < k for d in exponents):
        return False
    edges = sorted(g.edges)
    left = list(exponents)
    arcs: list[tuple[int, int]] = []

    def orient(i: int) -> bool:
        if i == len(edges):
            return not any(left)
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            if left[a]:
                left[a] -= 1
                arcs.append((a, b))
                if orient(i + 1):
                    return True
                left[a] += 1
                arcs.pop()
        return False

    if not orient(0):
        return False
    zero = (0,) * g.n
    counts = {zero: (1, 0)}  # balance -> (even, odd) arc subsets
    for a, b in arcs:
        grown = dict(counts)
        for balance, (even, odd) in counts.items():
            moved = list(balance)
            moved[a] += 1
            moved[b] -= 1
            old_even, old_odd = grown.get(tuple(moved), (0, 0))
            grown[tuple(moved)] = (old_even + odd, old_odd + even)
        counts = grown
    even, odd = counts.get(zero, (0, 0))
    return even != odd
