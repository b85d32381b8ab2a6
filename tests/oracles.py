"""Deliberately dumb reference implementations used to cross-check the fast
paths.  Only reference_dp_scan and reference_choosable_scan share search
code with the package: they call the public find_coloring once per
assignment, so they check the adversaries' enumeration, and
slow_dp_verdict and slow_choosable check them in turn.  gauge_normalize
is the per-vertex relabeling that the adversary's normalization rests on,
done explicitly on one matching assignment, and
automorphisms_by_permutation the symmetry that the choosability walk
prunes by."""

from __future__ import annotations

import itertools

from dpcolor import (BudgetExceeded, DEFAULT_BUDGET, Graph, InvalidMatching,
                     MatchingAssignment, find_coloring, from_list_assignment,
                     is_valid_coloring, uniform_lists)


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
    """Pattern occurrences by filtering every injective vertex tuple."""
    out = []
    for image in itertools.permutations(range(g.n), pattern.size):
        if any(g.degree(image[i]) != pattern.host_degree[i]
               for i in range(pattern.size)):
            continue
        if all(g.has_edge(image[u], image[v]) for u, v in pattern.edges):
            out.append(image)
    return out


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
