"""Deliberately dumb reference implementations used to cross-check the fast
paths.  Only reference_dp_scan shares search code with the package: it
calls the public find_coloring once per assignment, so it checks the
adversary's enumeration, and slow_dp_verdict checks it in turn."""

from __future__ import annotations

import itertools

from dpcolor import (BudgetExceeded, DEFAULT_BUDGET, Graph, MatchingAssignment,
                     find_coloring, is_valid_coloring, uniform_lists)


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
