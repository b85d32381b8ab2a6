"""Randomized instance builders for the extension arguments."""

from __future__ import annotations

import random

from dpcolor import (MatchingAssignment, find_coloring, from_edge_list,
                     uniform_lists)


def random_full_matching(rng: random.Random, g, k: int) -> MatchingAssignment:
    perms = {}
    for e in g.edges:
        p = list(range(k))
        rng.shuffle(p)
        perms[e] = tuple(p)
    return MatchingAssignment.from_permutations(g, k, perms)


def random_extension_instance(rng: random.Random, k: int = 3):
    """A host graph with an ordered cycle configuration whose extension
    conditions hold structurally, plus a random matching and a coloring of
    the outside.  Returns (g, order, lists, matching, partial)."""
    ell = rng.randint(3, 5)
    n_out = rng.randint(1, 3)
    outside = list(range(ell, ell + n_out))
    edges = [(i, i + 1) for i in range(ell - 1)] + [(0, ell - 1)]
    for i in range(n_out):
        for j in range(i + 1, n_out):
            if rng.random() < 0.4:
                edges.append((outside[i], outside[j]))
    # the last configuration vertex gets exactly one outside neighbor,
    # interior vertices at most one, the first vertex none
    edges.append((ell - 1, rng.choice(outside)))
    for v in range(1, ell - 1):
        if rng.random() < 0.5:
            edges.append((v, rng.choice(outside)))
    g = from_edge_list(edges, n=ell + n_out)
    order = list(range(ell))
    # the extension conditions: v1 = 0 has no neighbor outside; vl, its
    # neighbor, has degree at most k and 1 to k - 1 neighbors outside; and
    # each interior vertex sees at most k - 1 earlier or outside vertices
    out = [len(g.adj[v] - set(order)) for v in order]
    assert g.has_edge(0, ell - 1) and out[0] == 0
    assert g.degree(ell - 1) <= k and 1 <= out[-1] <= k - 1
    assert all(len(g.adj[v] & set(order[:i])) + out[i] <= k - 1
               for i, v in enumerate(order[1:-1], start=1))
    lists = uniform_lists(g.n, k)
    while True:
        matching = random_full_matching(rng, g, k)
        sub_edges = [(u - ell, v - ell) for u, v in g.edges
                     if u >= ell and v >= ell]
        sub = from_edge_list(sub_edges, n=n_out)
        sub_matching = MatchingAssignment({
            (u - ell, v - ell): matching.pairs(u, v)
            for u, v in g.edges if u >= ell and v >= ell
        })
        coloring = find_coloring(sub, uniform_lists(n_out, k), sub_matching)
        if coloring is not None:
            partial = {outside[i]: coloring[i] for i in range(n_out)}
            return g, order, lists, matching, partial
