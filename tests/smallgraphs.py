"""Census of connected graphs up to isomorphism, by vertex addition.

Canonical forms are minimized over permutations that respect the stable
degree-refinement partition; every isomorphism respects that partition, so
the minimum is a complete invariant.
"""

from __future__ import annotations

import functools
import itertools

from dpcolor import Graph, from_edge_list, cycle_spectrum


def _refinement_classes(g: Graph) -> list[list[int]]:
    key = {v: (g.degree(v),) for v in range(g.n)}
    while True:
        new = {
            v: (key[v], tuple(sorted(key[u] for u in g.adj[v])))
            for v in range(g.n)
        }
        if len(set(new.values())) == len(set(key.values())):
            break
        key = new
    groups: dict = {}
    for v in range(g.n):
        groups.setdefault(key[v], []).append(v)
    return [groups[k] for k in sorted(groups)]


def canonical_form(g: Graph):
    classes = _refinement_classes(g) if g.n else []
    blocks = []
    at = 0
    for cls in classes:
        blocks.append(range(at, at + len(cls)))
        at += len(cls)
    best = None
    for assignment in itertools.product(
            *[itertools.permutations(cls) for cls in classes]):
        pos = {}
        for block, chosen in zip(blocks, assignment):
            for p, v in zip(block, chosen):
                pos[v] = p
        enc = tuple(sorted(
            (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
            for u, v in g.edges))
        if best is None or enc < best:
            best = enc
    return g.n, best


def connected_graphs(max_n: int, forbid_cycles=frozenset()) -> list[Graph]:
    """Connected graphs on 1..max_n vertices, one per isomorphism class.

    forbid_cycles drops graphs containing a cycle of any listed length;
    that property survives vertex deletion, so pruning during generation
    stays exhaustive.
    """
    forbid = frozenset(forbid_cycles)
    bound = max(forbid) if forbid else 3

    def allowed(g: Graph) -> bool:
        if not forbid or g.m < 3:
            return True
        return not (cycle_spectrum(g, max_len=max(3, bound)) & forbid)

    reps: list[Graph] = [from_edge_list([], n=1)]
    level = [from_edge_list([], n=1)]
    for n in range(2, max_n + 1):
        seen = set()
        nxt = []
        for parent in level:
            for bits in range(1, 1 << parent.n):
                nbrs = [v for v in range(parent.n) if (bits >> v) & 1]
                g = from_edge_list(
                    list(parent.edges) + [(v, parent.n) for v in nbrs],
                    n=parent.n + 1)
                if not allowed(g):
                    continue
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    nxt.append(g)
        # deterministic order: by edge count then canonical encoding
        nxt.sort(key=lambda h: (h.m, canonical_form(h)))
        reps.extend(nxt)
        level = nxt
    return reps


@functools.cache
def labelled_graphs(max_n: int) -> tuple[Graph, ...]:
    """Every graph on the vertices 0..n-1 for n up to max_n, connected or
    not: one per set of vertex pairs, in order of n, then of the set's
    bits over the pairs in column order."""
    out = []
    for n in range(max_n + 1):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(pairs)):
            out.append(from_edge_list(
                [e for k, e in enumerate(pairs) if bits >> k & 1], n=n))
    return tuple(out)
