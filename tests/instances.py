"""Random full matchings for the replayed extensions."""

from __future__ import annotations

import random

from dpcolor import MatchingAssignment


def random_full_matching(rng: random.Random, g, k: int) -> MatchingAssignment:
    perms = {}
    for e in g.edges:
        p = list(range(k))
        rng.shuffle(p)
        perms[e] = tuple(p)
    return MatchingAssignment.from_permutations(g, k, perms)

