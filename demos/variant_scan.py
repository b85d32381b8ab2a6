"""Mini batch scan: every connected graph on up to 6 vertices, filtered to
the planar ones whose cycle spectrum satisfies a forbidden-cycle variant,
each checked DP-3-colorable by the normalized adversary search.

The full verification (up to 7 vertices, all three variants) runs in the
acceptance suite; this is the same pipeline at toy scale.
"""

import itertools

from dpcolor import (encode_graph6, from_edge_list, has_cycle_length,
                     is_connected, is_dp_k_colorable, is_planar,
                     FORBIDDEN_VARIANTS)


def tiny_census(max_n):
    """All connected graphs up to max_n vertices, with duplicates by
    isomorphism left in (this is a demo, not the census used in tests)."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = from_edge_list(edges, n=n)
            if is_connected(g):
                yield g


variant = "a"
forbidden = FORBIDDEN_VARIANTS[variant]
checked = failures = 0
seen = set()
for g in tiny_census(5):
    code = encode_graph6(g)
    if code in seen:
        continue
    seen.add(code)
    if has_cycle_length(g, forbidden) or not is_planar(g):
        continue
    checked += 1
    if is_dp_k_colorable(g, 3) is not True:
        failures += 1
        print(f"refutation candidate: {code}")

print(f"variant {variant} (no cycles of lengths {sorted(forbidden)}):")
print(f"checked {checked} labeled planar graphs, {failures} failures")
