"""Reducible configurations: find a pattern in a host, decide exactly that
any coloring of the rest extends across it, and run one extension by
hand."""

import random

from dpcolor import (ConfigPattern, MatchingAssignment, certify_reducible,
                     extend_coloring, find_coloring, find_pattern,
                     from_edge_list, pattern_to_json, uniform_lists)

# a triangle whose first vertex lies on nothing else
pattern = ConfigPattern.build(
    edges=[(0, 1), (1, 2), (0, 2)],
    host_degree=(2, 3, 3),
    order=[0, 1, 2],
    name="hanging triangle",
)
print("pattern document:")
print(pattern_to_json(pattern))
print()

host = from_edge_list([(0, 1), (1, 2), (0, 2), (1, 3), (2, 4), (3, 4)])
hits = find_pattern(host, pattern)
print(f"occurrences in the host: {hits}")

for image in hits:
    # each vertex keeps 3 colors minus one per neighbor outside
    sizes = [3 - len(host.adj[v] - set(image)) for v in image]
    print(f"  image {image}: colors left per vertex {sizes}")
# exact: each occurrence is DP-colorable from those many colors
print(f"reducible for k=3: {certify_reducible(host, pattern, 3)}")
print()

# one concrete extension: color everything outside one occurrence, then extend
rng = random.Random(4)
image = hits[0]
order = [image[i] for i in pattern.order]
outside = [v for v in range(host.n) if v not in order]
perms = {}
for e in host.edges:
    p = list(range(3))
    rng.shuffle(p)
    perms[e] = tuple(p)
matching = MatchingAssignment.from_permutations(host, 3, perms)
remap = {v: i for i, v in enumerate(outside)}
sub_edges = [(remap[a], remap[b]) for a, b in host.edges
             if a in outside and b in outside]
sub = from_edge_list(sub_edges, n=len(outside))
sub_matching = MatchingAssignment({
    (remap[a], remap[b]): matching.pairs(a, b)
    for a, b in host.edges if a in outside and b in outside})
sub_coloring = find_coloring(sub, uniform_lists(sub.n, 3), sub_matching)
partial = {v: sub_coloring[remap[v]] for v in outside}
print(f"coloring of the rest: {partial}")
full = extend_coloring(host, order, uniform_lists(host.n, 3), matching, partial)
print(f"extended across {order}: {dict(sorted(full.items()))}")
