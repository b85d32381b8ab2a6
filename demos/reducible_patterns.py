"""Reducible configurations: find a pattern in a host, and decide exactly
that any coloring of the rest extends across it."""

from dpcolor import (ConfigPattern, certify_reducible, find_pattern,
                     from_edge_list, pattern_to_json)

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
