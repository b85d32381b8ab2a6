"""The chain chi <= chi_list <= chi_DP on small graphs, all three computed
by exhaustive search."""

from dpcolor import (chi, chi_dp, chi_list, complete_bipartite,
                     complete_graph, cycle_graph, from_edge_list,
                     parse_graph6)

wheel5 = from_edge_list([(i, (i + 1) % 5) for i in range(5)]
                        + [(i, 5) for i in range(5)])
k33e = parse_graph6("Es^o")  # K3,3 plus an edge inside one side
rows = [
    ("C4", cycle_graph(4)),
    ("C5", cycle_graph(5)),
    ("C6", cycle_graph(6)),
    ("K4", complete_graph(4)),
    ("K2,3", complete_bipartite(2, 3)),
    ("K2,4", complete_bipartite(2, 4)),
    ("wheel on 6", wheel5),
    ("Es^o", k33e),
]

print(f"{'graph':>12}  {'chi':>3}  {'chi_list':>8}  {'chi_DP':>6}")
for name, g in rows:
    a, b, c = chi(g), chi_list(g), chi_dp(g)
    assert a <= b <= c
    print(f"{name:>12}  {a:>3}  {b:>8}  {c:>6}")

print()
print("K2,4 is the smallest bipartite graph that is not 2-choosable;")
print("C4 shows the last step of the chain can be strict (2 < 3).")
print("Es^o, K3,3 plus an edge, is 3-choosable but not DP-3-colorable:")
print("a list-coloring result need not extend to DP-coloring.")
