"""Even cycles separate list coloring from DP-coloring: they are
2-choosable, yet no even cycle is DP-2-colorable."""

from dpcolor import (chi_dp, cycle_graph, find_coloring, format_matching_file,
                     is_dp_k_colorable, is_k_choosable, uniform_lists)

for m in (4, 6, 8):
    c = cycle_graph(m)
    choosable = is_k_choosable(c, 2) is True
    print(f"C{m}: 2-choosable? {choosable}")
    cert = is_dp_k_colorable(c, 2)
    print(f"C{m}: DP-2-colorable? {cert is True}")
    if cert is not True:
        print("  the first failing matching assignment (identity except one edge):")
        for line in format_matching_file(cert.matching, c).splitlines():
            print(f"    {line}")
        assert find_coloring(c, uniform_lists(m, 2), cert.matching) is None
    print()

print("DP-chromatic number of cycles (both parities):")
for m in range(3, 9):
    print(f"  chi_DP(C{m}) = {chi_dp(cycle_graph(m))}")
