"""Chromatic parameters by exhaustive search: chi, choosability, DP-chromatic.

The DP adversary search enumerates matching assignments restricted to full
permutation matchings with the identity fixed on a spanning forest.  Both
restrictions preserve the verdict: adding pairs to a matching only adds
cover-graph edges (so a bad partial assignment extends to a bad full one),
and relabeling colors at a vertex re-indexes matchings without changing
whether an independent transversal exists.  The restricted space has
(k!)^(|E|-|V|+components) cases, enumerated in lexicographic order so the
first failing assignment is deterministic.

The enumeration reuses the colorings it has found ("witnesses").  It walks
the non-tree edges depth first in that same lexicographic order, as a loop
rather than a recursion so any number of non-tree edges fits, keeping at
each depth the witnesses that avoid every matched pair on the edges set so
far; the backtracker (dp.search_positions) runs only at a leaf that no
witness survives.  A coloring it returns is valid on every prefix of its
assignment, so it joins the witnesses of every open depth.  A surviving
witness proves its leaf colorable, so skipping the search changes no
verdict, and the first leaf with no coloring is the same first failing
assignment.  Every leaf still counts as one attempted case, checked against
the budget before it is examined, so budgets and BudgetExceeded.attempted
mean what they meant for the plain per-assignment scan.

The walk also prunes by the residual gauge symmetry.  Relabeling every
vertex by the same permutation pi keeps the tree identities and maps each
non-tree permutation s to pi s pi^-1, so it preserves colorability.  A
prefix that some pi maps to a lexicographically smaller one is skipped with
its whole subtree (orderly generation, as in McKay's isomorph-free
exhaustive generation), so only the least prefix of each orbit is extended.
Leaves are not tested, since a witness check costs less than the orbit
test; about one leaf in k! is still visited.  Every skipped assignment has
a conjugate earlier in the scan, and the scan only gets that far when
everything before it was colorable, so the skipped ones are colorable too.
Hence the verdict is unchanged, and the first failing assignment is the
least of its orbit and is still the first certificate.  A skipped subtree
adds its leaf count to the attempted cases; if that passes the budget, the
scan stops with exactly budget attempted, as the plain scan would.  The
parallel split cuts the first edge's choices into contiguous blocks that
hold equal shares of the first choices the pruning keeps.  A block may skip
leaves whose conjugates lie in an earlier block; the merge keeps a block's
result only when every earlier block finished colorable, so that stays
exact too.

The choosability search enumerates list assignments up to color renaming.
Splitting a color whose support induces a disconnected subgraph into one
fresh color per component changes no verdict (matched colors never face
each other across the split), so only assignments whose color classes
induce connected subgraphs are generated: multisets of connected vertex
sets covering every vertex exactly k times.  It reuses colorings in the
same way, on the same backtracker.  A witness stores the class index each
vertex takes; along the walk over the chosen classes it survives while the
vertices of each of its colors lie inside that color's class, and at a leaf
it must use no class beyond the last one.  Only a list system that no
witness survives is translated to list positions and partner tables (-1
where a neighbor's list lacks the color) and handed to
dp.search_positions, so the list systems, the first failing one and the
budget count are those of a plain scan.

A witness that fits every class chosen so far and uses no other color
colors every leaf below, since the classes added later only widen the
lists.  Such a subtree is not walked: its leaves, counted by a memoized
copy of the walk's choice rule keyed on the slots each vertex still needs
and the next class allowed, are added to the attempted cases, and a count
that passes the budget stops the scan with exactly budget attempted, as
the DP walk's pruned subtrees do.  No leaf below needed the backtracker,
so the witnesses, the first failing list system and the count are those
of the plain scan.

The choosability walk also prunes by the automorphisms of the graph, on the
orbit table of the gauge pruning (_OrbitTable).  An automorphism sigma maps
each class to the class of its image vertices, and a list system L to
sigma(L), which is colorable exactly when L is.  Classes compare by their
places in the walk's order, and the leaves, each the sorted sequence of its
classes, come in lexicographic order.  Let sigma fix every class of a
prefix P but the last, c, and map c to an earlier class.  Then
sorted(sigma(P)) < P, and since adding elements to a multiset never raises
its i-th smallest one, every leaf L below P has sorted(sigma(L)) < L: an
image earlier in the scan, which the scan passed only if it was colorable.
So such a subtree is counted without a walk, under the witness skip's
budget rule, and the verdict, the first failing list system and the count
stay those of the plain scan.  Pruning by any set of automorphisms is
sound, so _automorphisms lists at most _AUT_LIMIT of them, and a graph with
more costs what one with that many does.

chi_list and chi_dp search less than the whole graph, in one loop over k.
A vertex of degree < k can be colored last from any k-list and in any
k-fold cover, so G is k-choosable, or DP-k-colorable, exactly when every
component of its k-core (what is left after deleting vertices of degree
< k until none is left) is (Erdos, Rubin and Taylor, 1979, for lists).
For each k the loop searches those components one after another,
relabelled in increasing vertex order, each with the budget the earlier
ones left, so the budget counts the cases of the core's components.  An
empty k-core, as at every k above the largest minimum degree of a
subgraph, settles k without a search.  is_k_choosable and
is_dp_k_colorable themselves search the graph they are given.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graphs import Graph, delete_vertices
from .dp import Lists, MatchingAssignment, search_positions

__all__ = [
    "BudgetExceeded",
    "AdversaryCertificate",
    "DEFAULT_BUDGET",
    "chi",
    "core_components",
    "is_dp_k_colorable",
    "chi_dp",
    "is_k_choosable",
    "chi_list",
    "normalized_assignment_count",
]

DEFAULT_BUDGET = 100_000_000

#: is_dp_k_colorable scans a space in this process whatever jobs is when it
#: has fewer than this many normalized cases per k!.  The gauge pruning
#: visits one case per orbit, about one in k!, so this bounds the work
#: scanned at every k, where a bound on raw cases would not.  Medians of 4
#: runs on a 2-vCPU host, serial vs. jobs 2, at k = 3 for CnxK2, n = 7, 8, 9
#: (279,936, 1,679,616 and 10,077,696 cases per k!): 0.12 vs 0.16 s, 0.72
#: vs 0.50 s (10 runs), 3.6 vs 2.6 s; at k = 4 for the cube and C5xK2
#: (331,776 and 7,962,624): 0.050 vs 0.065 s, 1.46 vs 1.35 s.  Unmeasured
#: at other k.
_POOL_MIN_WORK = 1_000_000


class BudgetExceeded(RuntimeError):
    """The search hit its case budget before reaching a verdict."""

    def __init__(self, attempted: int, message: str = ""):
        self.attempted = attempted
        super().__init__(message or f"budget exceeded after {attempted} cases")


@dataclass(frozen=True)
class AdversaryCertificate:
    """An assignment under which no coloring exists.

    kind is "dp" (matching assignment) or "list" (list assignment);
    replaying the certificate through find_coloring yields None.
    """

    kind: str
    k: int
    matching: MatchingAssignment | None = None
    lists: Lists | None = None


# ---------------------------------------------------------------------------
# Ordinary chromatic number.

def _max_clique(g: Graph) -> list[int]:
    """A largest clique, its vertices in the order they were added."""
    best: list[int] = []
    adj = g.adj
    clique: list[int] = []

    def expand(cand: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = list(clique)
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i <= len(best):
                return
            clique.append(v)
            expand([u for u in cand[i + 1:] if u in adj[v]])
            clique.pop()

    expand(sorted(range(g.n), key=g.degree, reverse=True))
    return best


def chi(g: Graph) -> int:
    """Chromatic number (exact): the least k from the clique number up at
    which identity matchings on uniform lists admit a DP-coloring, found
    by dp.search_positions with one identity partner list on every dart.

    The colors of a largest clique are fixed: its i-th vertex may use only
    positions 0..i, which leaves it position i once the ones before it are
    colored.  Any k-coloring relabels to one of that form, so the verdict
    holds, and the relabelings of the clique's colors are not tried again.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    darts = [(v, u) for v in range(g.n) for u in adj[v]]
    clique = _max_clique(g)
    for k in range(len(clique), g.n + 1):
        sizes = [k] * g.n
        for i, v in enumerate(clique):
            sizes[v] = i + 1
        part = dict.fromkeys(darts, list(range(k)))
        if search_positions(adj, sizes, part) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")


# ---------------------------------------------------------------------------
# DP adversary search.

def _spanning_forest(g: Graph) -> set[tuple[int, int]]:
    seen = [False] * g.n
    tree: set[tuple[int, int]] = set()
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
                    tree.add((u, v) if u < v else (v, u))
                    stack.append(u)
    return tree


def normalized_assignment_count(g: Graph, k: int) -> int:
    """Size of the normalized adversary space, (k!)^cyclomatic."""
    components = g.n - len(_spanning_forest(g))
    return math.factorial(k) ** (g.m - g.n + components)


class _OrbitTable(dict):
    """Orderly generation of choice sequences up to a finite group acting
    on choice indices, act(m, i) being the index member m maps choice i
    to: a choice is cut when a member that fixes every earlier choice of
    the sequence maps it to a smaller index.

    A prefix carries eq, the members (bits by number) that fix each of its
    choices; start holds all of them.  self[eq][i] is eq after appending
    choice i, or -1 when some member of eq maps choice i to a smaller
    index.  The members left out of eq move an earlier choice and are not
    used again; pruning by any set of members is sound, so the set need
    not be a group.  Rows and their entries are built on first lookup and
    kept, so a walk pays only for the entries it reads.
    """

    def __init__(self, act, members):
        super().__init__()
        self.act = act
        self.start = sum(1 << m for m in members)

    def __missing__(self, eq: int) -> _OrbitRow:
        row = self[eq] = _OrbitRow(self.act, eq)
        return row


class _OrbitRow(dict):
    """One row of _OrbitTable: choice index -> next eq, or -1."""

    def __init__(self, act, eq: int):
        super().__init__()
        self.act = act
        self.members = [m for m, bit in enumerate(bin(eq)[:1:-1])
                        if bit == "1"]

    def __missing__(self, i: int) -> int:
        kept = 0
        for m in self.members:
            j = self.act(m, i)
            if j < i:
                kept = -1
                break
            if j == i:
                kept |= 1 << m
        self[i] = kept
        return kept


class _GaugeOrbits(_OrbitTable):
    """The orbit table of the DP walk: perms, the permutations of range(k)
    in itertools order, under simultaneous conjugation s -> pi s pi^-1 by
    every pi but the identity.  A sequence is kept exactly when it is the
    least of its orbit: a pi left out of eq maps the prefix to a larger
    one, so only the members of eq can still map it lower."""

    def __init__(self, k: int):
        self.perms = list(itertools.permutations(range(k)))
        self.inv = [tuple(sorted(range(k), key=p.__getitem__))
                    for p in self.perms]
        self.index = {p: i for i, p in enumerate(self.perms)}
        super().__init__(self.conj, range(1, len(self.perms)))

    def conj(self, pi: int, i: int) -> int:
        """Index of perms[pi] o perms[i] o perms[pi]^-1."""
        p, s = self.perms[pi], self.perms[i]
        return self.index[tuple([p[s[c]] for c in self.inv[pi]])]


def _scan_block(g: Graph, k: int, first_indices, budget: int
                ) -> tuple[str, MatchingAssignment | None, int]:
    """Scan the normalized assignments whose first non-tree edge uses one of
    first_indices (positions in itertools.permutations(range(k))), in
    lexicographic order, reusing colorings already found and extending
    only the least prefix of each gauge orbit.

    Returns (status, certificate-or-None, attempted) with status in
    {"ok", "cert", "budget"}; attempted counts enumerated assignments,
    those of pruned subtrees included.
    """
    nontree = sorted(g.edges - _spanning_forest(g))
    orbits = _GaugeOrbits(k)
    perms, inv = orbits.perms, orbits.inv
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    sizes = [k] * g.n
    part = {}
    for u, v in g.edges:
        part[(u, v)] = part[(v, u)] = perms[0]
    depth = len(nontree)
    if not depth:
        # no non-tree edges: the single all-identity assignment
        if budget < 1:
            return "budget", None, 0
        if search_positions(adj, sizes, part) is None:
            return "cert", MatchingAssignment.identity(g, k), 1
        return "ok", None, 1
    # Witnesses are found colorings, one bit each.  alive[d][i] holds the
    # witnesses that avoid the matched pairs of non-tree edge d under perm
    # i; masks[d] holds those valid on edges 0..d-1 of the current path.
    # Until the first witness every row is the shared all-zero row.
    nperm = len(perms)
    zeros = [0] * nperm
    alive = [zeros] * depth
    masks = [0] * depth
    path = [0] * depth
    witnesses = attempted = 0

    def add_witness(coloring) -> None:
        nonlocal witnesses
        bit = 1 << witnesses
        witnesses += 1
        for d, (u, v) in enumerate(nontree):
            row = alive[d]
            if row is zeros:
                row = alive[d] = [0] * nperm
            cu, cv = coloring[u], coloring[v]
            for i, p in enumerate(perms):
                if p[cu] != cv:
                    row[i] |= bit
            # valid on every prefix of the current path
            masks[d] |= bit

    # Depth-first walk as an odometer over path, without recursion, so the
    # depth is not limited by the number of non-tree edges.  cursor[d] is
    # the index, in the choices of depth d, of the next perm to try there.
    # steps[d] is the orbit row of the prefix path[:d]; a choice it marks -1
    # is skipped with its whole subtree of skipped[d] leaves.  At the last
    # edge a choice is one leaf, and the witness check costs less than the
    # orbit test, so leaves are not tested.
    steps = [orbits[orbits.start]] * depth
    skipped = [nperm ** (depth - 1 - d) for d in range(depth)]
    top = list(first_indices)
    every = range(nperm)
    last = depth - 1
    cursor = [0] * depth
    d = 0
    while d >= 0:
        choices = top if d == 0 else every
        if d < last:
            c = cursor[d]
            if c == len(choices):
                cursor[d] = 0
                d -= 1
                continue
            cursor[d] = c + 1
            i = choices[c]
            eq = steps[d][i]
            if eq < 0:
                # every leaf below has a conjugate earlier in the scan, so
                # the plain scan counts them all as colorable
                attempted += skipped[d]
                if attempted > budget:
                    return "budget", None, budget
                continue
            path[d] = i
            u, v = nontree[d]
            part[(u, v)], part[(v, u)] = perms[i], inv[i]
            masks[d + 1] = masks[d] & alive[d][i]
            steps[d + 1] = orbits[eq]
            d += 1
            continue
        # leaf depth: every choice is one enumerated assignment
        u, v = nontree[d]
        row, mask = alive[d], masks[d]
        for i in choices:
            if attempted >= budget:
                return "budget", None, attempted
            attempted += 1
            if mask & row[i]:
                continue
            path[d] = i
            part[(u, v)], part[(v, u)] = perms[i], inv[i]
            coloring = search_positions(adj, sizes, part)
            if coloring is None:
                chosen = {e: perms[j] for e, j in zip(nontree, path)}
                matching = MatchingAssignment.from_permutations(g, k, chosen)
                return "cert", matching, attempted
            add_witness(coloring)
            row, mask = alive[d], masks[d]
        d -= 1
    return "ok", None, attempted


def is_dp_k_colorable(g: Graph, k: int, budget: int = DEFAULT_BUDGET,
                      jobs: int = 1):
    """True if every matching assignment admits a coloring, else the
    lexicographically first failing assignment as an AdversaryCertificate.

    Raises BudgetExceeded with the attempted case count if the normalized
    space cannot be settled within budget.  The verdict, the certificate
    and the count do not depend on jobs.  A space of at least
    _POOL_MIN_WORK times k! cases is split across jobs processes, at most
    one per first choice the gauge pruning keeps.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    nperm = math.factorial(k)
    # a space of one case has no first edge to split
    if jobs <= 1 or normalized_assignment_count(g, k) < max(
            _POOL_MIN_WORK * nperm, 2):
        results = [_scan_block(g, k, range(nperm), budget)]
    else:
        # split the first edge's permutations into contiguous blocks, each
        # scanned with the full budget since none knows how far the blocks
        # before it get
        scan = functools.partial(_scan_block, g, k, budget=budget)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan, _first_edge_blocks(k, jobs)))
    # merge in block order with cumulative counts: a block's result stands
    # only where the serial scan would have reached it within budget, so
    # the first certificate and the attempted count are the serial ones
    offset = 0
    for status, matching, attempted in results:
        offset += attempted
        if status == "budget" or offset > budget:
            # the serial scan stops with exactly budget cases attempted
            raise BudgetExceeded(max(budget, 0))
        if status == "cert":
            return AdversaryCertificate(kind="dp", k=k, matching=matching)
    return True


def _first_edge_blocks(k: int, jobs: int) -> list[range]:
    """Contiguous blocks of the first edge's permutation indices that cover
    range(k!), at most jobs of them, each holding as many of the first
    choices the gauge pruning keeps (the start row's) as the others, to
    one.  The others are skipped in every block, so a block holds at least
    one kept choice and has work to do."""
    orbits = _GaugeOrbits(k)
    row = orbits[orbits.start]
    nperm = len(orbits.perms)
    kept = [i for i in range(nperm) if row[i] >= 0]
    parts = min(jobs, len(kept))
    size, extra = divmod(len(kept), parts)
    cuts, at = [0], 0
    for b in range(parts - 1):
        at += size + (b < extra)
        cuts.append(kept[at])
    cuts.append(nperm)
    return [range(a, z) for a, z in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# Choosability.

def _connected_subsets(g: Graph) -> list[int]:
    """All connected vertex subsets as bitmasks.

    Exclusive-neighborhood extension: a vertex enters the extension set only
    when first seen as a neighbor of the current subset, so each subset is
    generated exactly once (from its minimum vertex).
    """
    adjmask = g.masks
    out: list[int] = []

    def rec(cur: int, ext: int, nbhd: int) -> None:
        out.append(cur)
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            add = adjmask[v] & upper & ~nbhd
            rec(cur | low, ext | add, nbhd | adjmask[v])

    for s in range(g.n):
        upper = ~((1 << (s + 1)) - 1)
        rec(1 << s, adjmask[s] & upper, adjmask[s])
    return out


def _list_coloring(adj, lists: Lists, colors: int) -> tuple[int, ...] | None:
    """One list system through the shared kernel: position i at v stands
    for color lists[v][i], and a dart pairs the positions of equal colors
    (-1 where the neighbor's list lacks the color).  Colors lie in
    range(colors); each vertex gets one table from color to position, and
    a dart reads its partners from its far end's table.  Returns the chosen
    color per vertex, or None when the lists admit no proper coloring."""
    at = []
    for own in lists:
        row = [-1] * colors
        for i, c in enumerate(own):
            row[c] = i
        at.append(row)
    part = {}
    for v, near in enumerate(adj):
        own = lists[v]
        for u in near:
            far = at[u]
            part[(v, u)] = [far[c] for c in own]
    chosen = search_positions(adj, [len(own) for own in lists], part)
    if chosen is None:
        return None
    return tuple(lists[v][i] for v, i in enumerate(chosen))


def is_k_choosable(g: Graph, k: int, budget: int = DEFAULT_BUDGET):
    """True if every k-list assignment admits a proper coloring from the
    lists, else an AdversaryCertificate carrying a failing assignment.

    Enumerates list systems up to color renaming as multisets of connected
    color classes covering every vertex exactly k times (see module
    docstring for why that is exhaustive).  Classes are tried largest
    first, so for a graph that is not even k-colorable the uniform
    assignment fails immediately.  Colorings already found are reused as
    witnesses, so the backtracker runs only on list systems none of them
    colors.  A subtree that one witness colors throughout, or that an
    automorphism of g maps to an earlier part of the scan, is counted
    without being walked.  Raises BudgetExceeded with the attempted count
    once budget list systems are tried without a verdict, as
    is_dp_k_colorable does.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        return True
    by_min = _class_groups(g)
    # the walk's order of the classes; group v starts at first[v]
    classes = [c for v in range(g.n) for c in by_min[v]]
    place = {c: i for i, c in enumerate(classes)}
    first = [place[by_min[v][0]] for v in range(g.n)] + [len(classes)]
    members: dict[int, list[int]] = {}  # vertices of each class met
    # automorphisms act on the classes by their places in that order
    images = [[1 << w for w in sigma] for sigma in _automorphisms(g)]

    def act(m: int, i: int) -> int:
        image, c, out = images[m], classes[i], 0
        while c:
            low = c & -c
            c ^= low
            out |= image[low.bit_length() - 1]
        return place[out]

    orbits = _OrbitTable(act, range(len(images)))
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    need = [k] * g.n
    defmask = (1 << g.n) - 1
    chosen: list[int] = []
    attempted = 0
    found: list[Lists] = []
    # Witnesses are found colorings, one bit each, kept as the vertex set of
    # each color; a color is a class index.  masks[j] holds the witnesses
    # whose colors 0..j-1 lie inside chosen[0..j-1], and within[j] those
    # that use no color from j on.  fits[j][c] caches the witnesses whose
    # color-j set lies inside class c, with the number of witnesses it has
    # looked at, so it catches up only on the ones found since.
    depth = k * g.n  # every class covers at least one of the k*n slots
    masks = [0] * (depth + 1)
    within = [0] * (depth + 1)
    fits: list[dict[int, list[int]]] = [{} for _ in range(depth)]
    color_sets: list[list[int]] = []
    counts: dict = {}  # _count_list_systems' memo

    def fit(j: int, c: int) -> int:
        entry = fits[j].get(c)
        if entry is None:
            entry = fits[j][c] = [0, 0]
        mask, seen = entry
        if seen < len(color_sets):
            outside = ~c
            for t in range(seen, len(color_sets)):
                sets = color_sets[t]
                if j >= len(sets) or not sets[j] & outside:
                    mask |= 1 << t
            entry[0], entry[1] = mask, len(color_sets)
        return mask

    def leaf(top: int) -> bool:
        nonlocal attempted
        if attempted >= budget:
            raise BudgetExceeded(attempted)
        attempted += 1
        if masks[top] & within[top]:
            return False
        lists = tuple(
            tuple(i for i, c in enumerate(chosen) if (c >> v) & 1)
            for v in range(g.n)
        )
        coloring = _list_coloring(adj, lists, len(chosen))
        if coloring is None:
            found.append(lists)
            return True
        sets = [0] * (max(coloring) + 1)
        for v, c in enumerate(coloring):
            sets[c] |= 1 << v
        bit = 1 << len(color_sets)
        color_sets.append(sets)
        # valid on every prefix of the current list system
        for j in range(top + 1):
            masks[j] |= bit
        for j in range(len(sets), depth + 1):
            within[j] |= bit
        return False

    def rec(j: int, start: int, row) -> bool:
        nonlocal defmask, attempted
        vstar = (defmask & -defmask).bit_length() - 1
        # the classes of the least open vertex, from the last one chosen on
        outside = ~defmask
        for p in range(max(start, first[vstar]), first[vstar + 1]):
            c = classes[p]
            if c & outside:
                continue
            chosen.append(c)
            # a witness found below this depth has joined masks[j] since
            alive = masks[j]
            masks[j + 1] = alive & fit(j, c) if alive else 0
            cover = members.get(c)
            if cover is None:
                cover = members[c] = [v for v in range(vstar, c.bit_length())
                                      if (c >> v) & 1]
            cleared = 0
            for v in cover:
                need[v] -= 1
                if not need[v]:
                    cleared |= 1 << v
            stop = False
            if cleared == defmask:
                stop = leaf(j + 1)
            elif masks[j + 1] & within[j + 1] or (eq := row[p]) < 0:
                # a witness fits every class chosen so far and uses no
                # other color, so it colors every leaf below; or an
                # automorphism that fixes every class chosen before maps c
                # to an earlier class, so every leaf below has an image
                # earlier in the scan: the plain scan would count them all
                # as colorable
                skipped = _count_list_systems(
                    by_min, tuple(need), p - first[vstar] if need[vstar] else 0,
                    counts)
                if attempted + skipped > budget:
                    raise BudgetExceeded(budget)
                attempted += skipped
            else:
                defmask ^= cleared
                stop = rec(j + 1, p, orbits[eq])
                defmask ^= cleared
            for v in cover:
                need[v] += 1
            chosen.pop()
            if stop:
                return True
        return False

    if rec(0, 0, orbits[orbits.start]):
        return AdversaryCertificate(kind="list", k=k, lists=found[0])
    return True


#: _automorphisms lists at most this many.  Pruning by any set of
#: automorphisms is sound, and the walk pays up to this many class images
#: for each orbit-table entry it reads, so a very symmetric graph (the
#: edgeless one on n vertices has n!) costs what one with this many does.
_AUT_LIMIT = 64


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Non-identity automorphisms of g, each as the tuple of vertex images,
    at most _AUT_LIMIT of them, in the lexicographic order of their images
    along a breadth-first order of the vertices.

    A depth-first search, run as a loop so its depth is not bounded by the
    interpreter's, maps the vertices in that order.  A vertex goes to an
    unused vertex of the same degree whose neighbors among the images so
    far are exactly the images of its own earlier neighbors (so a neighbor
    of one of those images, unless it starts a component): every full map
    is an automorphism, and every automorphism is one of them."""
    n, masks = g.n, g.masks
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            component = [root]
            for v in component:
                for u in sorted(g.adj[v]):
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
            order += component
    sigma = [-1] * n  # the images of the vertices mapped so far
    used = 0

    def options(v: int) -> list[int]:
        want = 0
        for u in g.adj[v]:
            if sigma[u] >= 0:
                want |= 1 << sigma[u]
        free = ((1 << n) - 1) & ~used
        pool = masks[(want & -want).bit_length() - 1] & free if want else free
        out = []
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            if len(g.adj[w]) == len(g.adj[v]) and masks[w] & used == want:
                out.append(w)
        return out[::-1]  # popped from the end, least first

    found: list[tuple[int, ...]] = []
    stack = [options(order[0])] if n else []
    while stack and len(found) < _AUT_LIMIT:
        d = len(stack) - 1
        v = order[d]
        if sigma[v] >= 0:
            used ^= 1 << sigma[v]
            sigma[v] = -1
        if not stack[d]:
            stack.pop()
            continue
        sigma[v] = w = stack[d].pop()
        used |= 1 << w
        if d + 1 < n:
            stack.append(options(order[d + 1]))
        elif any(sigma[u] != u for u in range(n)):
            found.append(tuple(sigma))
    return found


def _class_groups(g: Graph) -> dict[int, list[int]]:
    """The color classes of the choosability walk, the connected vertex
    sets, grouped by least vertex, each group in decreasing order."""
    by_min: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for c in sorted(_connected_subsets(g), reverse=True):
        by_min[(c & -c).bit_length() - 1].append(c)
    return by_min


def _count_list_systems(by_min, left: tuple[int, ...], start: int,
                        memo: dict) -> int:
    """The list systems the choosability walk enumerates below a node whose
    vertex v still needs left[v] classes and whose next class comes from
    position start of the least such vertex's group: the walk's choice
    rule, counted, with memo keeping the counts already made."""
    key = (left, start)
    total = memo.get(key)
    if total is None:
        total = 0
        vstar = next(v for v, r in enumerate(left) if r)
        group = by_min[vstar]
        for i in range(start, len(group)):
            c = group[i]
            after = tuple(r - ((c >> v) & 1) for v, r in enumerate(left))
            if -1 in after:
                continue
            if not any(after):
                total += 1
            else:
                # the group goes on from c while its vertex is still open
                total += _count_list_systems(
                    by_min, after, i if after[vstar] else 0, memo)
        memo[key] = total
    return total


# ---------------------------------------------------------------------------
# Least k, searched on the k-core.

def core_components(g: Graph, k: int) -> list[Graph]:
    """The components of the k-core of g, what is left after deleting
    vertices of degree < k until none is left, ordered by least vertex and
    each relabelled in increasing vertex order."""
    degs = [len(a) for a in g.adj]
    gone = [d < k for d in degs]
    stack = [v for v in range(g.n) if gone[v]]
    while stack:
        for u in g.adj[stack.pop()]:
            if not gone[u]:
                degs[u] -= 1
                if degs[u] < k:
                    gone[u] = True
                    stack.append(u)
    seen = list(gone)
    components = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        keep = set(comp)
        components.append(
            delete_vertices(g, [v for v in range(g.n) if v not in keep])[0])
    return components


def _least_k(g: Graph, k: int, search, count, budget: int, **options) -> int:
    """The least k from the given one up at which search(core, k) is True
    on every component of g's k-core; an empty k-core needs no search.

    The components are searched in turn, each with the budget the earlier
    ones left.  A component found True was tried on all of its count(core,
    k) cases; counting them can cost a walk, so only when another follows.
    The callers pass the module's search function as it is when they are
    called, so a wrapper set on the module sees every search.
    """
    while True:
        cores = core_components(g, k)
        left = budget
        for i, core in enumerate(cores):
            try:
                verdict = search(core, k, budget=left, **options)
            except BudgetExceeded as exc:
                raise BudgetExceeded(budget - left + exc.attempted) from None
            if verdict is not True:
                break
            if i + 1 < len(cores):
                left -= count(core, k)
        else:
            return k
        k += 1


def chi_dp(g: Graph, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> int:
    """DP-chromatic number (exact): the least k at which the DP adversary
    search returns True on every component of the k-core, each searched
    with the budget the earlier ones left."""
    if g.n == 0:
        raise ValueError("DP-chromatic number of the empty graph is undefined")
    return _least_k(g, 1, is_dp_k_colorable, normalized_assignment_count,
                    budget, jobs=jobs)


def chi_list(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Choosability (exact): the least k from chi up at which the
    choosability search returns True on every component of the k-core,
    each searched with the budget the earlier ones left."""
    if g.n == 0:
        raise ValueError("choosability of the empty graph is undefined")
    return _least_k(
        g, chi(g), is_k_choosable,
        lambda core, k: _count_list_systems(
            _class_groups(core), (k,) * core.n, 0, {}),
        budget)
