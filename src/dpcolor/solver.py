"""Chromatic parameters by exhaustive search: chi, choosability, DP-chromatic.

Both adversary searches, is_dp_k_colorable and is_k_choosable, run on one
loop, _orderly_walk, over sequences of choices, depth first in
lexicographic order and without recursion.  A node opens in one step: one
expand gives its choices, its leaves run in one inline loop, and it stays
on the walk's stack only if it has inner choices.  A full sequence is a
leaf, one case, counted as attempted when its node opens: all of the
node's leaves in one addition when the budget has room for them, else
those up to the budget, after which the walk stops.  The first leaf with
no coloring is the certificate, counted through itself.  The backtracker
(dp.search_positions), a loop as well, runs only on a leaf that no rule
below settles.

- Witness reuse.  Each coloring found is a witness, one bit.  alive[d][i]
  holds those that fit choice i at depth d, masks[d] those that fit the
  prefix path[:d]; a leaf's coloring fits each of its prefixes.  A leaf
  that a witness fits needs no search.
- Covered skip.  within[d] holds the witnesses that color every leaf below
  a node at depth d that they fit; a node with one in masks[d] & within[d]
  is not walked.
- Orbit skip.  A group acting on the choices and preserving colorability
  gives an _OrbitTable, which cuts a choice that a member fixing every
  earlier choice maps lower (orderly generation, as in McKay's
  isomorph-free exhaustive generation).  Each leaf below a cut has an
  image earlier in the scan, passed only if it was colorable.  Leaves are
  not tested; a witness check costs less.

A skipped subtree adds its leaf count to the attempted cases, stopping the
walk with exactly budget attempted if that passes the budget.  So the
verdict, the first certificate and the count at every budget are those of
a plain scan (tests/oracles.py has one for each adversary).

The DP walk (_scan_block) tries covers on list sizes f(v) made of maximal
matchings, which keeps the verdict: adding pairs to a matching only adds
cover-graph edges.  A non-tree edge of a spanning forest takes each
injection of the smaller list into the larger, the k! permutations at
f = k.  Relabeling colors at a vertex re-indexes matchings, so a tree
edge into a child with at least as many colors as its parent carries the
identity; one into fewer keeps C(f(parent), f(child)) choices, as the
relabeling cannot move which parent colors it hits.  A choice is a
matching on the next edge with choices, so r non-tree edges at f = k hold
(k!)^r leaves.  A witness fits a matching that does not match its colors
at the edge's ends; within holds every witness at the leaves and none
above.  At f = k the group relabels all vertices by one pi, mapping each
permutation s to pi s pi^-1.  Only a space within the budget is split
into --jobs blocks, so none runs out of it.  A block may skip leaves
whose conjugates lie in an earlier block; the merge keeps its result,
and the cases through it, only when every earlier block was colorable.

The list walk (is_k_choosable) tries list systems up to color renaming.
Splitting a color whose support induces a disconnected subgraph into one
per component changes no verdict, so a list system is a multiset of
connected vertex sets, classes, covering every vertex exactly k times.  A
choice is a class holding the least open vertex, from the last class on,
in the order of least vertex, then decreasing bitmask; _count_list_systems
counts a subtree by that rule.  The j-th class is color j: a witness fits
class c at depth j when its color-j vertices lie in c, and within[j] holds
those that use no color from j on, as later classes only widen the lists.
The group is the graph's automorphisms, at most _AUT_LIMIT of them.
graphs._edge_maps, the search behind reducibility.find_pattern, lists
them along _breadth_first, the order _alon_tarsi takes edges in.  A cut
is exact: leaves are sorted sequences, and if sigma fixes every class of a
prefix P but the last and maps that one lower, then sorted(sigma(P)) < P;
adding elements to a multiset never raises its i-th smallest, so every
leaf L below P has sorted(sigma(L)) < L.

A graph is settled in one place, _settle, on its neighbor bitmasks and
list sizes, k at every vertex or one size f(v) per vertex: the peel
(_peel) deletes vertices of degree below their size, and what it leaves
passes without a search when empty, else each of its components is
settled in turn.  chi_dp and chi_list loop over k from chi up around it
(_least_k), as a proper coloring is a DP-coloring under identity matchings
and a list coloring from uniform lists; verify-theorem2 calls it at k = 3
through settle_dp, and reducibility.certify_reducible once, on the sizes
its occurrences leave, laid side by side.
chi_list settles a component by a theorem, with no search, where one
applies (_settle_choosable): k = 2 by Erdos, Rubin and Taylor
(_two_choosable), from k = 3 by Alon and Tarsi (_alon_tarsi), which only
says yes; else by the list walk.  _settle calls each adversary's private
entry, _dp_walk or _choosability_walk, which returns (verdict, attempted);
is_dp_k_colorable and is_k_choosable, and so chi-dp --k and chi-list --k,
are that verdict on the whole graph.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph, _bits, _edge_maps, _induced
from .dp import Lists, MatchingAssignment, search_positions

__all__ = [
    "BudgetExceeded",
    "AdversaryCertificate",
    "DEFAULT_BUDGET",
    "chi",
    "is_dp_k_colorable",
    "settle_dp",
    "chi_dp",
    "is_k_choosable",
    "chi_list",
    "normalized_assignment_count",
]

DEFAULT_BUDGET = 100_000_000

#: is_dp_k_colorable scans a space in this process whatever jobs is when it
#: has fewer than this many normalized cases per k!.  The gauge pruning
#: visits one case per orbit, about one in k!, so this bounds the work
#: scanned at every k, where a bound on raw cases would not.  Medians of 5
#: runs on a 2-vCPU host, serial vs. jobs 2 with one block per kept first
#: choice (3 at k = 3, 5 at k = 4), at k = 3 for CnxK2, n = 7, 8, 9
#: (279,936, 1,679,616 and 10,077,696 cases per k!): 0.069 vs 0.137 s,
#: 0.64 vs 0.36 s, 2.6 vs 1.5 s; at k = 4 for the cube and C5xK2 (331,776
#: and 7,962,624): 0.034 vs 0.086 s, 1.22 vs 0.54 s; C5xK2 at k = 4 is
#: past the default budget, which leaves it serial.  Unmeasured at other k.
_POOL_MIN_WORK = 1_000_000


def _pool(max_workers: int):
    """A process pool for a split search, imported only here: a run that
    never splits one does not load multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=max_workers)


class BudgetExceeded(RuntimeError):
    """The search hit its case budget before reaching a verdict."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        super().__init__(f"budget exceeded after {attempted} cases")


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
    """A largest clique, its vertices in the order they were added, by a
    depth-first branch and bound as a loop: each frame holds the
    candidates that extend the clique so far and the index of the next."""
    adj = g.adj
    best: list[int] = []
    clique: list[int] = []
    stack = [[sorted(range(g.n), key=g.degree, reverse=True), 0]]
    while stack:
        frame = stack[-1]
        cand, i = frame
        if i == len(cand) or len(clique) + len(cand) - i <= len(best):
            stack.pop()
            if stack:  # drop the vertex that opened the frame
                clique.pop()
            continue
        frame[1] = i + 1
        v = cand[i]
        clique.append(v)
        if len(clique) > len(best):
            best = list(clique)
        stack.append([[u for u in cand[i + 1:] if u in adj[v]], 0])
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
# The orderly walk, and the DP adversary search on it.

def _spanning_forest(g: Graph) -> dict[tuple[int, int], int]:
    """The depth-first spanning forest as a map from each tree edge (u, v),
    u < v, to its child end."""
    seen = [False] * g.n
    tree: dict[tuple[int, int], int] = {}
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
                    tree[(u, v) if u < v else (v, u)] = u
                    stack.append(u)
    return tree


def normalized_assignment_count(g: Graph, k: int) -> int:
    """Size of the normalized adversary space, (k!)^cyclomatic."""
    components = g.n - len(_spanning_forest(g))
    return math.factorial(k) ** (g.m - g.n + components)


class _Lazy(dict):
    """A dict that builds a missing value as make(key) and keeps it.  A
    subclass defines make as a method: kept here, a bound method of the
    dict would make a reference cycle, which only the collector frees."""

    def __init__(self, make=None):
        super().__init__()
        if make is not None:
            self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _OrbitTable(_Lazy):
    """Orderly generation of choice sequences up to a finite group whose
    member m maps choice index i to act(m, i).

    A prefix carries eq, the members (bits by number) that fix each of its
    choices; start holds all of them.  self[eq][i] is eq after appending
    choice i, or -1 when a member of eq maps choice i to a smaller index.
    The members left out of eq move an earlier choice and are not used
    again; any set of members prunes soundly, so it need not be a group.
    Neither act nor a row refers to the table.
    """

    def __init__(self, act, members):
        super().__init__()
        self.act = act
        self.start = sum(1 << m for m in members)

    def make(self, eq: int) -> _Lazy:
        members = [m for m, bit in enumerate(bin(eq)[:1:-1]) if bit == "1"]
        return _Lazy(functools.partial(self.entry, self.act, members))

    @staticmethod
    def entry(act, members: list[int], i: int) -> int:
        kept = 0
        for m in members:
            j = act(m, i)
            if j < i:
                return -1
            if j == i:
                kept |= 1 << m
        return kept


def _orderly_walk(orbits: _OrbitTable, expand, alive, within, count, kernel,
                  witness, budget: int) -> tuple[list | None, int]:
    """Walk one adversary's choice sequences by the module docstring's
    rules.  expand(d, path) gives the choices at the node path[:d] as
    (leaves, inner), the leaves tried first; alive and within are the
    witness rows; count(d, i) is the leaf count below inner choice i at
    depth d; kernel(leaf) is a coloring of the leaf or None; and
    witness(coloring, bit) files a new witness in alive and within.

    Returns (the first leaf no coloring fits, or None, attempted); raises
    BudgetExceeded once budget leaves are attempted without a verdict.
    """
    depth = len(alive)
    masks = [0] * (depth + 1)
    steps = [orbits[orbits.start]] * (depth + 1)  # orbit row of each prefix
    path = [0] * depth
    todo = [None] * depth  # the inner choices left at each open node
    attempted = witnesses = d = 0
    while True:
        # open the node path[:d]: its leaves here, and it stays open only
        # if it has inner choices
        leaves, inner = expand(d, path)
        room = budget - attempted
        stop = len(leaves) > room  # the budget runs out among the leaves
        if stop:
            leaves = leaves[:max(room, 0)]
        attempted += len(leaves)
        row, cover = alive[d], masks[d] & within[d + 1]
        for i in leaves:
            if cover & row[i]:
                continue
            path[d] = i
            coloring = kernel(path[:d + 1])
            if coloring is None:
                # the leaves after this one were counted but not attempted
                return path[:d + 1], (attempted - len(leaves)
                                      + leaves.index(i) + 1)
            bit = 1 << witnesses
            witnesses += 1
            for j in range(d + 1):
                masks[j] |= bit
            witness(coloring, bit)
            cover = masks[d] & within[d + 1]
        if stop:
            raise BudgetExceeded(attempted)
        if inner:
            todo[d] = iter(inner)
        else:
            d -= 1
        # the next inner choice to open, from the deepest open node up
        while d >= 0:
            i = next(todo[d], None)
            if i is None:
                d -= 1
                continue
            fits = masks[d] and masks[d] & alive[d][i]
            if fits & within[d + 1] or (eq := steps[d][i]) < 0:
                attempted += count(d, i)
                if attempted > budget:
                    raise BudgetExceeded(budget)
                continue
            path[d] = i
            masks[d + 1] = fits
            steps[d + 1] = orbits[eq]
            d += 1
            break
        else:
            return None, attempted


def _matchings(key) -> tuple[list, list]:
    """The choices on an edge (u, v) with key = (a, b, pick), a colors at u
    and b at v: each injection of the smaller range into the larger that
    pick(range(larger), smaller) gives, or the identity alone if pick is
    None, as dart tables for search_positions in two lists, fwd and bwd.
    fwd[i][c] is the position at v that the i-th matches with c at u, or
    -1, and bwd[i] the same from v."""
    a, b, pick = key
    low, high = min(a, b), max(a, b)
    maps = list(pick(range(high), low)) if pick else [tuple(range(low))]
    backs = []
    for p in maps:
        back = [-1] * high
        for i, j in enumerate(p):
            back[j] = i
        backs.append(tuple(back))
    return (maps, backs) if a <= b else (backs, maps)


class _GaugeOrbits(_OrbitTable):
    """The orbit table of the DP walk: perms, the permutations of range(k)
    in itertools order, under simultaneous conjugation s -> pi s pi^-1 by
    every pi but the identity.  A sequence is kept exactly when it is the
    least of its orbit: a pi left out of eq maps the prefix to a larger
    one, so only the members of eq can still map it lower."""

    def __init__(self, k: int):
        perms, inv = _matchings((k, k, itertools.permutations))
        index = {p: i for i, p in enumerate(perms)}

        def conj(pi: int, i: int) -> int:
            """Index of perms[pi] o perms[i] o perms[pi]^-1."""
            p, s = perms[pi], perms[i]
            return index[tuple([p[s[c]] for c in inv[pi]])]

        super().__init__(conj, range(1, len(perms)))
        self.perms, self.inv = perms, inv


def _scan_block(g: Graph, sizes, first_indices, budget: int
                ) -> tuple[MatchingAssignment | None, int]:
    """Scan the normalized covers of g with sizes[v] colors at v on
    _orderly_walk: those whose first free edge takes one of first_indices,
    or all when it is None.  Returns (the first cover with no coloring, or
    None, attempted), so a pool can return it; raises BudgetExceeded as
    _orderly_walk does.
    """
    tree = _spanning_forest(g)
    uniform = len(set(sizes)) == 1
    orbits = _GaugeOrbits(sizes[0]) if uniform else _OrbitTable(None, ())
    made = _Lazy(_matchings)
    if uniform:  # choice i on a non-tree edge is the orbit table's perms[i]
        made[sizes[0], sizes[0], itertools.permutations] = (orbits.perms,
                                                            orbits.inv)
    part, free, rows = {}, [], []
    for u, v in sorted(g.edges):
        child = tree.get((u, v))
        pick = (itertools.permutations if child is None
                else itertools.combinations
                if sizes[child] < max(sizes[u], sizes[v]) else None)
        fwd, bwd = made[sizes[u], sizes[v], pick]
        part[(u, v)], part[(v, u)] = fwd[0], bwd[0]
        if pick:
            free.append((u, v))
            rows.append((fwd, bwd))
    adj = [sorted(g.adj[v]) for v in range(g.n)]
    # no free edge leaves one cover, the first of each edge: one leaf
    counts = [len(fwd) for fwd, _ in rows] or [1]
    depth = len(counts)
    # inner choices at every depth but the last, whose choices are leaves
    choices = [range(c) for c in counts]
    if first_indices is not None:
        choices[0] = list(first_indices)
    levels = [((), c) for c in choices[:-1]] + [(choices[-1], ())]
    below = [math.prod(counts[d + 1:]) for d in range(depth)]
    alive = [[0] * c for c in counts]

    def kernel(leaf):
        for (u, v), (fwd, bwd), i in zip(free, rows, leaf):
            part[(u, v)], part[(v, u)] = fwd[i], bwd[i]
        return search_positions(adj, sizes, part)

    def witness(coloring, bit: int) -> None:
        for row, (u, v), (fwd, _) in zip(alive, free, rows):
            cu, cv = coloring[u], coloring[v]
            for i, p in enumerate(fwd):
                if p[cu] != cv:
                    row[i] |= bit

    leaf, attempted = _orderly_walk(
        orbits, lambda d, path: levels[d], alive, [0] * depth + [-1],
        lambda d, i: below[d], kernel, witness, budget)
    if leaf is None:
        return None, attempted
    for e, (fwd, _), i in zip(free, rows, leaf):
        part[e] = fwd[i]
    return MatchingAssignment({
        e: tuple((i, j) for i, j in enumerate(part[e]) if j >= 0)
        for e in g.edges}), attempted


def is_dp_k_colorable(g: Graph, k: int, budget: int = DEFAULT_BUDGET,
                      jobs: int = 1):
    """True if every matching assignment admits a coloring, else the
    lexicographically first failing assignment as an AdversaryCertificate.

    Raises BudgetExceeded with the attempted case count if the normalized
    space cannot be settled within budget.  None of that depends on jobs.
    A space of at least _POOL_MIN_WORK times k! cases, and no more than
    budget, is split into one block per first choice the gauge pruning
    keeps, run on up to jobs processes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _dp_walk(g, k, max(budget, 0), jobs)[0]


def _dp_walk(g: Graph, f, budget: int, jobs: int = 1) -> tuple[object, int]:
    """is_dp_k_colorable's verdict on list sizes f, an int k or one size per
    vertex, and the covers it attempted: every one for True, as the walk
    counts each leaf it does not examine.  A certificate for sizes carries
    lists range(f(v)).  Only an int k is split across jobs processes."""
    if isinstance(f, int):
        k, sizes, lists = f, (f,) * g.n, None
    else:
        k, sizes, lists = max(f), f, tuple(tuple(range(x)) for x in f)
    nperm = math.factorial(k)
    space = (normalized_assignment_count(g, k)
             if jobs > 1 and lists is None else 0)
    # a space of one case has no first edge to split, and a scan past the
    # budget stops within one budget of cases in this process, where blocks
    # would each do up to that much and wait for one another
    if not max(_POOL_MIN_WORK * nperm, 2) <= space <= budget:
        matching, attempted = _scan_block(g, sizes, None, budget)
    else:
        # one block from each first choice the start orbit row keeps to the
        # next; their cases add up to at most the space, so none runs out
        orbits = _GaugeOrbits(k)
        kept = [i for i in range(nperm) if orbits[orbits.start][i] >= 0]
        blocks = [range(a, z) for a, z in zip(kept, kept[1:] + [nperm])]
        scan = functools.partial(_scan_block, g, sizes, budget=budget)
        with _pool(min(jobs, len(blocks))) as pool:
            results = list(pool.map(scan, blocks))
        # the first block with a cover decides, and the serial scan attempts
        # what it and the blocks before it, all colorable, attempted
        attempted = 0
        for matching, cases in results:
            attempted += cases
            if matching is not None:
                break
    if matching is None:
        return True, attempted
    return AdversaryCertificate(kind="dp", k=k, matching=matching,
                                lists=lists), attempted


# ---------------------------------------------------------------------------
# Choosability.

def _list_coloring(adj, lists: Lists, colors: int) -> tuple[int, ...] | None:
    """One list system, colors in range(colors), through the shared kernel:
    position i at v stands for color lists[v][i], and a dart pairs the
    positions of equal colors (-1 where the far list lacks the color).
    Returns the chosen color per vertex, or None."""
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


class _ClassGroups(_Lazy):
    """The classes of the choosability walk at k by least vertex: self[v]
    lists, built on first use, the keys of the connected vertex sets whose
    least vertex is v.  Class c has key v << n | full ^ c (full = 2^n - 1),
    so keys sort as the walk orders classes, and key & full ^ full is c.

    Exclusive-neighborhood extension, as a loop, lists a group: a vertex
    enters the extension set only when first seen as a neighbor of the
    current set, so each set comes once."""

    def __init__(self, g: Graph, k: int):
        super().__init__()
        self.n, self.masks, self.full = g.n, g.masks, (1 << g.n) - 1
        self.rep = ((1 << g.n * k) - 1) // self.full  # bit t*n for t < k

    def make(self, v: int) -> list[int]:
        n, masks, full, upper = self.n, self.masks, self.full, -1 << (v + 1)
        keys = []
        todo = [(1 << v, masks[v] & upper, masks[v])]
        while todo:
            cur, ext, near = todo.pop()
            keys.append(v << n | full ^ cur)
            while ext:
                low = ext & -ext
                ext ^= low
                u = low.bit_length() - 1
                todo.append((cur | low, ext | masks[u] & upper & ~near,
                             near | masks[u]))
        return sorted(keys)


def is_k_choosable(g: Graph, k: int, budget: int = DEFAULT_BUDGET):
    """True if every k-list assignment admits a proper coloring from the
    lists, else an AdversaryCertificate carrying the first failing list
    system of the module docstring's walk.  Classes are tried largest
    first, so a graph that is not even k-colorable fails at the uniform
    lists.  Raises BudgetExceeded as is_dp_k_colorable does.
    """
    return _choosability_walk(g, k, budget)[0]


def _choosability_walk(g: Graph, k: int, budget: int) -> tuple[object, int]:
    """is_k_choosable's verdict and the list systems it attempted: every
    one for True, as the walk counts each leaf it does not examine."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        return True, 0
    n, full = g.n, (1 << g.n) - 1
    groups = _ClassGroups(g, k)
    rep, sigmas = groups.rep, _automorphisms(g)

    def act(m: int, key: int) -> int:
        c, sigma = key & full ^ full, sigmas[m]
        out = sum(1 << sigma[v] for v in range(n) if c >> v & 1)
        return ((out & -out).bit_length() - 1) << n | full ^ out

    adj = [sorted(g.adj[v]) for v in range(n)]
    depth = k * n  # every class covers at least one of the k*n slots
    needs = [(1 << n * k) - 1] + [0] * depth  # as _count_list_systems' left
    color_sets: list[list[int]] = []  # each witness's vertex set per color
    counts: dict = {}  # _count_list_systems' memo

    def fits(j: int, key: int) -> int:
        # a key's low bits are the vertices outside its class
        return sum(1 << t for t, sets in enumerate(color_sets)
                   if j >= len(sets) or not sets[j] & key)

    alive = [_Lazy(functools.partial(fits, j)) for j in range(depth)]
    within = [0] * (depth + 1)

    def expand(d: int, path: list[int]):
        if d:  # take class path[d - 1] as _count_list_systems does
            up, cr = needs[d - 1], (path[d - 1] & full ^ full) * rep
            needs[d] = up & ~cr | up >> n & cr
        left = needs[d]
        closed = full ^ left & full
        v = (left & -left).bit_length() - 1
        group = groups[v]
        start = bisect_left(group, path[d - 1]) if d else 0
        # the classes that miss every closed vertex, whose keys hold them all
        inner = [key for key in group[start:] if key & closed == closed]
        # the open vertices, when none needs two classes, end the sequence
        if inner and inner[0] == v << n | closed and left <= full:
            return inner[:1], inner[1:]
        return (), inner

    def count(d: int, key: int) -> int:
        up, cr, v = needs[d], (key & full ^ full) * rep, key >> n
        after = up & ~cr | up >> n & cr
        start = bisect_left(groups[v], key) if after >> v & 1 else 0
        return _count_list_systems(groups, after, start, counts)

    def lists_of(leaf: list[int]) -> Lists:
        return tuple(tuple(j for j, key in enumerate(leaf) if not key >> v & 1)
                     for v in range(n))

    def witness(coloring, bit: int) -> None:
        sets = [0] * (max(coloring) + 1)
        for v, c in enumerate(coloring):
            sets[c] |= 1 << v
        color_sets.append(sets)
        for j, row in enumerate(alive):
            colored = sets[j] if j < len(sets) else 0
            for key, old in row.items():
                if not colored & key:
                    row[key] = old | bit
        for j in range(len(sets), depth + 1):
            within[j] |= bit

    leaf, attempted = _orderly_walk(
        _OrbitTable(act, range(len(sigmas))), expand, alive, within, count,
        lambda leaf: _list_coloring(adj, lists_of(leaf), len(leaf)),
        witness, budget)
    return (True if leaf is None else AdversaryCertificate(
        kind="list", k=k, lists=lists_of(leaf))), attempted


#: _automorphisms lists at most this many.  Any set of them prunes soundly,
#: and the walk pays up to this many class images per orbit-table entry, so
#: a very symmetric graph (the edgeless one has n!) costs no more.
_AUT_LIMIT = 64


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Non-identity automorphisms of g as tuples of vertex images, at most
    _AUT_LIMIT of them: the first maps of g into itself that
    graphs._edge_maps yields along _breadth_first(g), in the lexicographic
    order of their images read along it."""
    identity = tuple(range(g.n))
    maps = _edge_maps(g, g.masks, g.degrees(), _breadth_first(g))
    return list(itertools.islice((m for m in maps if m != identity),
                                 _AUT_LIMIT))


def _breadth_first(g: Graph) -> list[int]:
    """The vertices breadth first, each component from its least vertex in
    turn and every vertex's neighbors in increasing order."""
    order: list[int] = []
    seen = [False] * g.n
    for root in range(g.n):
        if not seen[root]:
            seen[root] = True
            component = [root]
            for v in component:  # runs on over the vertices appended
                for u in sorted(g.adj[v]):
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
            order += component
    return order


def _count_list_systems(groups: _ClassGroups, left: int, start: int,
                        memo: dict) -> int:
    """The list systems the choosability walk enumerates below a node, by
    its choice rule, counted depth first as one loop.  left holds the open
    slots in layers of n bits, bit t*n + v set while v needs more than t
    classes; taking class c moves its vertices down a layer (c * groups.rep
    is c in every layer).  The next class comes from position start of the
    least open vertex's group.

    A running total takes a node's leaves when the node opens and a child
    found in memo whole; a node's count, written to memo once its children
    are counted, is the total's growth meanwhile."""
    root = (left, start)
    if root in memo:  # most of the walk's calls
        return memo[root]
    n, full, rep = groups.n, groups.full, groups.rep
    total, todo, base = 0, [root], {}
    while todo:
        node = todo[-1]
        if node in base:  # its children are counted
            memo[node] = total - base.pop(node)
            todo.pop()
            continue
        known = memo.get(node)
        if known is not None:
            total += known
            todo.pop()
            continue
        base[node] = total
        need, first = node
        closed = full ^ need & full
        v = (need & -need).bit_length() - 1
        group = groups[v]
        for i in range(first, len(group)):
            if group[i] & closed != closed:
                continue  # the class holds a closed vertex
            cr = (group[i] & full ^ full) * rep
            after = need & ~cr | need >> n & cr
            if after:
                # the group goes on from this class while v is open
                todo.append((after, i if after >> v & 1 else 0))
            else:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Settling a graph on what its peel by list sizes leaves, and the least k.

def _peel(masks, slack) -> int:
    """What is left, as a bitmask, of the graph with these neighbor bitmasks
    (as Graph.masks) after deleting a vertex v with slack[v] < 0 until none
    is; slack, each degree minus its list size, is lowered in place."""
    stack = [v for v, d in enumerate(slack) if d < 0]
    core = (1 << len(masks)) - 1
    for v in stack:
        core ^= 1 << v
    while stack:
        nbrs = masks[stack.pop()] & core
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            u = bit.bit_length() - 1
            slack[u] -= 1
            if slack[u] < 0:
                core ^= bit
                stack.append(u)
    return core


def _core_components(masks, core: int):
    """The components of the subgraph that the vertex bitmask core induces,
    by least vertex, each as (its vertices in increasing order, the Graph
    on them relabelled in that order)."""
    while core:
        comp, grown = 0, core & -core
        while grown != comp:
            comp = grown
            for v in _bits(comp):
                grown |= masks[v] & core
        core ^= comp
        vertices = list(_bits(comp))
        yield vertices, Graph(_induced(masks, vertices))


def _two_choosable(core: Graph) -> bool:
    """Whether a connected graph of minimum degree at least 2 is
    2-choosable.  By Erdos, Rubin and Taylor (1979) it is exactly when it
    is an even cycle or theta_{2,2,2m}: two vertices of degree 3 joined by
    paths of lengths 2, 2 and 2m, so not adjacent, sharing at least two
    neighbours, on 2m + 3 vertices."""
    ends = [v for v in range(core.n) if core.degree(v) != 2]
    if not ends:
        return core.n % 2 == 0
    if len(ends) != 2 or any(core.degree(v) != 3 for v in ends):
        return False
    u, v = ends
    return (core.n % 2 == 1 and not core.has_edge(u, v)
            and (core.masks[u] & core.masks[v]).bit_count() >= 2)


#: _alon_tarsi gives up once a step keeps more than this many monomials,
#: which took about 0.2 s and 35 MB on random graphs with 14 to 18 vertices.
_AT_LIMIT = 50_000


def _alon_tarsi(g: Graph, k: int) -> int | None:
    """Nonzero if connected g is k-choosable by the Alon-Tarsi theorem: its
    graph polynomial prod_{uv in E} (x_u - x_v) has a monomial with each
    exponent d(v) < k and coefficient not 0.  It sums those at x_v = w(v,
    d(v)), w < 2^32 from a fixed seed, so is 0 then with chance about
    n / 2^32 at most (Schwartz, Zippel); None if a step keeps over _AT_LIMIT.
    Edges come breadth first by later end; a monomial, an int with base-k
    digits d(v), is dropped once one passes k - 1, and a vertex is summed
    out after its last edge."""
    rank = {v: i for i, v in enumerate(_breadth_first(g))}
    edges = sorted(g.edges, key=lambda e: sorted(map(rank.get, e))[::-1])
    last, poly = {w: i for i, e in enumerate(edges) for w in e}, {0: 1}
    weights = random.Random(0).choices(range(1, 1 << 32), k=k * g.n)
    for i, (u, v) in enumerate(edges):
        grown: dict[int, int] = {}
        for mono, c in poly.items():
            for p, term in ((k ** u, c), (k ** v, -c)):
                if mono // p % k < k - 1:  # else the exponent passes k - 1
                    key = mono + p
                    for w in (w for w in (u, v) if last[w] == i):
                        d = key // k ** w % k
                        key, term = key - d * k ** w, term * weights[w * k + d]
                    grown[key] = grown.get(key, 0) + term
        poly = {mono: c for mono, c in grown.items() if c}
        if len(poly) > _AT_LIMIT:
            return None
    return poly.get(0, 0)


def _settle(masks, f, settle, budget: int):
    """Settle the graph with these neighbor bitmasks on list sizes f, an
    int k or a tuple of one size per vertex, as (verdict, settled_by,
    vertices, attempted).  A vertex with degree < f(v) can be colored last
    from any list and in any cover, so the graph is f-choosable, or
    DP-f-colorable, exactly when every component of what _peel leaves is
    (Erdos, Rubin and Taylor, 1979, for lists).  If that is empty, (True,
    "core-empty", None, 0) comes back before any Graph is built.  Else
    settle(component, f on it, left) returns (verdict, attempted) for each
    component in turn, with the budget the earlier ones left (attempted
    is read only for True), so a BudgetExceeded counts every case of every
    scan.  The first verdict that is not True comes back with "search" and
    the component's input vertices, its vertex i the i-th; if none, (True,
    "search", None, attempted)."""
    uniform = isinstance(f, int)
    core = _peel(masks, [m.bit_count() - x for m, x in
                         zip(masks, itertools.repeat(f) if uniform else f)])
    if not core:
        return True, "core-empty", None, 0
    left = budget
    for vertices, component in _core_components(masks, core):
        sizes = f if uniform else tuple(f[v] for v in vertices)
        try:
            verdict, attempted = settle(component, sizes, left)
        except BudgetExceeded as exc:
            raise BudgetExceeded(budget - left + exc.attempted) from None
        if verdict is not True:
            return verdict, "search", vertices, budget - left
        left -= attempted
    return True, "search", None, budget - left


def _least_k(g: Graph, settle, budget: int) -> int:
    """The least k from chi(g) up, a lower bound on chi_DP and chi_list,
    that _settle finds True, each k on a fresh budget."""
    k = chi(g)
    while _settle(g.masks, k, settle, budget)[0] is not True:
        k += 1
    return k


def settle_dp(masks, k: int, budget: int = DEFAULT_BUDGET, jobs: int = 1):
    """Whether the graph with these neighbor bitmasks is DP-k-colorable, as
    (verdict, settled_by) from _settle.  A certificate is the first failing
    component's, relabelled to the input's vertices, with the empty
    matching on every other edge.  Raises BudgetExceeded as _settle does."""
    if k < 1:
        raise ValueError("k must be at least 1")
    verdict, settled_by, vertices, _ = _settle(
        masks, k, functools.partial(_dp_walk, jobs=jobs), budget)
    if verdict is not True:
        verdict = AdversaryCertificate(kind="dp", k=k, matching=(
            MatchingAssignment({
                (u, v): verdict.matching.pairs(i, j)
                for j, v in enumerate(vertices)
                for i, u in enumerate(vertices[:j]) if masks[v] >> u & 1})))
    return verdict, settled_by


def chi_dp(g: Graph, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> int:
    """DP-chromatic number (exact): the least k at which settle_dp is True."""
    if g.n == 0:
        raise ValueError("DP-chromatic number of the empty graph is undefined")
    return _least_k(g, functools.partial(_dp_walk, jobs=jobs), budget)


def _settle_choosable(core: Graph, k: int, left: int) -> tuple[object, int]:
    """Whether a component of the k-core is k-choosable, as (verdict,
    attempted): by a theorem, with no search or budget, at k = 2 and where
    _alon_tarsi is nonzero, else by the list walk on the budget left.
    _alon_tarsi is not charged to the budget, even where it gives up: on
    random graphs with 14 to 18 vertices a give-up took about 0.2 s and
    35 MB before the walk began."""
    if k == 2:
        return _two_choosable(core), 0
    if _alon_tarsi(core, k):
        return True, 0
    return _choosability_walk(core, k, left)


def chi_list(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Choosability (exact): the least k from chi up at which _settle
    finds every component of the k-core k-choosable (_settle_choosable)."""
    if g.n == 0:
        raise ValueError("choosability of the empty graph is undefined")
    return _least_k(g, _settle_choosable, budget)
