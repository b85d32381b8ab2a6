"""Exact-rational discharging engine for plane embeddings.

Every vertex and face of a connected plane graph starts with charge
d(x) - 4, which sums to -8 by Euler's formula.  The engine then runs one of
two deterministic phase schedules of local transfer rules (variant "a" for
graphs meant to avoid {4,7,8,9}-cycles, variants "b67"/"b68" for
{4,6,7,9}/{4,6,8,9}) and records every transfer.  Phases are synchronous:
every rule of a phase reads the charges as they stood when the phase began,
and the phase's transfers are settled together at its end.  Charges are
exact, with no tolerances: integer numerators over one common denominator,
read out as fractions.Fraction.  Total charge is asserted after each phase.

Face lengths and incidence statistics count boundary repetitions, so a face
adjacent to another across two shared edges pays or receives twice, and a
vertex appearing twice on a walk counts twice.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .graphs import forbidden_cycles, FORBIDDEN_VARIANTS
from .planar import PlaneEmbedding, classify_vertex
from .reducibility import find_pattern

__all__ = [
    "ChargeSumMismatch",
    "ConservationViolated",
    "ForbiddenCyclePresent",
    "Transfer",
    "ChargeState",
    "FaceRoles",
    "FaceStats",
    "initial_charges",
    "classify_face_roles",
    "path_stats",
    "face_stats",
    "face_charge_capacity",
    "face_charge_demand",
    "apply_rules",
    "audit",
    "AuditReport",
    "format_transfer_log",
]

THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)
SIXTH = Fraction(1, 6)
TWELFTH = Fraction(1, 12)
ONE = Fraction(1)
TOTAL = Fraction(-8)
_LENGTH_CLASS = {10: 2, 11: 1}


class ChargeSumMismatch(ValueError):
    """Initial charges do not sum to -8; the embedding data is broken."""


class ConservationViolated(RuntimeError):
    """Internal invariant: a phase changed the total charge."""


class ForbiddenCyclePresent(ValueError):
    """Strict mode: the graph has a cycle the variant forbids."""


class Transfer(NamedTuple):
    phase: str
    rule: str
    source: str
    sink: str
    amount: Fraction


def _exact_sum(values) -> Fraction:
    """The exact sum of Fractions, added as integers over their least common
    denominator: one Fraction is built instead of one per partial sum."""
    ratios = [q.as_integer_ratio() for q in values]
    lcd = math.lcm(*{d for _, d in ratios})
    return Fraction(sum([n * (lcd // d) for n, d in ratios]), lcd)


class ChargeState:
    """Charges per vertex and face, an integer ledger over one common
    denominator (vertex v holds vertex_num[v] / den, face f face_num[f] /
    den), plus the transfer log.  Every value read out of it is a Fraction.
    The charges change only at end_phase, which settles the transfers that
    move queued during the phase."""

    def __init__(self, vertex_num, face_num):
        self.vertex_num: list[int] = list(vertex_num)
        self.face_num: list[int] = list(face_num)
        self.den = 1
        self.phase_totals: list[tuple[str, Fraction]] = []
        self.notes: list[str] = []
        # one flat (phase, rule, kind, i, sink kind, j, amount) per move;
        # those from _settled on belong to the open phase
        self._rows: list[tuple] = []
        self._settled = 0

    @property
    def vertex_charge(self) -> list[Fraction]:
        """The vertex charges, as a new list."""
        return [Fraction(x, self.den) for x in self.vertex_num]

    @property
    def face_charge(self) -> list[Fraction]:
        """The face charges, as a new list."""
        return [Fraction(x, self.den) for x in self.face_num]

    @property
    def log(self) -> list[Transfer]:
        """Every transfer in move order, built anew on each read."""
        return [Transfer(phase, rule, f"{kind}{i}", f"{sink_kind}{j}", amount)
                for phase, rule, kind, i, sink_kind, j, amount in self._rows]

    def total(self) -> Fraction:
        return Fraction(sum(self.vertex_num) + sum(self.face_num), self.den)

    def move(self, phase: str, rule: str, src: tuple[str, int],
             snk: tuple[str, int], amount: Fraction) -> None:
        """Log a transfer of a positive amount from src to snk and queue it.

        The charges do not change until end_phase, so every rule of a phase
        reads them as they stood when the phase began."""
        assert amount.numerator > 0, "rules move only positive charge"
        (kind, i), (sink_kind, j) = src, snk
        self._rows.append((phase, rule, kind, i, sink_kind, j, amount))

    def _rescale(self, den: int) -> None:
        """Put every slot over den, a multiple of the current den."""
        if den != self.den:
            factor = den // self.den
            self.vertex_num = [x * factor for x in self.vertex_num]
            self.face_num = [x * factor for x in self.face_num]
            self.den = den

    def end_phase(self, phase: str) -> None:
        """Settle the phase's queued transfers over the lcm of den and their
        denominators, then assert the -8 total over every slot."""
        rows = self._rows[self._settled:]
        self._settled = len(self._rows)
        if rows:
            # amounts are mostly a few shared constants: key them by object
            amounts = {id(a): a for _, _, _, _, _, _, a in rows}
            ratios = [(key, *a.as_integer_ratio()) for key, a in amounts.items()]
            self._rescale(math.lcm(self.den, *(d for _, _, d in ratios)))
            step = {key: n * (self.den // d) for key, n, d in ratios}
            slots = {"v": self.vertex_num, "f": self.face_num}
            for _, _, kind, i, sink_kind, j, amount in rows:
                num = step[id(amount)]
                slots[kind][i] -= num
                slots[sink_kind][j] += num
        total, den = sum(self.vertex_num) + sum(self.face_num), self.den
        ok = total == -8 * den
        t = TOTAL if ok else Fraction(total, den)
        self.phase_totals.append((phase, t))
        if not ok:
            raise ConservationViolated(f"after {phase}: total {t} != -8")


def initial_charges(emb: PlaneEmbedding) -> ChargeState:
    """Charge d(x) - 4 on every vertex and face; asserts the -8 total."""
    state = ChargeState([d - 4 for d in emb.graph.degrees()],
                        [x - 4 for x in emb.face_lengths])
    total = sum(state.vertex_num) + sum(state.face_num)
    if total != -8:
        raise ChargeSumMismatch(f"initial total {total} != -8")
    return state


# ---------------------------------------------------------------------------
# Classifications.

@dataclass(frozen=True)
class FaceRoles:
    """Vertex and face classifications the rules consume.

    labels maps (vertex, big-face) pairs to poor/semi-rich/rich; special is
    the set of vertices that are semi-rich to one big face and rich to
    another; good_pairs are (donor, receiver) faces for the 1/6 gift.
    """

    triangular: frozenset[int]
    on_three_face: frozenset[int]
    labels: dict[tuple[int, int], str]
    special: frozenset[int]
    bad_five: frozenset[int]
    good_pairs: tuple[tuple[int, int], ...]
    reviews: tuple[str, ...]


def _is_small_witness_face(degrees, verts) -> bool:
    """Whether the face with these boundary vertices is a (3,3,4+)-triangle
    or a (3,3,3,3,4+)-pentagon."""
    degs = sorted(degrees[u] for u in verts)
    if len(degs) == 3:
        return degs[0] == 3 and degs[1] == 3 and degs[2] >= 4
    if len(degs) == 5:
        return degs[:4] == [3, 3, 3, 3] and degs[4] >= 4
    return False


def _good_pairs(emb: PlaneEmbedding) -> tuple[list[tuple[int, int]], list[str]]:
    """Detect (donor, receiver) pairs for the big-face 1/6 gift.

    The receiver must be a 10-face on ten distinct 3-vertices sharing a
    (3,3)-edge with the donor (a 10+-face), and walking along the donor
    away from either end of the shared edge must hit a 4+-vertex next, then
    a 3+-vertex, where the 4+-vertex lies on a (3,3,4+)- or
    (3,3,3,3,4+)-face adjacent to both.  Only this stated prefix is
    checked; every detection is listed for review.
    """
    deg = emb.graph.degrees()
    length, verts, across = emb.face_lengths, emb.face_vertices, emb.across
    receivers = {
        f for f, L in enumerate(length)
        if L == 10 and len(set(verts[f])) == 10
        and all(deg[u] == 3 for u in verts[f])
    }
    pairs: set[tuple[int, int]] = set()
    reviews: list[str] = []

    def end_ok(donor: int, pos: int, step: int, receiver: int) -> bool:
        walk = verts[donor]
        L = len(walk)
        second = walk[(pos + step) % L]
        third = walk[(pos + 2 * step) % L]
        if deg[second] < 4 or deg[third] < 3:
            return False
        # w is a 3- or 5-face, so neither the donor nor the receiver, and
        # it shares an edge with a face exactly when it lies across one
        for w in set(emb.corner_faces[second]):
            if (_is_small_witness_face(deg, verts[w])
                    and w in across[donor] and w in across[receiver]):
                return True
        return False

    for donor, L in enumerate(length):
        if L < 10:
            continue
        for i, (dart, receiver) in enumerate(zip(emb.faces[donor].walk,
                                                 across[donor])):
            if receiver not in receivers or receiver == donor:
                continue
            w1, w2 = dart
            if deg[w1] != 3 or deg[w2] != 3:
                continue
            # walk[i] leaves w1 toward w2; away from the edge means the
            # previous walk vertex on the w1 side, the +2 vertex on the w2 side
            if end_ok(donor, i, -1, receiver) and end_ok(donor, (i + 1) % L, +1, receiver):
                if (donor, receiver) not in pairs:
                    pairs.add((donor, receiver))
                    reviews.append(
                        f"face f{donor} good to f{receiver} across edge "
                        f"({w1}, {w2}); path prefix checked only")
    return sorted(pairs), reviews


def classify_face_roles(emb: PlaneEmbedding) -> FaceRoles:
    g = emb.graph
    deg = g.degrees()
    length, corners, verts = emb.face_lengths, emb.corner_faces, emb.face_vertices
    on_three = frozenset(
        v for v in range(g.n) if any(length[f] == 3 for f in corners[v]))
    triangular = frozenset(v for v in on_three if deg[v] == 3)
    labels: dict[tuple[int, int], str] = {}
    for v in range(g.n):
        if deg[v] < 4:
            continue
        for f in set(corners[v]):
            if length[f] >= 10:
                labels[(v, f)] = classify_vertex(emb, v, f)
    semi_somewhere = {v for (v, _), lab in labels.items() if lab == "semi-rich"}
    rich_somewhere = {v for (v, _), lab in labels.items() if lab == "rich"}
    special = frozenset(semi_somewhere & rich_somewhere)
    bad_five = frozenset(
        f for f, L in enumerate(length)
        if L == 5
        and all(deg[u] == 3 for u in verts[f])
        and sum(1 for af in emb.across[f] if length[af] == 5) == 2
    )
    pairs, reviews = _good_pairs(emb)
    return FaceRoles(
        triangular=triangular,
        on_three_face=on_three,
        labels=labels,
        special=special,
        bad_five=bad_five,
        good_pairs=tuple(pairs),
        reviews=tuple(reviews),
    )


# ---------------------------------------------------------------------------
# Path statistics along big faces.

def path_stats(emb: PlaneEmbedding, f: int) -> dict[int, int]:
    """t_i counts for a 10+-face: maximal boundary paths whose every edge
    borders a 5--face.  t_1 counts boundary slots on no such path; a fully
    covered boundary is one path with d(f) vertices.  Always satisfies
    sum(i * t_i) = d(f)."""
    length = emb.face_lengths
    d = length[f]
    if d < 10:
        raise ValueError(f"face {f} has length {d} < 10")
    covered = [length[other] <= 5 for other in emb.across[f]]
    t: dict[int, int] = defaultdict(int)
    if all(covered):
        return {d: 1}
    start = covered.index(False)
    seq = covered[start:] + covered[:start]
    run = 0
    for c in seq:
        if c:
            run += 1
        elif run:
            t[run + 1] += 1
            run = 0
    if run:
        t[run + 1] += 1
    slots_on_paths = sum(i * cnt for i, cnt in t.items())
    if d > slots_on_paths:
        t[1] = d - slots_on_paths
    assert sum(i * cnt for i, cnt in t.items()) == d
    return dict(t)


@dataclass(frozen=True)
class FaceStats:
    """Per-face statistics: incident 3-vertices, adjacent 5-faces, adjacent
    bad 5-faces, semi-rich-or-big vertices, path counts, and the length
    class x (0 for 12+, 1 for 11, 2 for 10)."""

    s3: int
    r5: int
    b5: int
    s: int
    t: dict[int, int]
    x: int


def face_stats(emb: PlaneEmbedding, roles: FaceRoles, f: int) -> FaceStats:
    deg, length = emb.graph.degrees(), emb.face_lengths
    verts = emb.face_vertices[f]
    d = length[f]
    s3 = sum(1 for u in verts if deg[u] == 3)
    adjacent = emb.across[f]
    r5 = sum(1 for af in adjacent if length[af] == 5)
    b5 = sum(1 for af in adjacent if af in roles.bad_five)
    s = sum(
        1 for u in verts
        if deg[u] >= 5
        or (deg[u] == 4 and roles.labels.get((u, f)) == "semi-rich")
    )
    x = _LENGTH_CLASS.get(d, 0)
    t = path_stats(emb, f) if d >= 10 else {}
    return FaceStats(s3=s3, r5=r5, b5=b5, s=s, t=t, x=x)


def _tsum(t: dict[int, int], lo: int, weight) -> Fraction:
    return _exact_sum(Fraction(weight(i)) * cnt for i, cnt in t.items() if i >= lo)


def face_charge_capacity(t: dict[int, int], d_f: int) -> Fraction:
    """Lower bound on what a 10+-face can give out, as the long-form sum;
    asserts the closed form (2/3)d - x/3 before returning it."""
    if d_f < 10:
        raise ValueError("capacity is defined for 10+-faces")
    if sum(i * cnt for i, cnt in t.items()) != d_f:
        raise ValueError("path counts do not tile the boundary")
    x = _LENGTH_CLASS.get(d_f, 0)
    value = (
        THIRD * _tsum(t, 1, lambda i: i)
        + Fraction(2, 3) * _tsum(t, 2, lambda i: 1)
        + THIRD * Fraction(t.get(1, 0))
        + THIRD * _tsum(t, 3, lambda i: i - 2)
        - Fraction(x, 3)
    )
    assert value == Fraction(2, 3) * d_f - Fraction(x, 3)
    return value


def face_charge_demand(t: dict[int, int]) -> Fraction:
    """Upper bound on what a 10+-face must send out, from its path counts."""
    return (
        THIRD * _tsum(t, 1, lambda i: i)
        + Fraction(2, 3) * _tsum(t, 2, lambda i: 1)
        + SIXTH * _tsum(t, 6, lambda i: i - 5)
        + SIXTH * _tsum(t, 3, lambda i: 1)
    )


# ---------------------------------------------------------------------------
# The rule engine.

def _forbidden(variant: str) -> frozenset[int]:
    """The cycle lengths the named variant forbids."""
    try:
        return FORBIDDEN_VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; pick from "
                         f"{sorted(FORBIDDEN_VARIANTS)}") from None


def _phase_r1(emb: PlaneEmbedding, state: ChargeState) -> None:
    deg, length, move = emb.graph.degrees(), emb.face_lengths, state.move
    for f, L in enumerate(length):
        if L != 3:
            continue
        for other in emb.across[f]:
            if length[other] >= 5:
                move("P1", "R1", ("f", other), ("f", f), THIRD)
    for f, L in enumerate(length):
        if L < 5:
            continue
        for u in emb.face_vertices[f]:
            if deg[u] >= 5:
                move("P1", "R1", ("v", u), ("f", f), FIFTH)
    state.end_phase("P1")


def _phase_r2(emb: PlaneEmbedding, state: ChargeState, roles: FaceRoles) -> None:
    deg = emb.graph.degrees()
    for f, L in enumerate(emb.face_lengths):
        if L < 10:
            continue
        for u in emb.face_vertices[f]:
            if deg[u] < 4:
                continue
            lab = roles.labels.get((u, f))
            if lab == "semi-rich" and u in roles.special:
                state.move("P2", "R2", ("v", u), ("f", f), SIXTH)
            if lab == "rich" and deg[u] == 4 and u in roles.on_three_face:
                state.move("P2", "R2", ("f", f), ("v", u), THIRD)
    state.end_phase("P2")


def _third_face_at(emb: PlaneEmbedding, v: int, skip1: int, skip2: int) -> int | None:
    """The remaining corner face at a 3-vertex after removing one occurrence
    each of two known faces; None in degenerate walks."""
    corners = list(emb.corner_faces[v])
    for skip in (skip1, skip2):
        if skip not in corners:
            return None
        corners.remove(skip)
    return corners[0] if len(corners) == 1 else None


def _spread_surplus(emb: PlaneEmbedding, state: ChargeState, phase: str,
                    rule: str, fives: list[int], target: int) -> None:
    """Each 5-face with positive charge splits it evenly over its adjacent
    faces of length target, then the phase ends."""
    face, den, length = state.face_num, state.den, emb.face_lengths
    for f in fives:
        if face[f] <= 0:
            continue
        targets = [other for other in emb.across[f] if length[other] == target]
        if not targets:
            state.notes.append(f"{rule}: f{f} has surplus {Fraction(face[f], den)} "
                               f"but no adjacent {target}-face")
            continue
        share = Fraction(face[f], den * len(targets))
        for tgt in targets:
            state.move(phase, rule, ("f", f), ("f", tgt), share)
    state.end_phase(phase)


def _variant_a_phases(emb: PlaneEmbedding, state: ChargeState,
                      roles: FaceRoles) -> None:
    g = emb.graph
    deg, length, across, move = g.degrees(), emb.face_lengths, emb.across, state.move
    fives = [f for f, L in enumerate(length) if L == 5]

    # P3: gifts from big faces to 5-faces that touch a 3-face
    for f in fives:
        sides = list(zip(emb.faces[f].walk, across[f]))
        shares_33 = any(
            length[other] == 3 and deg[x] == 3 and deg[y] == 3
            for (x, y), other in sides
        )
        if shares_33:
            for other in across[f]:
                if length[other] >= 10:
                    move("P3", "R4a", ("f", other), ("f", f), THIRD)
        for (x, y), tface in sides:
            if length[tface] != 3:
                continue
            if deg[x] == 3 and deg[y] >= 4:
                three = x
            elif deg[y] == 3 and deg[x] >= 4:
                three = y
            else:
                continue
            donor = _third_face_at(emb, three, f, tface)
            if donor is None:
                state.notes.append(
                    f"R4a: no third face at 3-vertex {three} of face f{f}")
            elif length[donor] >= 10:
                move("P3", "R4a", ("f", donor), ("f", f), THIRD)
                state.notes.append(
                    f"R4a: f{donor} chosen as the big face at 3-vertex "
                    f"{three} for the (3,4+)-edge of f{f}")
    state.end_phase("P3")

    # P4: each 5-face pays 1 to each incident triangular 3-vertex
    for f in fives:
        for u in emb.face_vertices[f]:
            if u in roles.triangular:
                move("P4", "R4a", ("f", f), ("v", u), ONE)
    state.end_phase("P4")

    # P5: each 5-face spreads its remaining positive charge over adjacent 10-faces
    _spread_surplus(emb, state, "P5", "R4a", fives, 10)

    # P6: each 3-vertex pulls what it still needs from incident 6+-faces
    vertex, den = state.vertex_num, state.den
    for v in range(g.n):
        if deg[v] != 3 or vertex[v] >= 0:
            continue
        donors = [f for f in emb.corner_faces[v] if length[f] >= 6]
        if not donors:
            state.notes.append(f"R4a: 3-vertex {v} needs {Fraction(-vertex[v], den)} "
                               "but has no 6+-face")
            continue
        share = Fraction(-vertex[v], den * len(donors))
        for f in donors:
            move("P6", "R4a", ("f", f), ("v", v), share)
    state.end_phase("P6")


def _variant_b_phases(emb: PlaneEmbedding, state: ChargeState,
                      roles: FaceRoles) -> None:
    g = emb.graph
    deg, length, across, move = g.degrees(), emb.face_lengths, emb.across, state.move
    fives = [f for f, L in enumerate(length) if L == 5]

    # P3: each 3-vertex pulls 1 evenly from its incident 5+-faces
    for v in range(g.n):
        if deg[v] != 3:
            continue
        donors = [f for f in emb.corner_faces[v] if length[f] >= 5]
        if not donors:
            state.notes.append(f"R4b: 3-vertex {v} has no incident 5+-face")
            continue
        share = ONE / len(donors)
        for f in donors:
            move("P3", "R4b", ("f", f), ("v", v), share)
    state.end_phase("P3")

    # P4: each 5-face gets 1/6 from each adjacent 7+-face
    for f in fives:
        for other in across[f]:
            if length[other] >= 7:
                move("P4", "R4b", ("f", other), ("f", f), SIXTH)
    state.end_phase("P4")

    # P5: each bad 5-face gets 1/12 from each adjacent 5-face
    for f in sorted(roles.bad_five):
        for other in across[f]:
            if length[other] == 5:
                move("P5", "R4b", ("f", other), ("f", f), TWELFTH)
    state.end_phase("P5")

    # P6: one surplus pass among 5-faces, no cascading
    _spread_surplus(emb, state, "P6", "R4b", fives, 5)


def _phase_r3(state: ChargeState, roles: FaceRoles) -> None:
    for donor, receiver in roles.good_pairs:
        state.move("P7", "R3", ("f", donor), ("f", receiver), SIXTH)
    state.end_phase("P7")


def apply_rules(emb: PlaneEmbedding, variant: str, strict: bool = False,
                roles: FaceRoles | None = None,
                present: frozenset[int] | None = None) -> ChargeState:
    """Run the full phase schedule for the named variant ("a", "b67" or
    "b68") and return the final charge state with its transfer log.

    Strict mode refuses to run when the graph contains a forbidden cycle;
    otherwise the run proceeds and the violation is noted in the state.
    `present` is the set of the variant's forbidden lengths that occur in
    the graph, searched for here when not given.
    """
    forbidden = _forbidden(variant)
    if present is None:
        present = forbidden_cycles(emb.graph, forbidden)
    if present and strict:
        raise ForbiddenCyclePresent(
            f"variant {variant} forbids cycle lengths {sorted(present)}")
    if roles is None:
        roles = classify_face_roles(emb)
    state = initial_charges(emb)
    if present:
        state.notes.append(
            f"hypothesis violated: {sorted(present)}-cycles present under "
            f"variant {variant}")
    _phase_r1(emb, state)
    _phase_r2(emb, state, roles)
    if variant == "a":
        _variant_a_phases(emb, state, roles)
    else:
        _variant_b_phases(emb, state, roles)
    _phase_r3(state, roles)
    return state


def format_transfer_log(state: ChargeState) -> str:
    """Tab-separated log: phase, rule, source, sink, amount as p/q."""
    rows = (f"{t.phase}\t{t.rule}\t{t.source}\t{t.sink}\t{t.amount}" for t in state.log)
    return "\n".join(["phase\trule\tsource\tsink\tamount", *rows]) + "\n"


# ---------------------------------------------------------------------------
# The audit.

@dataclass(frozen=True)
class AuditReport:
    variant: str
    hypothesis_ok: bool
    forbidden_cycles_found: tuple[int, ...]
    min_degree: int
    low_degree_vertices: tuple[int, ...]
    pattern_hits: dict[str, int]
    negative_vertices: tuple[tuple[int, Fraction], ...]
    negative_faces: tuple[tuple[int, Fraction], ...]
    total: Fraction
    notes: tuple[str, ...]
    reviews: tuple[str, ...]
    state: ChargeState = field(compare=False, repr=False)

    @cached_property
    def findings(self) -> tuple[str, ...]:
        """Each escape hatch as one line, built once per report."""
        out = []
        if not self.hypothesis_ok:
            out.append(
                f"forbidden cycle present: lengths {list(self.forbidden_cycles_found)}")
        if self.low_degree_vertices:
            out.append(f"vertices of degree < 3: {list(self.low_degree_vertices)}")
        for name, hits in self.pattern_hits.items():
            if hits:
                out.append(f"reducible pattern '{name}' occurs {hits} times")
        for v, c in self.negative_vertices:
            out.append(f"vertex {v} ends with charge {c}")
        for f, c in self.negative_faces:
            out.append(f"face {f} ends with charge {c}")
        return tuple(out)

    def format(self) -> str:
        lines = [
            f"variant: {self.variant}",
            f"hypothesis satisfied: {'yes' if self.hypothesis_ok else 'no'}",
            f"minimum degree: {self.min_degree}",
            f"final total charge: {self.total}",
        ]
        if self.findings:
            lines.append("findings:")
            lines.extend(f"  - {x}" for x in self.findings)
        else:
            lines.append("findings: none")
        for note in self.notes:
            lines.append(f"note: {note}")
        for rev in self.reviews:
            lines.append(f"review: {rev}")
        return "\n".join(lines)


def audit(emb: PlaneEmbedding, variant: str, patterns=(),
          strict: bool = False) -> AuditReport:
    """Run every check and the rule engine; list all escape hatches.

    For a graph that satisfies the variant hypothesis, has minimum degree
    at least 3, and contains none of the supplied reducible patterns, a
    correct discharging argument forces some vertex or face to end
    negative, so an empty findings list on such input would certify a
    counterexample candidate.
    """
    g = emb.graph
    present = forbidden_cycles(g, _forbidden(variant))
    degrees = g.degrees() if g.n else (0,)
    low = tuple(v for v, d in enumerate(g.degrees()) if d < 3)
    hits = {pat.name: len(find_pattern(g, pat)) for pat in patterns}
    roles = classify_face_roles(emb)
    state = apply_rules(emb, variant, strict=strict, roles=roles,
                        present=present)
    den = state.den
    neg_v = tuple((v, Fraction(x, den)) for v, x in enumerate(state.vertex_num)
                  if x < 0)
    neg_f = tuple((f, Fraction(x, den)) for f, x in enumerate(state.face_num)
                  if x < 0)
    return AuditReport(
        variant=variant,
        hypothesis_ok=not present,
        forbidden_cycles_found=tuple(sorted(present)),
        min_degree=min(degrees),
        low_degree_vertices=low,
        pattern_hits=hits,
        negative_vertices=neg_v,
        negative_faces=neg_f,
        total=state.phase_totals[-1][1],
        notes=tuple(state.notes),
        reviews=roles.reviews,
        state=state,
    )
