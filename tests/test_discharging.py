import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpcolor import discharging
from dpcolor import (
    ChargeSumMismatch,
    ConservationViolated,
    ConfigPattern,
    ForbiddenCyclePresent,
    PlaneEmbedding,
    apply_rules,
    audit,
    classify_face_roles,
    complete_graph,
    face_charge_capacity,
    face_charge_demand,
    face_stats,
    forbidden_cycles,
    format_transfer_log,
    from_edge_list,
    initial_charges,
    path_stats,
    trace_faces,
)
from fixtures import (
    cube,
    cycle_embedding,
    dodecahedron,
    embed_from_coordinates,
    frozen_plane_embeddings,
    good_pair_fixture,
    polygon_with_triangles,
    prism,
    rotation_from_faces,
    special_vertex_fixture,
    tetrahedron,
    truncated_tetrahedron,
    two_squares_sharing_a_vertex,
    random_plane_embedding,
)
from oracles import replay_charges


def three_pentagons_in_a_row():
    """Middle pentagon with five 3-vertices and exactly two adjacent 5-faces
    (a pendant keeps the lone corner at degree 3): a bad 5-face."""
    walks = [
        [0, 1, 2, 3, 4],                     # middle pentagon
        [1, 0, 7, 6, 5],                     # left pentagon
        [3, 2, 10, 9, 8],                    # right pentagon
        [4, 3, 8, 9, 10, 2, 1, 5, 6, 7, 0, 4, 11],   # outer, pendant at 4
    ]
    edges = set()
    for w in walks:
        for i, x in enumerate(w):
            y = w[(i + 1) % len(w)]
            edges.add((min(x, y), max(x, y)))
    g = from_edge_list(sorted(edges), n=12)
    emb = trace_faces(g, rotation_from_faces(12, walks))
    middle = next(f.index for f in emb.faces
                  if sorted(f.vertices()) == [0, 1, 2, 3, 4])
    return emb, middle


def eleven_gon_with_six_triangles():
    """11-gon with triangles on edges (0,1), (1,2), (3,4), (5,6), (7,8),
    (9,10): path counts t3=1, t2=4."""
    emb = polygon_with_triangles(11, [0, 1, 3, 5, 7, 9])
    f11 = next(f.index for f in emb.faces if f.length == 11)
    return emb, f11


def test_initial_charges_cycle():
    st = initial_charges(cycle_embedding(4))
    assert sorted(st.vertex_charge) == [Fraction(-2)] * 4
    assert sorted(st.face_charge) == [Fraction(0)] * 2
    assert st.total() == Fraction(-8)


def test_initial_charges_tetrahedron_and_dodecahedron():
    st = initial_charges(tetrahedron())
    assert st.total() == Fraction(-8)
    assert all(c == Fraction(-1) for c in st.vertex_charge + st.face_charge)
    st = initial_charges(dodecahedron())
    assert all(c == Fraction(-1) for c in st.vertex_charge)
    assert all(c == Fraction(1) for c in st.face_charge)


def test_initial_charges_rejects_broken_embedding():
    emb = tetrahedron()
    # a face lost (total -7) or counted twice (total -9)
    for faces in (emb.faces[:-1], emb.faces + emb.faces[:1]):
        broken = PlaneEmbedding(graph=emb.graph, rotation=emb.rotation,
                                faces=faces, face_of_dart={})
        with pytest.raises(ChargeSumMismatch):
            initial_charges(broken)


fraction_values = st.one_of(
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from([1, 3, 5, 6, 12, 7919, 2**61 - 1])),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(fraction_values, max_size=40))
def test_exact_sum_equals_builtin_sum(values):
    exact = discharging._exact_sum(values)
    assert type(exact) is Fraction
    assert exact == sum(values, Fraction(0))
    assert discharging._exact_sum(iter(values)) == exact


def test_conservation_catches_charge_from_thin_air(monkeypatch):
    leak = Fraction(1, 7919)
    real_r2 = discharging._phase_r2

    def leaky_r2(emb, state, roles):
        # face_charge is a read-only view: leak into the ledger itself
        num, den = leak.as_integer_ratio()
        state._rescale(math.lcm(state.den, den))
        state.face_num[0] += num * (state.den // den)
        real_r2(emb, state, roles)

    monkeypatch.setattr(discharging, "_phase_r2", leaky_r2)
    with pytest.raises(ConservationViolated, match=r"after P2: total -63351/7919"):
        apply_rules(truncated_tetrahedron(), "a")


def test_move_refuses_amounts_that_are_not_positive():
    state = initial_charges(tetrahedron())
    for amount in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(AssertionError, match="only positive charge"):
            state.move("P1", "R1", ("f", 0), ("f", 1), amount)
    assert state.log == []


def test_moves_settle_at_the_end_of_their_phase():
    state = initial_charges(tetrahedron())
    state.move("P1", "R1", ("f", 0), ("f", 1), Fraction(1, 3))
    state.move("P1", "R1", ("f", 0), ("v", 2), Fraction(1, 5))
    state.move("P1", "R1", ("v", 3), ("f", 0), Fraction(1, 5))
    # a rule later in the phase still reads the charges the phase began with
    assert state.vertex_charge == [-1] * 4 and state.face_charge == [-1] * 4
    state.end_phase("P1")
    assert state.face_charge == [Fraction(-4, 3), Fraction(-2, 3), -1, -1]
    assert state.vertex_charge == [-1, -1, Fraction(-4, 5), Fraction(-6, 5)]
    assert all(type(c) is Fraction
               for c in state.vertex_charge + state.face_charge)
    assert state.phase_totals == [("P1", Fraction(-8))]
    state.end_phase("P2")  # an empty phase changes nothing
    assert state.face_charge[0] == Fraction(-4, 3)
    assert state.phase_totals[-1] == ("P2", Fraction(-8))


CUBE_SLOTS = [("v", v) for v in range(8)] + [("f", f) for f in range(6)]


@st.composite
def ledger_phases(draw):
    """Phases of moves between the cube's slots.  The amounts come from one
    pool, so a phase can carry the same Fraction object many times."""
    pool = draw(st.lists(st.builds(
        Fraction, st.integers(1, 10**6),
        st.sampled_from([1, 2, 3, 7, 11, 12, 7919, 2**61 - 1])),
        min_size=1, max_size=4))
    move = st.tuples(st.sampled_from(CUBE_SLOTS), st.sampled_from(CUBE_SLOTS),
                     st.sampled_from(pool))
    return draw(st.lists(st.lists(move, max_size=8), min_size=1, max_size=5))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ledger_phases())
def test_ledger_rescaling_matches_a_fraction_replay(phases):
    emb = cube()
    state = initial_charges(emb)
    for p, moves in enumerate(phases):
        for src, snk, amount in moves:
            state.move(f"P{p}", "R", src, snk, amount)
        state.end_phase(f"P{p}")
    vertex, face, totals = replay_charges(emb, state)
    assert state.vertex_charge == vertex and state.face_charge == face
    assert state.phase_totals == totals
    # den grows only to the lcm of the denominators moved so far
    assert state.den == math.lcm(*(a.denominator for moves in phases
                                   for _, _, a in moves))


def test_no_three_faces_means_no_triangular_and_all_rich():
    # 12-gon with two chords at vertex 0: no 3-faces, vertex 0 has degree 4
    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 3), (0, 6)]
    coords = [(10 * math.cos(2 * math.pi * i / n),
               10 * math.sin(2 * math.pi * i / n)) for i in range(n)]
    emb = embed_from_coordinates(from_edge_list(edges), coords)
    roles = classify_face_roles(emb)
    assert not roles.triangular and not roles.on_three_face
    assert all(lab == "rich" for lab in roles.labels.values())
    assert not roles.special and not roles.good_pairs


def test_bad_five_face_detection():
    emb, middle = three_pentagons_in_a_row()
    roles = classify_face_roles(emb)
    assert roles.bad_five == {middle}


def test_bad_five_face_receives_twelfths():
    emb, middle = three_pentagons_in_a_row()
    st = apply_rules(emb, "b67")
    gifts = [t for t in st.log if t.rule == "R4b" and t.amount == Fraction(1, 12)]
    assert len(gifts) == 2
    assert all(t.sink == f"f{middle}" for t in gifts)


def test_path_stats_uncovered_and_single_triangle():
    emb = polygon_with_triangles(10, [])
    f10 = next(f.index for f in emb.faces if f.length == 10)
    assert path_stats(emb, f10) == {1: 10}
    emb = polygon_with_triangles(10, [0])
    f10 = next(f.index for f in emb.faces if f.length == 10)
    assert path_stats(emb, f10) == {2: 1, 1: 8}


def test_path_stats_alternating():
    emb = polygon_with_triangles(10, [0, 2, 4, 6, 8])
    f10 = next(f.index for f in emb.faces if f.length == 10)
    assert path_stats(emb, f10) == {2: 5}


def test_path_stats_eleven_gon():
    emb, f11 = eleven_gon_with_six_triangles()
    assert path_stats(emb, f11) == {3: 1, 2: 4}


def test_face_stats_fields():
    emb, middle = three_pentagons_in_a_row()
    roles = classify_face_roles(emb)
    stats = face_stats(emb, roles, middle)
    assert stats.s3 == 5 and stats.r5 == 2 and stats.b5 == 0
    emb, f11 = eleven_gon_with_six_triangles()
    roles = classify_face_roles(emb)
    stats = face_stats(emb, roles, f11)
    assert stats.x == 1 and stats.t == {3: 1, 2: 4}
    assert stats.s == 0  # the lone 4-vertex is poor, not semi-rich


def test_capacity_closed_form():
    assert face_charge_capacity({1: 12}, 12) == Fraction(8)
    assert face_charge_capacity({1: 10}, 10) == Fraction(6)
    assert face_charge_capacity({2: 5}, 10) == Fraction(6)


def test_capacity_identity_random_partitions():
    rng = random.Random(77)
    for trial in range(500):
        d = rng.randint(10, 20)
        t = {}
        left = d
        while left:
            part = rng.randint(1, left)
            t[part] = t.get(part, 0) + 1
            left -= part
        x = 0 if d >= 12 else (1 if d == 11 else 2)
        assert face_charge_capacity(t, d) == Fraction(2, 3) * d - Fraction(x, 3)


def test_demand_formula():
    assert face_charge_demand({1: 10}) == Fraction(10, 3)
    assert face_charge_demand({2: 5, 1: 0}) == Fraction(20, 3)
    assert face_charge_demand({3: 1, 2: 4}) == Fraction(43, 6)


def test_demand_bounds_actual_outflow_eleven_gon():
    emb, f11 = eleven_gon_with_six_triangles()
    bound = face_charge_demand(path_stats(emb, f11))
    assert bound == Fraction(43, 6)

    def sent(st):
        return sum(t.amount for t in st.log if t.source == f"f{f11}")

    for variant in ("a", "b67", "b68"):
        st = apply_rules(emb, variant)
        assert sent(st) <= bound
    # under variant a the outflow hits capacity exactly and the face ends at 0
    st = apply_rules(emb, "a")
    assert sent(st) == Fraction(7)
    assert st.face_charge[f11] == 0


def test_tetrahedron_variant_a_no_transfers():
    st = apply_rules(tetrahedron(), "a")
    assert st.log == []
    assert st.total() == Fraction(-8)
    assert sorted(st.vertex_charge + st.face_charge) == [Fraction(-1)] * 8


def test_dodecahedron_variant_b_charges():
    st = apply_rules(dodecahedron(), "b67")
    assert all(c == 0 for c in st.vertex_charge)
    assert all(c == Fraction(-2, 3) for c in st.face_charge)
    assert any("hypothesis violated" in note for note in st.notes)


def test_unknown_variant_names_the_three():
    # the variants are graphs.FORBIDDEN_VARIANTS, read by name
    for run in (apply_rules, audit):
        for name in ("c", "A", ""):
            with pytest.raises(ValueError) as exc:
                run(tetrahedron(), name)
            assert str(exc.value) == (
                f"unknown variant {name!r}; pick from ['a', 'b67', 'b68']")


def test_strict_mode_refuses():
    with pytest.raises(ForbiddenCyclePresent):
        apply_rules(dodecahedron(), "b67", strict=True)
    # no 9-cycles among {4,6,7,9} in a plain 10-gon: strict run passes
    emb = cycle_embedding(10)
    st = apply_rules(emb, "b67", strict=True)
    assert st.total() == Fraction(-8)


def test_truncated_tetrahedron_variant_a_final_charges():
    emb = truncated_tetrahedron()
    st = apply_rules(emb, "a")
    assert all(c == 0 for c in st.vertex_charge)
    assert sorted(st.face_charge) == [Fraction(-2)] * 4 + [Fraction(0)] * 4
    # every triangle collected 1/3 from each adjacent hexagon, every vertex
    # pulled 1/2 from each of its two hexagons
    r1 = [t for t in st.log if t.rule == "R1"]
    assert len(r1) == 12 and all(t.amount == Fraction(1, 3) for t in r1)
    pulls = [t for t in st.log if t.phase == "P6"]
    assert len(pulls) == 24 and all(t.amount == Fraction(1, 2) for t in pulls)


def test_transfer_log_is_golden(tmp_path):
    import pathlib

    emb = truncated_tetrahedron()
    st = apply_rules(emb, "a")
    text = format_transfer_log(st)
    golden = pathlib.Path(__file__).parent / "data" / "trunc_tetra_variant_a.tsv"
    assert text == golden.read_text()


def test_three_vertex_final_charges():
    rng = random.Random(13)
    for trial in range(40):
        emb = random_plane_embedding(rng, rng.randint(3, 11))
        g = emb.graph
        st = apply_rules(emb, "b68")
        for v in range(g.n):
            if g.degree(v) == 3 and any(
                    emb.face_lengths[f] >= 5 for f in emb.corner_faces[v]):
                assert st.vertex_charge[v] == 0
        st = apply_rules(emb, "a")
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            if not any(emb.face_lengths[f] >= 6 for f in emb.corner_faces[v]):
                continue
            assert st.vertex_charge[v] >= 0
            from_fives = sum(
                (t.amount for t in st.log
                 if t.sink == f"v{v}" and t.phase == "P4"), Fraction(0))
            if from_fives <= 1:
                assert st.vertex_charge[v] == 0


def test_conservation_every_phase_random_embeddings():
    rng = random.Random(99)
    for trial in range(50):
        emb = random_plane_embedding(rng, rng.randint(2, 12))
        for variant in ("a", "b67", "b68"):
            st = apply_rules(emb, variant)
            assert all(total == Fraction(-8) for _, total in st.phase_totals)


def test_good_pair_gift_in_both_schedules():
    emb, donor, receiver = good_pair_fixture()
    for variant in ("a", "b67"):
        st = apply_rules(emb, variant)
        r3 = [t for t in st.log if t.rule == "R3"]
        assert len(r3) == 1
        assert r3[0].source == f"f{donor}" and r3[0].sink == f"f{receiver}"
        assert r3[0].amount == Fraction(1, 6)
        # a Transfer is a named tuple
        assert r3[0] == ("P7", "R3", f"f{donor}", f"f{receiver}", Fraction(1, 6))


def test_special_vertex_accounting():
    emb, center, tri, rich, semis = special_vertex_fixture()
    st = apply_rules(emb, "a")
    paid = [t for t in st.log if t.source == f"v{center}"]
    got = [t for t in st.log if t.sink == f"v{center}"]
    assert sorted(t.sink for t in paid) == sorted(f"f{f}" for f in semis)
    assert all(t.amount == Fraction(1, 6) for t in paid)
    assert got == [t for t in st.log if t.rule == "R2" and t.sink == f"v{center}"]
    assert got[0].source == f"f{rich}" and got[0].amount == Fraction(1, 3)
    assert st.vertex_charge[center] == 0


def test_audit_dodecahedron_flags_forbidden_cycle(monkeypatch):
    searches = []

    def counted(g, lengths):
        searches.append(sorted(lengths))
        return forbidden_cycles(g, lengths)

    monkeypatch.setattr(discharging, "forbidden_cycles", counted)
    report = audit(dodecahedron(), "b67")
    assert not report.hypothesis_ok
    assert report.forbidden_cycles_found == (9,)
    assert searches == [[4, 6, 7, 9]]  # apply_rules reuses the audit's search
    assert any("forbidden cycle" in f for f in report.findings)


def test_audit_cycle_flags_low_degree():
    report = audit(cycle_embedding(10), "a")
    assert report.min_degree == 2
    assert len(report.low_degree_vertices) == 10
    assert any("degree < 3" in f for f in report.findings)


def test_audit_reports_patterns_and_negatives():
    emb = truncated_tetrahedron()
    pat = ConfigPattern.build(edges=[(0, 1)], host_degree=(3, 3),
                              order=[0, 1], name="cubic edge")
    report = audit(emb, "a", patterns=[pat])
    assert report.pattern_hits["cubic edge"] == 36
    assert len(report.negative_faces) == 4
    assert report.total == Fraction(-8)
    text = report.format()
    assert "findings:" in text and "variant: a" in text


def test_audit_finds_something_on_hypothesis_satisfying_input():
    # a plain big cycle satisfies every variant; the audit must surface at
    # least one finding (here: degree-2 vertices), since charges sum to -8
    report = audit(cycle_embedding(12), "b68")
    assert report.hypothesis_ok
    assert report.findings


def golden_embeddings():
    """Every plane embedding in fixtures.py, this file's bad 5-face example
    and 24 seeded random embeddings."""
    yield tetrahedron()
    yield cube()
    yield prism()
    yield dodecahedron()
    yield truncated_tetrahedron()
    yield cycle_embedding(10)
    yield polygon_with_triangles(11, [0, 1, 3, 5, 7, 9])
    yield two_squares_sharing_a_vertex()
    yield good_pair_fixture()[0]
    yield special_vertex_fixture()[0]
    yield three_pentagons_in_a_row()[0]
    rng = random.Random(2018)
    for _ in range(24):
        yield random_plane_embedding(rng, rng.randint(4, 30),
                                     chord_tries=rng.choice((6, 20)))


def test_incidence_tables_match_their_derivation():
    for emb in golden_embeddings():
        g, faces, face_of = emb.graph, emb.faces, emb.face_of_dart
        assert g.degrees() == tuple(len(g.adj[v]) for v in range(g.n))
        assert emb.face_lengths == tuple(len(f.walk) for f in faces)
        assert emb.corner_faces == tuple(
            tuple(face_of[(u, v)] for u in emb.rotation[v]) for v in range(g.n))
        assert emb.across == tuple(
            tuple(face_of[(v, u)] for u, v in f.walk) for f in faces)
        assert emb.face_vertices == tuple(
            tuple(u for u, _ in f.walk) for f in faces)
        # the rules read edge sharing off across
        edge_sets = [{frozenset(d) for d in f.walk} for f in faces]
        for f in range(len(faces)):
            for t in range(len(faces)):
                if t != f:
                    shared = edge_sets[f] & edge_sets[t]
                    assert (t in emb.across[f]) == bool(shared)


def test_audit_output_is_pinned():
    # sha256 over each audit's report, transfer log, phase totals and final
    # charges, frozen from the engine that summed Fractions one at a time
    pat = ConfigPattern.build(edges=[(0, 1)], host_degree=(3, 3),
                              order=[0, 1], name="cubic edge")
    h = hashlib.sha256()
    for emb in golden_embeddings():
        for variant in ("a", "b67", "b68"):
            report = audit(emb, variant, patterns=[pat])
            state = report.state
            charges = state.vertex_charge + state.face_charge
            h.update(report.format().encode())
            h.update(format_transfer_log(state).encode())
            h.update(repr([(p, str(t)) for p, t in state.phase_totals]).encode())
            h.update(repr([str(c) for c in charges]).encode())
    assert h.hexdigest() == GOLDEN_AUDIT_SHA256


GOLDEN_AUDIT_SHA256 = (
    "879d074586f9873e818f3c0d8b43279e13bddf06478e0c9c2ff322a860c5e4df")


def test_settlement_matches_transfer_by_transfer_replay():
    rng = random.Random(1907)
    embeddings = [*golden_embeddings(), *frozen_plane_embeddings()]
    embeddings += [random_plane_embedding(rng, rng.randint(3, 40),
                                          chord_tries=rng.choice((0, 8, 30)))
                   for _ in range(30)]
    assert len(embeddings) > 204 + 30
    for emb in embeddings:
        for variant in ("a", "b67", "b68"):
            state = apply_rules(emb, variant)
            vertex, face, totals = replay_charges(emb, state)
            assert state.vertex_charge == vertex
            assert state.face_charge == face
            assert state.phase_totals == totals
            assert all(type(c) is Fraction for c in vertex + face)
            assert all(type(t) is Fraction for _, t in state.phase_totals)
