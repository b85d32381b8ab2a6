import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from dpcolor import (
    FORBIDDEN_VARIANTS,
    MalformedGraph6,
    SelfLoop,
    complete_graph,
    cycle_graph,
    cycle_spectrum,
    delete_vertices,
    encode_graph6,
    filter_graph6,
    forbidden_cycles,
    from_edge_list,
    has_cycle_length,
    is_connected,
    parse_edge_list,
    parse_graph6,
    satisfied_variants,
)
from dpcolor import graphs
from fixtures import dodecahedron
from oracles import all_cycle_lengths, bfs_connected, decode_graph6_pairs
from smallgraphs import connected_graphs, labelled_graphs


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edge_list(outer + inner + spokes)


def test_from_edge_list_triangle():
    g = from_edge_list({(0, 1), (1, 2), (2, 0)})
    assert g.n == 3 and g.m == 3
    assert g.degrees() == (2, 2, 2)


def test_from_edge_list_k4_and_duplicates():
    g = from_edge_list([(0, 1), (1, 0), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert g.n == 4 and g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoop):
        from_edge_list([(0, 0)])


def test_handshake_on_census():
    for g in connected_graphs(5):
        assert sum(g.degrees()) == 2 * g.m


def test_parse_graph6_single_edge():
    # 'A' gives n=2; '_' is 95-63 = 0b100000, so the single pair bit is set
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_parse_graph6_k5():
    # 'D' gives n=5; '~{' carries ten 1-bits: every pair present
    g = parse_graph6("D~{")
    assert g.n == 5 and g.m == 10
    assert encode_graph6(g) == "D~{"


def test_parse_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_").m == 1
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6("A")  # missing adjacency byte
    with pytest.raises(MalformedGraph6):
        parse_graph6("A_\x19")
    with pytest.raises(MalformedGraph6):
        parse_graph6(":Fa@x^")  # sparse6


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    (":Fa@x^", "sparse6/digraph6 input is not supported"),
    (";Fa@x^", "sparse6/digraph6 input is not supported"),
    ("&B?o", "sparse6/digraph6 input is not supported"),
    ("A_\x19", "byte '\\x19' out of graph6 range"),
    ("B o", "byte ' ' out of graph6 range"),
    ("Aé", "byte 'é' out of graph6 range"),
    ("A\x7f", "byte '\\x7f' out of graph6 range"),
    ("~", "truncated vertex count"),
    ("~?@", "truncated vertex count"),
    ("~~?????", "truncated vertex count"),
    ("A", "expected 1 adjacency bytes for n=2, got 0"),
    ("A__", "expected 1 adjacency bytes for n=2, got 2"),
    ("~?@?", "expected 336 adjacency bytes for n=64, got 0"),
    ("A`", "nonzero padding bits"),
    ("Bx", "nonzero padding bits"),
    # on each side of graphs._TABLE_MAX_N: n = 14 pads its 16 bytes with 5
    # bits, n = 17 its 23 bytes with 2
    ("M" + "?" * 15 + "@", "nonzero padding bits"),
    ("M" + "~" * 16, "nonzero padding bits"),
    ("P" + "?" * 22 + "@", "nonzero padding bits"),
    ("P" + "~" * 23, "nonzero padding bits"),
])
def test_parse_graph6_error_messages(text, message):
    with pytest.raises(MalformedGraph6) as info:
        parse_graph6(text)
    assert str(info.value) == message


def _column_pairs(g):
    return [(i, j) for j in range(g.n) for i in range(j) if g.has_edge(i, j)]


def _assert_decodes_like_the_pair_list_reference(text):
    n, pairs = decode_graph6_pairs(text)
    want = from_edge_list(pairs, n=n)
    assert graphs._decode_graph6(text) == (n, want.masks)
    assert want.masks == tuple(sum(1 << u for u in want.adj[v])
                               for v in range(n))
    status, masks = filter_graph6(text, ())
    assert masks == (want.masks if is_connected(want) else None)
    got = parse_graph6(text)
    assert got == want
    # the same iteration order, not only the same sets
    assert list(got.edges) == list(want.edges)
    assert [list(a) for a in got.adj] == [list(a) for a in want.adj]
    assert got.masks == want.masks


CENSUS_STREAMS = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_parse_graph6_matches_from_edge_list_on_census():
    for g in connected_graphs(7):
        text = encode_graph6(g)
        assert decode_graph6_pairs(text) == (g.n, _column_pairs(g))
        _assert_decodes_like_the_pair_list_reference(text)
    # the streams verify-theorem2 is benchmarked on
    for name in ("census_filter_a.tsv", "census_search_a.tsv",
                 "census_search_b68.tsv"):
        lines = (CENSUS_STREAMS / name).read_text().splitlines()
        assert len(lines) in (12_113, 756, 572)
        for line in lines:
            _assert_decodes_like_the_pair_list_reference(line.split("\t")[0])


def test_parse_graph6_matches_from_edge_list_on_random_graphs():
    # n > 62 takes the four-byte vertex count
    rng = random.Random(6)
    for n in [*range(12), 16, 17, 30, 62, 63, 64, 70, 130]:
        for p in (0.05, 0.3, 0.7):
            pairs = [(i, j) for j in range(n) for i in range(j)
                     if rng.random() < p]
            text = encode_graph6(from_edge_list(pairs, n=n))
            assert decode_graph6_pairs(text) == (n, pairs)
            _assert_decodes_like_the_pair_list_reference(text)


def test_both_decoder_paths_agree_on_the_census_streams(monkeypatch):
    # lines with at most graphs._TABLE_MAX_N vertices are decoded through a
    # lookup table, the others one edge at a time; with the cap at 0 every
    # line takes the second path
    lines = [line.split("\t")[0]
             for name in ("census_filter_a.tsv", "census_search_a.tsv",
                          "census_search_b68.tsv")
             for line in (CENSUS_STREAMS / name).read_text().splitlines()]
    by_table = [graphs._decode_graph6(line) for line in lines]
    monkeypatch.setattr(graphs, "_TABLE_MAX_N", 0)
    assert [graphs._decode_graph6(line) for line in lines] == by_table


def test_decoder_matches_the_bit_reference_on_every_small_labelled_graph(
        monkeypatch):
    small = labelled_graphs(6)
    lines = [encode_graph6(g) for g in small]
    for g, line in zip(small, lines):
        assert decode_graph6_pairs(line) == (g.n, _column_pairs(g))
    want = [(g.n, g.masks) for g in small]
    assert [graphs._decode_graph6(line) for line in lines] == want
    monkeypatch.setattr(graphs, "_TABLE_MAX_N", 0)
    assert [graphs._decode_graph6(line) for line in lines] == want


def test_connectivity_core_matches_bfs_on_all_small_graphs():
    # every labelled graph on at most 5 vertices, disconnected ones included
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(pairs)):
            g = from_edge_list([e for k, e in enumerate(pairs)
                                if bits >> k & 1], n=n)
            want = bfs_connected(g)
            assert is_connected(g) == want, g.edges
            status, _ = filter_graph6(encode_graph6(g), ())
            assert (status != "filtered:disconnected") == want, g.edges


def test_filter_graph6_matches_the_graph_queries():
    # every labelled graph on at most 5 vertices against each variant's
    # forbidden lengths and a vertex bound of 4
    variants = [frozenset(f) for f in FORBIDDEN_VARIANTS.values()]
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(pairs)):
            g = from_edge_list([e for k, e in enumerate(pairs)
                                if bits >> k & 1], n=n)
            text = encode_graph6(g)
            for forbidden in [frozenset({3}), *variants]:
                for n_max in (None, 4):
                    if n_max and n > n_max:
                        want = "skipped:n"
                    elif not is_connected(g):
                        want = "filtered:disconnected"
                    elif has_cycle_length(g, forbidden):
                        want = "filtered:cycles"
                    else:
                        want = None
                    status, got = filter_graph6(text, forbidden, n_max)
                    assert status == want, (g.edges, forbidden, n_max)
                    assert got == (g.masks if want is None else None)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.data())
def test_graph6_roundtrip_and_nx_agreement(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = from_edge_list(sorted(chosen), n=n)
    text = encode_graph6(g)
    back = parse_graph6(text)
    assert back.n == g.n and back.edges == g.edges
    h = nx.from_graph6_bytes(text.encode())
    assert set(h.nodes) == set(range(n))
    assert {tuple(sorted(e)) for e in h.edges} == set(g.edges)


def test_parse_edge_list_text():
    text = "# comment\n0 1\n1 2  # trailing\n\n2 0\n"
    g, labels = parse_edge_list(text)
    assert g.m == 3 and labels == ("0", "1", "2")
    g2, labels2 = parse_edge_list("a b\nb c\n")
    assert g2.n == 3 and labels2 == ("a", "b", "c")


def test_cycle_spectrum_c9():
    assert cycle_spectrum(cycle_graph(9), 9).present == {9}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_long_cycles(n):
    g = cycle_graph(n)
    assert cycle_spectrum(g, 9).present == ({9} if n == 9 else set())
    assert cycle_spectrum(g, 12).present == {n}
    assert forbidden_cycles(g, {4, n, 13}) == {n}
    for lengths in FORBIDDEN_VARIANTS.values():
        assert has_cycle_length(g, lengths) == (n == 9)
        assert forbidden_cycles(g, lengths) == ({9} if n == 9 else set())


@pytest.mark.parametrize("n", [5, 8])
def test_cycle_spectrum_complete(n):
    assert cycle_spectrum(complete_graph(n), 9).present == set(range(3, n + 1))


def test_cycle_spectrum_k4():
    assert cycle_spectrum(complete_graph(4), 9).present == {3, 4}


def test_cycle_spectrum_dodecahedron():
    g = from_edge_list(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 10) for i in range(10)]
        + [(15 + i, 15 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + 2 * i) for i in range(5)]
        + [(6 + 2 * i, 15 + i) for i in range(5)]
    )
    present = cycle_spectrum(g, 9).present
    assert {5, 8, 9} <= present
    assert not present & {3, 4, 6, 7}
    for lengths in FORBIDDEN_VARIANTS.values():
        assert forbidden_cycles(g, lengths) == present & lengths
        assert has_cycle_length(g, lengths)
    assert forbidden_cycles(g, {3, 4, 6, 7, 10}) == {10}
    assert not has_cycle_length(g, {3, 4, 6, 7})
    # the same graph as numbered in the fixtures, checked against networkx
    g = dodecahedron().graph
    want = {len(c) for c in nx.simple_cycles(nx.Graph(sorted(g.edges)))}
    assert want == set(range(5, 21)) - {6, 7, 19}
    assert cycle_spectrum(g, 20).present == want
    assert forbidden_cycles(g, range(3, 22)) == want
    assert not has_cycle_length(g, {19, 21})


def test_cycle_spectrum_against_subset_oracle():
    for g in connected_graphs(6):
        want = all_cycle_lengths(g, 8)
        assert cycle_spectrum(g, 8).present == want, g.edges
        for lengths in FORBIDDEN_VARIANTS.values():
            assert forbidden_cycles(g, lengths) == want & lengths, g.edges
    # the 4-cycle sweep, on every labelled graph with at most 6 vertices
    for g in labelled_graphs(6):
        want = all_cycle_lengths(g, 4)
        assert graphs._has_four_cycle(g.masks) == (4 in want), g.edges
        assert has_cycle_length(g, {4}) == (4 in want), g.edges
        assert cycle_spectrum(g, 4).present == want, g.edges


def test_cycle_filters_agree_with_spectrum_up_to_7():
    for g in connected_graphs(7):
        spectrum = cycle_spectrum(g, 9).present
        for lengths in FORBIDDEN_VARIANTS.values():
            assert forbidden_cycles(g, lengths) == spectrum & lengths, g.edges
            assert has_cycle_length(g, lengths) == bool(spectrum & lengths), g.edges


def test_cycle_filters_on_impossible_lengths():
    k4 = complete_graph(4)
    for lengths in ((), set(), [0, 1, 2], {-3, 2}, {5, 9}):
        assert forbidden_cycles(k4, lengths) == frozenset()
        assert has_cycle_length(k4, lengths) is False
    assert forbidden_cycles(k4, [2, 3, 3, 4, 5]) == {3, 4}
    with pytest.raises(ValueError):
        cycle_spectrum(k4, 2)


def _core_line_events(call):
    """Run call(); also count the lines executed inside graphs._cycle_lengths."""
    core = graphs._cycle_lengths.__code__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is core else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, count


def test_cycle_filter_stops_at_first_forbidden_length():
    found, steps = _core_line_events(
        lambda: has_cycle_length(complete_graph(8), {4, 7, 8, 9}))
    assert found is True
    assert steps <= 200
    # the Petersen graph has 5-cycles but no 7-cycle: looking for a 7-cycle
    # takes a full search, which a 5-cycle found first cuts short
    found, full = _core_line_events(lambda: has_cycle_length(petersen(), {7}))
    assert found is False
    found, steps = _core_line_events(lambda: has_cycle_length(petersen(), {5, 7}))
    assert found is True
    assert 10 * steps < full


@pytest.mark.parametrize("call, bound", [
    # K8 has no 9-cycle, so these stop once 3..8 or 4, 7, 8 are found
    (lambda: cycle_spectrum(complete_graph(8), 9), 300),
    (lambda: forbidden_cycles(complete_graph(8), {4, 7, 8, 9}), 300),
    # paths longer than the longest requested length are not extended
    (lambda: has_cycle_length(petersen(), {4}), 900),
])
def test_cycle_search_skips_lengths_that_cannot_occur(call, bound):
    _, steps = _core_line_events(call)
    assert steps <= bound


def test_satisfied_variants():
    assert satisfied_variants(cycle_graph(5)) == {"a", "b67", "b68"}
    assert satisfied_variants(complete_graph(4)) == set()
    # a triangle and a pentagon sharing one edge: cycle lengths {3, 5, 6} only
    g = from_edge_list([(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
    assert cycle_spectrum(g, 9).present == {3, 5, 6}
    assert satisfied_variants(g) == {"a"}


def test_delete_vertices():
    k4 = complete_graph(4)
    g, remap = delete_vertices(k4, {3})
    assert g.n == 3 and g.m == 3
    assert remap == {0: 0, 1: 1, 2: 2}
    same, _ = delete_vertices(k4, set())
    assert same.edges == k4.edges
    p = petersen()
    smaller, _ = delete_vertices(p, {0})
    assert smaller.n == 9 and smaller.m == 12
