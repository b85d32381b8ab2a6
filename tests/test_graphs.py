import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from dpcolor import (
    FORBIDDEN_VARIANTS,
    Graph,
    MalformedGraph6,
    SelfLoop,
    complete_graph,
    cycle_graph,
    cycle_spectrum,
    encode_graph6,
    filter_graph6,
    forbidden_cycles,
    from_edge_list,
    has_cycle_length,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
)
from dpcolor import graphs
from dpcolor.cli import main
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


# (n, adjacency bytes, padding bits) of a graph6 line, for n = 0..17
_G6_SIZES = [(n, -(-n * (n - 1) // 12), -(n * (n - 1) // 2) % 6)
             for n in range(graphs._TABLE_MAX_N + 2)]


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
    # n = 65, a four-byte vertex count, pads its 347 bytes with 2 bits
    pytest.param("~?@@" + "?" * 346 + "@", "nonzero padding bits",
                 id="n=65-last-padding-bit"),
    pytest.param("~?@@" + "~" * 347, "nonzero padding bits",
                 id="n=65-every-bit"),
    ("~?", "truncated vertex count"),
    ("~~", "truncated vertex count"),
    ("é", "byte 'é' out of graph6 range"),
    # at every n of the table and the first past it: each padding bit on its
    # own, one adjacency byte too many or too few, and a non-ASCII last byte
    *[pytest.param(chr(63 + n) + "?" * (need - 1) + chr(63 + (1 << bit)),
                   "nonzero padding bits", id=f"n={n}-padding-bit-{bit}")
      for n, need, pad in _G6_SIZES for bit in range(pad)],
    *[pytest.param(chr(63 + n) + "?" * (need + 1),
                   f"expected {need} adjacency bytes for n={n}, got {need + 1}",
                   id=f"n={n}-one-byte-too-many")
      for n, need, pad in _G6_SIZES],
    *[pytest.param(chr(63 + n) + "?" * (need - 1),
                   f"expected {need} adjacency bytes for n={n}, got {need - 1}",
                   id=f"n={n}-one-byte-short")
      for n, need, pad in _G6_SIZES if need],
    *[pytest.param(chr(63 + n) + "?" * (need - 1) + "é",
                   "byte 'é' out of graph6 range", id=f"n={n}-non-ascii-byte")
      for n, need, pad in _G6_SIZES],
])
def test_parse_graph6_error_messages(text, message, monkeypatch):
    # the same message on the lookup-table path and on the edge-at-a-time
    # path, which every line takes with the cap at 0
    for cap in (graphs._TABLE_MAX_N, 0):
        monkeypatch.setattr(graphs, "_TABLE_MAX_N", cap)
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
    for n in [*range(graphs._TABLE_MAX_N + 2), 30, 62, 63, 64, 70, 130]:
        for p in (0.05, 0.3, 0.7):
            pairs = [(i, j) for j in range(n) for i in range(j)
                     if rng.random() < p]
            text = encode_graph6(from_edge_list(pairs, n=n))
            assert decode_graph6_pairs(text) == (n, pairs)
            _assert_decodes_like_the_pair_list_reference(text)


def test_parse_graph6_long_lines():
    # past graphs._TABLE_MAX_N the adjacency bytes become one integer in a
    # step linear in the line's length: C1200 has 119,900 of them
    c1200 = cycle_graph(1200)
    text = encode_graph6(c1200)
    assert len(text) == 4 + 119_900
    _assert_decodes_like_the_pair_list_reference(text)
    assert encode_graph6(parse_graph6(text)) == text
    # C1199 pads its last byte, "_", with 5 bits; set the lowest
    line = encode_graph6(cycle_graph(1199))
    assert line[-1] == "_"
    with pytest.raises(MalformedGraph6) as info:
        parse_graph6(line[:-1] + "`")
    assert str(info.value) == "nonzero padding bits"


def test_census_filter_outcomes():
    # variant a on the 12,113 connected graphs with at most 8 vertices: the
    # 4-cycle sweep drops 11,836 lines, the depth-first search 34 more, and
    # 243 go on to the DP-3 verdict, each as the frozen row status says
    rows = [line.split("\t") for line in
            (CENSUS_STREAMS / "census_filter_a.tsv").read_text().splitlines()]
    outcomes = Counter()
    for text, status in rows:
        got, _ = filter_graph6(text, FORBIDDEN_VARIANTS["a"])
        assert status == got or (got is None and status == "pass"), text
        if got is None:
            outcomes["kept"] += 1
        elif graphs._has_four_cycle(graphs._decode_graph6(text)[1]):
            outcomes["sweep"] += 1
        else:
            outcomes["search"] += 1
    assert outcomes == {"sweep": 11_836, "search": 34, "kept": 243}


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
    # forbidden lengths
    variants = [frozenset(f) for f in FORBIDDEN_VARIANTS.values()]
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(pairs)):
            g = from_edge_list([e for k, e in enumerate(pairs)
                                if bits >> k & 1], n=n)
            text = encode_graph6(g)
            for forbidden in [frozenset({3}), *variants]:
                if not is_connected(g):
                    want = "filtered:disconnected"
                elif has_cycle_length(g, forbidden):
                    want = "filtered:cycles"
                else:
                    want = None
                status, got = filter_graph6(text, forbidden)
                assert status == want, (g.edges, forbidden)
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
    assert cycle_spectrum(cycle_graph(9), 9) == {9}


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_long_cycles(n):
    g = cycle_graph(n)
    assert cycle_spectrum(g, 9) == ({9} if n == 9 else set())
    assert cycle_spectrum(g, 12) == {n}
    assert forbidden_cycles(g, {4, n, 13}) == {n}
    for lengths in FORBIDDEN_VARIANTS.values():
        assert has_cycle_length(g, lengths) == (n == 9)
        assert forbidden_cycles(g, lengths) == ({9} if n == 9 else set())


@pytest.mark.parametrize("n", [5, 8])
def test_cycle_spectrum_complete(n):
    assert cycle_spectrum(complete_graph(n), 9) == set(range(3, n + 1))


def test_cycle_spectrum_k4():
    assert cycle_spectrum(complete_graph(4), 9) == {3, 4}


def test_cycle_spectrum_dodecahedron():
    g = from_edge_list(
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 10) for i in range(10)]
        + [(15 + i, 15 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + 2 * i) for i in range(5)]
        + [(6 + 2 * i, 15 + i) for i in range(5)]
    )
    present = cycle_spectrum(g, 9)
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
    assert cycle_spectrum(g, 20) == want
    assert forbidden_cycles(g, range(3, 22)) == want
    assert not has_cycle_length(g, {19, 21})


def test_cycle_spectrum_against_subset_oracle():
    for g in connected_graphs(6):
        want = all_cycle_lengths(g, 8)
        got = cycle_spectrum(g, 8)
        assert type(got) is frozenset and got == want, g.edges
        for lengths in FORBIDDEN_VARIANTS.values():
            assert forbidden_cycles(g, lengths) == want & lengths, g.edges
    # the 4-cycle sweep, on every labelled graph with at most 6 vertices
    for g in labelled_graphs(6):
        want = all_cycle_lengths(g, 4)
        assert graphs._has_four_cycle(g.masks) == (4 in want), g.edges
        assert has_cycle_length(g, {4}) == (4 in want), g.edges
        assert cycle_spectrum(g, 4) == want, g.edges


def test_cycle_filters_agree_with_spectrum_up_to_7():
    for g in connected_graphs(7):
        spectrum = cycle_spectrum(g, 9)
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


def test_cycle_queries_read_lengths_once():
    # the 4-cycle sweep runs before the search sets up, but `lengths` is
    # still read once, so an iterator or a generator asks the same question
    assert has_cycle_length(cycle_graph(9), iter([9])) is True
    assert forbidden_cycles(cycle_graph(9), iter([4, 9])) == {9}
    assert forbidden_cycles(complete_graph(4), (x for x in (4, 9))) == {4}
    assert graphs._cycle_lengths(cycle_graph(9).masks, iter([4, 9]), 1) == {9}
    queries = [(), (4,), (9,), (3, 4), (4, 5), (4, 6), (5, 6, 7),
               *FORBIDDEN_VARIANTS.values()]
    for g in connected_graphs(6):
        present = all_cycle_lengths(g, 9)
        for max_len in range(3, 10):
            assert cycle_spectrum(g, max_len) == {
                x for x in present if x <= max_len}, g.edges
        for lengths in queries:
            want = present & set(lengths)
            assert has_cycle_length(g, iter(lengths)) == bool(want), g.edges
            assert forbidden_cycles(g, iter(lengths)) == want, g.edges
            # a 4-cycle answers a query for one length; a larger `enough`
            # gets that many of the lengths present, or all of them
            if 4 in want:
                assert graphs._cycle_lengths(g.masks, iter(lengths), 1) == {4}
            for enough in range(len(lengths) + 2):
                got = graphs._cycle_lengths(g.masks, iter(lengths), enough)
                assert got <= want, (g.edges, lengths, enough)
                assert len(got) == min(enough, len(want)), (
                    g.edges, lengths, enough)


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


def test_satisfied_variants(tmp_path, capsys):
    # the variants `dpcolor cycles` reports, from the one cycle search it
    # runs whatever --max-len is
    def satisfied_variants(g, max_len="9"):
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(g) + "\n")
        sidecar = tmp_path / "cycles.json"
        assert main(["cycles", str(path), "--max-len", max_len,
                     "--json", str(sidecar)]) == 0
        capsys.readouterr()
        return set(json.loads(sidecar.read_text())["variants"])

    assert satisfied_variants(cycle_graph(5)) == {"a", "b67", "b68"}
    assert satisfied_variants(complete_graph(4)) == set()
    # a triangle and a pentagon sharing one edge: cycle lengths {3, 5, 6} only
    g = from_edge_list([(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
    assert cycle_spectrum(g, 9) == {3, 5, 6}
    for max_len in ("3", "5", "9", "12"):
        assert satisfied_variants(g, max_len) == {"a"}
    assert satisfied_variants(cycle_graph(9), "3") == set()


def test_induced_keeps_the_listed_vertices():
    k4 = complete_graph(4)
    g = Graph(graphs._induced(k4.masks, [0, 1, 2]))
    assert g.n == 3 and g.m == 3
    assert Graph(graphs._induced(k4.masks, range(4))) == k4
    p = petersen()
    smaller = Graph(graphs._induced(p.masks, range(1, 10)))
    assert smaller.n == 9 and smaller.m == 12
    # vertices[i] becomes vertex i: the path's middle vertex, listed
    # first, is adjacent to both others
    assert graphs._induced(path_graph(3).masks, [1, 0, 2]) == (6, 1, 1)


def test_induced_matches_the_relabelled_pairs_on_every_small_graph():
    # random subsets in random order, the empty one included, of every
    # connected graph with at most 6 vertices, against from_edge_list of
    # the pairs the subset induces, renumbered by position
    rng = random.Random(38)
    for g in connected_graphs(6):
        subsets = [[], list(range(g.n))]
        for _ in range(6):
            subsets.append(rng.sample(range(g.n), rng.randint(1, g.n)))
        for vertices in subsets:
            place = {v: i for i, v in enumerate(vertices)}
            want = from_edge_list([(place[u], place[v]) for u, v in g.edges
                                   if u in place and v in place],
                                  n=len(vertices))
            got = Graph(graphs._induced(g.masks, vertices))
            assert got == want and got.edges == want.edges, (g.edges,
                                                            vertices)


def test_graph_from_masks_matches_the_other_builders():
    # Graph(masks) equals from_edge_list and the graph6 round trip, and
    # builds the same edges, neighbor sets and degrees from its masks
    graphs_ = list(labelled_graphs(4)) + list(connected_graphs(6))
    graphs_ += [petersen(), dodecahedron().graph, cycle_graph(40)]
    for g in graphs_:
        direct = Graph(g.masks)
        again = parse_graph6(encode_graph6(g))
        for other in (g, again):
            assert direct == other and hash(direct) == hash(other)
            assert direct.edges == other.edges, g.edges
            assert direct.adj == other.adj
            assert direct.degrees() == other.degrees()
        assert direct.n == len(g.masks) and direct.m == len(g.edges)
        assert all(direct.has_edge(u, v) == (v in g.adj[u])
                   for u in range(g.n) for v in range(g.n))
    assert Graph(()) == from_edge_list([]) and Graph(()).edges == frozenset()
