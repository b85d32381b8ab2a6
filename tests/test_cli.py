import argparse
import collections
import json
import os
import subprocess
import sys

import networkx as nx
import pytest

import dpcolor.cli
import dpcolor.reducibility
import dpcolor.solver
from dpcolor import (NonPlanarOrTooLarge, brute_force_embed, encode_graph6,
                     from_edge_list, parse_graph6, parse_matching_file)
from dpcolor.cli import build_parser, main
from fixtures import (BENCH_DATA, EMBEDDING_REJECTIONS, dodecahedron,
                      subdivided, tetrahedron, with_pendant_paths)
from dpcolor import (MatchingAssignment, complete_bipartite, complete_graph,
                     cycle_graph, dump_embedding, is_valid_coloring,
                     path_graph, uniform_lists)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cycles_c5(tmp_path, capsys):
    path = write(tmp_path, "c5.g6", encode_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run(capsys, "cycles", path)
    assert code == 0
    assert "spectrum (<= 9): [5]" in out
    assert "variants satisfied: all" in out


def test_cycles_k4_and_json(tmp_path, capsys):
    path = write(tmp_path, "k4.g6", encode_graph6(complete_graph(4)))
    sidecar = str(tmp_path / "out.json")
    code, out, _ = run(capsys, "cycles", path, "--json", sidecar)
    assert code == 0 and "none" in out
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["spectrum"] == [3, 4] and doc["variants"] == []


def test_cycles_dodecahedron(tmp_path, capsys):
    g = dodecahedron().graph
    path = write(tmp_path, "d.g6", encode_graph6(g))
    code, out, _ = run(capsys, "cycles", path)
    assert code == 0
    assert "9" in out and "variants satisfied: none" in out


def test_cycles_max_len(tmp_path, capsys):
    # lengths are printed up to --max-len, and the variants always come
    # from lengths up to 9; below 3 is a usage error
    g = from_edge_list([(i, (i + 1) % 6) for i in range(6)] + [(0, 2)])
    path = write(tmp_path, "g.g6", encode_graph6(g) + "\n")
    for max_len, shown in (("3", [3]), ("5", [3, 5]), ("12", [3, 5, 6])):
        code, out, _ = run(capsys, "cycles", path, "--max-len", max_len)
        assert code == 0
        assert out == (f"n=6 m=7\ncycle spectrum (<= {max_len}): {shown}\n"
                       f"forbidden-cycle variants satisfied: a\n")
    for max_len in ("2", "-1"):
        code, out, err = run(capsys, "cycles", path, "--max-len", max_len)
        assert code == 3 and not out and err.startswith("usage:"), max_len


def test_chi_edge_list_input(tmp_path, capsys):
    path = write(tmp_path, "g.edges", "0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "chi", path)
    assert code == 0 and "chi = 3" in out


def test_chi_list_ignores_jobs(tmp_path, capsys):
    # the choosability search is serial: --jobs changes nothing it prints,
    # and the help of the shared option says so
    wheel = write(tmp_path, "w4.g6", "Dr{\n")
    k33 = write(tmp_path, "k33.g6", encode_graph6(complete_bipartite(3, 3)))
    for argv in ([wheel], [wheel, "--k", "3"], [k33, "--k", "2"]):
        one = run(capsys, "chi-list", *argv, "--jobs", "1")
        assert run(capsys, "chi-list", *argv, "--jobs", "3") == one, argv
    assert run(capsys, "chi-list", wheel, "--jobs", "3")[:2] == (
        0, "chi_list = 3\n")
    code, out, _ = run(capsys, "chi-list", "--help")
    assert code == 0 and "chi-list ignores it" in " ".join(out.split())


def test_chi_rejects_search_flags(tmp_path, capsys):
    # chi runs no adversary search, so it has no budget, jobs or certificate
    path = write(tmp_path, "c5.g6", encode_graph6(cycle_graph(5)))
    cert = tmp_path / "cert.json"
    for flags in (["--budget", "1"], ["--jobs", "4"],
                  ["--certificate", str(cert)]):
        code, out, err = run(capsys, "chi", path, *flags)
        assert code == 3 and not out and err.startswith("usage:"), flags
    # verify-theorem2 prints its refutations, so it has no certificate file
    code, out, err = run(capsys, "verify-theorem2", path, "--variant", "a",
                         "--certificate", str(cert))
    assert code == 3 and not out and err.startswith("usage:")
    assert not cert.exists()
    assert run(capsys, "chi", path)[:2] == (0, "chi = 3\n")


def test_chi_dp_c6_k2_writes_certificate(tmp_path, capsys):
    path = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    cert = str(tmp_path / "cert.txt")
    code, out, _ = run(capsys, "chi-dp", path, "--k", "2",
                       "--certificate", cert)
    assert code == 1
    assert "DP-2-colorable: no" in out
    matching, _ = parse_matching_file((tmp_path / "cert.txt").read_text(),
                                      cycle_graph(6))
    from dpcolor import find_coloring, uniform_lists
    assert find_coloring(cycle_graph(6), uniform_lists(6, 2), matching) is None


def test_chi_dp_c6_k3_colorable(tmp_path, capsys):
    path = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    code, out, _ = run(capsys, "chi-dp", path, "--k", "3")
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "chi-dp", path)
    assert code == 0 and "chi_DP = 3" in out


def test_chi_dp_budget_exit_code(tmp_path, capsys):
    path = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    code, _, err = run(capsys, "chi-dp", path, "--k", "3", "--budget", "2")
    assert code == 2 and "budget exceeded" in err


def test_chi_dp_spends_nothing_below_chi(tmp_path, capsys):
    # K2 has chi = 2 and an empty 2-core: chi-dp, like chi-list, answers
    # on a zero budget, as no k below chi is tried
    path = write(tmp_path, "k2.txt", "0 1\n")
    for command, name in (("chi-dp", "chi_DP"), ("chi-list", "chi_list")):
        code, out, err = run(capsys, command, path, "--budget", "0")
        assert (code, out, err) == (0, f"{name} = 2\n", ""), command


def test_chi_list_command(tmp_path, capsys):
    path = write(tmp_path, "c4.g6", encode_graph6(cycle_graph(4)))
    code, out, _ = run(capsys, "chi-list", path, "--k", "2")
    assert code == 0 and "yes" in out
    path3 = write(tmp_path, "c3.g6", encode_graph6(cycle_graph(3)))
    code, out, _ = run(capsys, "chi-list", path3, "--k", "2")
    assert code == 1 and "failing list assignment" in out
    code, out, _ = run(capsys, "chi-list", path3)
    assert code == 0 and "chi_list = 3" in out


def test_chi_list_budget_counts_the_core(tmp_path, capsys, monkeypatch):
    # the wheel W4 (Dr{), alone and with a pendant path of two vertices:
    # chi-list settles its 3-core, the W4, by the Alon-Tarsi theorem, with
    # none of the budget.  Without the theorem the list walk settles the
    # W4 after its 20,852 list systems, and the whole graph has 984,450.
    # chi-list searches the core, so it settles within a budget that
    # chi-list --k 3, which walks the list systems of the whole graph,
    # runs out of.
    w4 = write(tmp_path, "w4.g6", "Dr{\n")
    code, out, _ = run(capsys, "chi-list", w4, "--budget", "0")
    assert (code, out) == (0, "chi_list = 3\n")
    g = with_pendant_paths(parse_graph6("Dr{"), [0], 2)
    path = write(tmp_path, "w4path.g6", encode_graph6(g))
    code, out, _ = run(capsys, "chi-list", path, "--budget", "0")
    assert (code, out) == (0, "chi_list = 3\n")
    monkeypatch.setattr(dpcolor.solver, "_alon_tarsi", lambda g, k: None)
    code, out, _ = run(capsys, "chi-list", path, "--budget", "20852")
    assert (code, out) == (0, "chi_list = 3\n")
    code, out, err = run(capsys, "chi-list", path, "--budget", "20851")
    assert (code, out, err) == (2, "", "budget exceeded after 20851 cases\n")
    code, out, err = run(capsys, "chi-list", path, "--k", "3",
                         "--budget", "20852")
    assert (code, out, err) == (2, "", "budget exceeded after 20852 cases\n")
    # K2,4 with a pendant path of two vertices: chi-list settles k = 2 on
    # the 2-core by the Erdos-Rubin-Taylor theorem, with no search and no
    # budget, and the 3-core is empty.  chi-list --k 2 still walks: the
    # whole graph fails after 6,485 list systems.
    g = with_pendant_paths(complete_bipartite(2, 4), [0], 2)
    path = write(tmp_path, "k24path.g6", encode_graph6(g))
    code, out, _ = run(capsys, "chi-list", path, "--budget", "0")
    assert (code, out) == (0, "chi_list = 3\n")
    code, out, err = run(capsys, "chi-list", path, "--k", "2",
                         "--budget", "1568")
    assert (code, out, err) == (2, "", "budget exceeded after 1568 cases\n")
    code, out, _ = run(capsys, "chi-list", path, "--k", "2",
                       "--budget", "6485")
    assert code == 1 and "2-choosable: no" in out


def test_chi_dp_budget_counts_the_core(tmp_path, capsys):
    # C5 x K2 and a vertex joined to 0 and 2: its 3-core, the prism, is
    # settled after 46,656 cases, and the whole graph after 279,936.  chi-dp
    # searches the core, so it settles within a budget that chi-dp --k 3,
    # which searches the whole graph, runs out of.
    path = write(tmp_path, "prism_plus.g6", "JheAHCPBL??")
    code, out, _ = run(capsys, "chi-dp", path, "--budget", "46656")
    assert (code, out) == (0, "chi_DP = 3\n")
    code, out, err = run(capsys, "chi-dp", path, "--budget", "46655")
    assert (code, out, err) == (2, "", "budget exceeded after 46655 cases\n")
    code, out, err = run(capsys, "chi-dp", path, "--k", "3",
                         "--budget", "46656")
    assert (code, out, err) == (2, "", "budget exceeded after 46656 cases\n")


def test_color_command(tmp_path, capsys):
    path = write(tmp_path, "c4.g6", encode_graph6(cycle_graph(4)))
    code, out, _ = run(capsys, "color", path, "--k", "2")
    assert code == 0 and "coloring:" in out
    twisted = write(tmp_path, "m.txt",
                    "default identity k=2\n0 3 : 0-1, 1-0\n")
    code, out, _ = run(capsys, "color", path, "--matching", twisted)
    assert code == 1 and "UNSATISFIABLE" in out


def test_color_large_default_identity(tmp_path, capsys):
    # checking the pairs of 100,000-pair matchings against their lists is
    # linear in k, so this 26-byte file colors P3 in well under a second
    g = path_graph(3)
    text = "default identity k=100000\n"
    assert len(text) == 26
    path = write(tmp_path, "p3.g6", encode_graph6(g))
    matching = write(tmp_path, "m.txt", text)
    code, out, _ = run(capsys, "color", path, "--matching", matching)
    assert code == 0 and out.startswith("coloring: ")
    coloring = [int(item.split(":")[1]) for item in out.split()[1:]]
    assert is_valid_coloring(g, uniform_lists(3, 100_000),
                             parse_matching_file(text, g)[0], coloring)


def test_find_config_command(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n1 3\n2 3\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "name": "hanging triangle",
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 1},
                     {"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    code, out, _ = run(capsys, "find-config", graph, "--pattern", pattern,
                       "--k", "3")
    assert code == 0
    # both triangles of the host match, two labelings each
    assert out == ("pattern 'hanging triangle': 4 occurrences\n"
                   "  (0, 1, 2)\n  (0, 2, 1)\n  (3, 1, 2)\n  (3, 2, 1)\n"
                   "reducible for k=3: yes\n")


def test_find_config_has_one_path_and_no_switches(tmp_path, capsys):
    # a pendant vertex of a triangle keeps two of its three colors, so it
    # is reducible, and the removed switches are usage errors
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n2 3\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 1, "outsideNeighbors": 1}],
        "edges": [],
    }))
    argv = ["find-config", graph, "--pattern", pattern]
    assert run(capsys, *argv) == (
        0, "pattern 'pattern': 1 occurrences\n  (3,)\n"
           "reducible for k=3: yes\n", "")
    for flags in (["--search-order"], ["--validate", "3"], ["--seed", "1"]):
        code, out, err = run(capsys, *argv, *flags)
        assert code == 3 and not out and err.startswith("usage:"), flags


def test_find_config_searches_orders_of_nine_vertices(tmp_path, capsys):
    # a 9-cycle whose vertex 8 has one neighbor outside; the designated
    # order, which starts at vertex 8, is not consulted
    graph = write(tmp_path, "g.edges", "".join(
        f"{v} {(v + 1) % 9}\n" for v in range(9)) + "8 9\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "name": "nine-cycle",
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 8
        + [{"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[v, (v + 1) % 9] for v in range(9)],
        "order": [8, *range(8)],
    }))
    code, out, _ = run(capsys, "find-config", graph, "--pattern", pattern,
                       "--k", "3")
    assert code == 0 and "2 occurrences" in out
    assert "reducible for k=3: yes" in out


def test_find_config_certifies_along_a_searched_order(tmp_path, capsys):
    # the designated order [1, 2, 0] fails the extension conditions, and
    # the exact check, which does not consult it, certifies the pattern
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n1 3\n2 3\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "name": "reversed",
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 1},
                     {"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [1, 2, 0],
    }))
    code, out, _ = run(capsys, "find-config", graph, "--pattern", pattern,
                       "--k", "3")
    assert "reducible for k=3: yes" in out
    assert code == 0


def test_find_config_rejects_numbers_out_of_range(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "name": "triangle",
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 3,
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    for flag, value in (("--show", "-2"), ("--k", "0")):
        code, out, err = run(capsys, "find-config", graph, "--pattern",
                             pattern, flag, value)
        assert code == 3 and not out and err.startswith("usage:"), flag
    code, out, _ = run(capsys, "find-config", graph, "--pattern", pattern,
                       "--show", "0", "--k", "1")
    assert code == 1 and "6 occurrences" in out and "(0," not in out
    # --k is at least 1 on every command that takes it, checked as it is
    # parsed; at --k 3 each of these runs to a verdict
    for argv in (["chi-list", graph], ["chi-dp", graph], ["color", graph]):
        for value in ("0", "-2"):
            code, out, err = run(capsys, *argv, "--k", value)
            assert code == 3 and not out and err.startswith("usage:"), argv
        assert run(capsys, *argv, "--k", "3")[0] in (0, 1), argv


def test_certificate_needs_k(tmp_path, capsys):
    # without --k there is no failing assignment to write: one error line
    path = write(tmp_path, "k24.g6", encode_graph6(complete_bipartite(2, 4)))
    cert = tmp_path / "cert.txt"
    for command in ("chi-list", "chi-dp"):
        code, out, err = run(capsys, command, path, "--certificate", str(cert))
        assert (code, out, err) == (3, "", "error: --certificate needs --k\n")
        assert not cert.exists(), command


def test_discharge_command(tmp_path, capsys):
    emb = write(tmp_path, "tetra.json", dump_embedding(tetrahedron()))
    log = str(tmp_path / "log.tsv")
    code, out, _ = run(capsys, "discharge", emb, "--variant", "a",
                       "--log", log)
    assert code == 0
    assert "final total charge: -8" in out
    assert (tmp_path / "log.tsv").read_text().startswith("phase\trule")


def test_discharge_rejects_boolean_pattern_entries(tmp_path, capsys):
    emb = write(tmp_path, "tetra.json", dump_embedding(tetrahedron()))
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 3, "outsideNeighbors": 2}] * 2,
        "edges": [[False, True]], "order": [0, 1]}))
    code, out, err = run(capsys, "discharge", emb, "--variant", "a",
                         "--pattern", pattern)
    assert code == 3 and not out
    assert err.startswith("error: pattern 'edges' must be")


def test_discharge_counts_patterns_that_share_a_name(tmp_path, capsys):
    # two unnamed patterns are both 'pattern': the cube's 4-faces hold 48
    # occurrences of the 4-cycle and no triangle, and the finding shows in
    # either order
    cube = str(BENCH_DATA / "plane" / "cube.json")
    cubic = {"hostDegree": 3, "outsideNeighbors": 1}
    c4 = write(tmp_path, "c4.json", json.dumps({
        "vertices": [cubic] * 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    tri = write(tmp_path, "tri.json", json.dumps({
        "vertices": [cubic] * 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    for first, second in ((c4, tri), (tri, c4)):
        code, out, _ = run(capsys, "discharge", cube, "--variant", "a",
                           "--pattern", first, "--pattern", second)
        assert code == 0
        findings = [ln for ln in out.splitlines() if "reducible pattern" in ln]
        assert findings == ["  - reducible pattern 'pattern' occurs 48 times"]


def test_discharge_strict_exit(tmp_path, capsys):
    emb = write(tmp_path, "dodeca.json", dump_embedding(dodecahedron()))
    code, _, err = run(capsys, "discharge", emb, "--variant", "b67", "--strict")
    assert code == 1 and "strict mode" in err
    code, out, _ = run(capsys, "discharge", emb, "--variant", "b67")
    assert code == 0 and "hypothesis satisfied: no" in out


@pytest.mark.parametrize("doc, message",
                         [(doc, message) for doc, _, message
                          in EMBEDDING_REJECTIONS.values()],
                         ids=EMBEDDING_REJECTIONS)
def test_discharge_rejects_bad_embedding(tmp_path, capsys, doc, message):
    emb = write(tmp_path, "emb.json", doc)
    code, out, err = run(capsys, "discharge", emb, "--variant", "a")
    assert code == 3 and not out
    assert err == f"error: {message}\n"


def test_verify_stream(tmp_path, capsys):
    # K33 with every edge subdivided twice: nonplanar, all cycles have
    # length 12 or 18, and only the six branch vertices have degree 3,
    # so the exhaustive rotation search is tiny
    edges = []
    nxt = 6
    for i in range(3):
        for j in range(3, 6):
            edges += [(i, nxt), (nxt, nxt + 1), (nxt + 1, j)]
            nxt += 2
    k33_sub = from_edge_list(edges, n=nxt)
    two_parts = from_edge_list([(0, 1), (2, 3)], n=4)
    lines = [
        encode_graph6(cycle_graph(5)),
        encode_graph6(complete_graph(4)),
        encode_graph6(k33_sub),
        encode_graph6(two_parts),
    ]
    stream = write(tmp_path, "stream.g6", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.splitlines() if "\t" in ln)
    assert rows[lines[0]] == "pass"
    assert rows[lines[1]] == "filtered:cycles"
    assert rows[lines[2]] == "filtered:nonplanar"
    assert rows[lines[3]] == "filtered:disconnected"
    assert "fail=0" in out


def test_verify_empty_stream(tmp_path, capsys):
    stream = write(tmp_path, "empty.g6", "")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "b67")
    assert code == 0 and "checked=0" in out


def test_verify_jobs_preserve_order(tmp_path, capsys):
    lines = [encode_graph6(cycle_graph(m)) for m in (5, 10, 11)]
    stream = write(tmp_path, "stream.g6", "\n".join(lines) + "\n")
    base = run(capsys, "verify-theorem2", stream, "--variant", "b68")
    parallel = run(capsys, "verify-theorem2", stream, "--variant", "b68",
                   "--jobs", "2")
    assert base == parallel and base[0] == 0


def test_budget_environment_variable_is_ignored(tmp_path, capsys,
                                                monkeypatch):
    # the budget is set by --budget alone: DPCOLOR_BUDGET, valid or not,
    # changes no output and no exit code.  Without its cycle filter,
    # verify-theorem2 takes K4 to the search, where a budget would show
    screen = dpcolor.cli.filter_graph6
    monkeypatch.setattr(dpcolor.cli, "filter_graph6",
                        lambda line, forbidden: screen(line, ()))
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    c3 = write(tmp_path, "c3.g6", encode_graph6(cycle_graph(3)))
    stream = write(tmp_path, "stream.g6", "\n".join(
        encode_graph6(g) for g in (cycle_graph(6), complete_graph(4))) + "\n")
    commands = (["chi-dp", c6, "--k", "3"], ["chi-list", c3],
                ["verify-theorem2", stream, "--variant", "a"])
    monkeypatch.delenv("DPCOLOR_BUDGET", raising=False)
    unset = [run(capsys, *argv)[:2] for argv in commands]
    assert [code for code, _ in unset] == [0, 0, 1]
    assert "\tFAIL\n" in unset[2][1]
    for raw in ("0", "-1", "many"):
        monkeypatch.setenv("DPCOLOR_BUDGET", raw)
        assert [run(capsys, *argv)[:2] for argv in commands] == unset, raw


def test_reports_are_reproducible(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n1 3\n2 4\n3 4\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 1},
                     {"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    first = run(capsys, "find-config", graph, "--pattern", pattern)
    second = run(capsys, "find-config", graph, "--pattern", pattern)
    assert first == second
    assert first[0] == 0 and "reducible for k=3: yes" in first[1]


def test_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main builds one parser per process; a call must not see the arguments
    # or the usage error of an earlier call
    patterns = []
    read_pattern = dpcolor.reducibility.pattern_from_json

    def counted(text):
        patterns.append(text)
        return read_pattern(text)

    monkeypatch.setattr(dpcolor.reducibility, "pattern_from_json", counted)
    emb = write(tmp_path, "tetra.json", dump_embedding(tetrahedron()))
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 1},
                     {"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    code, _, _ = run(capsys, "discharge", emb, "--variant", "a",
                     "--pattern", pattern, "--pattern", pattern)
    assert code == 0 and len(patterns) == 2
    parser = dpcolor.cli._shared_parser()
    code, _, _ = run(capsys, "discharge", emb, "--variant", "a",
                     "--pattern", pattern)
    assert code == 0 and len(patterns) == 3
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    assert run(capsys, "chi-dp", c6, "--k")[0] == 3
    assert run(capsys, "chi-dp", c6, "--k", "3")[0] == 0
    assert run(capsys, "chi-dp", c6, "--k", "3", "--budget", "2")[0] == 2
    assert run(capsys, "chi-dp", c6, "--k", "3")[0] == 0
    assert dpcolor.cli._shared_parser() is parser
    # build_parser still makes a fresh parser each time
    assert build_parser() is not build_parser()


def test_bad_usage_exit_code(capsys):
    assert main(["no-such-command"]) == 3


def test_empty_graph_file_exit_code(tmp_path, capsys):
    for name, text in (("empty.g6", ""), ("blank.g6", "  \n\n")):
        path = write(tmp_path, name, text)
        for argv in (["chi-dp", path, "--k", "3"], ["chi", path],
                     ["cycles", path]):
            code, _, err = run(capsys, *argv)
            assert code == 3 and "empty input" in err, (name, argv)


def test_jobs_below_one_rejected(tmp_path, capsys):
    path = write(tmp_path, "c5.g6", encode_graph6(cycle_graph(5)))
    for jobs in ("0", "-1"):
        code, _, _ = run(capsys, "chi-dp", path, "--k", "3", "--jobs", jobs)
        assert code == 3
        code, _, _ = run(capsys, "verify-theorem2", path, "--variant", "a",
                         "--jobs", jobs)
        assert code == 3


def test_chi_dp_exit_codes_on_large_cycle_rank(tmp_path, capsys):
    # 1176 and 1141 non-tree edges, more than the default recursion limit
    k50 = write(tmp_path, "k50.g6", encode_graph6(complete_graph(50)))
    code, out, _ = run(capsys, "chi-dp", k50, "--k", "3")
    assert code == 1 and out
    tripartite = from_edge_list([(u, v) for u in range(60)
                                 for v in range(u + 1, 60) if u // 20 != v // 20])
    path = write(tmp_path, "k202020.g6", encode_graph6(tripartite))
    code, _, _ = run(capsys, "chi-dp", path, "--k", "3", "--budget", "1")
    assert code == 2


def test_recursion_limit_exit_code(tmp_path, capsys):
    # the backtracker and the walks are loops, so C1200, more vertices than
    # the recursion limit, gets answers; json.loads still recurses once per
    # level, and a deeply nested input is one error line, with no traceback
    c1200 = cycle_graph(1200)
    path = write(tmp_path, "c1200.g6", encode_graph6(c1200))
    code, out, _ = run(capsys, "color", path, "--k", "3")
    assert code == 0 and out.startswith("coloring: ")
    coloring = [int(pair.split(":")[1]) for pair in out.split()[1:]]
    assert is_valid_coloring(c1200, uniform_lists(1200, 3),
                             MatchingAssignment.identity(c1200, 3), coloring)
    code, out, _ = run(capsys, "chi-dp", path, "--k", "3")
    assert (code, out) == (0, "DP-3-colorable: yes\n")
    code, out, _ = run(capsys, "chi-dp", path)
    assert (code, out) == (0, "chi_DP = 3\n")
    nested = write(tmp_path, "nested.json", "[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "discharge", nested, "--variant", "a")
    assert code == 3
    assert err.startswith("error: input too large") and err.count("\n") == 1


def test_chi_list_on_long_cycles(tmp_path, capsys):
    # C300 has 89,701 connected classes and 600 automorphisms; the walk of
    # chi-list --k 2 stops at its budget, while chi-list settles k = 2 by
    # the Erdos-Rubin-Taylor theorem with no search.  C1200 has more
    # vertices than the recursion limit, and chi finds its 2-coloring first
    c300 = write(tmp_path, "c300.g6", encode_graph6(cycle_graph(300)))
    code, _, err = run(capsys, "chi-list", c300, "--k", "2", "--budget", "10")
    assert code == 2 and err == "budget exceeded after 10 cases\n", err
    code, out, _ = run(capsys, "chi-list", c300, "--budget", "0")
    assert (code, out) == (0, "chi_list = 2\n")
    c1200 = write(tmp_path, "c1200.g6", encode_graph6(cycle_graph(1200)))
    code, out, _ = run(capsys, "chi-list", c1200)
    assert (code, out) == (0, "chi_list = 2\n")


def test_verify_names_the_malformed_line(tmp_path, capsys):
    # the error names the file and the line of the stream that is bad
    good = encode_graph6(cycle_graph(5))
    stream = write(tmp_path, "s.g6", f"{good}\n\n{good}\ng??\n{good}\n")
    code, out, err = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 3 and out == ""
    assert err == (f"error: {stream}:4: expected 130 adjacency bytes for "
                   "n=40, got 2\n"), err


def test_module_entry_point(tmp_path):
    # the child finds dpcolor through PYTHONPATH, however pytest found it
    src = os.path.dirname(os.path.dirname(dpcolor.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "dpcolor", "cycles", "-"],
        input="D~{\n", capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "[3, 4, 5]" in proc.stdout


def test_cli_import_loads_no_process_pool():
    # multiprocessing is imported only when a search is split across
    # processes, so a plain command does not pay for it
    src = os.path.dirname(os.path.dirname(dpcolor.cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dpcolor.cli; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_budget_zero_is_a_budget(tmp_path, capsys):
    # --budget 0 stops the search before the first case
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    c3 = write(tmp_path, "c3.g6", encode_graph6(cycle_graph(3)))
    for argv in (["chi-dp", c6, "--k", "3"], ["chi-list", c3, "--k", "2"]):
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert (code, out, err) == (2, "", "budget exceeded after 0 cases\n")
    assert run(capsys, "chi-dp", c6, "--k", "3", "--budget", "100000")[0] == 0


def test_verify_budget_zero_marks_every_candidate(tmp_path, capsys):
    # cycles have an empty 3-core, so they pass without a search and a zero
    # budget never comes into play
    lines = [encode_graph6(cycle_graph(m)) for m in (5, 10, 11)]
    lines.append(encode_graph6(complete_graph(4)))
    stream = write(tmp_path, "stream.g6", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "b68",
                       "--budget", "0")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.splitlines() if "\t" in ln)
    assert [rows[ln] for ln in lines] == ["pass"] * 3 + ["filtered:cycles"]
    assert out.endswith("# checked=3 pass=3 fail=0 budget=0\n")


def test_verify_rows_on_the_smallest_streams(tmp_path, capsys):
    # an empty stream, and the graphs on 0, 1 and 2 vertices: the empty
    # graph and K1 are connected, and none of the three has a 3-core
    sidecar = tmp_path / "verify.json"
    for text, rows in (("", []),
                       ("?\n@\nA_\n", [("?", "pass"), ("@", "pass"),
                                        ("A_", "pass")])):
        stream = write(tmp_path, "stream.g6", text)
        for variant in ("a", "b67", "b68"):
            code, out, err = run(capsys, "verify-theorem2", stream,
                                 "--variant", variant, "--json", str(sidecar))
            assert (code, err) == (0, "")
            checked = len(rows)
            assert out == "".join(f"{g}\t{status}\n" for g, status in rows) + (
                f"# checked={checked} pass={checked} fail=0 budget=0\n")
            doc = json.loads(sidecar.read_text())
            assert doc["rows"] == [
                {"graph6": g, "status": status, "settled_by": "core-empty"}
                for g, status in rows]
            assert (doc["checked"], doc["fail"], doc["budget"]) == (
                checked, 0, 0)


def pentagonal_prism():
    """C5 x K2: 3-regular, so its 3-core is the whole graph."""
    return from_edge_list([(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])


def test_verify_worker_searches_a_nonempty_core():
    masks = pentagonal_prism().masks
    with pytest.raises(dpcolor.solver.BudgetExceeded):
        dpcolor.solver.settle_dp(masks, 3, budget=0)
    assert dpcolor.solver.settle_dp(masks, 3) == (True, "search")


def test_verify_sidecar_says_how_each_candidate_was_settled(
        tmp_path, capsys, monkeypatch):
    # the prism's 4-cycles keep it out of every variant, so the cycle filter
    # is switched off here to send it to the search, and the pool threshold
    # is lowered so that --jobs 2 splits that search
    screen = dpcolor.cli.filter_graph6
    monkeypatch.setattr(dpcolor.cli, "filter_graph6",
                        lambda line, forbidden: screen(line, ()))
    monkeypatch.setattr(dpcolor.solver, "_POOL_MIN_WORK", 0)
    lines = [encode_graph6(cycle_graph(5)), encode_graph6(pentagonal_prism()),
             encode_graph6(complete_graph(5))]
    stream = write(tmp_path, "stream.g6", "\n".join(lines) + "\n")
    sidecar = tmp_path / "verify.json"
    for budget, code, prism_status in (("0", 2, "budget"),
                                       ("100000", 0, "pass")):
        # --jobs splits the prism's search; rows, exit code and sidecar
        # do not depend on it
        runs = []
        for jobs in ("1", "2"):
            result = run(capsys, "verify-theorem2", stream, "--variant", "a",
                         "--budget", budget, "--jobs", jobs,
                         "--json", str(sidecar))
            runs.append((result, sidecar.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0][0] == code
        doc = json.loads(runs[0][1])
        assert doc["rows"] == [
            {"graph6": lines[0], "status": "pass", "settled_by": "core-empty"},
            {"graph6": lines[1], "status": prism_status,
             "settled_by": "search"},
            {"graph6": lines[2], "status": "filtered:nonplanar"},
        ]


def test_benchmark_streams_reach_no_search(tmp_path, capsys, monkeypatch):
    # the traffic behind the hard-list and census-search workloads: no
    # graph of either reaches a list walk or a DP scan
    solver = dpcolor.solver
    seen = collections.Counter()

    def spy(name):
        real = getattr(solver, name)

        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            seen[name, result[1] if name == "_settle" else bool(result)] += 1
            return result
        monkeypatch.setattr(solver, name, call)

    def refuse(*args, **kwargs):
        raise AssertionError("a search ran")

    for name in ("_settle", "_two_choosable", "_alon_tarsi"):
        spy(name)
    for name in ("_choosability_walk", "_dp_walk"):
        monkeypatch.setattr(solver, name, refuse)
    rows = [line.split("\t") for line in
            (BENCH_DATA / "chi_list.tsv").read_text().splitlines()]
    assert len(rows) == 129
    for g6, value in rows:
        path = write(tmp_path, "list.g6", g6 + "\n")
        assert run(capsys, "chi-list", path, "--jobs", "1") == (
            0, f"chi_list = {value}\n", "")
    # 132 settles: 118 with an empty core, 13 by the k = 2 theorem and one
    # by Alon-Tarsi
    assert seen == {("_settle", "core-empty"): 118, ("_settle", "search"): 14,
                    ("_two_choosable", True): 10,
                    ("_two_choosable", False): 3, ("_alon_tarsi", True): 1}
    seen.clear()
    sidecar = tmp_path / "verify.json"
    total = 0
    for variant in ("b68", "a"):
        text = (BENCH_DATA / f"census_search_{variant}.tsv").read_text()
        rows = [line.split("\t") for line in text.splitlines()]
        total += len(rows)
        stream = write(tmp_path, "stream.g6",
                       "".join(g6 + "\n" for g6, _ in rows))
        code, _, err = run(capsys, "verify-theorem2", stream, "--variant",
                           variant, "--jobs", "1", "--json", str(sidecar))
        assert (code, err) == (0, "")
        assert json.loads(sidecar.read_text())["rows"] == [
            {"graph6": g6, "status": status, "settled_by": "core-empty"}
            for g6, status in rows]
    assert total == 1328
    assert seen == {("_settle", "core-empty"): 1328}


def with_triangle_on_zero(g):
    """g with a triangle on vertex 0 and two new vertices, which the 3-core
    peel deletes."""
    return from_edge_list(list(g.edges) + [(0, g.n), (0, g.n + 1),
                                           (g.n, g.n + 1)])


def test_verify_budget_counts_only_the_core(tmp_path, capsys, monkeypatch):
    # the prism, the 3-core, has 6^6 = 46,656 normalized cases, the whole
    # graph 6^7 = 279,936; the cycle filter is off, as the prism has
    # 4-cycles
    screen = dpcolor.cli.filter_graph6
    monkeypatch.setattr(dpcolor.cli, "filter_graph6",
                        lambda line, forbidden: screen(line, ()))
    line = encode_graph6(with_triangle_on_zero(pentagonal_prism()))
    stream = write(tmp_path, "stream.g6", line + "\n")
    for budget, code, status, tally in (
            ("46656", 0, "pass", "pass=1 fail=0 budget=0"),
            ("46655", 2, "budget", "pass=0 fail=0 budget=1")):
        assert run(capsys, "verify-theorem2", stream, "--variant", "a",
                   "--budget", budget)[:2] == (
            code, f"{line}\t{status}\n# checked=1 {tally}\n")


def test_verify_certificate_replays_on_the_input(tmp_path, capsys,
                                                 monkeypatch):
    # K4 with a triangle on vertex 0: the 3-core is the K4, whose first
    # failing cover is chi-dp's; the triangle's edges carry the empty
    # matching, and the whole input is uncolorable under the certificate
    screen = dpcolor.cli.filter_graph6
    monkeypatch.setattr(dpcolor.cli, "filter_graph6",
                        lambda line, forbidden: screen(line, ()))
    g = with_triangle_on_zero(complete_graph(4))
    line = encode_graph6(g)
    stream = write(tmp_path, "stream.g6", line + "\n")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 1
    head, certificate = out.split(f"{line}\tFAIL\n")[0].split(":\n", 1)
    assert head == f"refutation candidate {line}"
    matching = write(tmp_path, "matching.txt", certificate)
    assert run(capsys, "color", stream, "--matching", matching,
               "--k", "3")[:2] == (1, "UNSATISFIABLE\n")
    k4 = write(tmp_path, "k4.g6", encode_graph6(complete_graph(4)) + "\n")
    k4_certificate = tmp_path / "k4.txt"
    assert run(capsys, "chi-dp", k4, "--k", "3", "--certificate",
               str(k4_certificate))[0] == 1
    in_k4 = {True: [], False: []}
    for ln in certificate.splitlines(keepends=True):
        in_k4[max(map(int, ln.split(":")[0].split())) < 4].append(ln)
    assert "".join(in_k4[True]) == k4_certificate.read_text()
    assert in_k4[False] == ["0 4 : \n", "0 5 : \n", "4 5 : \n"]


def test_verify_builds_a_graph_only_past_the_cycle_filter(
        tmp_path, capsys, monkeypatch):
    # every step reads the decoded bitmasks, the rotation search too (here
    # on subdivided K5's reduction); a Graph is built only for a candidate
    # that goes to the DP search, here none.  Every Graph is charged to the
    # line being screened when it is built
    disconnected = [from_edge_list([(0, 1), (2, 3)], n=4),
                    from_edge_list([(0, 1), (1, 2), (2, 0)], n=5)]
    cyclic = [complete_graph(4), cycle_graph(8), complete_bipartite(3, 3)]
    nonplanar = [subdivided(complete_graph(5), 3)]
    passing = [cycle_graph(5), cycle_graph(10), path_graph(6)]
    stream = write(tmp_path, "stream.g6", "".join(
        encode_graph6(g) + "\n"
        for g in (disconnected[0], cyclic[0], passing[0], nonplanar[0],
                  cyclic[1], disconnected[1], passing[1], cyclic[2],
                  passing[2])))
    built = []
    screen, init = dpcolor.cli.filter_graph6, dpcolor.graphs.Graph.__init__

    def screened(line, forbidden):
        built.append([line, 0])
        return screen(line, forbidden)

    def counted(self, *args, **kwargs):
        built[-1][1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(dpcolor.cli, "filter_graph6", screened)
    # every constructor, in any module, goes through Graph.__init__
    monkeypatch.setattr(dpcolor.graphs.Graph, "__init__", counted)
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 0
    rows = [ln.split("\t")[1] for ln in out.splitlines() if "\t" in ln]
    assert rows == ["filtered:disconnected", "filtered:cycles", "pass",
                    "filtered:nonplanar", "filtered:cycles",
                    "filtered:disconnected", "pass", "filtered:cycles",
                    "pass"]
    assert len(built) == 9 and not any(count for _, count in built)


def test_verify_planarity_rows_match_brute_force_embed(tmp_path, capsys):
    # each graph has only cycles of length 10 or more, so the cycle filter
    # passes it, and the row is the one networkx's planarity test gives.
    # brute_force_embed agrees wherever it decides; it refuses the star, with
    # 10! rotations at its centre, which the planarity filter settles by
    # m - n <= 2 without a search
    k33_tail = with_pendant_paths(subdivided(complete_bipartite(3, 3), 3),
                                  [0], 2)
    # three paths of length 5 between vertices 0 and 1
    theta = from_edge_list([pair for i in range(3) for pair in zip(
        [0, *range(2 + 4 * i, 6 + 4 * i)], [*range(2 + 4 * i, 6 + 4 * i), 1])])
    star = from_edge_list([(0, v) for v in range(1, 12)])
    graphs = [subdivided(complete_graph(5), 3), k33_tail, theta, star,
              cycle_graph(12), cycle_graph(41)]
    planar = [nx.check_planarity(nx.Graph(sorted(g.edges)))[0]
              for g in graphs]
    embedded = []
    for g in graphs:
        try:
            brute_force_embed(g)
            embedded.append(True)
        except NonPlanarOrTooLarge as exc:
            embedded.append(None if exc.reason == "too-large" else False)
    assert planar == [False, False, True, True, True, True]
    assert embedded == [False, False, True, None, True, True]
    stream = write(tmp_path, "stream.g6",
                   "".join(encode_graph6(g) + "\n" for g in graphs))
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a")
    rows = [ln.split("\t")[1] for ln in out.splitlines() if "\t" in ln]
    assert code == 0
    assert rows == ["pass" if p else "filtered:nonplanar" for p in planar]


def test_verify_has_no_vertex_bound_option(tmp_path, capsys):
    # --n-max is gone: the option is a usage error like any unknown one
    stream = write(tmp_path, "c5.g6", encode_graph6(cycle_graph(5)) + "\n")
    code, out, err = run(capsys, "verify-theorem2", stream, "--variant", "a",
                         "--n-max", "5")
    assert code == 3 and not out and err.startswith("usage:")


def test_verify_decides_a_star_past_nine_vertices(tmp_path, capsys):
    # K1,11: no vertex count is bounded, and a tree needs no search
    stream = write(tmp_path, "star.g6", "KsaCCA?_C?O?\n")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 0
    assert out.splitlines() == ["KsaCCA?_C?O?\tpass",
                                "# checked=1 pass=1 fail=0 budget=0"]


def test_format_is_detected_on_the_line_that_is_read(tmp_path, capsys):
    # an inline comment is not a token, and a leading comment line is
    # neither detected nor parsed as graph6
    edges = write(tmp_path, "c3.txt", "0 1  # first edge\n1 2\n2 0\n")
    graph6 = write(tmp_path, "c3.g6", "# triangle\nBw\n")
    for path in (edges, graph6):
        assert run(capsys, "chi", path) == (0, "chi = 3\n", ""), path
    only_comments = write(tmp_path, "none.g6", "# nothing here\n\n")
    code, out, err = run(capsys, "chi", only_comments)
    assert code == 3 and not out and "empty input" in err


def test_format_auto_reads_any_line_with_whitespace_as_an_edge_list(
        tmp_path, capsys):
    # graph6 has no whitespace, so three tokens are a malformed edge list
    path = write(tmp_path, "three.txt", "# header\n0 1 2\n1 2\n")
    assert run(capsys, "chi", path) == (
        3, "", "error: line 2: expected 'u v', got '0 1 2'\n")
    # one token is still read as graph6
    path = write(tmp_path, "one.txt", "012\n")
    assert run(capsys, "chi", path) == (
        3, "", "error: byte '0' out of graph6 range\n")


def test_format_option_is_a_usage_error(tmp_path, capsys):
    # the format is read from the input, so no subcommand takes --format
    path = write(tmp_path, "c3.g6", "Bw\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 3,
        "edges": [[0, 1], [1, 2], [0, 2]]}))
    commands = (["cycles", path], ["chi", path], ["chi-list", path],
                ["chi-dp", path], ["color", path, "--k", "3"],
                ["find-config", path, "--pattern", pattern])
    for argv in commands:
        # each runs to a verdict without the option
        assert run(capsys, *argv)[0] in (0, 1), argv
        code, out, err = run(capsys, *argv, "--format", "graph6")
        assert code == 3 and not out and err.startswith("usage:"), argv


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    for argv in (["chi-dp", c6, "--k", "3"], ["chi-list", c6, "--k", "2"],
                 ["verify-theorem2", c6, "--variant", "a"]):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert code == 3 and not out and err.startswith("usage:"), argv
        assert "error" not in err


def test_missing_k_is_one_error_line(tmp_path, capsys):
    # k comes from --k or from the matching file's default identity line
    c4 = write(tmp_path, "c4.g6", encode_graph6(cycle_graph(4)))
    bare = write(tmp_path, "m.txt", "0 1 : 0-0, 1-1\n")
    for argv in (["color", c4], ["color", c4, "--matching", bare]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(capsys, "color", c4, "--matching", bare, "--k", "2")[0] == 0


def test_malformed_files_are_one_error_line(tmp_path, capsys):
    p3 = write(tmp_path, "p3.edges", "0 1\n1 2\n")
    cases = [
        ["discharge", write(tmp_path, "five.json", "5\n"), "--variant", "a"],
        ["discharge", write(tmp_path, "str.json", '{"n": "3", "rotation": []}'),
         "--variant", "a"],
        ["color", p3, "--matching", write(tmp_path, "m.txt", "7 9 : 0-1\n")],
        ["color", p3, "--matching", write(tmp_path, "n.txt", "-1 2 : 0-1\n"),
         "--k", "2"],
        ["find-config", p3, "--pattern", write(tmp_path, "pat.json", "[]\n")],
        ["find-config", p3, "--pattern", write(tmp_path, "empty.json", json.dumps(
            {"name": "empty", "vertices": [], "edges": []}))],
        ["discharge", write(tmp_path, "c3.json", json.dumps(
            {"n": 3, "rotation": [[1, 2], [2, 0], [0, 1]]})), "--variant", "a",
         "--pattern", str(tmp_path / "empty.json")],
        ["find-config", p3, "--pattern", write(tmp_path, "loop.json", json.dumps(
            {"vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 2,
             "edges": [[0, 1], [0, 5]]}))],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # a bad matching line is named, and a default identity k below 1 is bad
    # even where --k gives k: it would leave every unlisted edge unmatched
    k4 = write(tmp_path, "k4.g6", encode_graph6(complete_graph(4)))
    for text, message in (
            ("default identity k=-2\n", "bad directive"),
            ("default identity k=0\n", "bad directive"),
            ("0 1 2 : 0-1\n", "expected 'u v : pairs'"),
            ("0 : 0-1\n", "expected 'u v : pairs'"),
            ("0 1 : 1-\n", "expected 'u v : pairs'")):
        bad = write(tmp_path, "bad.txt", "# a comment\n" + text)
        for k in ([], ["--k", "3"]):
            code, out, err = run(capsys, "color", k4, "--matching", bad, *k)
            assert code == 3 and not out, (text, k)
            assert err.startswith(f"error: line 2: {message}"), (text, err)
            assert err.count("\n") == 1, (text, err)
    # an edge given twice, in either orientation, or a second directive is
    # refused, where a later line used to replace the earlier one
    k3 = write(tmp_path, "k3.edges", "0 1\n1 2\n2 0\n")
    ident = "".join(f"{e} : 0-0, 1-1, 2-2\n" for e in ("0 1", "1 2", "0 2"))
    for text, message in (
            (ident + "0 1 : \n", "line 4: edge (0, 1) already given on line 1"),
            (ident + "1 0 : 0-1\n",
             "line 4: edge (1, 0) already given on line 1"),
            ("default identity k=3\n# again\ndefault identity k=2\n",
             "line 3: directive already given on line 1")):
        again = write(tmp_path, "again.txt", text)
        code, out, err = run(capsys, "color", k3, "--matching", again,
                             "--k", "3")
        assert (code, out, err) == (3, "", f"error: {message}\n"), text


# Every value a user can set, per subcommand: positionals by name, options
# by their long spelling.  A knob added or removed shows up here.
SETTABLE = {
    "cycles": {"input", "--max-len", "--json"},
    "chi": {"input", "--json"},
    "chi-list": {"input", "--budget", "--jobs", "--k", "--certificate",
                 "--json"},
    "chi-dp": {"input", "--budget", "--jobs", "--k", "--certificate",
               "--json"},
    "color": {"input", "--matching", "--k", "--json"},
    "find-config": {"input", "--pattern", "--k", "--show", "--json"},
    "discharge": {"input", "--variant", "--strict", "--log", "--pattern",
                  "--json"},
    "verify-theorem2": {"input", "--variant", "--budget", "--jobs", "--json"},
}


def test_settable_options_are_pinned():
    top = build_parser()
    (sub,) = [a for a in top._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert [a.option_strings for a in top._actions
            if a is not sub] == [["-h", "--help"]]
    settable = {
        name: {a.option_strings[-1] if a.option_strings else a.dest
               for a in p._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()}
    assert settable == SETTABLE


def test_removed_commands_are_usage_errors(tmp_path, capsys):
    # find-config decides reducibility exactly, and no command replays an
    # extension along an order, so a full extend argv is bad usage
    graph = write(tmp_path, "g.edges", "0 1\n0 2\n1 3\n1 4\n")
    matching = write(tmp_path, "m.txt", "default identity k=3\n")
    partial = write(tmp_path, "p.json", json.dumps({"2": 0, "3": 0, "4": 1}))
    code, out, err = run(capsys, "extend", graph, "--matching", matching,
                         "--partial", partial, "--order", "0,1")
    assert code == 3 and not out and err.startswith("usage:")


def test_the_readme_lists_every_command_with_real_flags():
    # the sh block under "## Command line" in README.md: each subcommand
    # once, each with flags it accepts, so a renamed or removed flag fails
    # here until the README follows
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    named = []
    for line in lines:
        assert line.startswith("dpcolor "), line
        words = line.split("#", 1)[0].replace("[", " ").replace("]", " ")
        command, *rest = words.split()[1:]
        named.append(command)
        assert command in SETTABLE, line
        flags = {w for w in rest if w.startswith("--")}
        assert flags <= SETTABLE[command], (line, flags - SETTABLE[command])
    assert sorted(named) == sorted(SETTABLE)
