import json
import subprocess
import sys

import pytest

import dpcolor.cli
import dpcolor.reducibility
from dpcolor import (NonPlanarOrTooLarge, brute_force_embed, encode_graph6,
                     from_edge_list, parse_matching_file)
from dpcolor.cli import build_parser, main
from fixtures import (EMBEDDING_REJECTIONS, dodecahedron, subdivided,
                      tetrahedron, with_pendant_paths)
from dpcolor import (complete_bipartite, complete_graph, cycle_graph,
                     dump_embedding, is_valid_coloring, path_graph,
                     uniform_lists)


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


def test_chi_edge_list_input(tmp_path, capsys):
    path = write(tmp_path, "g.edges", "0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "chi", path)
    assert code == 0 and "chi = 3" in out


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


def test_chi_list_command(tmp_path, capsys):
    path = write(tmp_path, "c4.g6", encode_graph6(cycle_graph(4)))
    code, out, _ = run(capsys, "chi-list", path, "--k", "2")
    assert code == 0 and "yes" in out
    path3 = write(tmp_path, "c3.g6", encode_graph6(cycle_graph(3)))
    code, out, _ = run(capsys, "chi-list", path3, "--k", "2")
    assert code == 1 and "failing list assignment" in out
    code, out, _ = run(capsys, "chi-list", path3)
    assert code == 0 and "chi_list = 3" in out


def test_chi_list_budget_counts_the_core(tmp_path, capsys):
    # K2,4 with a pendant path of two vertices: its 2-core, the K2,4, fails
    # after 1,568 list systems, and the whole graph after 6,485.  chi-list
    # searches the core, so it settles within a budget that chi-list --k 2,
    # which searches the whole graph, runs out of.
    g = with_pendant_paths(complete_bipartite(2, 4), [0], 2)
    path = write(tmp_path, "k24path.g6", encode_graph6(g))
    code, out, _ = run(capsys, "chi-list", path, "--budget", "1568")
    assert (code, out) == (0, "chi_list = 3\n")
    code, out, err = run(capsys, "chi-list", path, "--budget", "1567")
    assert (code, out, err) == (2, "", "budget exceeded after 1567 cases\n")
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


def test_extend_command(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n0 2\n1 3\n1 4\n")
    matching = write(tmp_path, "m.txt", "default identity k=3\n")
    partial = write(tmp_path, "p.json", json.dumps({"2": 0, "3": 0, "4": 1}))
    code, out, _ = run(capsys, "extend", graph, "--matching", matching,
                       "--partial", partial, "--order", "0,1")
    assert code == 0 and "coloring:" in out


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
                       "--k", "3", "--validate", "25", "--seed", "7")
    assert code == 0
    # both triangles of the host match, two labelings each
    assert "4 occurrences" in out
    assert "reducible for k=3: yes" in out
    assert "25/25 trials extended" in out


def test_find_config_rejects_numbers_out_of_range(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "name": "triangle",
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 3,
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    for flag, value in (("--show", "-2"), ("--validate", "-5"),
                        ("--k", "0")):
        code, out, err = run(capsys, "find-config", graph, "--pattern",
                             pattern, flag, value)
        assert code == 3 and not out and err.startswith("usage:"), flag
    code, out, _ = run(capsys, "find-config", graph, "--pattern", pattern,
                       "--show", "0", "--validate", "0", "--k", "1")
    assert code == 1 and "6 occurrences" in out and "(0," not in out


def test_discharge_command(tmp_path, capsys):
    emb = write(tmp_path, "tetra.json", dump_embedding(tetrahedron()))
    log = str(tmp_path / "log.tsv")
    code, out, _ = run(capsys, "discharge", emb, "--variant", "a",
                       "--log", log)
    assert code == 0
    assert "final total charge: -8" in out
    assert (tmp_path / "log.tsv").read_text().startswith("phase\trule")


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
    code, out, _ = run(capsys, "verify-theorem2", stream,
                       "--variant", "a", "--n-max", "24")
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
    base = run(capsys, "verify-theorem2", stream, "--variant", "b68",
               "--n-max", "11")
    parallel = run(capsys, "verify-theorem2", stream, "--variant", "b68",
                   "--n-max", "11", "--jobs", "2")
    assert base == parallel and base[0] == 0


def test_env_var_sets_default_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DPCOLOR_BUDGET", "2")
    path = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    code, _, err = run(capsys, "chi-dp", path, "--k", "3")
    assert code == 2 and "budget exceeded" in err


def test_reports_are_reproducible(tmp_path, capsys):
    graph = write(tmp_path, "g.edges", "0 1\n1 2\n0 2\n1 3\n2 4\n3 4\n")
    pattern = write(tmp_path, "pat.json", json.dumps({
        "vertices": [{"hostDegree": 2, "outsideNeighbors": 0},
                     {"hostDegree": 3, "outsideNeighbors": 1},
                     {"hostDegree": 3, "outsideNeighbors": 1}],
        "edges": [[0, 1], [1, 2], [0, 2]],
        "order": [0, 1, 2],
    }))
    first = run(capsys, "find-config", graph, "--pattern", pattern,
                "--validate", "40", "--seed", "11")
    second = run(capsys, "find-config", graph, "--pattern", pattern,
                 "--validate", "40", "--seed", "11")
    assert first == second


def test_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main builds one parser per process; a call must not see the arguments,
    # the usage error or the environment of an earlier call
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
    monkeypatch.setenv("DPCOLOR_BUDGET", "2")
    assert run(capsys, "chi-dp", c6, "--k", "3")[0] == 2
    monkeypatch.delenv("DPCOLOR_BUDGET")
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
                     ["cycles", path, "--format", "edges"]):
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
    # the coloring backtracker recurses once per vertex
    path = write(tmp_path, "c1200.g6", encode_graph6(cycle_graph(1200)))
    for command in ("color", "chi-dp"):
        code, _, err = run(capsys, command, path, "--k", "3")
        assert code == 3, command
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_chi_list_on_long_cycles(tmp_path, capsys):
    # C300 has 89,701 connected classes and 600 automorphisms; the walk
    # stops at its budget.  C1200 passes the recursion limit and is one
    # error line, with no traceback
    c300 = write(tmp_path, "c300.g6", encode_graph6(cycle_graph(300)))
    code, _, err = run(capsys, "chi-list", c300, "--budget", "10")
    assert code == 2 and err == "budget exceeded after 10 cases\n", err
    c1200 = write(tmp_path, "c1200.g6", encode_graph6(cycle_graph(1200)))
    code, _, err = run(capsys, "chi-list", c1200)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_names_the_malformed_line(tmp_path, capsys):
    # the error names the file and the line of the stream that is bad
    good = encode_graph6(cycle_graph(5))
    stream = write(tmp_path, "s.g6", f"{good}\n\n{good}\ng??\n{good}\n")
    code, out, err = run(capsys, "verify-theorem2", stream, "--variant", "a")
    assert code == 3 and out == ""
    assert err == (f"error: {stream}:4: expected 130 adjacency bytes for "
                   "n=40, got 2\n"), err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dpcolor", "cycles", "-"],
        input="D~{\n", capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[3, 4, 5]" in proc.stdout


def test_budget_zero_is_a_budget(tmp_path, capsys, monkeypatch):
    # --budget 0 and DPCOLOR_BUDGET=0 stop the search before the first case
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    c3 = write(tmp_path, "c3.g6", encode_graph6(cycle_graph(3)))
    for argv in (["chi-dp", c6, "--k", "3"], ["chi-list", c3, "--k", "2"]):
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert (code, out, err) == (2, "", "budget exceeded after 0 cases\n")
    monkeypatch.setenv("DPCOLOR_BUDGET", "0")
    assert run(capsys, "chi-dp", c6, "--k", "3")[0] == 2
    # a given --budget overrides the environment, zero or not
    assert run(capsys, "chi-dp", c6, "--k", "3", "--budget", "100000")[0] == 0
    monkeypatch.setenv("DPCOLOR_BUDGET", "100000")
    assert run(capsys, "chi-dp", c6, "--k", "3", "--budget", "0")[0] == 2


def test_verify_budget_zero_marks_every_candidate(tmp_path, capsys):
    # cycles have an empty 3-core, so they pass without a search and a zero
    # budget never comes into play
    lines = [encode_graph6(cycle_graph(m)) for m in (5, 10, 11)]
    lines.append(encode_graph6(complete_graph(4)))
    stream = write(tmp_path, "stream.g6", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "b68",
                       "--n-max", "11", "--budget", "0")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.splitlines() if "\t" in ln)
    assert [rows[ln] for ln in lines] == ["pass"] * 3 + ["filtered:cycles"]
    assert out.endswith("# checked=3 pass=3 fail=0 budget=0\n")


def pentagonal_prism():
    """C5 x K2: 3-regular, so its 3-core is the whole graph."""
    return from_edge_list([(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])


def test_verify_worker_searches_a_nonempty_core():
    prism = pentagonal_prism()
    assert dpcolor.cli._verify_search(prism, 0, 1) == ("budget", None)
    assert dpcolor.cli._verify_search(
        prism, dpcolor.solver.DEFAULT_BUDGET, 1) == ("pass", None)


def test_verify_sidecar_says_how_each_candidate_was_settled(
        tmp_path, capsys, monkeypatch):
    # the prism's 4-cycles keep it out of every variant, so the cycle filter
    # is switched off here to send it to the search, and the pool threshold
    # is lowered so that --jobs 2 splits that search
    screen = dpcolor.cli.filter_graph6
    monkeypatch.setattr(dpcolor.cli, "filter_graph6",
                        lambda line, forbidden, n_max: screen(line, (), n_max))
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
                         "--n-max", "10", "--budget", budget,
                         "--jobs", jobs, "--json", str(sidecar))
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


def test_verify_builds_a_graph_only_past_the_cycle_filter(
        tmp_path, capsys, monkeypatch):
    # the vertex bound, connectivity and the cycle filter read the decoded
    # bitmasks; only the lines that pass them are built into a Graph.  Every
    # Graph, including those planarity builds, is charged to the line being
    # screened when it is built
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
    screen, build = dpcolor.cli.filter_graph6, dpcolor.graphs._build_graph

    def screened(line, forbidden, n_max):
        built.append([line, 0])
        return screen(line, forbidden, n_max)

    def counted(n, edges):
        built[-1][1] += 1
        return build(n, edges)

    monkeypatch.setattr(dpcolor.cli, "filter_graph6", screened)
    monkeypatch.setattr(dpcolor.graphs, "_build_graph", counted)
    code, out, _ = run(capsys, "verify-theorem2", stream, "--variant", "a",
                       "--n-max", "40")
    assert code == 0
    rows = [ln.split("\t")[1] for ln in out.splitlines() if "\t" in ln]
    assert rows == ["filtered:disconnected", "filtered:cycles", "pass",
                    "filtered:nonplanar", "filtered:cycles",
                    "filtered:disconnected", "pass", "filtered:cycles",
                    "pass"]
    assert [line for line, count in built if count] == [
        encode_graph6(g)
        for g in (passing[0], nonplanar[0], passing[1], passing[2])]


def test_verify_planarity_rows_match_brute_force_embed(tmp_path, capsys):
    # each graph has only cycles of length 10 or more, so the cycle filter
    # passes it, and the row is the one brute_force_embed's answer gives
    k33_tail = with_pendant_paths(subdivided(complete_bipartite(3, 3), 3),
                                  [0], 2)
    # three paths of length 5 between vertices 0 and 1
    theta = from_edge_list([pair for i in range(3) for pair in zip(
        [0, *range(2 + 4 * i, 6 + 4 * i)], [*range(2 + 4 * i, 6 + 4 * i), 1])])
    star = from_edge_list([(0, v) for v in range(1, 12)])
    graphs = [subdivided(complete_graph(5), 3), k33_tail, theta, star,
              cycle_graph(12), cycle_graph(41)]
    stream = write(tmp_path, "stream.g6",
                   "".join(encode_graph6(g) + "\n" for g in graphs))
    for n_max in (None, 40):
        want = []
        for g in graphs:
            if n_max and g.n > n_max:
                want.append("skipped:n")
                continue
            try:
                brute_force_embed(g, max_n=max(9, n_max or 9))
                want.append("pass")
            except NonPlanarOrTooLarge as exc:
                want.append("filtered:nonplanar" if exc.reason == "nonplanar"
                            else "skipped:embed-bound")
        argv = ["verify-theorem2", stream, "--variant", "a"]
        if n_max:
            argv += ["--n-max", str(n_max)]
        code, out, _ = run(capsys, *argv)
        rows = [ln.split("\t")[1] for ln in out.splitlines() if "\t" in ln]
        assert code == 0 and rows == want, n_max
    assert want == ["filtered:nonplanar", "filtered:nonplanar", "pass",
                    "skipped:embed-bound", "pass", "skipped:n"]


def test_negative_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    c6 = write(tmp_path, "c6.g6", encode_graph6(cycle_graph(6)))
    for argv in (["chi-dp", c6, "--k", "3"], ["chi-list", c6, "--k", "2"],
                 ["verify-theorem2", c6, "--variant", "a"]):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert code == 3 and not out and err.startswith("usage:"), argv
        assert "error" not in err
    for raw in ("-1", "many", "2.5"):
        monkeypatch.setenv("DPCOLOR_BUDGET", raw)
        code, out, err = run(capsys, "chi-dp", c6, "--k", "3")
        assert code == 3 and not out
        assert err.startswith("error: DPCOLOR_BUDGET") and err.count("\n") == 1


def test_missing_k_is_one_error_line(tmp_path, capsys):
    # k comes from --k or from the matching file's default identity line
    c4 = write(tmp_path, "c4.g6", encode_graph6(cycle_graph(4)))
    bare = write(tmp_path, "m.txt", "0 1 : 0-0, 1-1\n")
    partial = write(tmp_path, "p.json", json.dumps({"2": 0, "3": 1}))
    for argv in (["color", c4], ["color", c4, "--matching", bare],
                 ["extend", c4, "--matching", bare, "--partial", partial,
                  "--order", "0,1"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(capsys, "color", c4, "--matching", bare, "--k", "2")[0] == 0


def test_malformed_files_are_one_error_line(tmp_path, capsys):
    p3 = write(tmp_path, "p3.edges", "0 1\n1 2\n")
    identity = write(tmp_path, "id.txt", "default identity k=3\n")
    partial = write(tmp_path, "p.json", json.dumps({"2": 0}))
    cases = [
        ["discharge", write(tmp_path, "five.json", "5\n"), "--variant", "a"],
        ["discharge", write(tmp_path, "str.json", '{"n": "3", "rotation": []}'),
         "--variant", "a"],
        ["color", p3, "--matching", write(tmp_path, "m.txt", "7 9 : 0-1\n")],
        ["color", p3, "--matching", write(tmp_path, "n.txt", "-1 2 : 0-1\n"),
         "--k", "2"],
        ["find-config", p3, "--pattern", write(tmp_path, "pat.json", "[]\n")],
        ["find-config", p3, "--pattern", write(tmp_path, "loop.json", json.dumps(
            {"vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 2,
             "edges": [[0, 1], [0, 5]]}))],
        ["extend", p3, "--matching", identity,
         "--partial", write(tmp_path, "list.json", "[]\n"), "--order", "0,1"],
        ["extend", p3, "--matching", identity, "--partial", partial,
         "--order", "0,1,7"],
        ["extend", p3, "--matching", identity, "--partial", partial,
         "--order", "1,0,1"],
        ["extend", p3, "--matching", identity, "--partial",
         write(tmp_path, "rest.json", json.dumps({"1": 0, "2": 1})),
         "--order", "0"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
