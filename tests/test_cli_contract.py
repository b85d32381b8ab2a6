"""The CLI's exit-code contract on generated input, well formed or not.

Every command returns 0, 1, 2 or 3 from main and never raises; a usage or
input error (3) prints the usage line or one 'error:' line.  A chi-dp
certificate replays to UNSATISFIABLE through color, and every coloring
color prints is valid.  Graphs have at most 6 vertices, and the runs are
derandomized, so the test is deterministic and takes a few seconds.
"""

import contextlib
import io
import json
import string

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpcolor import (MatchingAssignment, brute_force_embed, cycle_graph,
                     delete_vertices, dump_embedding, encode_graph6,
                     find_coloring, from_edge_list, is_valid_coloring,
                     parse_matching_file, uniform_lists)
from dpcolor.cli import _read_graph, main
from fixtures import cube, cycle_embedding, tetrahedron

CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

small = st.integers(-1, 7)


def mix(valid, junk):
    """Draw from valid two times in three, so the paths past the readers
    are exercised as well as the readers themselves."""
    return st.sampled_from((valid, valid, junk)).flatmap(lambda s: s)


graphs = st.integers(1, 6).flatmap(lambda n: st.builds(
    lambda edges: from_edge_list(edges, n=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=12)))


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(1, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=6))
    return from_edge_list(tree + extra, n=n)


#: K2,2,2: at k = 4 the exact check cannot settle it within the budget
octahedron = from_edge_list([(u, v) for u in range(6) for v in range(u + 1, 6)
                             if u // 2 != v // 2])


def edge_text(g):
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


lines = st.lists(st.text(" 0123456789:-,#k=abdefinty\t", max_size=14),
                 max_size=5).map("\n".join)
graph_files = mix(graphs.map(encode_graph6) | graphs.map(edge_text), st.one_of(
    st.text(string.printable, max_size=10),
    st.text("".join(map(chr, range(60, 128))), min_size=1, max_size=8),
    st.lists(st.tuples(small, small), max_size=6)
      .map(lambda es: "".join(f"{u} {v}\n" for u, v in es)),
    st.binary(max_size=12),
))

matching_lines = st.builds(
    lambda u, v, pairs: f"{u} {v} : " + ", ".join(f"{a}-{b}" for a, b in pairs),
    small, small, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           max_size=3))
matching_files = mix(
    st.builds(lambda head, body: "\n".join(head + body) + "\n",
              st.lists(st.integers(-1, 4).map(
                  lambda k: f"default identity k={k}"), max_size=1),
              st.lists(matching_lines, max_size=4)),
    lines | st.binary(max_size=12),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(
        ["n", "rotation", "vertices", "edges", "order", "name", "hostDegree",
         "outsideNeighbors", "0", "1"]), inner, max_size=4),
    max_leaves=12)
int_lists = st.lists(st.integers(-1, 6), max_size=4)


def json_files(structured):
    return mix(structured.map(json.dumps),
               json_values.map(json.dumps) | st.binary(max_size=12))


def plane_document(g):
    try:
        return json.loads(dump_embedding(brute_force_embed(g)))
    except ValueError:  # disconnected or not planar
        return {"n": g.n, "rotation": [sorted(a) for a in g.adj]}


embeddings = json_files(st.one_of(
    st.sampled_from([tetrahedron(), cube(), cycle_embedding(3),
                     cycle_embedding(5)]).map(lambda e: json.loads(
                         dump_embedding(e))),
    connected_graphs().map(plane_document),
    st.fixed_dictionaries({"n": st.integers(-1, 5),
                           "rotation": st.lists(int_lists, max_size=5)}),
))


@st.composite
def pattern_documents(draw):
    """Mostly consistent patterns: outsideNeighbors is hostDegree minus the
    pattern degree, and order lists the pattern vertices."""
    size = draw(st.integers(1, 4))
    edges = draw(st.lists(st.lists(st.integers(0, size - 1), min_size=2,
                                   max_size=2), max_size=5))
    degree = [len({tuple(sorted(e)) for e in edges if i in e})
              for i in range(size)]
    outside = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    order = draw(st.permutations(range(size)).map(list))
    return {"vertices": [{"hostDegree": d + o, "outsideNeighbors": o}
                         for d, o in zip(degree, outside)],
            "edges": edges, "order": order}


patterns = json_files(pattern_documents())
partials = json_files(st.dictionaries(st.integers(-1, 6).map(str),
                                      st.integers(-1, 3), max_size=6))
orders = st.one_of(int_lists.map(lambda vs: ",".join(map(str, vs))),
                   st.text("0123456789,- x", max_size=8))


@st.composite
def extension_inputs(draw):
    """A graph, an order of its vertices (with the odd duplicate or
    out-of-range vertex) and a coloring of exactly the other vertices."""
    g = draw(connected_graphs())
    order = draw(mix(
        st.permutations(range(g.n)).flatmap(
            lambda vs: st.integers(1, len(vs)).map(lambda m: vs[:m])),
        st.lists(st.integers(-1, g.n), min_size=1, max_size=g.n + 1)))
    rest, remap = delete_vertices(g, set(order) & set(range(g.n)))
    coloring = find_coloring(rest, uniform_lists(rest.n, 3),
                             MatchingAssignment.identity(rest, 3))
    partial = {str(v): coloring[i] if coloring else 0
               for v, i in remap.items()}
    return (encode_graph6(g), json.dumps(partial),
            ",".join(map(str, order)))


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, err
    if code == 3:
        assert err.startswith("usage:") or (
            err.startswith("error: ") and err.count("\n") == 1), err
    return code, out, err


def check_coloring(graph_path, matching_path, k, out):
    """An exit-0 color run printed a valid coloring of its own input."""
    g = _read_graph(graph_path)
    if matching_path is None:
        matching = parse_matching_file(f"default identity k={k}\n", g)[0]
    else:
        with open(matching_path, encoding="utf-8") as fh:
            matching, default_k = parse_matching_file(fh.read(), g)
        k = default_k if k is None else k
    line = out.splitlines()[0]
    assert line.startswith("coloring:"), out
    coloring = tuple(int(tok.split(":")[1]) for tok in line.split()[1:])
    assert is_valid_coloring(g, uniform_lists(g.n, k), matching, coloring)


@CONTRACT
@given(graph=graph_files)
def test_cycles_contract(tmp_path, graph):
    run("cycles", write(tmp_path / "g", graph))


@CONTRACT
@given(graph=graph_files)
def test_chi_dp_certificate_replays(tmp_path, graph):
    path = write(tmp_path / "g", graph)
    cert = tmp_path / "cert.txt"
    cert.unlink(missing_ok=True)
    code, _, _ = run("chi-dp", path, "--k", 2, "--budget", 200,
                     "--certificate", cert)
    if code == 1:
        code, out, _ = run("color", path, "--matching", cert, "--k", 2)
        assert (code, out) == (1, "UNSATISFIABLE\n")


@CONTRACT
@given(graph=graph_files, matching=matching_files,
       k=st.none() | st.integers(0, 3))
def test_color_contract(tmp_path, graph, matching, k):
    path = write(tmp_path / "g", graph)
    mpath = write(tmp_path / "m.txt", matching)
    argv = ["color", path, "--matching", mpath]
    code, out, _ = run(*argv, *(["--k", k] if k is not None else []))
    if code == 0:
        check_coloring(path, mpath, k, out)
    code, out, _ = run("color", path, *(["--k", k] if k is not None else []))
    if code == 0:
        check_coloring(path, None, k, out)


@CONTRACT
@given(inputs=mix(extension_inputs(), st.tuples(graph_files, partials, orders)),
       matching=mix(st.just("default identity k=3\n"), matching_files),
       k=st.none() | st.integers(0, 3))
def test_extend_contract(tmp_path, inputs, matching, k):
    graph, partial, order = inputs
    run("extend", write(tmp_path / "g", graph),
        "--matching", write(tmp_path / "m.txt", matching),
        "--partial", write(tmp_path / "p.json", partial),
        "--order", order, *(["--k", k] if k is not None else []))


@CONTRACT
@given(graph=mix(connected_graphs().map(encode_graph6), graph_files),
       pattern=patterns, k=st.integers(1, 4))
@example(graph=encode_graph6(cycle_graph(3)), k=3,
         pattern=json.dumps({"name": "empty", "vertices": [], "edges": []}))
@example(graph=encode_graph6(octahedron), k=4, pattern=json.dumps({
    "vertices": [{"hostDegree": 4, "outsideNeighbors": 0}] * 6,
    "edges": sorted(map(list, octahedron.edges))}))
def test_find_config_contract(tmp_path, graph, pattern, k):
    # a run that reads its input ends on the verdict, and exits 1 only
    # when an occurrence goes uncertified, or 2 when the exact check runs
    # out of budget before its verdict
    code, out, err = run("find-config", write(tmp_path / "g", graph),
                         "--pattern", write(tmp_path / "pat.json", pattern),
                         "--k", k)
    if code == 2:
        assert not out.splitlines()[-1].startswith("reducible for"), out
        assert err.startswith("budget exceeded"), err
    elif code != 3:
        verdict = out.splitlines()[-1]
        assert verdict in (f"reducible for k={k}: yes",
                           f"reducible for k={k}: no"), out
        assert (code == 1) == (verdict.endswith("no")
                               and " 0 occurrences" not in out), out


@CONTRACT
@given(embedding=embeddings, pattern=st.none() | patterns,
       variant=st.sampled_from(["a", "b67", "b68"]), strict=st.booleans())
@example(embedding=dump_embedding(tetrahedron()),
         pattern=json.dumps({"name": ["x"], "edges": [], "vertices": [
             {"hostDegree": 3, "outsideNeighbors": 3}]}),
         variant="a", strict=False)
def test_discharge_contract(tmp_path, embedding, pattern, variant, strict):
    argv = ["discharge", write(tmp_path / "emb.json", embedding),
            "--variant", variant]
    if pattern is not None:
        argv += ["--pattern", write(tmp_path / "pat.json", pattern)]
    run(*argv, *(["--strict"] if strict else []))


def test_pattern_edges_must_be_pairs(tmp_path):
    # an edge of three ends or of one is an input error that names the
    # expected shape, from both commands that read a pattern
    graph = write(tmp_path / "g", encode_graph6(cycle_graph(3)))
    embedding = write(tmp_path / "emb.json", dump_embedding(tetrahedron()))
    for edge in ([0, 1, 2], [0], []):
        pattern = write(tmp_path / "pat.json", json.dumps({
            "vertices": [{"hostDegree": 2, "outsideNeighbors": 0}] * 3,
            "edges": [[0, 1], edge]}))
        for argv in (("find-config", graph, "--pattern", pattern, "--k", 3),
                     ("discharge", embedding, "--variant", "a",
                      "--pattern", pattern)):
            code, _, err = run(*argv)
            assert code == 3, (argv, err)
            assert "'edges' must be a list of pairs of integers" in err, err
