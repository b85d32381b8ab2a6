"""Tests of the benchmark harness's own logic (not of dpcolor).

    python3 -m pytest -q bench/selftest.py

Kept out of the tier-1 suite: the file name does not match test_*.py.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import run
import tracing
import workloads


def _span(spans, id, parent, name, start, end):
    spans.append(tracing.Span(id, parent, 1, name, start, end))


def test_self_time_subtracts_nested_children():
    spans = []
    _span(spans, 0, -1, "cli", 0.0, 10.0)
    _span(spans, 1, 0, "a", 1.0, 4.0)      # child of cli
    _span(spans, 2, 1, "b", 2.0, 3.0)      # grandchild: only a loses it
    _span(spans, 3, 0, "c", 5.0, 9.0)
    _span(spans, 4, 3, "b", 5.0, 9.0)      # covers all of c
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 0.0, 4: 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = []
    _span(spans, 0, -1, "cli", 0.0, 10.0)
    _span(spans, 1, 0, "a", 1.0, 6.0)
    _span(spans, 2, 0, "a", 4.0, 8.0)
    _span(spans, 3, 0, "a", 9.0, 12.0)    # clipped to the parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_metrics_from_synthetic_spans():
    class Report:
        class state:
            log = [1, 2, 3]

    spans = []
    _span(spans, 0, -1, "cli", 0.0, 4.0)
    _span(spans, 1, 0, "graphs.cycle_spectrum", 0.5, 2.5)
    spans.append(tracing.Span(2, 0, 1, "solver.is_dp_k_colorable", 2.5, 3.5,
                              ("g", 3, True)))
    spans.append(tracing.Span(3, 0, 1, "discharging.audit", 3.5, 3.75,
                              len(Report.state.log)))
    m = tracing.layer_metrics(spans, lambda g, k: 1000)
    assert m["graphs.cycle_spectrum.calls"] == 1
    assert m["graphs.cycle_spectrum.share"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(0.75)
    assert m["solver.space_cases"] == 1000
    assert m["solver.us_per_case"] == pytest.approx(1000.0)
    assert m["solver.is_dp_k_colorable.p99_ms"] == pytest.approx(1000.0)
    assert m["discharging.transfers"] == 3
    assert m["trace.wall_s"] == pytest.approx(4.0)
    doubled = tracing.layer_metrics(spans, lambda g, k: 1000, scale=2.0)
    assert doubled["cli.self_s"] == pytest.approx(1.5)
    assert doubled["solver.us_per_case"] == pytest.approx(2000.0)
    assert doubled["graphs.cycle_spectrum.share"] == pytest.approx(0.5)


def test_tracer_wraps_every_alias_and_restores():
    dpcolor = run.import_dpcolor()
    original = dpcolor.graphs.cycle_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dpcolor.cli.cycle_spectrum is not original
        assert dpcolor.discharging.cycle_spectrum is dpcolor.cli.cycle_spectrum
        dpcolor.discharging.cycle_spectrum(dpcolor.cycle_graph(5))
    finally:
        tracer.restore()
    assert [s.name for s in tracer.spans] == ["graphs.cycle_spectrum"]
    for mod in (dpcolor, dpcolor.graphs, dpcolor.cli, dpcolor.discharging):
        assert mod.cycle_spectrum is original


def _frozen_dir(tmp_path, text="abc\n", recorded=None):
    (tmp_path / "input.txt").write_text(text)
    digest = recorded or hashlib.sha256(text.encode()).hexdigest()
    (tmp_path / "MANIFEST.json").write_text(json.dumps({"input.txt": digest}))
    return tmp_path


def test_matching_hash_loads(tmp_path):
    texts, digests = workloads.load_frozen(["input.txt"], _frozen_dir(tmp_path))
    assert texts == {"input.txt": "abc\n"}
    assert digests["input.txt"] == hashlib.sha256(b"abc\n").hexdigest()


def test_tampered_input_fails_setup(tmp_path):
    data = _frozen_dir(tmp_path)
    (data / "input.txt").write_text("abd\n")
    with pytest.raises(workloads.SetupError, match="sha256"):
        workloads.load_frozen(["input.txt"], data)


def test_unlisted_input_fails_setup(tmp_path):
    with pytest.raises(workloads.SetupError, match="manifest"):
        workloads.load_frozen(["other.txt"], _frozen_dir(tmp_path))


def test_wrong_verdict_is_counted_not_raised(tmp_path, capsys):
    dpcolor = run.import_dpcolor()
    graph = tmp_path / "c5.g6"
    graph.write_text(dpcolor.encode_graph6(dpcolor.cycle_graph(5)) + "\n")
    commands = [
        workloads.Command(["chi", str(graph)], workloads.check_output(0, "chi = 3\n")),
        # a deliberately wrong expectation: C5 has chi 3, not 2
        workloads.Command(["chi", str(graph)], workloads.check_output(0, "chi = 2\n")),
        # bad input: dpcolor exits 3 where 0 is expected
        workloads.Command(["chi", str(tmp_path / "missing.g6")],
                          workloads.check_output(0, "chi = 3\n")),
    ]
    wl = workloads.Workload(commands, tmp_path / "out", {})
    intervals, failed = run.run_pass(dpcolor.cli.main, wl)
    assert (len(intervals), failed) == (3, 2)
    assert all(end > start for start, end in intervals)
    assert capsys.readouterr().err.count("FAILED") == 2


def test_crashing_command_is_counted_not_raised(tmp_path):
    def main(argv):
        raise IndexError("boom")

    wl = workloads.Workload([workloads.Command(["x"], lambda c, o: None)],
                            tmp_path / "out", {})
    intervals, failed = run.run_pass(main, wl)
    assert (len(intervals), failed) == (1, 1)


def test_certificate_check_needs_the_recorded_text(tmp_path):
    cert = tmp_path / "cert.txt"
    check = workloads.check_certificate(cert, "0 1 : 0-1\n")
    assert check(1, "") == "no certificate file written"
    cert.write_text("0 1 : 0-0\n")
    assert check(1, "") == "certificate differs from the recorded one"
    cert.write_text("0 1 : 0-1\n")
    assert check(1, "") is None
    assert check(0, "") is not None


def test_speed_probe_scaling():
    probe = run.SpeedProbe()
    ref = run.SpeedProbe.REFERENCE_S
    # a probe before, two inside and one after the interval [1.0, 2.0]
    probe.starts = [0.5, 1.2, 1.7, 2.5]
    probe.durations = [2 * ref, 2 * ref, ref, ref]
    busy = 1.0 - 3 * ref
    speed = (0.5 + 0.5 + 1.0 + 1.0) / 4
    assert probe.scaled(1.0, 2.0) == pytest.approx(busy * speed)
    # an interval with no probe inside uses its neighbours
    assert probe.scaled(0.6, 0.7) == pytest.approx(0.1 * 0.5)


def test_verify_rows_check_spots_a_changed_status():
    expected = [("A_", "pass"), ("Bw", "filtered:cycles")]
    check = workloads.check_verify_rows(expected)
    good = "A_\tpass\nBw\tfiltered:cycles\n# checked=1 pass=1 fail=0 budget=0\n"
    assert check(0, good) is None
    assert check(0, good.replace("filtered:cycles", "pass")) is not None
    assert check(1, good) is not None


def test_run_fails_without_dpcolor_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC_DIR", tmp_path / "src")
    monkeypatch.setattr(sys, "path", [p for p in sys.path
                                      if not p.endswith("src")])
    with pytest.raises(workloads.SetupError):
        run.import_dpcolor()
