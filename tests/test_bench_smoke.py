"""Each benchmark workload, built from bench/ and run through the CLI once
plainly and once under the benchmark's tracer (--trace 1).

A change to dpcolor that drops a flag the benchmark passes, changes an
output it checks, or renames a layer function the tracer wraps, fails
here.  The workloads are built under tmp_path; the benchmark's own runner,
which writes bench/.work and re-imports dpcolor, is not used.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import dpcolor
import dpcolor.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name, file):
    spec = importlib.util.spec_from_file_location(name, BENCH / file)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("bench_workloads", "workloads.py")
tracing = load("bench_tracing", "tracing.py")

#: Spans a traced pass records, by workload, for the layers named.
SPANS = {
    "hard-dp": {"solver.is_dp_k_colorable": 5},
    "hard-list": {"solver.chi_list": 129},
}


def run_commands(workload, tracer=None):
    for cmd in workload.commands:
        out = io.StringIO()
        with (contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(io.StringIO())):
            if tracer is None:
                code = dpcolor.cli.main(cmd.argv)
            else:
                span = tracer.begin(tracing.ROOT)
                try:
                    code = dpcolor.cli.main(cmd.argv)
                finally:
                    tracer.end(span)
        assert cmd.check(code, out.getvalue()) is None, cmd.argv


def dpcolor_names():
    """Every name bound in a loaded dpcolor module, with its value."""
    return {(module, key): value for module, mod in sys.modules.items()
            if module == "dpcolor" or module.startswith("dpcolor.")
            for key, value in vars(mod).items()}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_benchmark_commands_pass_their_checks(name, tmp_path):
    workload = workloads.build(name, 1, tmp_path, dpcolor)
    assert workload.commands
    run_commands(workload)
    for _, module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            module, attr)
    before = dpcolor_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_commands(workload, tracer)
    finally:
        tracer.restore()
    after = dpcolor_names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    roots = [s for s in tracer.spans if s.name == tracing.ROOT]
    assert len(roots) == len(workload.commands)
    for layer, calls in SPANS.get(name, {}).items():
        assert sum(s.name == layer for s in tracer.spans) == calls, layer
