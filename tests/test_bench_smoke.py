"""Each benchmark workload, built from bench/ and run once through the CLI.

A change to dpcolor that drops a flag the benchmark passes, or changes an
output it checks, fails here.  The workloads are built under tmp_path; the
benchmark's own runner, which writes bench/.work and re-imports dpcolor, is
not used.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import dpcolor
import dpcolor.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_benchmark_commands_pass_their_checks(name, tmp_path):
    workload = workloads.build(name, 1, tmp_path, dpcolor)
    assert workload.commands
    for cmd in workload.commands:
        out = io.StringIO()
        with (contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(io.StringIO())):
            code = dpcolor.cli.main(cmd.argv)
        assert cmd.check(code, out.getvalue()) is None, cmd.argv
