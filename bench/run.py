"""dpcolor benchmark: time to verdict on fixed CLI workloads.

    python3 bench/run.py --workload census-filter --seed 1 --seconds 10 --trace 0

Run from the repository root.  The harness imports dpcolor from ./src and
drives dpcolor.cli.main(argv) in-process: one client, a closed loop, one
command at a time, --jobs 1, no threads.  After set-up it repeats passes
over the workload's commands until --seconds have elapsed (at least one
pass), checking every verdict.

--trace 0 prints the end-to-end metrics: wall_s (median pass), setup_s
(median of SETUP_REPEATS set-ups) and peak_rss_mb; both times are scaled
to a reference machine speed by SpeedProbe.  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see bench/README.md).  The last stdout line is the result JSON; the
line before it records the environment.  Exit status 0 means the run
completed, even if some verdicts were wrong: those count in "failed".
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"
WORK_DIR = BENCH_DIR / ".work"

SETUP_REPEATS = 5


#: The probe's fixed input: a 3-regular graph on 10 vertices (the
#: pentagonal prism) and a permutation per dart.
_PROBE_ADJ = ((1, 4, 5), (0, 2, 6), (1, 3, 7), (2, 4, 8), (3, 0, 9),
              (0, 7, 8), (1, 8, 9), (2, 9, 5), (3, 5, 6), (4, 6, 7))
_PROBE_PERM = {(u, v): (1, 2, 0) for u in range(10) for v in _PROBE_ADJ[u]}


def probe_work() -> int:
    """A fixed slice of typical interpreter work: calls through a key
    function, tuple-keyed dict lookups, bit operations, list indexing."""
    domain = [7] * 10
    hits = 0
    for r in range(3):
        for v in range(10):
            min(range(10), key=lambda x: (domain[x].bit_count(), x))
            for u in _PROBE_ADJ[v]:
                if (domain[u] >> _PROBE_PERM[(v, u)][r % 3]) & 1:
                    hits += 1
    return hits


class SpeedProbe:
    """Samples how fast this machine runs Python right now.

    On a shared host the speed of the same code drifts by up to half over
    seconds, as other tenants come and go, and a whole run's timings move
    together.  While the probe is active, a CPU-time timer runs
    probe_work() every INTERVAL_S and records how long it took.
    scaled(t0, t1) converts a wall interval to seconds at the reference
    speed: the interval minus the probes that ran inside it, times the
    mean relative speed (REFERENCE_S over probe time) of the probes in and
    next to it.
    """

    INTERVAL_S = 0.01
    #: A fixed scale, close to probe_work()'s median time under CPython 3.11
    #: on the 2-vCPU x86-64 machine the benchmark was built on, so that
    #: scaled and unscaled times are of the same size there.
    REFERENCE_S = 1e-4

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        return busy * statistics.fmean(self.REFERENCE_S / d for d in around)


def import_dpcolor():
    """Import dpcolor afresh from ./src (so set-up time includes the import)."""
    for name in [m for m in sys.modules
                 if m == "dpcolor" or m.startswith("dpcolor.")]:
        del sys.modules[name]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    try:
        dpcolor = importlib.import_module("dpcolor")
        importlib.import_module("dpcolor.cli")
    except ImportError as exc:
        raise workloads.SetupError(f"cannot import dpcolor from {SRC_DIR}: "
                                   f"{exc}") from exc
    if Path(dpcolor.__file__).resolve().parent.parent != SRC_DIR:
        raise workloads.SetupError(
            f"dpcolor was imported from {dpcolor.__file__}, not {SRC_DIR}")
    return dpcolor


def setup(name: str, seed: int):
    """Import, load and hash-check the frozen inputs, write this seed's inputs."""
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    dpcolor = import_dpcolor()
    return workloads.build(name, seed, work, dpcolor), dpcolor


def run_command(main, cmd: workloads.Command, tracer=None):
    """Run one command; return (start, end, mismatch or None).

    A crash or a wrong verdict is reported as a mismatch, never raised, so
    one bad command cannot abort the run.
    """
    out, err = io.StringIO(), io.StringIO()
    span = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                span = tracer.begin(tracing.ROOT)
            try:
                code = main(cmd.argv)
            finally:
                if span is not None:
                    tracer.end(span)
    except Exception:  # a crashing command is a failed operation
        end = time.perf_counter()
        return start, end, ("raised " +
                            traceback.format_exc().strip().splitlines()[-1])
    end = time.perf_counter()
    try:
        problem = cmd.check(code, out.getvalue())
    except Exception as exc:  # a malformed output is a failed operation too
        problem = f"check raised {exc!r}"
    return start, end, problem


def run_pass(main, workload: workloads.Workload, tracer=None):
    """One pass over the commands.

    Returns (the (start, end) interval of each command, failures).
    """
    shutil.rmtree(workload.out_dir, ignore_errors=True)
    workload.out_dir.mkdir(parents=True)
    intervals = []
    failed = 0
    for cmd in workload.commands:
        start, end, problem = run_command(main, cmd, tracer)
        intervals.append((start, end))
        if problem is not None:
            failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {problem}", file=sys.stderr)
    return intervals, failed


def environment(args, workload, budget_was_set: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "DPCOLOR_BUDGET": None,
        "DPCOLOR_BUDGET_was_set": budget_was_set,
        "commands_per_pass": len(workload.commands),
        "input_sha256": workload.input_hashes,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure(args) -> tuple[dict, dict]:
    """Set up, run passes for args.seconds, return (result, environment)."""
    budget_was_set = os.environ.pop("DPCOLOR_BUDGET", None) is not None
    setups = []
    untraced: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    per_pass: list[tuple[list, list]] = []
    attempted = failed = 0
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload, dpcolor = setup(args.workload, args.seed)
            setups.append((start, time.perf_counter()))
        main = sys.modules["dpcolor.cli"].main
        deadline = time.perf_counter() + args.seconds
        while True:
            intervals, bad = run_pass(main, workload)
            untraced.append(intervals)
            attempted, failed = attempted + len(intervals), failed + bad
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    intervals, bad = run_pass(main, workload, tracer)
                finally:
                    tracer.restore()
                traced.append(intervals)
                attempted, failed = attempted + len(intervals), failed + bad
                per_pass.append((tracer.spans, intervals))
            if time.perf_counter() >= deadline:
                break
    shutil.rmtree(WORK_DIR / args.workload, ignore_errors=True)

    def median_pass(passes, scale=True):
        return statistics.median(
            sum(probe.scaled(a, b) if scale else b - a for a, b in p)
            for p in passes)

    if args.trace:
        count = dpcolor.solver.normalized_assignment_count
        values = tracing.median_metrics([
            tracing.layer_metrics(spans, count, sum(
                probe.scaled(a, b) for a, b in intervals)
                / sum(b - a for a, b in intervals))
            for spans, intervals in per_pass])
        values["trace.untraced_wall_s"] = median_pass(untraced)
        values["trace.overhead_ratio"] = (median_pass(traced)
                                          / median_pass(untraced))
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": median_pass(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(
                probe.scaled(a, b) for a, b in setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(args, workload, budget_was_set)
    env["passes"] = len(untraced) + len(traced)
    env["unscaled_wall_s"] = median_pass(untraced, scale=False)
    env["probe_median_s"] = statistics.median(probe.durations)
    env["probe_reference_s"] = SpeedProbe.REFERENCE_S
    return result, env


def summary(result: dict) -> str:
    """Human-readable line: every metric with its unit, and the error rate."""
    parts = [f"{k}={m['value']:.6g} {m['unit']}"
             for k, m in result["metrics"].items()]
    rate = result["failed"] / result["attempted"]
    parts.append(f"error_rate={rate:.6g} ratio "
                 f"({result['failed']}/{result['attempted']} commands)")
    return "# " + "  ".join(parts)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, env = measure(args)
    except workloads.SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env}, sort_keys=True))
    print(summary(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
