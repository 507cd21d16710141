"""Closed-loop benchmark of the znsynth command line.

    python3 bench/run.py --workload files|montecarlo|recovery|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the checkout's `src/`.
One client issues the commands of the workload (see workloads.py) through
`znsynth.cli.main(argv)` in this process, the next when the last one
returns, with `--workers` never above the core count and no other threads
or processes while a command runs.  A run does one untimed warm-up round,
then whole rounds until the commands have been busy for `--seconds`
at the reference speed;
between rounds it times fresh interpreters importing the package (setup_s).
Every output is checked; a command that exits non-zero or fails its check
counts as failed.  Each command's wall and CPU time is corrected for the
host's speed at that moment with a calibration task timed around it (see
`Calibration`); the plain busy time is printed beside the corrected one.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
wraps the package's functions (tracing.py) and reports per-layer metrics
per round, then writes its spans to `.bench_work/`.  `--workload all` runs
every workload both ways in fresh processes and prints a summary with the
tracing overhead.  The last line of output is always one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# The only threads a run may start are the program's --workers pool; numpy's
# BLAS would otherwise keep one spinning thread per core.  Set before numpy
# is imported, here and in the set-up children, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread limits above)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9
SHOWN_FAILURES = 5
# Every reported time is in seconds at the host speed at which the
# calibration task takes this long (see `Calibration`): on a 2-core Xeon
# host shared with other tenants it took 4 ms at best and 6.5 ms typically.
REFERENCE_S = 0.005


class Calibration:
    """A fixed task, not the program, timed between commands to track host speed.

    Other tenants of a shared host slow a command by up to half its time,
    in spells from under a second to minutes, in wall and CPU time alike.
    The task (stdlib json round trip, small numpy FFTs, a Python loop: the
    kinds of work the commands do) is timed before and after each command,
    and the command's times are scaled by REFERENCE_S over the geometric
    mean of the two.  A change to the program changes the command's time and
    not the task's, so it shows in full; a spell of host slowness changes
    both, and cancels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.doc = rng.standard_normal((1500, 2)).tolist()
        self.signal = rng.standard_normal(1024)

    def time(self) -> float:
        t0 = time.perf_counter()
        json.loads(json.dumps(self.doc))
        for _ in range(20):
            np.fft.fft(self.signal)
        total = 0
        for i in range(10000):
            total += i
        return time.perf_counter() - t0

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_S / math.sqrt(before * after)


class Stats:
    """Outcomes and host-speed-corrected timings of a run's commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # plain wall time of the timed commands
        self.latencies: list[float] = []
        self.cpu_s = 0.0
        self.setup_times: list[float] = []

    def reference_busy_s(self) -> float:
        return math.fsum(self.latencies)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.reference_busy_s()

    def cpu_s_per_op(self) -> float:
        """Process CPU seconds (all threads) per command."""
        return self.cpu_s / len(self.latencies)


def setup_sample(calibration: Calibration) -> float:
    """Seconds from starting a fresh interpreter to znsynth.cli imported.

    The child prints the monotonic clock, which all processes share, once the
    import is done, so the interpreter's exit is not counted.  Corrected for
    host speed like a command's time.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import znsynth.cli, time; print(repr(time.perf_counter()))"
    before = calibration.time()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True)
    elapsed = float(proc.stdout) - start
    return elapsed * Calibration.scale(before, calibration.time())


def run_round(commands, stats: Stats, timed: bool, calibration: Calibration) -> None:
    import znsynth.cli as cli

    before = calibration.time()
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(command.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1, cpu1 = time.perf_counter(), time.process_time()
        after = calibration.time()
        failure = command.check(rc, out.getvalue())
        # Each real invocation starts with an empty heap; so does the next command.
        gc.collect()
        stats.attempted += 1
        if failure:
            stats.failed += 1
            if stats.failed <= SHOWN_FAILURES:
                print(f"FAILED: znsynth {' '.join(command.argv)}\n  {failure}\n"
                      f"  {err.getvalue().strip()}", file=sys.stderr)
        if timed:
            scale = Calibration.scale(before, after)
            stats.busy_s += t1 - t0
            stats.latencies.append((t1 - t0) * scale)
            stats.cpu_s += (cpu1 - cpu0) * scale
        before = after


def run_workload(name: str, seed: int, seconds: float, tracer=None,
                 sample_setup: bool = False) -> tuple[Stats, int]:
    """Warm up, then run whole rounds until busy for `seconds`; returns (stats, rounds).

    Busy time is counted at the reference speed, so the number of rounds,
    and with it which command the tail percentile falls on, does not depend
    on how fast the host happens to be.

    With `sample_setup`, SETUP_SAMPLES set-up times are taken between rounds,
    spread over the run.
    """
    import workloads

    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    stats = Stats()
    calibration = Calibration()
    rounds = 0
    try:
        commands = workloads.WORKLOADS[name](seed, work)
        if tracer is not None:
            tracer.install()
        run_round(commands(0), stats, timed=False, calibration=calibration)
        if tracer is not None:
            tracer.reset()
        while rounds == 0 or stats.reference_busy_s() < seconds:
            rounds += 1
            run_round(commands(rounds), stats, timed=True, calibration=calibration)
            if (sample_setup and stats.reference_busy_s()
                    >= len(stats.setup_times) * seconds / SETUP_SAMPLES):
                stats.setup_times.append(setup_sample(calibration))
        while sample_setup and len(stats.setup_times) < SETUP_SAMPLES:
            stats.setup_times.append(setup_sample(calibration))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return stats, rounds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with ten beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def result_line(stats: Stats, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def single(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    import znsynth.cli  # noqa: F401  (imported before timing, like every CLI call)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    stats, rounds = run_workload(name, seed, seconds, tracer, sample_setup=not trace)
    latencies = stats.latencies
    ops = len(latencies)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {rounds}  "
          f"commands {ops}  busy {stats.reference_busy_s():.3f} s at the reference speed "
          f"({stats.busy_s:.3f} s plain)")
    if trace:
        metrics = tracing.layer_metrics(tracer, rounds, stats.ops_per_s())
        spans_path = os.path.join(WORK, f"spans-{name}-seed{seed}.csv")
        tracer.write_spans(spans_path)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}"
              "; per-layer values are per round")
    else:
        value, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(stats.setup_times), "s"),
            "ops_per_s": (stats.ops_per_s(), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (value, "s"),
            "cpu_s_per_op": (stats.cpu_s_per_op(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"  latency_tail_s is p{pct:.2f}: {beyond} of {ops} samples beyond it")
    for key, (v, unit) in metrics.items():
        print(f"  {key:44s} {v:14.6g} {unit}")
    print(f"  {'error_rate':44s} {stats.failed / stats.attempted:14.6g} ratio "
          f"({stats.failed} of {stats.attempted} commands failed)")
    print(result_line(stats, metrics))
    return 0


def child_run(name: str, seed: int, seconds: float, trace: int,
              cwd: str = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    """Run one workload in a fresh process; returns it and its result line, if any."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    return proc, result


def trace_overhead(plain: dict, traced: dict) -> float:
    """Share of ops_per_s the traced run loses against the untraced one."""
    return 1.0 - traced["trace.ops_per_s"]["value"] / plain["ops_per_s"]["value"]


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in a fresh process, and the tracing overhead."""
    import workloads

    stats = Stats()
    metrics = {}
    for name in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            proc, result = child_run(name, seed, seconds, trace)
            sys.stderr.write(proc.stderr)
            if result is None:
                print(f"{name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            print(proc.stdout.strip().rsplit("\n", 1)[0])
            results.append(result)
            stats.attempted += result["attempted"]
            stats.failed += result["failed"]
        plain, traced = (r["metrics"] for r in results)
        overhead = trace_overhead(plain, traced)
        print(f"tracing overhead on {name}: {overhead:.1%} of ops_per_s "
              f"({traced['trace.ops_per_s']['value']:.4g} traced, "
              f"{plain['ops_per_s']['value']:.4g} untraced)\n")
        for key, m in plain.items():
            metrics[f"{name}.{key}"] = (m["value"], m["unit"])
        metrics[f"{name}.trace_overhead"] = (overhead, "ratio")
    print(result_line(stats, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["files", "montecarlo", "recovery", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "znsynth", "cli.py")):
        print(f"error: no znsynth sources under {SRC}", file=sys.stderr)
        return 2
    if ns.workload == "all":
        return run_all(ns.seed, ns.seconds)
    return single(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    raise SystemExit(main())
