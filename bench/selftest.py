"""Self-test of the benchmark: tiny runs of every workload.

    python3 bench/selftest.py

Checks that
* each workload, untraced and traced, prints every metric BENCHMARK.json
  names, with its unit, and passes its output checks;
* a deliberately corrupted program output is counted as a failure, not
  passed, on every workload;
* the benchmark exits non-zero, printing no result, where the package
  sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run.child_run(workload, 7, 0, trace)
            text = proc.stdout + proc.stderr
            if result is None:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n{text}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed\n{text}")
            if "error_rate" not in text:
                problems.append(f"{workload} trace {trace}: error_rate not printed")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}: {got}")
    return problems


def corrupted(workload: str, module, attr: str, make_bad, what: str) -> str | None:
    """Run one round with module.attr replaced; the checks must catch it."""
    original = getattr(module, attr)
    setattr(module, attr, make_bad(original))
    try:
        stats, _rounds = run.run_workload(workload, seed=7, seconds=0)
    finally:
        setattr(module, attr, original)
    if stats.failed == 0:
        return f"{workload}: corrupted output ({what}) passed every check"
    return None


def check_corruption() -> list[str]:
    sys.path.insert(0, run.SRC)
    import znsynth.cli as cli
    from znsynth.fourier import Signal

    def flip_recovered(emit):
        def bad(ns, result):
            if "recovered" in result:
                result["recovered"][0] = 1.0 - result["recovered"][0]
            return emit(ns, result)
        return bad

    def nudge_inverse(inverse):
        def bad(F):
            f = inverse(F)
            return Signal(f.shape, f.values + 1e-6)
        return bad

    def fail_tail(experiment):
        def bad(*args, **kwargs):
            return dataclasses.replace(experiment(*args, **kwargs), empirical=2.0)
        return bad

    # These two break the descent only where it decides the output: on the
    # descent-only command (no alphabet), whose own checks must catch it.
    def no_descent(recover):
        def bad(problem, tol, max_iters, alphabet):
            return recover(problem, tol=tol, max_iters=max_iters if alphabet else 0,
                           alphabet=alphabet)
        return bad

    def claims_convergence(recover):
        def bad(problem, tol, max_iters, alphabet):
            result = recover(problem, tol=tol, max_iters=max_iters, alphabet=alphabet)
            return result if alphabet else dataclasses.replace(result, converged=True)
        return bad

    problems = [
        corrupted("recovery", cli, "_emit_json", flip_recovered, "flipped recovered value"),
        corrupted("recovery", cli, "recover", no_descent, "descent skipped"),
        corrupted("recovery", cli, "recover", claims_convergence,
                  "unconverged descent reported as converged"),
        corrupted("files", cli, "inverse", nudge_inverse, "inverse transform nudged"),
        corrupted("montecarlo", cli, "hayes_tail_experiment", fail_tail, "tail row fails"),
    ]
    return [p for p in problems if p]


def check_without_sources(spec: dict) -> list[str]:
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without sources: exit {proc.returncode}, printed {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name, test in (("metric names", lambda: check_metric_names(spec)),
                       ("corrupted outputs", check_corruption),
                       ("missing sources", lambda: check_without_sources(spec))):
        found = test()
        print(f"{'FAIL' if found else 'ok  '} {name}")
        for problem in found:
            print(f"     {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
