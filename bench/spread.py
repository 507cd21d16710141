"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--traced] [--out bench/baseline.json]

Runs bench/run.py once per (workload, seed) for every workload of
BENCHMARK.json, for its run_seconds, one run at a time, and prints for
every end-to-end metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, which must stay
below the metric's bound in BENCHMARK.json.  --traced adds one traced run
per workload and the tracing overhead: the traced run's ops_per_s against
the untraced run's on the same seed.  --out writes the figures with the
machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Metrics of one run.py run; raises RuntimeError if it failed."""
    proc, result = run.child_run(name, seed, seconds, trace)
    if result is None or not result["correct"]:
        raise RuntimeError(f"{name} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return result["metrics"]


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run per workload, on the first seed")
    parser.add_argument("--out")
    ns = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"machine": machine(), "seconds": seconds, "seeds": ns.seeds, "workloads": {}}
    worst = (0.0, "")
    for name in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(name, ns.seeds[0], seconds, 0)]
        # The traced run follows its untraced twin at once, so a drift of the
        # host's speed between the two does not pass for tracing overhead.
        traced = bench_run(name, ns.seeds[0], seconds, 1) if ns.traced else None
        runs += [bench_run(name, seed, seconds, 0) for seed in ns.seeds[1:]]
        print(f"== {name} ({len(runs)} seeds, {seconds} s each)")
        summary = {}
        for metric, bound in bounds.items():
            values = [r[metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, (spread / bound, f"{name} {metric}"))
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "unit": runs[0][metric]["unit"]}
            print(f"  {metric:16s} median {median:12.6g} {runs[0][metric]['unit']:5s} "
                  f"spread {spread:7.2%} (bound {bound:.0%})  "
                  + " ".join(f"{v:.4g}" for v in values))
        report["workloads"][name] = {"end_to_end": summary}
        if traced is not None:
            overhead = run.trace_overhead(runs[0], traced)
            print(f"  tracing overhead {overhead:.1%} of ops_per_s on seed {ns.seeds[0]}")
            report["workloads"][name]["tracing_overhead"] = overhead
            report["workloads"][name]["per_layer"] = {k: m["value"] for k, m in traced.items()}
    print(f"largest spread as a share of its bound: {worst[0]:.2f} ({worst[1]})")
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
