"""The benchmark's workloads: the commands of each round and their output checks.

A round is one pass over a workload's fixed command list.  Round r takes
its seeds and input documents from slot r % slots; every slot is made from
the workload seed before timing starts.  Reusing slots lets the
montecarlo checks compare CSV bodies across repeats of one command; its
other commands draw a fresh seed from the workload seed every round.

Every check reads the program's output with plain ``json`` and recomputes
what it can with its own numpy, so a wrong result counts as a failure even
when the command exits 0.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

Check = Callable[[object, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check


def slot_seed(*keys: int) -> int:
    """A command seed derived from the workload seed and slot keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def checked(fn: Callable[[str], "str | None"]) -> Check:
    """Turn fn(stdout) -> failure message into a check that also needs exit 0."""

    def check(rc, out: str):
        if rc != 0:
            return f"exit code {rc}"
        try:
            return fn(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    return check


def json_of(out: str) -> dict:
    """The JSON document a command printed, after any 'wrote ...' lines."""
    return json.loads(out[out.index("{"):])


def csv_body(out: str) -> str:
    return "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("#")
    )


def expect(ok: bool, message: str) -> str | None:
    return None if ok else message


def max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0))


def fresh_dir(path: str) -> str:
    """Empty the directory a round writes to, so no check reads a stale file."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------------ files

FILE_GRIDS = ((4096, 1), (64, 2), (16, 3))
FILE_SET_SIZE = 64
TRANSFORM_GRIDS = ((128, 2), (256, 2))
FILE_SLOTS = 2


def files(seed: int, work: str) -> Callable[[int], list[Command]]:
    signals = {}
    for slot in range(FILE_SLOTS):
        rng = np.random.default_rng(slot_seed(seed, slot))
        for n, d in TRANSFORM_GRIDS:
            values = rng.standard_normal(n**d) + 1j * rng.standard_normal(n**d)
            path = os.path.join(work, f"signal-{slot}-{n}x{d}.json")
            inputs.write(path, inputs.signal_doc(n, d, "space", values))
            signals[slot, n, d] = (path, values, inputs.unitary_fft(values, n, d))

    def commands(r: int) -> list[Command]:
        slot = r % FILE_SLOTS
        s = str(slot_seed(seed, slot))
        written = fresh_dir(os.path.join(work, "out"))
        out = []
        for n, d in FILE_GRIDS:
            grid = f"{n}x{d}"
            set_path = os.path.join(written, f"set-{grid}.json")
            sig_path = os.path.join(written, f"normalized-{grid}.json")
            files_args = ("--signal-file", sig_path, "--set-file", set_path, "--seed", s)
            out += [
                Command(
                    ("construct", "--kind", "random", "--grid", grid,
                     "--size", str(FILE_SET_SIZE), "--seed", s, "--out", set_path),
                    check_set(set_path, n, d, FILE_SET_SIZE),
                ),
                Command(
                    ("construct", "--kind", "normalized-signal", "--grid", grid,
                     "--set-file", set_path, "--seed", s, "--out", sig_path),
                    check_normalized(set_path, sig_path, n, d),
                ),
                Command(("verify", "--which", "support-size", "--p", "2") + files_args,
                        check_slack),
                Command(("verify", "--which", "indicator-dual", "--p", "4") + files_args,
                        check_slack),
                Command(("phi-stats", "--set-file", set_path, "--seed", s),
                        check_phi(set_path, n, d)),
            ]
        for n, d in TRANSFORM_GRIDS:
            path, values, spectrum = signals[slot, n, d]
            freq = os.path.join(written, f"freq-{n}x{d}.json")
            back = os.path.join(written, f"back-{n}x{d}.json")
            out += [
                Command(
                    ("transform", "--input", path, "--output", freq,
                     "--direction", "forward", "--seed", s),
                    check_document(freq, "freq", spectrum),
                ),
                Command(
                    ("transform", "--input", freq, "--output", back,
                     "--direction", "inverse", "--seed", s),
                    check_document(back, "space", values),
                ),
            ]
        return out

    return commands


def set_members(path: str) -> list[int]:
    return [int(m) for m in inputs.read(path)["members"]]


def check_set(path: str, n: int, d: int, size: int) -> Check:
    def check(out):
        doc = inputs.read(path)
        members = doc["members"]
        return expect(
            (doc["modulus"], doc["dim"]) == (n, d)
            and len(members) == size
            and members == sorted(set(members))
            and 0 <= members[0] and members[-1] < n**d,
            f"bad set document {members[:8]}...",
        )

    return checked(check)


def check_normalized(set_path: str, sig_path: str, n: int, d: int) -> Check:
    def check(out):
        members = set_members(set_path)
        want = np.conj(inputs.indicator_sums(members, n, d)) / len(members)
        got = inputs.values_of(inputs.read(sig_path))
        err = max_diff(got, want)
        return expect(err <= 1e-9, f"normalized signal off by {err:.3g}")

    return checked(check)


@checked
def check_slack(out):
    slack = json_of(out)["result"]["slack_ratio"]
    slack = float("inf") if slack == "inf" else float(slack)
    return expect(slack >= 1.0, f"slack_ratio {slack} < 1")


def check_phi(set_path: str, n: int, d: int) -> Check:
    def check(out):
        members = set_members(set_path)
        sums = np.abs(inputs.indicator_sums(members, n, d))
        sums[0] = -1.0
        got = float(json_of(out)["result"]["phi"])
        return expect(abs(got - sums.max()) <= 1e-9 * len(members),
                      f"phi {got} != {sums.max()}")

    return checked(check)


def check_document(path: str, domain: str, want: np.ndarray) -> Check:
    def check(out):
        doc = inputs.read(path)
        err = max_diff(inputs.values_of(doc), want)
        return expect(doc["domain"] == domain and err <= 1e-9,
                      f"{domain} document off by {err:.3g}")

    return checked(check)


# ------------------------------------------------------------- montecarlo

TAIL_GRIDS = ("64x1", "32x2")
MONTECARLO_SLOTS = 4
FLAT_SIZE, FLAT_EPSILON = 16, 0.15
SMALL_NORM_SIZE, SMALL_NORM_P = 8, 5.0


def worker_counts() -> tuple[int, ...]:
    """--workers 1 and 2, never above the machine's core count."""
    return tuple(sorted({1, min(2, os.cpu_count() or 1)}))


def montecarlo(seed: int, work: str) -> Callable[[int], list[Command]]:
    first_seen: dict[tuple, str] = {}

    def same_as_before(key: tuple, text: str) -> str | None:
        first = first_seen.setdefault(key, text)
        return expect(text == first, f"output of {' '.join(key)} differs across "
                      "worker counts or repeats")

    def check_table(key: tuple) -> Check:
        def check(out):
            body = csv_body(out)
            lines = body.splitlines()
            col = lines[0].split(",").index("pass")
            rows = [line.split(",") for line in lines[1:]]
            failing = [row for row in rows if row[col] != "true"]
            return expect(rows and not failing, f"rows failed: {failing[:2]}") or (
                same_as_before(key, body)
            )

        return checked(check)

    def check_lambda(key: tuple) -> Check:
        def check(out):
            result = json_of(out)["result"]
            return expect(
                result["indicator_norm_check"] is True and len(result["members"]) == 8,
                f"lambda-search result {result}",
            ) or same_as_before(key, json.dumps(result, sort_keys=True))

        return checked(check)

    def commands(r: int) -> list[Command]:
        # The CSV commands reuse slot seeds, so their bodies are compared
        # across repeats; the rest, whose cost depends on the seed, get a
        # fresh seed every round so that a run averages over many.
        s = str(slot_seed(seed, r % MONTECARLO_SLOTS))
        fresh = str(slot_seed(seed, MONTECARLO_SLOTS + r))
        written = fresh_dir(os.path.join(work, "out"))
        small_norm = os.path.join(written, "small-norm.json")
        flat = os.path.join(written, "flat.json")
        base = [
            (("phi-stats", "--grid", grid, "--size", "16", "--trials", "2000",
              "--tail-a", "8", "--seed", s), check_table)
            for grid in TAIL_GRIDS
        ]
        base += [
            (("lambda-search", "--grid", "64x1", "--size", "8", "--p", "4",
              "--budget", "4", "--seed", fresh), check_lambda),
            (("sweep", "--alpha", "0.5", "--grid-range", "8..1048576", "--seed", s),
             check_table),
        ]
        out = [
            Command(argv + ("--workers", str(w)), make_check(argv))
            for argv, make_check in base
            for w in worker_counts()
        ]
        out += [
            Command(
                ("construct", "--kind", "small-norm", "--grid", "64x1",
                 "--size", str(SMALL_NORM_SIZE), "--p", str(SMALL_NORM_P),
                 "--seed", fresh, "--out", small_norm),
                check_small_norm(small_norm),
            ),
            Command(
                ("construct", "--kind", "flat", "--grid", "64x1", "--size",
                 str(FLAT_SIZE), "--epsilon", str(FLAT_EPSILON), "--seed", fresh,
                 "--out", flat),
                check_flat(flat),
            ),
        ]
        return out

    return commands


def check_small_norm(path: str) -> Check:
    def check(out):
        members = set_members(path)
        f = np.conj(inputs.indicator_sums(members, 64, 1)) / len(members)
        norm = float(np.sum(np.abs(f) ** SMALL_NORM_P) ** (1.0 / SMALL_NORM_P))
        target = 2.0 ** (1.0 / SMALL_NORM_P)
        return expect(len(members) == SMALL_NORM_SIZE and norm <= target * (1 + 1e-9),
                      f"L^{SMALL_NORM_P} norm {norm} > {target}")

    return checked(check)


def check_flat(path: str) -> Check:
    def check(out):
        members = set_members(path)
        sums = np.abs(inputs.indicator_sums(members, 64, 1))
        peak = float(sums[1:].max())
        limit = FLAT_SIZE ** (0.5 + FLAT_EPSILON)
        return expect(len(members) == FLAT_SIZE and peak <= limit * (1 + 1e-9),
                      f"phi {peak} > {limit}")

    return checked(check)


# --------------------------------------------------------------- recovery

RECOVERY_GRIDS = (8, 16)
HIDDEN_SIZES = (2, 3, 4)
RECOVERY_SLOTS = 40
# In 1,680 sampled instances, 99% of the descents that converge did so within
# 570 steps (the longest took 1,812); the others run to any cap.  The default
# cap of 50,000 steps makes such a descent take about 2.5 s, and a 30 s run
# would then hold too few instances for its figures to be steady across
# seeds: they swing with the share of instances whose descent converges.
MAX_ITERS = 1000
# The descent stops when the gradient norm is at most TOL * max(1, sum |g|^p).
TOL = 1e-8


@dataclass(frozen=True)
class Instance:
    seed: str
    modulus: int
    hidden_size: int
    hidden: np.ndarray
    observed: np.ndarray
    truth: np.ndarray
    doc: dict
    path: str


def recovery(seed: int, work: str) -> Callable[[int], list[Command]]:
    # The problems are drawn with the generator `recover --grid` uses, so the
    # alphabet command and the descent-only command solve the same problem.
    from znsynth.lattice import GridShape
    from znsynth.recovery import random_instance

    slots = []
    for slot in range(RECOVERY_SLOTS):
        batch = []
        for n in RECOVERY_GRIDS:
            for h in HIDDEN_SIZES:
                s = slot_seed(seed, slot, n, h)
                problem, truth = random_instance(GridShape(n, 1), h, s, alphabet=(0.0, 1.0))
                hidden = np.asarray(problem.hidden.members)
                doc = inputs.problem_doc(
                    n, 1, problem.p, problem.delta, problem.c_size, hidden,
                    problem.observed.values,
                )
                path = os.path.join(work, f"problem-{slot}-{n}-{h}.json")
                inputs.write(path, doc)
                batch.append(Instance(str(s), n, h, hidden, problem.observed.values.copy(),
                                      truth.values.real.copy(), doc, path))
        slots.append(batch)

    def commands(r: int) -> list[Command]:
        problem_out = os.path.join(fresh_dir(os.path.join(work, "out")), "problem-out.json")
        out = []
        for inst in slots[r % RECOVERY_SLOTS]:
            out += [
                Command(
                    ("recover", "--grid", f"{inst.modulus}x1", "--hidden-size",
                     str(inst.hidden_size), "--alphabet", "0,1", "--max-iters",
                     str(MAX_ITERS), "--tol", str(TOL), "--seed", inst.seed,
                     "--problem-out", problem_out),
                    check_alphabet_recovery(inst, problem_out),
                ),
                Command(
                    ("recover", "--problem-file", inst.path, "--max-iters", str(MAX_ITERS),
                     "--tol", str(TOL), "--seed", inst.seed),
                    check_descent_recovery(inst),
                ),
            ]
        return out

    return commands


def check_alphabet_recovery(inst: Instance, problem_out: str) -> Check:
    def check(out):
        result = json_of(out)["result"]
        written = inputs.read(problem_out)
        pairs = [pair for pair in written["observed"] if pair is not None]
        want = [pair for pair in inst.doc["observed"] if pair is not None]
        same_problem = (
            written["hidden"] == inst.doc["hidden"]
            and written["p"] == inst.doc["p"]
            and len(pairs) == len(want)
            and max_diff(pairs, want) <= 1e-12
        )
        return expect(
            result["exact_match"] is True
            and result["oracle_agrees"] is True
            and max_diff(result["recovered"], inst.truth) <= 1e-6,
            "recovered signal is not the transmitted one",
        ) or expect(same_problem, "--problem-out differs from the generated problem") or (
            check_iterations(result)
        )

    return checked(check)


def check_iterations(result: dict) -> str | None:
    """A descent stops at the cap unless it converged first."""
    iterations, converged = result["iterations"], result["converged"]
    return expect(
        0 < iterations <= MAX_ITERS and (converged or iterations == MAX_ITERS),
        f"{iterations} iterations (cap {MAX_ITERS}), converged {converged}",
    )


def check_descent_recovery(inst: Instance) -> Check:
    """The descent's own output, recomputed: feasibility alone holds by construction."""
    p = float(inst.doc["p"])
    seen = np.ones(inst.modulus, dtype=bool)
    seen[inst.hidden] = False
    start = np.fft.ifft(np.where(seen, inst.observed, 0), norm="ortho").real

    def check(out):
        result = json_of(out)["result"]
        g = np.asarray(result["recovered"], dtype=float)
        err = max_diff(inputs.unitary_fft(g, inst.modulus, 1)[seen], inst.observed[seen])
        norm = float(np.sum(np.abs(g) ** p) ** (1.0 / p))
        objective = float(result["objective"])
        # The gradient of sum |g|^p projected onto the signals whose spectra
        # live on the hidden set; the descent's stopping rule bounds it.
        spectrum = np.fft.fft(p * np.sign(g) * np.abs(g) ** (p - 1.0), norm="ortho")
        projected = float(np.linalg.norm(spectrum[~seen]))
        limit = 2 * TOL * max(1.0, norm**p)
        start_norm = float(np.sum(np.abs(start) ** p) ** (1.0 / p))
        return (
            expect(err <= 1e-7, f"recovered spectrum off by {err:.3g} off the hidden set")
            or expect(abs(objective - norm) <= 1e-9 * norm,
                      f"objective {objective} != ||recovered||_p = {norm}")
            or check_iterations(result)
            or expect(not result["converged"] or projected <= limit,
                      f"converged, but projected gradient {projected:.3g} > {limit:.3g}")
            or expect(norm <= start_norm * (1 + 1e-9),
                      f"descent went uphill: norm {norm} from {start_norm}")
        )

    return checked(check)


WORKLOADS = {"files": files, "montecarlo": montecarlo, "recovery": recovery}
