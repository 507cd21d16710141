"""Command-line workbench: reproducible experiments with JSON/CSV artifacts.

Every run is a pure function of its flags and seed.  Single computations
default to JSON documents carrying the resolved configuration; sweeps and
batch experiments default to CSV whose body is byte-identical for a fixed
(config, seed) regardless of worker count, with run metadata confined to
'#' header lines.  No plotting: artifacts are plot-ready tables.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys

import numpy as np

from . import __version__
from .constructions import (
    hayes_tail_experiment,
    lambda_constant_check,
    lambda_p_search,
    normalized_indicator_norms,
    normalized_indicator_signal,
    phi,
    random_set,
    rejection_sample_flat,
    rejection_sample_small_norm,
    subspace_pair,
)
from .errors import (
    BoundViolation,
    EnumerationBudgetExceeded,
    RecoveryError,
    SamplingBudgetExceeded,
)
from .fourier import Signal, Spectrum, forward, inverse
from .inequalities import (
    INDICATOR_DUAL,
    SUPPORT_SIZE,
    vanishing_threshold,
    verify_indicator_bound,
    verify_support_bound,
)
from .lattice import GridShape, encode
from .recovery import brute_force_recover, random_instance, recover
from .rng import run_indexed, spawn_generators
from .serialization import (
    atomic_write_text,
    encode_extended,
    format_cell,
    load_json,
    print_json,
    problem_from_doc,
    problem_to_doc,
    render_csv,
    report_to_doc,
    set_from_doc,
    set_to_doc,
    signal_from_doc,
    signal_to_doc,
    write_json,
)

SEED_ENV = "ZNSYNTH_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ASSERTION = 3

EXPLANATIONS = {
    "transform": (
        "Apply the unitary Fourier transform on Z_N^d.  forward maps a "
        "space-domain document to frequency domain via F(m) = N^(-d/2) "
        "sum_x e^(-2pi i x.m/N) f(x); inverse applies the conjugate kernel."
    ),
    "verify": (
        "Measure both sides of a sup-norm synthesis bound for a signal f "
        "with spectrum inside a set S.  'support-size' checks ||f||_inf <= "
        "sqrt(|S|/N^(2d/p)) ||f||_p; 'indicator-dual' checks ||f||_inf <= "
        "N^(-d/2) ||f||_p ||1S_hat||_p'.  Reports lhs, rhs, and their ratio."
    ),
    "construct": (
        "Build frequency sets and signals: uniform random sets; coordinate "
        "subgroups H with their annihilators (the exact-equality family for "
        "the indicator-dual bound); rejection-sampled sets with small peak "
        "coefficient phi(S) <= |S|^(1/2+eps) or with small L^p norm of the "
        "normalized exponential average; and that average itself, the "
        "signal f = (N^(d/2)/|S|) conj(1S_hat) with f(0) = 1."
    ),
    "phi-stats": (
        "Peak nontrivial coefficient phi(S) = max_{m != 0} |sum_{x in S} "
        "e^(-2pi i x.m/N)| of a set's indicator.  With --trials, estimate "
        "P(phi >= a) over random sets and compare against the tail bound "
        "2 N^d e^2 exp(-a^2/|S|) plus 3-sigma Monte-Carlo slack."
    ),
    "lambda-search": (
        "Random-restart greedy swap search for a set S with few additive "
        "representations: it minimizes (max_y r_S(y), sum_y r_S(y)^2), "
        "where r_S(y) = #{(s, t) in S^2 : s + t = y}.  The Lambda(p) "
        "constant C = max_a N^(-d/p) ||sum_{m in S} a_m e^(2pi i x.m/N)||_p "
        "/ ||a||_2 is reported as a bracket: empirical_constant, a lower "
        "estimate over random coefficient probes, and certified_constant, "
        "a theorem with m = max r_S: m^(1/2-1/p) for p <= 4 and m^(1/p) "
        "|S|^(1/2-2/p) above.  p and --trials set only the bracket, not the "
        "set.  The indicator norm check ||1S_hat||_p <= C N^(d/p) N^(-d/2) "
        "|S|^(1/2) is made with the certified C."
    ),
    "recover": (
        "Exact recovery of a value-separated real signal from its spectrum "
        "with a hidden frequency set S, which must satisfy S = -S: minimize "
        "||g||_p over real signals matching the observed coefficients, snap "
        "to the declared alphabet, and certify uniqueness via ||f||_p < "
        "delta/(2 sqrt(c_size)), a proof for p >= 2 only.  With an alphabet, "
        "the result is cross-checked against exhaustive enumeration unless "
        "--no-oracle is given."
    ),
    "sweep": (
        "Tabulate, over a range of grid sizes N with |S| = ceil(N^alpha), "
        "the sup-norm coefficient |S|^(1/2) N^(-d/p) and the measured norms "
        "of the normalized exponential average.  At p below the critical "
        "exponent 2d/alpha the coefficient decays to zero (forcing "
        "uniformly L^p-bounded families below every level); at the "
        "critical exponent it stays of order one."
    ),
}


def parse_grid(text: str) -> GridShape:
    try:
        n, _, d = text.partition("x")
        return GridShape(modulus=int(n), dim=int(d))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"grid must look like '16x2', got {text!r}") from exc


def parse_exponent(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = float(text)
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1 or 'inf', got {text!r}")
    return p


def parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


def parse_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(t) for t in text.split(","))


def parse_range(text: str) -> list[int]:
    """'8..128' -> [8, 16, 32, 64, 128] (doubling); a single value is allowed."""
    if ".." not in text:
        return [int(text)]
    lo_s, _, hi_s = text.partition("..")
    lo, hi = int(lo_s), int(hi_s)
    if lo < 2 or hi < lo:
        raise ValueError(f"range must be 'lo..hi' with 2 <= lo <= hi, got {text!r}")
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2
    return out


def _config_of(ns: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in sorted(vars(ns).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, GridShape):
            value = str(value)
        elif isinstance(value, (tuple, list)):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, float) and math.isinf(value):
            value = "inf"
        out[key] = value
    return out


def _csv_header(ns: argparse.Namespace) -> dict:
    header = {"tool": f"znsynth {__version__}", "command": ns.command}
    header.update(_config_of(ns))
    header["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return header


def _emit_json(ns: argparse.Namespace, result: dict) -> None:
    doc = {"config": {"command": ns.command, **_config_of(ns)}, "result": result}
    if getattr(ns, "out", None):
        write_json(ns.out, doc)
        print(f"wrote {ns.out}")
    else:
        print_json(doc)


def _emit_table(ns: argparse.Namespace, columns: list[str], rows: list[list]) -> None:
    fmt = getattr(ns, "format", None) or "csv"
    if fmt == "json":
        _emit_json(ns, {"columns": columns, "rows": rows})
        return
    text = render_csv(_csv_header(ns), columns, rows)
    if getattr(ns, "out", None):
        atomic_write_text(ns.out, text)
        print(f"wrote {ns.out}")
    else:
        sys.stdout.write(text)


def _load_signal(path: str) -> Signal:
    doc = signal_from_doc(load_json(path))
    if isinstance(doc, Spectrum):
        raise ValueError(f"{path} holds a frequency-domain document, need 'space'")
    return doc


# ----------------------------------------------------------------- commands


def cmd_transform(ns) -> int:
    doc = signal_from_doc(load_json(ns.input))
    if ns.direction == "forward":
        if isinstance(doc, Spectrum):
            raise ValueError("forward transform expects a space-domain document")
        out = forward(doc)
    else:
        if isinstance(doc, Signal):
            raise ValueError("inverse transform expects a frequency-domain document")
        out = inverse(doc)
    write_json(ns.output, signal_to_doc(out))
    print(f"wrote {ns.output}")
    return EXIT_OK


def cmd_verify(ns) -> int:
    f = _load_signal(ns.signal_file)
    S = set_from_doc(load_json(ns.set_file))
    if f.shape != S.shape:
        raise ValueError(f"signal grid {f.shape} differs from set grid {S.shape}")
    _check_grid(ns, f.shape)
    if ns.which == SUPPORT_SIZE:
        report = verify_support_bound(f, S, ns.p)
    else:
        report = verify_indicator_bound(f, S, ns.p)
    _emit_json(ns, report_to_doc(report))
    return EXIT_OK


def cmd_construct(ns) -> int:
    max_draws = 10_000 if ns.max_draws is None else ns.max_draws
    if ns.kind == "random":
        S = random_set(ns.grid, ns.size, ns.seed)
        write_json(ns.out, set_to_doc(S))
        print(f"wrote {ns.out} (|S| = {S.size})")
    elif ns.kind == "subspace":
        H, H_perp = subspace_pair(ns.grid, ns.axes)
        write_json(ns.out, set_to_doc(H))
        print(f"wrote {ns.out} (|H| = {H.size})")
        if ns.perp_out:
            write_json(ns.perp_out, set_to_doc(H_perp))
            print(f"wrote {ns.perp_out} (|H_perp| = {H_perp.size})")
    elif ns.kind == "flat":
        epsilon = 0.1 if ns.epsilon is None else ns.epsilon
        found = rejection_sample_flat(
            ns.grid, ns.size, epsilon=epsilon, max_draws=max_draws, seed=ns.seed
        )
        write_json(ns.out, set_to_doc(found.set))
        print(
            f"wrote {ns.out} (phi = {found.statistic:.6g} after {found.draws} draws)"
        )
    elif ns.kind == "small-norm":
        p = 2.0 if ns.p is None else ns.p
        if p == math.inf:
            raise ValueError("--kind small-norm needs a finite --p")
        target = ns.target if ns.target is not None else 2.0 ** (1.0 / p)
        found = rejection_sample_small_norm(
            ns.grid, ns.size, p, target, max_draws=max_draws, seed=ns.seed
        )
        write_json(ns.out, set_to_doc(found.set))
        print(
            f"wrote {ns.out} (L^{p} norm = {found.statistic:.6g} "
            f"after {found.draws} draws)"
        )
    elif ns.kind == "normalized-signal":
        S = set_from_doc(load_json(ns.set_file))
        _check_grid(ns, S.shape)
        write_json(ns.out, signal_to_doc(normalized_indicator_signal(S)))
        print(f"wrote {ns.out}")
    return EXIT_OK


def _check_grid(ns, shape: GridShape) -> None:
    """A --grid given beside input files must name the grid they are on."""
    if ns.grid is not None and ns.grid != shape:
        raise ValueError(f"--grid {ns.grid} does not match the files ({shape})")


def cmd_phi_stats(ns) -> int:
    mode = pick_mode(ns)
    if mode == "tail":
        report = hayes_tail_experiment(
            ns.grid, ns.size, ns.tail_a, ns.trials, ns.seed,
            workers=1 if ns.workers is None else ns.workers,
        )
        if (ns.format or "csv") == "json":
            _emit_json(
                ns,
                {
                    "empirical": report.empirical,
                    "bound": report.bound,
                    "mc_slack": report.mc_slack,
                    "trials": report.trials,
                    "threshold": encode_extended(report.threshold),
                    "passed": report.passed,
                },
            )
        else:
            _emit_table(
                ns,
                ["N", "d", "size", "p", "statistic", "bound", "pass"],
                [[
                    ns.grid.modulus, ns.grid.dim, ns.size, "",
                    report.empirical, report.bound + report.mc_slack, report.passed,
                ]],
            )
        return EXIT_OK
    if mode == "set-file":
        S = set_from_doc(load_json(ns.set_file))
        _check_grid(ns, S.shape)
    else:
        S = random_set(ns.grid, ns.size, ns.seed)
    stat = phi(S)
    _emit_json(
        ns,
        {
            "phi": stat.phi,
            "arg_max": list(stat.arg_max),
            "arg_max_index": encode(stat.arg_max, S.shape),
            "set_size": stat.set_size,
            "trivial_bound": float(stat.set_size),
        },
    )
    return EXIT_OK


def cmd_lambda_search(ns) -> int:
    candidate = lambda_p_search(
        ns.grid,
        ns.size,
        ns.p,
        budget=ns.budget,
        seed=ns.seed,
        trials=ns.trials,
        workers=ns.workers,
    )
    _emit_json(
        ns,
        {
            "members": candidate.set.members.tolist(),
            "p": candidate.p,
            "empirical_constant": candidate.empirical_constant,
            "trials": candidate.trials,
            "seed": candidate.seed,
            "certified_constant": candidate.certified_constant,
            "indicator_norm_check": lambda_constant_check(
                candidate.set, candidate.p, candidate.certified_constant
            ),
        },
    )
    return EXIT_OK


def cmd_recover(ns) -> int:
    truth = None
    if pick_mode(ns) == "problem-file":
        problem = problem_from_doc(load_json(ns.problem_file))
        _check_grid(ns, problem.shape)
    else:
        ns.alphabet = ns.alphabet or (0.0, 1.0)
        problem, truth = random_instance(ns.grid, ns.hidden_size, ns.seed, ns.alphabet)
    result = recover(
        problem, tol=ns.tol, max_iters=ns.max_iters, alphabet=ns.alphabet
    )

    exact = None
    if truth is not None:
        exact = bool(np.abs(result.signal.values - truth.values).max() < 1e-6)

    oracle_agrees = None
    if ns.oracle and ns.alphabet:
        try:
            bf = brute_force_recover(problem, ns.alphabet)
            oracle_agrees = bool(
                float(np.abs(bf.signal.values - result.signal.values).max()) < 1e-6
            )
        except (EnumerationBudgetExceeded, RecoveryError):
            oracle_agrees = None  # out of budget, or no alphabet signal to compare

    doc = {
        "p": problem.p,
        "delta": problem.delta,
        "c_size": problem.c_size,
        "hidden": problem.hidden.members.tolist(),
        "objective": result.objective,
        "certificate": {
            "threshold": result.certificate.threshold,
            "norm_at_solution": result.certificate.norm_at_solution,
            "unique": result.certificate.unique,
        },
        "iterations": result.iterations,
        "converged": result.converged,
        "snapped": result.snapped,
        "exact_match": exact,
        "oracle_agrees": oracle_agrees,
        "recovered": result.signal.values.real.tolist(),
    }
    if ns.problem_out:
        write_json(ns.problem_out, problem_to_doc(problem))
        print(f"wrote {ns.problem_out}")
    _emit_json(ns, doc)

    if ns.csv:
        _append_recovery_row(ns, problem, result, exact)

    failed = exact is False or oracle_agrees is False
    return EXIT_ASSERTION if failed else EXIT_OK


RECOVERY_CSV_COLUMNS = [
    "seed", "N", "d", "set_size", "p", "objective", "unique",
    "exact_match", "iterations",
]


def _append_recovery_row(ns, problem, result, exact) -> None:
    row = [
        ns.seed, problem.shape.modulus, problem.shape.dim, problem.hidden.size,
        problem.p, result.objective, result.certificate.unique,
        "" if exact is None else exact, result.iterations,
    ]
    line = ",".join(format_cell(c) for c in row) + "\n"
    if os.path.exists(ns.csv):
        with open(ns.csv) as fh:
            text = fh.read()
    else:
        text = render_csv(_csv_header(ns), RECOVERY_CSV_COLUMNS, [])
    atomic_write_text(ns.csv, text + line)
    print(f"appended {ns.csv}")


def cmd_sweep(ns) -> int:
    dim = ns.dim
    shapes = [GridShape(modulus=n, dim=dim) for n in ns.grid_range]
    # |S| = ceil(N^alpha) fits the N^d grid exactly when alpha <= d
    if not 0 < ns.alpha <= dim:
        raise ValueError(f"--alpha must be positive and <= --dim {dim}, got {ns.alpha}")
    p = 2.0 * dim / ns.alpha if ns.p_mode == "critical" else ns.p
    rngs = spawn_generators(ns.seed, len(shapes))

    def one(i: int) -> list:
        shape = shapes[i]
        n = shape.modulus
        size = math.ceil(n**ns.alpha)
        S = random_set(shape, size, rngs[i])
        threshold = vanishing_threshold(size, shape, p)
        sup, lpn = normalized_indicator_norms(S, p)
        bound = threshold * lpn
        return [n, dim, size, p, threshold, sup, lpn, bound, sup <= bound * (1 + 1e-9)]

    rows = run_indexed(one, len(shapes), workers=ns.workers)
    _emit_table(
        ns,
        ["N", "d", "size", "p", "threshold", "sup_norm", "lp_norm", "bound", "pass"],
        rows,
    )
    return EXIT_OK


# ------------------------------------------------------------------- parser


def _transform_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", help="input JSON document")
    sp.add_argument("--output", help="output JSON document")
    sp.add_argument("--direction", choices=["forward", "inverse"], default="forward")
    sp.set_defaults(func=cmd_transform)


def _verify_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--which", choices=[SUPPORT_SIZE, INDICATOR_DUAL])
    sp.add_argument("--grid", type=parse_grid, help="optional consistency check, 'NxD'")
    sp.add_argument("--p", type=parse_exponent, default=2.0)
    sp.add_argument("--signal-file")
    sp.add_argument("--set-file")
    sp.add_argument("--out", help="write the report JSON here (default stdout)")
    sp.set_defaults(func=cmd_verify)


def _construct_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--kind",
        choices=["random", "subspace", "flat", "small-norm", "normalized-signal"],
    )
    sp.add_argument("--grid", type=parse_grid)
    sp.add_argument("--size", type=int)
    sp.add_argument("--axes", type=parse_ints, help="0-based free axes, e.g. '0,1'")
    sp.add_argument("--epsilon", type=float, help="flat: default 0.1")
    sp.add_argument("--max-draws", type=int, help="flat, small-norm: default 10000")
    sp.add_argument("--p", type=parse_exponent, help="small-norm: default 2")
    sp.add_argument("--target", type=float, help="norm target (default 2^(1/p))")
    sp.add_argument("--set-file", help="input set for --kind normalized-signal")
    sp.add_argument("--out")
    sp.add_argument("--perp-out", help="where to write the annihilator set")
    sp.set_defaults(func=cmd_construct)


def _phi_stats_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--set-file")
    sp.add_argument("--grid", type=parse_grid)
    sp.add_argument("--size", type=int)
    sp.add_argument("--tail-a", type=float, help="tail threshold a for P(phi >= a)")
    sp.add_argument("--trials", type=int, help="Monte-Carlo trials (enables tail mode)")
    sp.add_argument("--workers", type=int, help="tail-mode threads (default 1)")
    sp.add_argument("--format", choices=["json", "csv"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_phi_stats)


def _lambda_search_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", type=parse_grid)
    sp.add_argument("--size", type=int)
    sp.add_argument("--p", type=parse_exponent)
    sp.add_argument("--budget", type=int, default=4, help="random restarts")
    sp.add_argument("--trials", type=int, default=64, help="coefficient probes")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lambda_search)


def _recover_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", type=parse_grid)
    sp.add_argument("--problem-file", help="JSON problem document to solve")
    sp.add_argument("--alphabet", type=parse_floats, help="e.g. '0,1'")
    sp.add_argument("--hidden-size", type=int)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=50_000)
    sp.add_argument("--no-oracle", dest="oracle", action="store_false")
    sp.add_argument("--csv", help="append a result row to this CSV")
    sp.add_argument("--out", help="write the report JSON here (default stdout)")
    sp.add_argument("--problem-out", help="also write the problem document here")
    sp.set_defaults(func=cmd_recover)


def _sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--p-mode", choices=["critical", "fixed"], default="critical")
    sp.add_argument("--p", type=parse_exponent)
    sp.add_argument("--grid-range", type=parse_range, help="'8..128' doubles N")
    sp.add_argument("--dim", type=int, default=1)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)


# Each subcommand, in help order, with the function that adds its own flags.
SUBCOMMANDS = {
    "transform": _transform_flags,
    "verify": _verify_flags,
    "construct": _construct_flags,
    "phi-stats": _phi_stats_flags,
    "lambda-search": _lambda_search_flags,
    "recover": _recover_flags,
    "sweep": _sweep_flags,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The znsynth parser; given `command`, only that subcommand has its flags.

    Every subcommand is registered with its help line either way, so
    `znsynth --help` and the unknown-command error do not depend on
    `command`.  A command line parses one subcommand's flags only, so
    `main` builds just those; with `command` None every subcommand gets
    its flags.
    """
    parser = argparse.ArgumentParser(
        prog="znsynth",
        description=(
            "Workbench for sup-norm synthesis bounds, extremal frequency "
            "sets, and exact signal recovery on Z_N^d."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add_flags in SUBCOMMANDS.items():
        text = EXPLANATIONS[name]
        sp = sub.add_parser(name, help=text[:60] + "...", description=text)
        if command not in (None, name):
            continue
        sp.add_argument(
            "--seed",
            type=int,
            # a string default is converted, and a bad one reported as a
            # usage error, only when --seed is absent
            default=os.environ.get(SEED_ENV, "0"),
            help=f"RNG seed (default from ${SEED_ENV}, else 0)",
        )
        add_flags(sp)
    return parser


# Per (subcommand, mode): the flags the mode needs, then the other flags it
# reads; mode "" is what all its modes share.  Flags are named by dest, so
# --no-oracle is --oracle here.  A flag only some modes read has no default,
# which would always look given; argparse's required=True cannot vary by mode.
MODES = {
    ("transform", ""): ("--input --output", "--direction"),
    ("verify", ""): ("--which --signal-file --set-file", "--grid --out --p"),
    ("construct", ""): ("--kind --out", ""),
    ("construct", "random"): ("--grid --size", ""),
    ("construct", "subspace"): ("--grid --axes", "--perp-out"),
    ("construct", "flat"): ("--grid --size", "--epsilon --max-draws"),
    ("construct", "small-norm"): ("--grid --size", "--target --p --max-draws"),
    ("construct", "normalized-signal"): ("--set-file", "--grid"),
    ("phi-stats", ""): ("", "--out"),
    ("phi-stats", "set-file"): ("--set-file", "--grid"),
    ("phi-stats", "random"): ("--grid --size", ""),
    ("phi-stats", "tail"): ("--grid --size --tail-a --trials", "--format --workers"),
    ("lambda-search", ""): ("--grid --size --p", "--out --budget --trials --workers"),
    ("recover", ""): ("", "--alphabet --csv --out --problem-out --oracle --tol --max-iters"),
    ("recover", "problem-file"): ("--problem-file", "--grid"),
    ("recover", "generated"): ("--grid --hidden-size", ""),
    ("sweep", ""): ("--alpha --grid-range", "--format --out --p-mode --dim --workers"),
    ("sweep", "critical"): ("", ""),
    ("sweep", "fixed"): ("--p", ""),
}


def pick_mode(ns: argparse.Namespace) -> str | None:
    """The mode ns's flags select, or None when only the shared "" mode applies."""
    if ns.command == "phi-stats":
        if ns.set_file is not None:
            return "set-file"
        return "tail" if ns.trials is not None else "random"
    if ns.command == "recover":
        return "problem-file" if ns.problem_file is not None else "generated"
    if ns.command == "construct":
        return ns.kind
    return ns.p_mode if ns.command == "sweep" else None


def check_flags(ns: argparse.Namespace) -> None:
    """Raise ValueError for missing flags, or for flags only another mode reads."""
    modes = {m: spec for (c, m), spec in MODES.items() if c == ns.command}
    own = [modes[""], modes.get(pick_mode(ns), ("", ""))]

    def given(flag: str) -> bool:
        return getattr(ns, flag[2:].replace("-", "_")) is not None

    missing = [f for need, _ in own for f in need.split() if not given(f)]
    if missing:
        raise ValueError("missing required flag(s): " + ", ".join(missing))
    mine = {f for spec in own for f in " ".join(spec).split()}
    others = {f for spec in modes.values() for f in " ".join(spec).split()} - mine
    stray = sorted(f for f in others if given(f))
    if stray:
        raise ValueError("flag(s) not used in this mode: " + ", ".join(stray))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    ns = build_parser(command).parse_args(argv)
    try:
        check_flags(ns)
        # numpy takes no negative seed, and orjson no integer of 2^64 or more
        if not 0 <= ns.seed < 2**64:
            raise ValueError(f"--seed (or ${SEED_ENV}) must be in [0, 2^64), got {ns.seed}")
        return ns.func(ns)
    except (BoundViolation, SamplingBudgetExceeded) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ValueError, KeyError, OSError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
