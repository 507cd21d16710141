"""File formats: JSON documents for values, CSV tables for experiments.

Signals and spectra share one document shape::

    {"modulus": N, "dim": d, "domain": "space" | "freq",
     "values": [[re, im], ...]}            # linear-index order

Frequency sets::

    {"modulus": N, "dim": d, "members": [linear indices]}

Recovery problems::

    {"grid": {"N": N, "d": d}, "p": p, "delta": delta, "c_size": c,
     "hidden": [indices], "observed": [[re, im] or null on hidden]}

Inequality reports serialize as
{"which", "p", "lhs", "rhs", "slack_ratio", "grid": {"N", "d"}, "set_size"}.

Values are read back with full double precision; bit-exact round-trips of
the decimal text are not promised.  Infinite numbers (p = inf, infinite
slack ratios) are written as the string "inf".  CSV files open with
"# key=value" header lines carrying the resolved configuration; the body
below the header is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .fourier import FreqSet, Signal, Spectrum
from .inequalities import InequalityReport
from .lattice import GridShape
from .recovery import RecoveryProblem


def _encode_extended(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_extended(x) -> float:
    if isinstance(x, str):
        return {"inf": math.inf, "-inf": -math.inf}[x]
    return float(x)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _values_to_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def _pairs_to_values(pairs) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except TypeError as exc:
        raise ValueError(f"malformed values entry: {exc}") from exc


def signal_to_doc(f: Signal | Spectrum) -> dict:
    return {
        "modulus": f.shape.modulus,
        "dim": f.shape.dim,
        "domain": "freq" if isinstance(f, Spectrum) else "space",
        "values": _values_to_pairs(f.values),
    }


def signal_from_doc(doc: dict) -> Signal | Spectrum:
    shape = GridShape(modulus=int(doc["modulus"]), dim=int(doc["dim"]))
    values = _pairs_to_values(doc["values"])
    domain = doc.get("domain", "space")
    if domain == "freq":
        return Spectrum(shape, values)
    if domain == "space":
        return Signal(shape, values)
    raise ValueError(f"unknown domain {domain!r}; expected 'space' or 'freq'")


def set_to_doc(S: FreqSet) -> dict:
    return {
        "modulus": S.shape.modulus,
        "dim": S.shape.dim,
        "members": [int(m) for m in S.members],
    }


def set_from_doc(doc: dict) -> FreqSet:
    shape = GridShape(modulus=int(doc["modulus"]), dim=int(doc["dim"]))
    return FreqSet.from_indices(shape, (int(m) for m in doc["members"]))


def report_to_doc(report: InequalityReport) -> dict:
    return {
        "which": report.which,
        "p": _encode_extended(report.p),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack_ratio": _encode_extended(report.slack_ratio),
        "grid": {"N": report.grid.modulus, "d": report.grid.dim},
        "set_size": report.set_size,
    }


def problem_to_doc(problem: RecoveryProblem) -> dict:
    hidden = problem.hidden.mask()
    observed = [
        None if hidden[i] else [float(z.real), float(z.imag)]
        for i, z in enumerate(problem.observed.values)
    ]
    return {
        "grid": {"N": problem.shape.modulus, "d": problem.shape.dim},
        "p": problem.p,
        "delta": problem.delta,
        "c_size": problem.c_size,
        "hidden": [int(m) for m in problem.hidden.members],
        "observed": observed,
    }


def problem_from_doc(doc: dict) -> RecoveryProblem:
    shape = GridShape(modulus=int(doc["grid"]["N"]), dim=int(doc["grid"]["d"]))
    hidden = FreqSet.from_indices(shape, (int(m) for m in doc["hidden"]))
    values = np.zeros(shape.size, dtype=np.complex128)
    try:
        for i, entry in enumerate(doc["observed"]):
            if entry is not None:
                values[i] = complex(entry[0], entry[1])
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed observed entry: {exc}") from exc
    problem = RecoveryProblem(
        shape=shape,
        observed=Spectrum(shape, values),
        hidden=hidden,
        p=_decode_extended(doc["p"]),
        delta=float(doc["delta"]),
    )
    declared = doc.get("c_size")
    if declared is not None and not math.isclose(
        float(declared), problem.c_size, rel_tol=1e-9, abs_tol=1e-12
    ):
        raise ValueError(
            f"declared c_size {declared} is inconsistent: |hidden|/N^k = "
            f"{problem.c_size} for k = 2d/p = {problem.k}"
        )
    return problem


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def format_cell(x: Any) -> str:
    """Deterministic CSV cell text: shortest round-trip form for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "inf" if math.isinf(x) else repr(x)
    return str(x)


def render_csv(header: dict[str, Any], columns: list[str], rows: list[list]) -> str:
    """CSV text: '# key=value' header lines, then column names, then rows."""
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def csv_body(text: str) -> str:
    """The CSV with its comment header stripped (the deterministic part)."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("#")
    )
