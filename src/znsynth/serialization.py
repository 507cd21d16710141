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

JSON is encoded here only, by orjson: one compact line per file (``python
-m json.tool f.json`` pretty-prints one), two-space indents on stdout.
Floats are written in their shortest round-trip form (``1e16``, ``0.00001``
where the stdlib writes ``1e+16``, ``1e-05``), so the stdlib's ``json``
reads values back bit for bit.  orjson writes NaN and infinities as null,
so infinite numbers (p = inf, infinite slack ratios) go through
``encode_extended`` as the string "inf"; integers must lie in [-2^63, 2^64).
CSV files open with "# key=value" header lines carrying the resolved
configuration; the body below the header is deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any

import numpy as np
import orjson

from .fourier import FreqSet, Signal, Spectrum
from .inequalities import InequalityReport
from .lattice import GridShape
from .recovery import RecoveryProblem


def encode_extended(x: float):
    """x as a document value: infinities become the strings "inf" and "-inf"."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_extended(x, field: str) -> float:
    if isinstance(x, str) and x not in ("inf", "-inf"):
        raise ValueError(f'{field} must be a number or "inf", got {x!r}')
    return float(x)


def _indices(entries, field: str) -> list[int]:
    """Linear indices of a document list; an entry int() would change is an error."""
    indices = [int(m) for m in entries]
    for m, i in zip(entries, indices):
        if m != i:
            raise ValueError(f"{field} entry {m!r} is not an integer index")
    return indices


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write via a temp file in the target directory plus rename; str as UTF-8."""
    data = text.encode() if isinstance(text, str) else text
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:  # mkstemp names its temp file, not the path asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc: dict) -> None:
    """doc as one compact line of JSON, written atomically."""
    atomic_write_text(path, orjson.dumps(doc, option=orjson.OPT_APPEND_NEWLINE))


def print_json(doc: dict) -> None:
    """doc as JSON indented by two spaces, on stdout."""
    print(orjson.dumps(doc, option=orjson.OPT_INDENT_2).decode())


def _values_to_pairs(values: np.ndarray) -> list[list[float]]:
    """[[re, im], ...] of contiguous complex128 values."""
    return values.view(np.float64).reshape(-1, 2).tolist()


def _pairs_to_values(pairs) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed values entry: {exc}") from exc


def signal_to_doc(f: Signal | Spectrum) -> dict:
    return {
        "modulus": f.shape.modulus,
        "dim": f.shape.dim,
        "domain": "freq" if isinstance(f, Spectrum) else "space",
        "values": _values_to_pairs(f.values),
    }


def signal_from_doc(doc: dict) -> Signal | Spectrum:
    try:
        shape = GridShape(modulus=int(doc["modulus"]), dim=int(doc["dim"]))
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
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
        "members": S.members.tolist(),
    }


def set_from_doc(doc: dict) -> FreqSet:
    try:
        shape = GridShape(modulus=int(doc["modulus"]), dim=int(doc["dim"]))
        return FreqSet.from_indices(shape, _indices(doc["members"], "members"))
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed set document: {exc}") from exc


def report_to_doc(report: InequalityReport) -> dict:
    return {
        "which": report.which,
        "p": encode_extended(report.p),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack_ratio": encode_extended(report.slack_ratio),
        "grid": {"N": report.grid.modulus, "d": report.grid.dim},
        "set_size": report.set_size,
    }


def problem_to_doc(problem: RecoveryProblem) -> dict:
    hidden = problem.hidden.members.tolist()
    observed = _values_to_pairs(problem.observed.values)
    for m in hidden:
        observed[m] = None
    return {
        "grid": {"N": problem.shape.modulus, "d": problem.shape.dim},
        "p": problem.p,
        "delta": problem.delta,
        "c_size": problem.c_size,
        "hidden": hidden,
        "observed": observed,
    }


def problem_from_doc(doc: dict) -> RecoveryProblem:
    try:
        shape = GridShape(modulus=int(doc["grid"]["N"]), dim=int(doc["grid"]["d"]))
        hidden = FreqSet.from_indices(shape, _indices(doc["hidden"], "hidden"))
        observed = doc["observed"]
        if len(observed) != shape.size:
            raise ValueError(
                f"observed has {len(observed)} entries, expected N^d = {shape.size}"
            )
        # null marks a hidden entry, read as zero; the problem zeroes those anyway
        unknown = set(hidden.members.tolist())
        for i, e in enumerate(observed):
            if e is None and i not in unknown:
                raise ValueError(f"observed entry {i} is null but not on the hidden set")
        values = _pairs_to_values([(0.0, 0.0) if e is None else e for e in observed])
        p, delta = _decode_extended(doc["p"], "p"), float(doc["delta"])
        declared = doc.get("c_size")
        declared = None if declared is None else float(declared)
    except (TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    problem = RecoveryProblem(
        shape=shape,
        observed=Spectrum(shape, values),
        hidden=hidden,
        p=p,
        delta=delta,
    )
    if declared is not None and not math.isclose(
        declared, problem.c_size, rel_tol=1e-9, abs_tol=1e-12
    ):
        raise ValueError(
            f"declared c_size {declared} is inconsistent: |hidden|/N^k = "
            f"{problem.c_size} for k = 2d/p = {problem.k}"
        )
    return problem


def load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return doc


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
