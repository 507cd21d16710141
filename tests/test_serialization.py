import json
import math
import os
import shlex

import numpy as np
import pytest

from znsynth import cli
from znsynth.fourier import FreqSet, Signal, Spectrum, forward
from znsynth.inequalities import verify_indicator_bound
from znsynth.lattice import GridShape
from znsynth.recovery import RecoveryProblem, mask_spectrum
from znsynth.serialization import (
    atomic_write_text,
    csv_body,
    format_cell,
    load_json,
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

from helpers import random_signal


class TestSignalDocs:
    def test_space_round_trip(self):
        f = random_signal(GridShape(6, 1), np.random.default_rng(0))
        doc = signal_to_doc(f)
        assert doc["domain"] == "space"
        back = signal_from_doc(json.loads(json.dumps(doc)))
        assert isinstance(back, Signal)
        assert np.array_equal(back.values, f.values)

    def test_freq_round_trip(self):
        F = forward(random_signal(GridShape(4, 2), np.random.default_rng(1)))
        doc = signal_to_doc(F)
        assert doc["domain"] == "freq"
        back = signal_from_doc(doc)
        assert isinstance(back, Spectrum)
        assert np.array_equal(back.values, F.values)

    # Extremes of the float64 range: signed zero, the smallest subnormal
    # and the largest finite double; then floats whose text differs between
    # encoders (orjson writes 1e16 and 0.00001, the stdlib 1e+16 and 1e-05).
    EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324,
                   -1.7976931348623157e308, 0.1, 1 / 3, 0.0,
                   1e16, 1e-05, 1e22, 1.2345678901234568e+17]

    def _edge_signal(self):
        values = np.array(self.EDGE_VALUES, dtype=np.complex128)
        values.imag = self.EDGE_VALUES[::-1]
        return Signal(GridShape(len(self.EDGE_VALUES), 1), values)

    def test_values_match_per_element_pairs(self):
        f = self._edge_signal()
        pairs = signal_to_doc(f)["values"]
        assert pairs == [[float(z.real), float(z.imag)] for z in f.values]
        assert all(type(x) is float for pair in pairs for x in pair)
        assert math.copysign(1.0, pairs[0][0]) == -1.0

    def test_written_document_reads_back_bit_for_bit(self, tmp_path):
        f = self._edge_signal()
        path = tmp_path / "f.json"
        write_json(str(path), signal_to_doc(f))
        back = signal_from_doc(load_json(str(path)))
        assert back.values.tobytes() == f.values.tobytes()

    def test_exponents_are_written_without_plus_or_padding(self, tmp_path):
        path = tmp_path / "f.json"
        write_json(str(path), signal_to_doc(self._edge_signal()))
        text = path.read_text()
        assert "[1e16,-5e-324]" in text and "[0.00001," in text
        assert "[1e22,5e-324]" in text and "[1.2345678901234568e17,-0.0]" in text

    def test_written_document_is_one_line(self, tmp_path):
        path = tmp_path / "f.json"
        write_json(str(path), signal_to_doc(self._edge_signal()))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.count("\n") == 1

    def test_unknown_domain(self):
        with pytest.raises(ValueError, match="domain"):
            signal_from_doc({"modulus": 4, "dim": 1, "domain": "time",
                             "values": [[0, 0]] * 4})


class TestSetDocs:
    def test_round_trip(self):
        S = FreqSet.from_indices(GridShape(9, 2), [0, 17, 80])
        assert np.array_equal(set_from_doc(set_to_doc(S)).members, S.members)


class TestReportDocs:
    def test_infinity_encoding(self):
        shape = GridShape(4, 1)
        f = Signal(shape, np.zeros(4))
        S = FreqSet.from_indices(shape, [1, 3])
        report = verify_indicator_bound(f, S, math.inf)
        doc = report_to_doc(report)
        assert doc["p"] == "inf"
        assert doc["slack_ratio"] == "inf"  # zero signal
        json.dumps(doc)  # strictly valid JSON

    def test_fields(self):
        shape = GridShape(8, 1)
        f = Signal.delta(shape)
        report = verify_indicator_bound(f, FreqSet.full(shape), 2)
        doc = report_to_doc(report)
        assert doc["grid"] == {"N": 8, "d": 1}
        assert doc["set_size"] == 8
        assert doc["which"] == "indicator-dual"


class TestProblemDocs:
    def _problem(self):
        shape = GridShape(8, 1)
        truth = Signal(shape, [0, 1, 0, 0, 1, 0, 0, 0])
        hidden = FreqSet.from_indices(shape, [2, 6])
        return RecoveryProblem(
            shape=shape,
            observed=mask_spectrum(forward(truth), hidden),
            hidden=hidden,
            p=2.0,
            delta=1.0,
        )

    def test_round_trip(self):
        problem = self._problem()
        doc = problem_to_doc(problem)
        assert doc["observed"][2] is None  # hidden entries are null
        back = problem_from_doc(json.loads(json.dumps(doc)))
        assert back.p == problem.p
        assert back.hidden.members.tolist() == problem.hidden.members.tolist()
        assert np.allclose(back.observed.values, problem.observed.values)
        assert back.c_size == pytest.approx(problem.c_size)

    def test_observed_matches_per_element_loop(self):
        problem = self._problem()
        hidden = problem.hidden.mask()
        want = [
            None if hidden[i] else [float(z.real), float(z.imag)]
            for i, z in enumerate(problem.observed.values)
        ]
        doc = problem_to_doc(problem)
        assert doc["observed"] == want
        assert doc["hidden"] == [2, 6]
        assert all(type(m) is int for m in doc["hidden"])

    def test_inconsistent_c_size_rejected(self):
        doc = problem_to_doc(self._problem())
        doc["c_size"] = 0.123
        with pytest.raises(ValueError, match="c_size"):
            problem_from_doc(doc)


class TestCsv:
    def test_render_and_body(self):
        text = render_csv({"seed": 1, "when": "now"}, ["a", "b"], [[1, 2.5], [3, math.inf]])
        assert text.startswith("# seed=1\n# when=now\n")
        body = csv_body(text)
        assert body == "a,b\n1,2.5\n3,inf\n"

    def test_format_cell_is_round_trip_stable(self):
        x = 0.1 + 0.2
        assert float(format_cell(x)) == x
        assert format_cell(True) == "true"

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_atomic_write_leaves_no_temp_file_when_the_rename_fails(
        self, tmp_path, monkeypatch
    ):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            atomic_write_text(str(tmp_path / "out.txt"), "hello\n")
        assert os.listdir(tmp_path) == []


# Command lines that write every kind of document: a set, a signal, a
# spectrum, a report, a problem, and command results holding bools, integers
# up to 2^64 - 1 and "inf".  Each group runs in one directory {d}.
WRITING_COMMANDS = {
    "set-signal-spectrum-report": [
        "construct --kind random --grid 8x2 --size 5 --seed 3 --out {d}/s.json",
        "construct --kind normalized-signal --set-file {d}/s.json --out {d}/f.json",
        "transform --input {d}/f.json --output {d}/F.json",
        "verify --which indicator-dual --p inf --signal-file {d}/f.json "
        "--set-file {d}/s.json --out {d}/r.json",
    ],
    "problem-result": [
        "recover --grid 8x1 --hidden-size 2 --seed 7 --problem-out {d}/p.json "
        "--out {d}/x.json",
    ],
    "results": [
        "phi-stats --grid 16x1 --size 4 --trials 8 --tail-a inf --format json "
        "--out {d}/t.json",
        "lambda-search --grid 16x1 --size 4 --p 4 --seed 18446744073709551615 "
        "--out {d}/l.json",
        "sweep --alpha 0.5 --grid-range 8..16 --format json --out {d}/w.json",
    ],
}


def _null_paths(x, path=()):
    if x is None:
        return [path]
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    return [q for k, v in items for q in _null_paths(v, path + (k,))]


@pytest.mark.parametrize("group", list(WRITING_COMMANDS))
def test_written_documents_read_as_the_stdlib_encodes_them(tmp_path, monkeypatch, group):
    written = []

    def spy(path, doc):
        written.append((path, doc))
        write_json(path, doc)

    monkeypatch.setattr(cli, "write_json", spy)
    for line in WRITING_COMMANDS[group]:
        assert cli.main(shlex.split(line.format(d=tmp_path))) == 0
    assert sorted(p for p, _ in written) == sorted(map(str, tmp_path.glob("*.json")))
    for path, doc in written:
        with open(path) as fh:
            assert json.loads(fh.read()) == json.loads(json.dumps(doc))
        # orjson writes NaN and infinities as null: only hidden entries may be null
        hidden = doc.get("hidden", []) if "observed" in doc else []
        assert _null_paths(load_json(path)) == [("observed", m) for m in hidden]
