import json
import math

import numpy as np
import pytest

from znsynth.cli import main, parse_exponent, parse_grid, parse_range
from znsynth.lattice import GridShape
from znsynth.serialization import csv_body, load_json


def run(args, capsys=None):
    code = main(args)
    return code


class TestParsing:
    def test_grid(self):
        assert parse_grid("16x2") == GridShape(16, 2)
        with pytest.raises(ValueError):
            parse_grid("16")

    def test_exponent(self):
        assert parse_exponent("inf") == math.inf
        assert parse_exponent("2.5") == 2.5
        with pytest.raises(ValueError):
            parse_exponent("0.5")

    def test_range(self):
        assert parse_range("8..128") == [8, 16, 32, 64, 128]
        assert parse_range("16") == [16]
        with pytest.raises(ValueError):
            parse_range("128..8")


class TestPipelines:
    def test_construct_verify_pipeline(self, tmp_path):
        s = tmp_path / "s.json"
        f = tmp_path / "f.json"
        r = tmp_path / "r.json"
        assert run(["construct", "--kind", "random", "--grid", "16x1",
                    "--size", "4", "--seed", "5", "--out", str(s)]) == 0
        assert run(["construct", "--kind", "normalized-signal", "--grid", "16x1",
                    "--set-file", str(s), "--out", str(f)]) == 0
        assert run(["verify", "--which", "support-size", "--p", "2",
                    "--signal-file", str(f), "--set-file", str(s),
                    "--out", str(r)]) == 0
        doc = load_json(str(r))
        assert doc["result"]["slack_ratio"] >= 1 - 1e-9
        assert doc["config"]["command"] == "verify"

    def test_verify_indicator_dual(self, tmp_path):
        s, f, r = (tmp_path / n for n in ("s.json", "f.json", "r.json"))
        run(["construct", "--kind", "subspace", "--grid", "4x2", "--axes", "0",
             "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--grid", "4x2",
             "--set-file", str(s), "--out", str(f)])
        assert run(["verify", "--which", "indicator-dual", "--p", "inf",
                    "--signal-file", str(f), "--set-file", str(s),
                    "--out", str(r)]) == 0
        assert load_json(str(r))["result"]["p"] == "inf"

    def test_transform_round_trip(self, tmp_path):
        s, f, F, back = (tmp_path / n for n in
                         ("s.json", "f.json", "F.json", "back.json"))
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "3",
             "--seed", "1", "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--grid", "8x1",
             "--set-file", str(s), "--out", str(f)])
        assert run(["transform", "--input", str(f), "--output", str(F),
                    "--direction", "forward"]) == 0
        assert run(["transform", "--input", str(F), "--output", str(back),
                    "--direction", "inverse"]) == 0
        a = load_json(str(f))["values"]
        b = load_json(str(back))["values"]
        assert np.allclose(np.array(a), np.array(b), atol=1e-12)

    def test_recover_writes_report_and_csv(self, tmp_path):
        out = tmp_path / "rec.json"
        csv = tmp_path / "rec.csv"
        code = run(["recover", "--grid", "8x1", "--alphabet", "0,1",
                    "--hidden-size", "2", "--seed", "7",
                    "--out", str(out), "--csv", str(csv)])
        assert code == 0
        doc = load_json(str(out))["result"]
        assert doc["exact_match"] is True
        assert doc["oracle_agrees"] is True
        assert doc["certificate"]["unique"] is True
        body = csv_body(csv.read_text())
        lines = body.strip().splitlines()
        assert lines[0].startswith("seed,N,d,set_size,p")
        assert lines[1].startswith("7,8,1,")

    def test_recover_problem_file_round_trip(self, tmp_path):
        prob = tmp_path / "problem.json"
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(["recover", "--grid", "16x1", "--alphabet", "0,1",
                    "--hidden-size", "3", "--seed", "3", "--out", str(out1),
                    "--problem-out", str(prob)]) == 0
        assert run(["recover", "--problem-file", str(prob), "--alphabet", "0,1",
                    "--out", str(out2)]) == 0
        a = load_json(str(out1))["result"]["recovered"]
        b = load_json(str(out2))["result"]["recovered"]
        assert np.allclose(a, b, atol=1e-6)

    def test_phi_stats_tail_csv(self, tmp_path):
        out = tmp_path / "tail.csv"
        assert run(["phi-stats", "--grid", "32x1", "--size", "8",
                    "--tail-a", "5.0", "--trials", "64", "--seed", "2",
                    "--out", str(out)]) == 0
        body = csv_body(out.read_text())
        assert body.splitlines()[0] == "N,d,size,p,statistic,bound,pass"

    def test_lambda_search_json(self, tmp_path):
        out = tmp_path / "cand.json"
        assert run(["lambda-search", "--grid", "32x1", "--size", "6", "--p", "4",
                    "--budget", "2", "--trials", "16", "--seed", "4",
                    "--out", str(out)]) == 0
        doc = load_json(str(out))["result"]
        assert doc["indicator_norm_check"] is True
        assert doc["empirical_constant"] >= 1 - 1e-9


class TestDeterminism:
    def test_sweep_bodies_identical_across_workers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--alpha", "0.5", "--p-mode", "critical",
                "--grid-range", "8..64", "--seed", "9", "--out"]
        assert run(base + [str(a), "--workers", "1"]) == 0
        assert run(base + [str(b), "--workers", "8"]) == 0
        assert csv_body(a.read_text()) == csv_body(b.read_text())

    def test_repeat_run_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["phi-stats", "--grid", "32x1", "--size", "8", "--tail-a", "4.5",
                "--trials", "128", "--seed", "6", "--out"]
        assert run(args + [str(a), "--workers", "2"]) == 0
        assert run(args + [str(b), "--workers", "5"]) == 0
        assert csv_body(a.read_text()) == csv_body(b.read_text())

    def test_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZNSYNTH_SEED", "77")
        s1 = tmp_path / "s1.json"
        assert run(["construct", "--kind", "random", "--grid", "16x1",
                    "--size", "4", "--out", str(s1)]) == 0
        s2 = tmp_path / "s2.json"
        monkeypatch.delenv("ZNSYNTH_SEED")
        assert run(["construct", "--kind", "random", "--grid", "16x1",
                    "--size", "4", "--seed", "77", "--out", str(s2)]) == 0
        assert load_json(str(s1))["members"] == load_json(str(s2))["members"]


class TestErrorPaths:
    def test_bad_grid_is_usage_error(self, capsys):
        # argparse exits with the conventional usage status for bad values
        with pytest.raises(SystemExit) as err:
            run(["construct", "--kind", "random", "--grid", "nope",
                 "--size", "2", "--out", "x.json"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        assert run(["sweep", "--grid-range", "8..16"]) == 2

    def test_zero_trials_is_usage_error(self, capsys):
        assert run(["phi-stats", "--grid", "64x1", "--size", "16",
                    "--tail-a", "8", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["a", 0], None])
    def test_malformed_values_entry_is_usage_error(self, tmp_path, bad):
        doc = {"modulus": 4, "dim": 1, "domain": "space",
               "values": [bad, [0, 0], [0, 0], [0, 0]]}
        src = tmp_path / "f.json"
        src.write_text(json.dumps(doc))
        assert run(["transform", "--input", str(src),
                    "--output", str(tmp_path / "F.json")]) == 2

    def test_malformed_observed_entry_is_usage_error(self, tmp_path):
        doc = {"grid": {"N": 4, "d": 1}, "p": 1.5, "delta": 1.0, "hidden": [0],
               "observed": [None, "x", [0, 0], [0, 0]]}
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2

    def test_support_violation_is_usage_error(self, tmp_path):
        # signal with full spectrum, set too small
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
             "--seed", "1", "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--grid", "8x1",
             "--set-file", str(s), "--out", str(f)])
        small = tmp_path / "small.json"
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "1",
             "--seed", "2", "--out", str(small)])
        code = run(["verify", "--which", "support-size", "--p", "2",
                    "--signal-file", str(f), "--set-file", str(small)])
        assert code == 2

    def test_sampling_budget_failure_is_assertion_exit(self, tmp_path):
        # no 4-subset of Z_16 can satisfy the flat threshold
        code = run(["construct", "--kind", "flat", "--grid", "16x1",
                    "--size", "4", "--max-draws", "30", "--seed", "1",
                    "--out", str(tmp_path / "s.json")])
        assert code == 3

    def test_explain_prints_and_exits_zero(self, capsys):
        assert run(["recover", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out.lower()

    def test_grid_mismatch_detected(self, tmp_path):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
             "--seed", "1", "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--grid", "8x1",
             "--set-file", str(s), "--out", str(f)])
        assert run(["verify", "--which", "support-size", "--grid", "16x1",
                    "--p", "2", "--signal-file", str(f),
                    "--set-file", str(s)]) == 2
