import argparse
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from znsynth import cli
from znsynth.cli import (
    SUBCOMMANDS,
    build_parser,
    check_flags,
    main,
    parse_exponent,
    parse_grid,
    parse_range,
)
from znsynth.fourier import FreqSet, Signal, forward
from znsynth.lattice import GridShape
from znsynth.recovery import RecoveryProblem, mask_spectrum, random_instance
from znsynth.serialization import (
    csv_body,
    format_cell,
    load_json,
    problem_to_doc,
    set_to_doc,
    signal_to_doc,
    write_json,
)

from helpers import complex_indicator_norms, low_band_problem


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
        # orjson writes a float infinity as null; the report writes the string
        assert '"p":"inf"' in r.read_text()
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
        out, threaded = tmp_path / "tail.csv", tmp_path / "tail_w2.csv"
        argv = ["phi-stats", "--grid", "32x1", "--size", "8", "--tail-a", "5.0",
                "--trials", "64", "--seed", "2", "--out"]
        assert run(argv + [str(out)]) == 0
        assert run(argv + [str(threaded), "--workers", "2"]) == 0
        body = csv_body(out.read_text())
        assert body.splitlines()[0] == "N,d,size,p,statistic,bound,pass"
        assert csv_body(threaded.read_text()) == body

    def test_lambda_search_json(self, tmp_path):
        out = tmp_path / "cand.json"
        assert run(["lambda-search", "--grid", "32x1", "--size", "6", "--p", "4",
                    "--budget", "2", "--trials", "16", "--seed", "4",
                    "--out", str(out)]) == 0
        doc = load_json(str(out))["result"]
        assert doc["indicator_norm_check"] is True
        assert doc["empirical_constant"] >= 1 - 1e-9
        assert doc["empirical_constant"] <= doc["certified_constant"]


    def test_phi_stats_random_set(self, capsys):
        assert run(["phi-stats", "--grid", "16x1", "--size", "4", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["set_size"] == 4 and doc["trivial_bound"] == 4.0
        assert 0 < doc["phi"] <= 4.0

    def test_phi_stats_tail_json(self, capsys):
        assert run(["phi-stats", "--grid", "32x1", "--size", "8", "--tail-a", "5.0",
                    "--trials", "64", "--seed", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert set(doc) == {"empirical", "bound", "mc_slack", "trials", "threshold",
                            "passed"}
        assert doc["trials"] == 64 and doc["threshold"] == 5.0

    def test_sweep_json_rows_match_the_csv_body(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.csv"
        args = ["sweep", "--alpha", "0.5", "--grid-range", "8..32", "--seed", "9"]
        assert run(args + ["--format", "json", "--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        doc = load_json(str(a))["result"]
        lines = [",".join(doc["columns"])]
        lines += [",".join(format_cell(c) for c in row) for row in doc["rows"]]
        assert csv_body(b.read_text()).splitlines() == lines

    def test_recover_csv_appends_rows_under_one_header(self, tmp_path):
        csv = tmp_path / "rec.csv"
        for seed in ("7", "8"):
            assert run(["recover", "--grid", "8x1", "--hidden-size", "2",
                        "--seed", seed, "--no-oracle", "--csv", str(csv),
                        "--out", str(tmp_path / f"{seed}.json")]) == 0
        text = csv.read_text()
        assert text.count("# tool=") == 1
        body = csv_body(text).splitlines()
        assert body[0] == ",".join(cli.RECOVERY_CSV_COLUMNS)
        assert [row.split(",")[0] for row in body[1:]] == ["7", "8"]

    def test_construct_subspace_writes_the_annihilator(self, tmp_path):
        h, perp = tmp_path / "h.json", tmp_path / "perp.json"
        assert run(["construct", "--kind", "subspace", "--grid", "4x2", "--axes", "0",
                    "--out", str(h), "--perp-out", str(perp)]) == 0
        assert load_json(str(h))["members"] == [0, 4, 8, 12]
        assert load_json(str(perp))["members"] == [0, 1, 2, 3]

    def test_construct_subspace_ignores_repeated_axes(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        assert run(["construct", "--kind", "subspace", "--grid", "4x2",
                    "--axes", "0,0", "--out", str(h)]) == 0
        assert "(|H| = 4)" in capsys.readouterr().out
        assert load_json(str(h))["members"] == [0, 4, 8, 12]

    @pytest.mark.parametrize("kind, flags", [
        ("flat", ["--epsilon", "0.4"]),
        ("small-norm", ["--p", "4", "--target", "1.3"]),
    ])
    def test_construct_rejection_sampler_meets_its_threshold(
        self, tmp_path, capsys, kind, flags
    ):
        out = tmp_path / "s.json"
        assert run(["construct", "--kind", kind, "--grid", "32x1", "--size", "6",
                    "--seed", "3", "--out", str(out)] + flags) == 0
        stdout = capsys.readouterr().out
        assert re.fullmatch(rf"wrote {re.escape(str(out))} \(.* after \d+ draws\)\n",
                            stdout)
        members = load_json(str(out))["members"]
        assert len(set(members)) == 6
        indicator = np.zeros(32)
        indicator[members] = 1.0
        coefficients = np.abs(np.fft.fft(indicator))
        if kind == "flat":
            # phi(S): the peak over the nonzero frequencies
            assert coefficients[1:].max() <= 6 ** 0.9 * (1 + 1e-12)
        else:
            # |f| of the normalized exponential average is |1S_hat| / |S|
            norm = ((coefficients / 6) ** 4).sum() ** 0.25
            assert norm <= 1.3 * (1 + 1e-12)

    @pytest.mark.parametrize("args", [
        "--grid 7x1 --size 1 --p 6 --budget 1 --trials 8",
        "--grid 9x2 --size 81 --p 5",
    ], ids=["one-element", "full-grid"])
    def test_lambda_bracket_where_the_bound_is_attained(self, capsys, args):
        # the probe ratios carry FFT rounding that could lift the lower
        # estimate above the proven bound; it is capped there
        assert run(["lambda-search"] + args.split()) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["empirical_constant"] <= doc["certified_constant"]
        assert doc["empirical_constant"] == pytest.approx(
            doc["certified_constant"], rel=1e-12
        )

    def test_recover_problem_file_by_rounding(self, tmp_path):
        # 2^13 assignments are over the enumeration limit and 2^64 over the
        # oracle's budget: the rounded descent output decodes alone
        problem, truth = low_band_problem(2.0)
        prob, out = tmp_path / "problem.json", tmp_path / "r.json"
        write_json(str(prob), problem_to_doc(problem))
        assert run(["recover", "--problem-file", str(prob), "--alphabet", "0,1",
                    "--out", str(out)]) == 0
        doc = load_json(str(out))["result"]
        assert doc["snapped"] is True
        assert doc["oracle_agrees"] is None
        assert doc["recovered"] == truth.values.real.tolist()

    @pytest.mark.parametrize("oracle", [[], ["--no-oracle"]], ids=["default", "--no-oracle"])
    def test_recover_problem_file_with_no_alphabet_signal(self, tmp_path, capsys, oracle):
        # no 0/1 signal matches this spectrum, so the oracle has nothing to compare
        shape, hidden = GridShape(8, 1), FreqSet.from_indices(GridShape(8, 1), [1, 7])
        truth = Signal(shape, [0.3, 0, 0, 1.7, 0, 0, 0, 0])
        prob = tmp_path / "problem.json"
        write_json(str(prob), problem_to_doc(RecoveryProblem(
            shape, mask_spectrum(forward(truth), hidden), hidden, p=2.0, delta=1.0)))
        assert run(["recover", "--problem-file", str(prob), "--alphabet", "0,1",
                    *oracle]) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["snapped"] is False
        assert doc["oracle_agrees"] is None


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

    def test_tail_bodies_identical_across_workers_and_blocks(self, tmp_path):
        # 300 trials on 32x2 are five tail blocks, the last one partial
        args = ["phi-stats", "--grid", "32x2", "--size", "16", "--tail-a", "9.5",
                "--trials", "300", "--seed", "37", "--out"]
        bodies = set()
        for i, workers in enumerate(["1", "2", "3", "3"]):
            out = tmp_path / f"{i}.csv"
            assert run(args + [str(out), "--workers", workers]) == 0
            bodies.add(csv_body(out.read_text()))
        assert len(bodies) == 1

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


class TestSweepNorms:
    """sweep's real-transform norms against the complex signal's, cell by cell."""

    @pytest.mark.parametrize("args", [
        "--dim 2 --alpha 1 --p-mode critical --grid-range 4..32 --seed 3",
        "--alpha 0.5 --p-mode fixed --p 1.2 --grid-range 9..72 --seed 7",
        "--dim 3 --alpha 1.5 --p-mode critical --grid-range 3..12 --seed 1",
    ], ids=["d2-critical", "odd-n-fixed", "d3-critical"])
    def test_body_matches_complex_route(self, tmp_path, monkeypatch, args):
        real, ref = tmp_path / "real.csv", tmp_path / "ref.csv"
        assert run(["sweep", *args.split(), "--out", str(real)]) == 0
        monkeypatch.setattr(cli, "normalized_indicator_norms", complex_indicator_norms)
        assert run(["sweep", *args.split(), "--out", str(ref)]) == 0
        rows = [csv_body(f.read_text()).splitlines() for f in (real, ref)]
        assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1]) > 2
        for got, want in zip(rows[0][1:], rows[1][1:]):
            *got_cells, got_pass = got.split(",")
            *want_cells, want_pass = want.split(",")
            assert got_pass == want_pass
            assert [float(c) for c in got_cells] == pytest.approx(
                [float(c) for c in want_cells], rel=1e-12)


class TestErrorPaths:
    def test_bad_grid_is_usage_error(self, capsys):
        # argparse exits with the conventional usage status for bad values
        with pytest.raises(SystemExit) as err:
            run(["construct", "--kind", "random", "--grid", "nope",
                 "--size", "2", "--out", "x.json"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        assert run(["sweep", "--grid-range", "8..16"]) == 2

    @pytest.mark.parametrize("args, flag", [
        (["phi-stats", "--grid", "16x1", "--size", "4", "--trials", "2"], "--tail-a"),
        (["construct", "--kind", "random", "--grid", "8x1", "--out", "x.json"],
         "--size"),
        (["construct", "--kind", "flat", "--grid", "8x1", "--out", "x.json"],
         "--size"),
        (["construct", "--kind", "small-norm", "--grid", "8x1", "--out", "x.json"],
         "--size"),
        (["construct", "--kind", "subspace", "--grid", "8x1", "--out", "x.json"],
         "--axes"),
        (["construct", "--kind", "normalized-signal", "--grid", "8x1",
          "--out", "x.json"], "--set-file"),
        (["sweep", "--alpha", "1", "--grid-range", "8..16", "--p-mode", "fixed"],
         "--p"),
        (["recover", "--hidden-size", "2"], "--grid"),
        (["recover", "--grid", "8x1"], "--hidden-size"),
        (["construct", "--kind", "random", "--size", "2", "--out", "x.json"],
         "--grid"),
        (["construct", "--grid", "8x1", "--size", "2", "--out", "x.json"], "--kind"),
        (["phi-stats"], "--size"),
    ], ids=["phi-stats-tail", "random", "flat", "small-norm", "subspace",
            "normalized-signal", "sweep-fixed", "recover-grid", "recover-hidden-size",
            "random-grid", "construct-kind", "phi-stats-random"])
    def test_mode_specific_missing_flag(self, capsys, args, flag):
        assert run(args) == 2
        assert capsys.readouterr().err.rstrip().endswith(" " + flag)

    @pytest.mark.parametrize("args, stray", [
        ("phi-stats --set-file {s} --grid 32x1 --size 8 --tail-a 5 --trials 16",
         ["--size", "--tail-a", "--trials"]),
        ("phi-stats --grid 16x1 --size 4 --tail-a 5", ["--tail-a"]),
        ("recover --problem-file {p} --hidden-size 5", ["--hidden-size"]),
        ("sweep --alpha 0.5 --grid-range 8..16 --p 3", ["--p"]),
        ("construct --kind random --grid 8x1 --size 2 --perp-out {q} --axes 0 "
         "--set-file {s} --target 2", ["--axes", "--perp-out", "--set-file", "--target"]),
        ("construct --kind normalized-signal --set-file {s} --size 5", ["--size"]),
        ("construct --kind subspace --grid 8x2 --axes 0 --size 3", ["--size"]),
        ("phi-stats --set-file {s} --workers 2", ["--workers"]),
        ("phi-stats --grid 8x1 --size 2 --workers 0", ["--workers"]),
        ("construct --kind random --grid 8x1 --size 3 --epsilon 0.5 --max-draws 3 --p 7",
         ["--epsilon", "--max-draws", "--p"]),
        ("construct --kind flat --grid 16x1 --size 4 --p 3", ["--p"]),
        ("construct --kind small-norm --grid 16x1 --size 4 --epsilon 0.5", ["--epsilon"]),
    ], ids=["phi-stats-set-file", "phi-stats-random", "recover-problem-file",
            "sweep-critical", "construct-random", "construct-normalized-signal",
            "construct-subspace", "phi-stats-set-file-workers",
            "phi-stats-random-workers", "construct-random-sampler-flags",
            "construct-flat-p", "construct-small-norm-epsilon"])
    def test_flag_of_another_mode_is_usage_error(self, tmp_path, capsys, args, stray):
        s, p, q, out = (tmp_path / n for n in ("s.json", "p.json", "q.json", "out"))
        assert run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
                    "--seed", "1", "--out", str(s)]) == 0
        write_json(str(p), problem_to_doc(random_instance(GridShape(8, 1), 2, 7)[0]))
        capsys.readouterr()
        argv = shlex.split(args.format(s=s, p=p, q=q)) + ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "not used in this mode: " + ", ".join(stray) in err
        assert not out.exists() and not q.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--hidden-size", "0"], "hidden set size must be >= 1"),
        (["--hidden-size", "2", "--max-iters", "-1"], "max_iters must be >= 0"),
    ])
    def test_bad_recover_value_is_usage_error(self, capsys, flags, message):
        assert run(["recover", "--grid", "8x1", "--no-oracle"] + flags) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_meaningless_tolerance_is_usage_error(self, capsys, tol):
        argv = ["recover", "--grid", "8x1", "--hidden-size", "2", "--seed", "1",
                "--max-iters", "50", "--no-oracle", "--tol", tol]
        assert run(argv) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    # --alpha beyond --dim (1 here) would ask for more than N^d points
    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf", "1e308", "1.5"])
    def test_nonpositive_alpha_is_usage_error(self, capsys, alpha):
        assert run(["sweep", "--alpha", alpha, "--grid-range", "8..16"]) == 2
        assert "--alpha must be positive" in capsys.readouterr().err

    def test_non_object_json_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "list.json"
        src.write_text("[]")
        assert run(["transform", "--input", str(src),
                    "--output", str(tmp_path / "F.json")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_zero_trials_is_usage_error(self, capsys):
        assert run(["phi-stats", "--grid", "64x1", "--size", "16",
                    "--tail-a", "8", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_negative_tail_threshold_is_usage_error(self, capsys):
        # the tail bound is a statement for a >= 0; -40 is not a failed check
        assert run(["phi-stats", "--grid", "64x1", "--size", "16",
                    "--trials", "20", "--tail-a", "-40"]) == 2
        assert "tail threshold a must be >= 0" in capsys.readouterr().err
        assert run(["phi-stats", "--grid", "64x1", "--size", "16",
                    "--trials", "20", "--tail-a", "inf"]) == 0

    @pytest.mark.parametrize("args", [
        "phi-stats --grid 64x1 --size 16 --tail-a 8 --trials 20 --workers {w}",
        "lambda-search --grid 16x1 --size 4 --p 4 --workers {w}",
        "sweep --alpha 0.5 --grid-range 8..16 --workers {w}",
    ], ids=["phi-stats", "lambda-search", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, capsys, args, workers):
        out = tmp_path / "out"
        assert run(shlex.split(args.format(w=workers)) + ["--out", str(out)]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("ZNSYNTH_SEED", "abc")
        assert _exit_code(["phi-stats", "--grid", "8x1", "--size", "2"]) == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err

    def test_given_seed_overrides_a_malformed_seed_env(self, monkeypatch, capsys):
        monkeypatch.setenv("ZNSYNTH_SEED", "abc")
        assert _exit_code(["phi-stats", "--grid", "8x1", "--size", "2",
                           "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3

    LAMBDA_ARGS = ["lambda-search", "--grid", "16x1", "--size", "4", "--p", "4"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_seed_out_of_range_is_usage_error(
        self, tmp_path, monkeypatch, capsys, seed, source
    ):
        out = tmp_path / "l.json"
        args = self.LAMBDA_ARGS + ["--out", str(out)]
        if source == "env":
            monkeypatch.setenv("ZNSYNTH_SEED", seed)
        else:
            args += ["--seed", seed]
        assert run(args) == 2
        assert (f"--seed (or $ZNSYNTH_SEED) must be in [0, 2^64), got {seed}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_largest_seed_is_written_back(self, tmp_path):
        out = tmp_path / "l.json"
        assert run(self.LAMBDA_ARGS + ["--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert load_json(str(out))["config"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("direction, domain", [
        ("forward", "frequency"), ("inverse", "space"),
    ])
    def test_transform_of_the_wrong_domain_is_usage_error(
        self, tmp_path, capsys, direction, domain
    ):
        shape = GridShape(4, 1)
        f = Signal.delta(shape)
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        write_json(str(src), signal_to_doc(forward(f) if domain == "frequency" else f))
        assert run(["transform", "--input", str(src), "--output", str(out),
                    "--direction", direction]) == 2
        assert f"{direction} transform expects" in capsys.readouterr().err
        assert not out.exists()

    def test_small_norm_at_infinite_exponent_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["construct", "--kind", "small-norm", "--grid", "16x1",
                    "--size", "4", "--p", "inf", "--out", str(out)]) == 2
        assert "needs a finite --p" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_lambda_trials_is_usage_error(self, capsys):
        assert run(["lambda-search", "--grid", "16x1", "--size", "4", "--p", "4",
                    "--trials", "-1"]) == 2
        assert "trials must be >= 0" in capsys.readouterr().err

    def test_zero_lambda_budget_is_usage_error(self, capsys):
        assert run(["lambda-search", "--grid", "16x1", "--size", "4", "--p", "4",
                    "--budget", "0"]) == 2
        assert "budget must be >= 1" in capsys.readouterr().err

    def test_zero_max_draws_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["construct", "--kind", "flat", "--grid", "16x1", "--size", "4",
                    "--max-draws", "0", "--out", str(out)]) == 2
        assert "max_draws must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_normalized_signal_of_an_empty_set_is_usage_error(self, tmp_path, capsys):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        write_json(str(s), set_to_doc(FreqSet(GridShape(8, 1))))
        assert run(["construct", "--kind", "normalized-signal", "--set-file", str(s),
                    "--out", str(f)]) == 2
        assert "requires a non-empty set" in capsys.readouterr().err
        assert not f.exists()

    def test_subspace_without_axes_is_the_degenerate_pair(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        with pytest.warns(UserWarning, match="degenerate subspace with K = 0"):
            assert run(["construct", "--kind", "subspace", "--grid", "4x2", "--axes", "",
                        "--out", str(h)]) == 0
        assert "(|H| = 1)" in capsys.readouterr().out
        assert load_json(str(h))["members"] == [0]

    def test_verify_of_a_spectrum_is_usage_error(self, tmp_path, capsys):
        s, F = tmp_path / "s.json", tmp_path / "F.json"
        shape = GridShape(8, 1)
        write_json(str(s), set_to_doc(FreqSet.full(shape)))
        write_json(str(F), signal_to_doc(forward(Signal.delta(shape))))
        assert run(["verify", "--which", "support-size", "--signal-file", str(F),
                    "--set-file", str(s)]) == 2
        assert "holds a frequency-domain document" in capsys.readouterr().err

    def test_verify_across_grids_is_usage_error(self, tmp_path, capsys):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        write_json(str(s), set_to_doc(FreqSet.full(GridShape(16, 1))))
        write_json(str(f), signal_to_doc(Signal.delta(GridShape(8, 1))))
        assert run(["verify", "--which", "support-size", "--signal-file", str(f),
                    "--set-file", str(s)]) == 2
        assert "signal grid 8x1 differs from set grid 16x1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [
        ["--kind", "flat", "--epsilon", "nan"],
        ["--kind", "small-norm", "--target", "-1", "--max-draws", "50"],
    ], ids=["flat-nan-epsilon", "small-norm-negative-target"])
    def test_impossible_threshold_is_usage_error(self, tmp_path, capsys, flags):
        # no draw could pass, so none is made
        out = tmp_path / "s.json"
        assert run(["construct", "--grid", "16x1", "--size", "4",
                    "--out", str(out)] + flags) == 2
        assert "threshold must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sampling_budget_failure_is_assertion_exit(self, tmp_path):
        # no 4-subset of Z_16 can satisfy the flat threshold
        code = run(["construct", "--kind", "flat", "--grid", "16x1",
                    "--size", "4", "--max-draws", "30", "--seed", "1",
                    "--out", str(tmp_path / "s.json")])
        assert code == 3

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_help_prints_the_explanation(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        # argparse rewraps the text, also at hyphens, so compare it without spaces
        out = "".join(capsys.readouterr().out.split())
        assert "".join(cli.EXPLANATIONS[command].split()) in out

    def test_given_grid_must_match_the_input_file(self, tmp_path, capsys):
        s, prob = tmp_path / "s.json", tmp_path / "problem.json"
        assert run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
                    "--seed", "1", "--out", str(s)]) == 0
        assert run(["recover", "--grid", "8x1", "--alphabet", "0,1",
                    "--hidden-size", "2", "--seed", "7", "--no-oracle",
                    "--out", str(tmp_path / "r.json"),
                    "--problem-out", str(prob)]) == 0
        capsys.readouterr()
        for args in (
            ["construct", "--kind", "normalized-signal", "--grid", "64x3",
             "--set-file", str(s), "--out", str(tmp_path / "f.json")],
            ["phi-stats", "--grid", "16x1", "--set-file", str(s)],
            ["recover", "--grid", "16x1", "--problem-file", str(prob),
             "--no-oracle"],
        ):
            assert run(args) == 2
            assert "does not match the files" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_normalized_signal_needs_no_grid(self, tmp_path):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
             "--seed", "1", "--out", str(s)])
        assert run(["construct", "--kind", "normalized-signal",
                    "--set-file", str(s), "--out", str(f)]) == 0
        doc = load_json(str(f))
        assert (doc["modulus"], doc["dim"], len(doc["values"])) == (8, 1, 8)

    def test_grid_mismatch_detected(self, tmp_path):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        run(["construct", "--kind", "random", "--grid", "8x1", "--size", "2",
             "--seed", "1", "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--grid", "8x1",
             "--set-file", str(s), "--out", str(f)])
        assert run(["verify", "--which", "support-size", "--grid", "16x1",
                    "--p", "2", "--signal-file", str(f),
                    "--set-file", str(s)]) == 2

    def test_directory_as_input_is_usage_error(self, tmp_path, capsys):
        assert run(["transform", "--input", str(tmp_path),
                    "--output", str(tmp_path / "F.json")]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_missing_output_directory_names_the_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        assert run(["construct", "--kind", "random", "--grid", "8x1", "--size", "3",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_out_of_memory_is_usage_error(self, monkeypatch, capsys):
        def exhausted(S, p):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "normalized_indicator_norms", exhausted)
        assert run(["sweep", "--alpha", "0.5", "--grid-range", "8..16"]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8.00 GiB\n"


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_modes_name_every_flag(command):
    # check_flags sees only the flags MODES names, and a flag given a default
    # always looks given, so one that only some modes read must have none
    sp = argparse.ArgumentParser()
    SUBCOMMANDS[command](sp)
    modes = {m: {f[2:].replace("-", "_") for f in " ".join(spec).split()}
             for (c, m), spec in cli.MODES.items() if c == command}
    shared = modes.pop("")
    for action in sp._actions:
        if action.dest == "help" or action.dest in shared:
            continue
        assert any(action.dest in flags for flags in modes.values()), action.dest
        assert action.default is None, action.dest


def test_readme_command_lines_pass_the_flag_check():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.startswith("znsynth ")]
    assert len(lines) >= 11
    for line in lines:
        check_flags(build_parser().parse_args(shlex.split(line)[1:]))


def _readme_argvs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("znsynth ")]


def _exit_and_output(parse, capsys):
    with pytest.raises(SystemExit) as exc:
        parse()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestScopedParser:
    """build_parser(command) parses like the full parser."""

    def test_readme_command_lines_parse_the_same(self):
        argvs = _readme_argvs()
        assert len(argvs) >= 11
        for argv in argvs:
            scoped = build_parser(argv[0]).parse_args(argv)
            assert vars(scoped) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", list(SUBCOMMANDS))
    def test_subcommand_help_is_unchanged(self, command, capsys):
        full = _exit_and_output(lambda: build_parser().parse_args([command, "--help"]), capsys)
        scoped = _exit_and_output(lambda: main([command, "--help"]), capsys)
        assert scoped == full
        assert full[0] == 0 and "--seed" in full[1]

    def test_top_level_help_lists_every_subcommand(self, capsys):
        code, out, _ = _exit_and_output(lambda: main(["--help"]), capsys)
        assert code == 0
        for command in SUBCOMMANDS:
            assert command in out
        scoped = _exit_and_output(lambda: build_parser("recover").parse_args(["--help"]), capsys)
        assert scoped == (code, out, "")

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = _exit_and_output(lambda: main(["recovr", "--seed", "1"]), capsys)
        assert code == 2
        assert "invalid choice: 'recovr'" in err


def _exit_code(args) -> int:
    """main's exit code, including argparse's exit on a bad flag value."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestNanInputs:
    """A NaN exponent or delta is malformed input, never a run that prints NaN."""

    def test_parse_exponent_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_exponent("nan")

    def test_verify(self, tmp_path, capsys):
        s, f = tmp_path / "s.json", tmp_path / "f.json"
        run(["construct", "--kind", "random", "--grid", "16x1", "--size", "4",
             "--seed", "5", "--out", str(s)])
        run(["construct", "--kind", "normalized-signal", "--set-file", str(s),
             "--out", str(f)])
        assert _exit_code(["verify", "--which", "support-size", "--p", "nan",
                           "--signal-file", str(f), "--set-file", str(s)]) == 2
        assert "bound = nan" not in capsys.readouterr().err

    def test_lambda_search(self, capsys):
        assert _exit_code(["lambda-search", "--grid", "16x1", "--size", "4",
                           "--p", "nan"]) == 2
        assert "NaN" not in capsys.readouterr().out

    def test_phi_stats_tail(self, capsys):
        assert run(["phi-stats", "--grid", "64x1", "--size", "16", "--trials",
                    "20", "--tail-a", "nan"]) == 2
        captured = capsys.readouterr()
        assert "true" not in captured.out
        assert "nan" in captured.err

    def test_construct_small_norm(self, tmp_path):
        out = tmp_path / "s.json"
        assert _exit_code(["construct", "--kind", "small-norm", "--grid", "16x1",
                           "--size", "4", "--p", "nan", "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep(self, capsys):
        assert _exit_code(["sweep", "--alpha", "0.5", "--p-mode", "fixed",
                           "--p", "nan", "--grid-range", "8..16"]) == 2
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("alphabet", ["0,nan", "0,inf"])
    def test_non_finite_alphabet(self, tmp_path, capsys, alphabet):
        out, src = tmp_path / "r.json", tmp_path / "problem.json"
        assert run(["recover", "--grid", "8x1", "--hidden-size", "2",
                    "--alphabet", alphabet, "--out", str(out)]) == 2
        assert "alphabet values must be finite" in capsys.readouterr().err
        problem, _ = random_instance(GridShape(8, 1), 2, seed=3)
        write_json(str(src), problem_to_doc(problem))
        assert run(["recover", "--problem-file", str(src), "--alphabet", alphabet,
                    "--out", str(out)]) == 2
        assert "alphabet values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["p", "delta"])
    def test_problem_file(self, tmp_path, capsys, field):
        problem, _ = random_instance(GridShape(8, 1), 2, seed=3)
        doc = problem_to_doc(problem)
        del doc["c_size"]  # optional; a NaN p would fail its consistency check
        doc[field] = math.nan
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert "NaN" not in capsys.readouterr().out


_PROBLEM_DOC = {"grid": {"N": 4, "d": 1}, "p": 1.5, "delta": 1.0, "hidden": [0],
                "observed": [None, [0, 0], [0, 0], [0, 0]]}


class TestMalformedDocuments:
    """A document field of the wrong kind exits 2 with a message, not a traceback."""

    def test_well_formed_problem_document_is_accepted(self, tmp_path):
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(_PROBLEM_DOC))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 0

    @pytest.mark.parametrize("field, value", [
        ("p", None),
        ("delta", None),
        ("grid", [4, 1]),
        ("grid", {"N": None, "d": 1}),
        ("hidden", None),
        ("observed", [None]),  # one entry on a 4-point grid
        ("observed", [None, [0, 0], [1, 0, 9], [0, 0]]),  # a third number
        ("c_size", [1]),
        ("c_size", {}),
    ])
    def test_problem_file(self, tmp_path, capsys, field, value):
        src = tmp_path / "problem.json"
        src.write_text(json.dumps({**_PROBLEM_DOC, field: value}))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_null_observed_entry_off_the_hidden_set(self, tmp_path, capsys):
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(
            {**_PROBLEM_DOC, "observed": [None, [0, 0], None, [0, 0]]}))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert "observed entry 2 is null" in capsys.readouterr().err

    def test_fractional_hidden_index(self, tmp_path, capsys):
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(
            {**_PROBLEM_DOC, "hidden": [0.7, 2.2],
             "observed": [None, [0, 0], None, [0, 0]]}))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert "hidden entry 0.7 is not an integer" in capsys.readouterr().err

    def test_fractional_set_member(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"modulus": 8, "dim": 1, "members": [1.5, 3]}))
        assert run(["phi-stats", "--set-file", str(src)]) == 2
        assert "members entry 1.5 is not an integer" in capsys.readouterr().err

    def test_infinite_set_member(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"modulus": 8, "dim": 1, "members": [math.inf]}))
        assert run(["phi-stats", "--set-file", str(src)]) == 2
        assert "malformed set document" in capsys.readouterr().err

    def test_string_exponent_names_the_field(self, tmp_path, capsys):
        src = tmp_path / "problem.json"
        src.write_text(json.dumps({**_PROBLEM_DOC, "p": "abc"}))
        assert run(["recover", "--problem-file", str(src), "--no-oracle"]) == 2
        assert 'p must be a number or "inf"' in capsys.readouterr().err

    def test_signal_file_modulus(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        src.write_text(json.dumps({"modulus": None, "dim": 1, "domain": "space",
                                   "values": [[0, 0]] * 4}))
        assert run(["transform", "--input", str(src),
                    "--output", str(tmp_path / "F.json")]) == 2
        assert "malformed signal document" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["members", "dim"])
    def test_set_file(self, tmp_path, capsys, field):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"modulus": 8, "dim": 1, "members": [1, 7],
                                   field: None}))
        assert run(["phi-stats", "--set-file", str(src)]) == 2
        assert "malformed set document" in capsys.readouterr().err


_SWEEP_DOCUMENTS = {
    "signal": {"modulus": 8, "dim": 1, "domain": "space",
               "values": [[1.0, 0.0]] + [[0.0, 0.0]] * 7},
    "set": {"modulus": 4, "dim": 1, "members": [1, 3]},
    # the point mass at 0 on 8x1 with the pair {1, 7} hidden
    "problem": {"grid": {"N": 8, "d": 1}, "p": 2.0, "delta": 1.0, "c_size": 0.25,
                "hidden": [1, 7],
                "observed": [None if i in (1, 7) else [8 ** -0.5, 0.0] for i in range(8)]},
}

# (document, path to the field, whether the field holds an integer)
_SWEEP_FIELDS = [
    ("signal", ("modulus",), True),
    ("signal", ("dim",), True),
    ("signal", ("values", 0), False),
    ("signal", ("values", 0, 1), False),
    ("set", ("modulus",), True),
    ("set", ("dim",), True),
    ("set", ("members", 0), True),
    ("problem", ("grid", "N"), True),
    ("problem", ("grid", "d"), True),
    ("problem", ("p",), False),
    ("problem", ("delta",), False),
    ("problem", ("c_size",), False),
    ("problem", ("hidden", 0), True),
    ("problem", ("observed", 0), False),
    ("problem", ("observed", 0, 1), False),
]

_SWEEP_VALUES = {"1e400": math.inf, "-1e400": -math.inf, "nan": math.nan,
                 "string": "x", "list": [], "object": {}}


def _sweep_argv(doc, src, out) -> list[str]:
    """The command that reads a document of kind doc from src."""
    return {
        "signal": ["transform", "--input", str(src), "--output", str(out)],
        "set": ["phi-stats", "--set-file", str(src)],
        "problem": ["recover", "--problem-file", str(src), "--no-oracle"],
    }[doc]


def _sweep_cases():
    for doc, path, integer in _SWEEP_FIELDS:
        values = {**_SWEEP_VALUES, **({"8.5": 8.5} if integer else {})}
        for label, value in values.items():
            name = "-".join([doc, *map(str, path), label])
            yield pytest.param(doc, path, value, id=name)


@pytest.mark.parametrize("doc, path, value", list(_sweep_cases()))
def test_malformed_field_is_one_error_line(tmp_path, capsys, doc, path, value):
    """Each malformed field of each document kind exits 2 with one error line."""
    data = json.loads(json.dumps(_SWEEP_DOCUMENTS[doc]))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(data))  # json writes inf as Infinity and reads it back
    assert run(_sweep_argv(doc, src, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("doc", list(_SWEEP_DOCUMENTS))
def test_sweep_documents_are_well_formed(tmp_path, doc):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(_SWEEP_DOCUMENTS[doc]))
    assert run(_sweep_argv(doc, src, out)) == 0
