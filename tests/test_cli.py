"""CLI behavior: golden outputs, exit codes, and study reproducibility."""

import concurrent.futures
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ppboot
from ppboot import cli, estimators
from ppboot.baselines import imputed_interval, ppi_mean_interval
from ppboot.boot import MAX_B, BootstrapConfig, ppboot_interval, reported_interval
from ppboot.cli import main
from ppboot.data import load_csv
from ppboot.estimators import CHUNK_BYTES, EstimandSpec
from ppboot.resampling import RngStream

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
LABELED = os.path.join(FIXTURES, "labeled.csv")
UNLABELED = os.path.join(FIXTURES, "unlabeled.csv")
SCHEMA = os.path.join(FIXTURES, "schema.json")

JSON_KEY_ORDER = [
    "method", "estimand", "lower", "upper", "point",
    "lambda_used", "B", "alpha", "seed", "degenerate_iterations",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def infer_args(**overrides):
    base = {
        "--labeled": LABELED, "--unlabeled": UNLABELED, "--schema": SCHEMA,
        "--estimand": "mean", "--B": "200", "--alpha": "0.1", "--seed": "42",
    }
    base.update(overrides)
    out = ["infer"]
    for key, value in base.items():
        if value is None:
            continue
        out.append(key)
        if value != "":
            out.append(str(value))
    return out


def overflow_files(tmp_path, data: str) -> dict:
    """``--labeled`` and ``--unlabeled`` flags of small CSVs whose values overflow the arithmetic."""
    g = np.random.default_rng(12)
    y, f, fu = {
        "mean-near-1000": (1000.0 + g.random(8), 1000.0 + g.random(8), 1000.0 + g.random(10)),
        "outcomes-1e308": (np.resize([1e308, -1e308], 8), g.random(8), g.random(10)),
        "values-1e160": tuple(1e160 * g.standard_normal(m) for m in (20, 20, 30)),
    }[data]
    labeled, unlabeled = tmp_path / "labeled.csv", tmp_path / "unlabeled.csv"
    rows = zip(y.tolist(), f.tolist())
    labeled.write_text("x,y,fhat\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)))
    unlabeled.write_text("x,fhat\n" + "".join(f"{i},{b!r}\n" for i, b in enumerate(fu.tolist())))
    return {"--labeled": str(labeled), "--unlabeled": str(unlabeled)}


def _assert_matches_golden(payload, golden_name):
    with open(os.path.join(FIXTURES, golden_name), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(payload) == set(golden)
    for key, expected in golden.items():
        if isinstance(expected, float):
            assert payload[key] == pytest.approx(expected, abs=1e-12), key
        else:
            assert payload[key] == expected, key


class TestInfer:
    def test_golden_ppboot(self, capsys):
        code, out, _ = run_cli(infer_args(), capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == JSON_KEY_ORDER
        _assert_matches_golden(payload, "golden_infer_ppboot.json")

    def test_golden_classical(self, capsys):
        code, out, _ = run_cli(infer_args(**{"--method": "classical"}), capsys)
        assert code == 0
        _assert_matches_golden(json.loads(out), "golden_infer_classical.json")

    def test_lambda_zero_equals_classical(self, capsys):
        code_a, out_a, _ = run_cli(infer_args(**{"--lambda": "0"}), capsys)
        code_b, out_b, _ = run_cli(infer_args(**{"--method": "classical"}), capsys)
        assert code_a == code_b == 0
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["lower"] == b["lower"] and a["upper"] == b["upper"]

    def test_missing_labeled_flag_exits_2(self, capsys):
        args = [a for a in infer_args() if a not in (LABELED, "--labeled")]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_B_above_the_cap_exits_2(self, capsys):
        code, out, err = run_cli(infer_args(**{"--B": str(10**15)}), capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ppboot: error: B must be in [2, {MAX_B}], got {10**15}"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_2(self, capsys, value):
        # "--lambda=-inf", since argparse reads a separate "-inf" as an option.
        code, out, err = run_cli([*infer_args(), f"--lambda={value}"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ppboot: error: lambda_value must be finite, got {float(value)}"]

    def test_out_of_memory_exits_4(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("ppboot.cli.ppboot_interval", exhausted)
        code, out, err = run_cli(infer_args(), capsys)
        assert (code, out, err) == (4, "", "ppboot: error: out of memory\n")

    def test_defaults_seed_zero_with_warning(self, capsys):
        code, out, err = run_cli(infer_args(**{"--seed": None}), capsys)
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("flags, exit_code", [
        pytest.param({"--method": "imputed", "--unlabeled": None}, 2, id="imputed-without-unlabeled"),
        pytest.param({"--schema": os.path.join(FIXTURES, "no-such-schema.json")}, 3, id="missing-schema"),
    ])
    def test_failure_without_seed_prints_one_line(self, capsys, flags, exit_code):
        # The --seed warning comes with a result only, never with an error.
        code, out, err = run_cli(infer_args(**{"--seed": None, **flags}), capsys)
        assert (code, out) == (exit_code, "")
        assert len(err.splitlines()) == 1 and err.startswith("ppboot: error: ")

    @pytest.mark.parametrize("flag", ["--labeled", "--schema"])
    def test_input_that_is_not_utf8_exits_3(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"x,y,fhat\n1,\xff,3\n" if flag == "--labeled" else b'{"outcome": "\xff"}')
        code, out, err = run_cli(infer_args(**{flag: str(bad)}), capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and str(bad) in err

    @pytest.mark.parametrize("schema, message", [
        pytest.param([1], "schema must be a mapping of column roles", id="not-an-object"),
        pytest.param({"outcome": "y", "prediction": "fhat"},
                     "schema requires a non-empty 'features' list of column names", id="no-features"),
        pytest.param({"outcome": "y", "prediction": "fhat", "features": []},
                     "schema requires a non-empty 'features' list of column names", id="empty-features"),
        pytest.param({"prediction": "fhat", "features": ["x"]}, "schema requires an 'outcome' column name",
                     id="no-outcome"),
        pytest.param({"outcome": "y", "features": ["x"]}, "schema requires a 'prediction' column name",
                     id="no-prediction"),
    ])
    def test_bad_schema_exits_3(self, tmp_path, capsys, schema, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema), encoding="utf-8")
        code, out, err = run_cli(infer_args(**{"--schema": str(path)}), capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"ppboot: error: {message}"]

    def test_file_without_header_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, out, err = run_cli(infer_args(**{"--labeled": str(empty)}), capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"ppboot: error: {empty}: empty file; a header row is required"]

    @pytest.mark.parametrize("where, text", [
        pytest.param("the header row", "{cell},y,fhat\n1,2,3\n", id="header"),
        pytest.param("row 2", "x,y,fhat\n1,2,3\n\n{cell},4,5\n", id="second-data-row"),
    ])
    def test_cell_over_the_csv_field_limit_exits_3(self, tmp_path, capsys, where, text):
        big = tmp_path / "big.csv"
        big.write_text(text.format(cell="1" * 200_000), encoding="utf-8")
        code, out, err = run_cli(infer_args(**{"--labeled": str(big), "--method": "classical"}), capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"ppboot: error: {big}: cannot read {where}: field larger than field limit")

    @pytest.mark.parametrize("extra", ["x", "z,z"], ids=["wanted-column", "unwanted-column"])
    def test_duplicate_column_names(self, tmp_path, capsys, extra):
        # Only a column the schema names must be unique: reading either copy
        # of it would be a guess.
        with open(LABELED, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        path = tmp_path / "labeled.csv"
        path.write_text("\n".join([f"{lines[0]},{extra}"] + [f"{line},{extra.replace('x', '0').replace('z', '0')}"
                                                                for line in lines[1:]]) + "\n", encoding="utf-8")
        code, out, err = run_cli(infer_args(**{"--labeled": str(path)}), capsys)
        if extra == "x":
            assert (code, out) == (3, "")
            assert err.splitlines() == [f"ppboot: error: {path}: column 'x' appears 2 times in the header"]
        else:
            assert (code, out) == run_cli(infer_args(), capsys)[:2]

    def test_logistic_on_small_feature_units(self, tmp_path, capsys):
        # Features in units 100 times too large give coefficients near 80 and
        # -50.  A bound of 50 on |beta| once read every resample as separation.
        g = np.random.default_rng(3)
        X = g.standard_normal((2200, 3))
        p = 1.0 / (1.0 + np.exp(-(X @ np.array([0.8, -0.5, 0.3]) - 0.2)))
        y = (g.random(2200) < p).astype(float)
        fhat = np.where(g.random(2200) < 0.9, y, (g.random(2200) < p).astype(float))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"outcome": "y", "prediction": "fhat", "features": ["x1", "x2", "x3"]}))
        outputs = []
        for scale in (1.0, 0.01):
            labeled, unlabeled = tmp_path / f"l{scale}.csv", tmp_path / f"u{scale}.csv"
            table = np.column_stack([X * scale, y, fhat])
            np.savetxt(labeled, table[:200], fmt="%.17g", delimiter=",", header="x1,x2,x3,y,fhat", comments="")
            np.savetxt(unlabeled, table[200:][:, [0, 1, 2, 4]], fmt="%.17g", delimiter=",", header="x1,x2,x3,fhat",
                       comments="")
            code, out, err = run_cli(infer_args(**{"--labeled": labeled, "--unlabeled": unlabeled, "--schema": schema,
                                                   "--estimand": "logistic_coef", "--target-index": "0"}), capsys)
            assert (code, err) == (0, "")
            outputs.append(json.loads(out))
        plain, small = outputs
        assert small["degenerate_iterations"] == plain["degenerate_iterations"] == 0
        for key in ("lower", "upper", "point"):
            assert small[key] * 0.01 == pytest.approx(plain[key], rel=1e-9)

    def test_parse_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,fhat\n1,oops,3\n2,4,5\n", encoding="utf-8")
        code, _, err = run_cli(infer_args(**{"--labeled": str(bad)}), capsys)
        assert code == 3
        assert len(err.strip().splitlines()) == 1

    def test_degenerate_exits_4(self, tmp_path, capsys):
        const = tmp_path / "const.csv"
        const.write_text("x,y,fhat\n" + "".join(f"1.0,{i},{i}\n" for i in range(6)), encoding="utf-8")
        code, _, err = run_cli(
            infer_args(**{"--labeled": str(const), "--estimand": "ols_coef", "--method": "classical"}),
            capsys,
        )
        assert code == 4
        assert len(err.strip().splitlines()) == 1

    # A pool thread does not inherit the caller's numpy error state: at 3 CPUs
    # the loops (and the fold models' predictions) run on a pool.
    @pytest.mark.parametrize("cpus", [1, 3], ids=["1-cpu", "3-cpus"])
    @pytest.mark.parametrize("data, flags, message", [
        pytest.param(None, {"--lambda": "1e308"}, "non-finite interval: lower -inf, ", id="lambda-1e308"),
        pytest.param("mean-near-1000", {"--transform": "exp"}, "non-finite interval: lower inf, upper inf, point inf",
                     id="exp-of-mean-near-1000"),
        pytest.param("outcomes-1e308", {"--method": "ppi-mean"}, "non-finite interval: lower -inf, upper inf, ",
                     id="ppi-mean-on-1e308"),
        pytest.param("outcomes-1e308", {"--method": "classical"}, "bootstrap failure: only 0 of 200 iterations usable",
                     id="classical-on-1e308"),
        pytest.param("values-1e160", {"--tune": ""},
                     "tuning failure: non-finite moments (cov nan, denominator inf)", id="tuned-on-1e160"),
    ])
    def test_overflow_exits_4_with_one_line(self, monkeypatch, tmp_path, capsys, data, flags, message, cpus):
        if data is not None:
            flags = {**overflow_files(tmp_path, data), **flags}
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        # Chunks of at most 21 resamples of 6 or more labeled rows: B = 200 spans at least 10 chunks.
        monkeypatch.setattr(estimators, "DRAW_CHUNK_BYTES", 1 << 10)
        code, out, err = run_cli(infer_args(**flags), capsys)
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"ppboot: error: {message}")

    @pytest.mark.parametrize("method", ["ppboot", "classical"])
    def test_ols_on_outcomes_near_the_float_range_succeeds_without_a_warning(self, tmp_path, capsys, method):
        flags = {**overflow_files(tmp_path, "outcomes-1e308"), "--estimand": "ols_coef", "--method": method,
                 "--seed": "1"}
        code, out, err = run_cli(infer_args(**flags), capsys)
        assert (code, err) == (0, "")
        assert list(json.loads(out)) == JSON_KEY_ORDER

    @pytest.mark.parametrize("cpus", [1, 3], ids=["1-cpu", "3-cpus"])
    @pytest.mark.parametrize("estimand", ["mean", "ols_coef"])
    @pytest.mark.parametrize("learner", ["knn", "linear_least_squares"])
    def test_learner_overflow_prints_only_the_error_line(self, monkeypatch, tmp_path, capsys, learner, estimand, cpus):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        flags = {**overflow_files(tmp_path, "outcomes-1e308"), "--estimand": estimand, "--crossfit": "3",
                 "--learner": learner, "--seed": "1"}
        code, out, err = run_cli(infer_args(**flags), capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == ["ppboot: error: predictions contains NaN or infinite entries"]

    def test_ppi_requires_mean(self, capsys):
        code, _, err = run_cli(infer_args(**{"--method": "ppi-mean", "--estimand": "quantile", "--q": "0.5"}), capsys)
        assert code == 2
        assert "mean" in err

    def test_tune_and_lambda_conflict(self, capsys):
        code, _, _ = run_cli(infer_args(**{"--tune": "", "--lambda": "0.5"}), capsys)
        assert code == 2

    def test_crossfit_without_prediction_column(self, tmp_path, capsys):
        labeled = tmp_path / "l.csv"
        labeled.write_text("x,y\n" + "".join(f"{i},{2 * i}\n" for i in range(12)), encoding="utf-8")
        unlabeled = tmp_path / "u.csv"
        unlabeled.write_text("x\n" + "".join(f"{i + 0.5}\n" for i in range(20)), encoding="utf-8")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"outcome": "y", "features": ["x"]}), encoding="utf-8")
        code, out, _ = run_cli(
            infer_args(**{
                "--labeled": str(labeled), "--unlabeled": str(unlabeled), "--schema": str(schema),
                "--crossfit": "3", "--learner": "linear_least_squares", "--B": "100",
            }),
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= payload["point"] <= payload["upper"]

    @pytest.mark.parametrize("flags, message", [
        pytest.param({"--learner": "knn", "--knn-k": "0"}, "--learner applies to --crossfit only",
                     id="learner-without-crossfit"),
        pytest.param({"--knn-k": "3"}, "--knn-k applies to --crossfit only", id="knn-k-without-crossfit"),
        pytest.param({"--crossfit": "5", "--knn-k": "0"},
                     "--knn-k applies to --learner knn only, not 'linear_least_squares'", id="knn-k-default-learner"),
        pytest.param({"--crossfit": "5", "--learner": "logistic_irls", "--knn-k": "3"},
                     "--knn-k applies to --learner knn only, not 'logistic_irls'", id="knn-k-logistic-learner"),
    ])
    def test_learner_flags_out_of_place_exit_2(self, capsys, flags, message):
        code, out, err = run_cli(infer_args(**flags), capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"ppboot: error: {message}"]

    @pytest.mark.parametrize("on_disk", [True, False], ids=["binary-data", "missing-files"])
    def test_crossfit_binary_estimand_exits_2_before_reading(self, tmp_path, capsys, on_disk):
        # Fold models average their predictions, so a 0/1 estimand cannot
        # take them; the study rejects the same combination.  Missing files
        # show that no CSV is read first.
        labeled, unlabeled = tmp_path / "l.csv", tmp_path / "u.csv"
        if on_disk:
            g = np.random.default_rng(3)
            labeled.write_text("x,y,fhat\n" + "".join(f"{x},{float(x > 0)},0.0\n" for x in g.standard_normal(30)),
                               encoding="utf-8")
            unlabeled.write_text("x,fhat\n" + "".join(f"{x},0.0\n" for x in g.standard_normal(60)), encoding="utf-8")
        code, out, err = run_cli(
            infer_args(**{"--labeled": str(labeled), "--unlabeled": str(unlabeled),
                          "--estimand": "logistic_coef", "--crossfit": "3"}),
            capsys,
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "ppboot: error: method 'cross-ppboot' cannot run estimand 'logistic_coef' with learner "
            "'linear_least_squares': the estimand needs 0/1 predictions and it averages the fold models' predictions"
        ]

    @pytest.mark.parametrize("flags, message", [
        pytest.param({"--estimand": "logistic_coef"}, "labeled outcomes must contain only 0/1 values",
                     id="logistic-estimand"),
        pytest.param({"--crossfit": "3", "--learner": "logistic_irls"}, "logistic learner requires 0/1 outcomes",
                     id="logistic-learner"),
    ])
    def test_non_binary_outcomes_for_logistic_exit_2(self, tmp_path, capsys, flags, message):
        # Outcomes that are not 0/1 are a data error whether the estimand or
        # the fold learner is logistic.
        labeled, unlabeled = tmp_path / "l.csv", tmp_path / "u.csv"
        g = np.random.default_rng(5)
        labeled.write_text("x,y,fhat\n" + "".join(f"{x!r},{x + e!r},0.0\n" for x, e in g.standard_normal((30, 2)).tolist()),
                           encoding="utf-8")
        unlabeled.write_text("x,fhat\n" + "".join(f"{x!r},0.0\n" for x in g.standard_normal(60).tolist()),
                             encoding="utf-8")
        code, out, err = run_cli(infer_args(**{"--labeled": str(labeled), "--unlabeled": str(unlabeled), **flags}),
                                 capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ppboot: error: {message}"]

    @pytest.mark.parametrize("method", ["classical", "imputed", "ppi-mean"])
    @pytest.mark.parametrize("flags, message", [
        pytest.param({"--tune": ""}, "--tune applies to --method ppboot only", id="tune"),
        pytest.param({"--lambda": "0.7"}, "--lambda applies to --method ppboot only", id="lambda"),
    ])
    def test_multiplier_flags_need_ppboot(self, capsys, method, flags, message):
        code, out, err = run_cli(infer_args(**{"--method": method, **flags}), capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ppboot: error: {message}"]

    @pytest.mark.parametrize("method, flags", [
        pytest.param("imputed", {}, id="imputed"),
        pytest.param("ppi-mean", {}, id="ppi-mean"),
        pytest.param("ppboot", {"--tune": ""}, id="ppboot-tuned"),
    ])
    def test_output_is_the_library_interval(self, capsys, method, flags):
        code, out, _ = run_cli(infer_args(**{"--method": method, **flags}), capsys)
        assert code == 0
        with open(SCHEMA, encoding="utf-8") as fh:
            schema = json.load(fh)
        labeled = load_csv(LABELED, schema, expect="labeled")
        unlabeled = load_csv(UNLABELED, schema, expect="unlabeled")
        spec = EstimandSpec("mean")
        cfg = BootstrapConfig(B=200, alpha=0.1, lambda_mode="tuned" if flags else "off", master_seed=42)
        if method == "imputed":
            ci = imputed_interval(unlabeled, spec, cfg, RngStream(42))
        elif method == "ppi-mean":
            ci = ppi_mean_interval(labeled, unlabeled, cfg.alpha)
        else:
            ci = ppboot_interval(labeled, unlabeled, spec, cfg, RngStream(42))
        ci = reported_interval(ci, spec)
        expected = dict(zip(JSON_KEY_ORDER, [method, "mean", ci.lower, ci.upper, ci.point_estimate, ci.lambda_used,
                                             200, 0.1, 42, ci.degenerate_iterations]))
        assert out == json.dumps(expected) + "\n"

    def test_imputed_needs_unlabeled(self, capsys):
        code, _, err = run_cli(infer_args(**{"--method": "imputed", "--unlabeled": None}), capsys)
        assert code == 2
        assert "unlabeled" in err

    def test_transform_flag_maps_bounds(self, capsys):
        import math

        _, out_id, _ = run_cli(infer_args(), capsys)
        _, out_exp, _ = run_cli(infer_args(**{"--transform": "exp"}), capsys)
        identity, transformed = json.loads(out_id), json.loads(out_exp)
        assert transformed["lower"] == pytest.approx(math.exp(identity["lower"]), rel=1e-12)
        assert transformed["upper"] == pytest.approx(math.exp(identity["upper"]), rel=1e-12)


def study_config(tmp_path, **overrides):
    raw = {
        "data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 400, "p": 0.3,
                                "prediction_model": "noisy_truth", "rho": 0.9}},
        "estimand": {"kind": "mean"},
        "n_grid": [50],
        "trials": 3,
        "methods": ["ppboot", "classical"],
        "bootstrap": {"B": 150},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


class TestStudy:
    def test_writes_reports_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["study", "--config", study_config(tmp_path), "--out", str(out_dir), "--seed", "7"], capsys)
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["coverage.csv", "intervals.csv", "manifest.json", "report.json"]
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7
        assert manifest["version"].startswith("ppboot-")
        assert manifest["config"]["trials"] == 3

    def test_single_cell_config_gives_one_aggregate_row(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = study_config(tmp_path, trials=1, methods=["classical"])
        code, _, _ = run_cli(["study", "--config", cfg, "--out", str(out_dir), "--seed", "3"], capsys)
        assert code == 0
        lines = (out_dir / "coverage.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["study", "--config", study_config(tmp_path), "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_rerun_and_threads_byte_identical(self, tmp_path, capsys):
        cfg = study_config(tmp_path)
        dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        for out_dir, threads in zip(dirs, ("1", "1", "4")):
            code, _, _ = run_cli(["study", "--config", cfg, "--out", str(out_dir), "--seed", "5",
                                  "--threads", threads], capsys)
            assert code == 0
        for name in ("coverage.csv", "intervals.csv", "report.json", "manifest.json"):
            blobs = [(d / name).read_bytes() for d in dirs]
            assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("overrides, named", [
        pytest.param({"methods": ["nonsense"]}, "nonsense", id="unknown-method"),
        pytest.param({"bootstrap": {"B": "1000"}}, "'B'", id="string-B"),
        pytest.param({"bootstrap": {"alpha": "0.1"}}, "'alpha'", id="string-alpha"),
        pytest.param({"bootstrap": {"B": 10**15}}, f"B must be in [2, {MAX_B}]", id="B-above-cap"),
        pytest.param({"bootstrap": {"B": 150, "tuning_B": 10**15}}, f"tuning_B must be in [2, {MAX_B}]",
                     id="tuning-B-above-cap"),
        pytest.param({"estimand": {"kind": "mean", "q": "0.5"}}, "'q'", id="string-q"),
        pytest.param({"data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": "10000"}}},
                     "'total_rows'", id="string-total-rows"),
        pytest.param({"n_grid": [50.9]}, "'n_grid'", id="float-n"),
        # JSON files may spell NaN and Infinity; no number key takes them.
        pytest.param({"bootstrap": {"B": 150, "lambda_mode": "fixed", "lambda_value": float("nan")}},
                     "key 'lambda_value' must be finite, got NaN", id="nan-lambda"),
        pytest.param({"data": {"synthetic": {"dgp": "gaussian_linear", "total_rows": 400, "coef": [1.0],
                                             "noise_sd": float("nan")}}},
                     "key 'noise_sd' must be finite, got NaN", id="nan-noise-sd"),
        pytest.param({"data": {"synthetic": {"dgp": "gaussian_linear", "total_rows": 400, "coef": [float("inf")]}}},
                     "key 'coef' entries must be finite, got Infinity", id="infinite-coef"),
        pytest.param({"estimand": {"kind": "quantile", "q": float("-inf")}},
                     "key 'q' must be finite, got -Infinity", id="negative-infinite-q"),
        pytest.param({"n_grid": ["50"]}, "'n_grid'", id="string-n"),
        pytest.param({"n_grid": [True]}, "'n_grid'", id="bool-n"),
        pytest.param({"methods": ["ppboot", 1]}, "'methods'", id="int-method"),
        pytest.param({"methods": ["ppboot", "classical", "ppboot"]}, "method 'ppboot' is listed more than once",
                     id="repeated-method"),
        pytest.param({"data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 400, "seed_path": [1.5]}}},
                     "'seed_path'", id="unknown-seed-path-float"),
        pytest.param({"data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 400, "seed_path": [False]}}},
                     "'seed_path'", id="unknown-seed-path-bool"),
        pytest.param({"data": {"synthetic": {"dgp": "gaussian_linear", "total_rows": 400, "coef": ["1.5"]}}},
                     "'coef'", id="string-coef"),
        pytest.param({"data": {"synthetic": {"dgp": "gaussian_linear", "total_rows": 400, "coef": [True]}}},
                     "'coef'", id="bool-coef"),
        pytest.param({"data": {"synthetic": {"dgp": "binary_pair", "total_rows": 400,
                                             "joint": ["0.25", "0.25", "0.25", "0.25"]}}},
                     "'joint'", id="string-joint"),
        pytest.param({"data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 400}, "extra": 1}},
                     "'extra'", id="unknown-data-key"),
        pytest.param({"data": {"csv": {"path": "data.csv", "schema": {}, "delimiter": ";"}}},
                     "'delimiter'", id="unknown-csv-key"),
        # The study's --seed is the master seed, so the config cannot set it.
        pytest.param({"bootstrap": {"B": 150, "master_seed": 12345}}, "'master_seed'", id="master-seed-key"),
        # Binary estimands need 0/1 predictions, which fold averages and
        # most learners never give.
        pytest.param({"estimand": {"kind": "logistic_coef"}, "methods": ["ppboot", "cross-ppboot"],
                      "crossfit": {"learner": {"kind": "logistic_irls"}}},
                     "method 'cross-ppboot' cannot run estimand 'logistic_coef' with learner 'logistic_irls'",
                     id="cross-logistic"),
        pytest.param({"estimand": {"kind": "log_odds_ratio"}, "methods": ["cross-ppboot"],
                      "crossfit": {"learner": {"kind": "knn", "k": 1}}},
                     "method 'cross-ppboot' cannot run estimand 'log_odds_ratio' with learner 'knn' (k=1)",
                     id="cross-log-odds-knn-1"),
        pytest.param({"estimand": {"kind": "logistic_coef"}, "methods": ["split-ppboot"]},
                     "method 'split-ppboot' cannot run estimand 'logistic_coef' with learner 'linear_least_squares'",
                     id="split-logistic-linear"),
        pytest.param({"estimand": {"kind": "log_odds_ratio"}, "methods": ["split-ppboot"],
                      "crossfit": {"learner": {"kind": "knn", "k": 3}}},
                     "method 'split-ppboot' cannot run estimand 'log_odds_ratio' with learner 'knn' (k=3)",
                     id="split-log-odds-knn-3"),
        # Fold counts and split fractions are checked when the config is
        # read, before any worker starts, whether or not a method uses them.
        pytest.param({"methods": ["ppboot", "cross-ppboot"], "crossfit": {"k": 1}},
                     "crossfit 'k' must be >= 2, got 1", id="crossfit-k-1"),
        pytest.param({"crossfit": {"split_fraction": 1.5}},
                     "crossfit 'split_fraction' must lie strictly inside (0, 1): got 1.5", id="split-fraction-1.5"),
    ])
    def test_bad_config_exits_2_without_outputs(self, tmp_path, capsys, overrides, named):
        cfg = study_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["study", "--config", cfg, "--out", str(out_dir), "--seed", "1"], capsys)
        assert code == 2
        assert not out_dir.exists()
        assert len(err.strip().splitlines()) == 1
        assert named in err

    @pytest.mark.parametrize("text, shown", [("5", "5"), ("null", "null"), ("true", "true"), ('"x"', '"x"')],
                             ids=["5", "null", "true", "string"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, text, shown):
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["study", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"ppboot: error: study config must be an object, got {shown}"]
        assert not out_dir.exists()

    def test_config_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"trials": \xff}')
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["study", "--config", str(cfg), "--out", str(out_dir), "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and f"invalid JSON in {cfg}:" in err
        assert not out_dir.exists()

    def test_failing_method_exits_4_without_outputs(self, tmp_path, capsys):
        # Constant predictions break the imputed odds ratio on every trial
        # while the ground truth (true outcomes) stays healthy.
        import numpy as np

        g = np.random.default_rng(0)
        rows = ["e,y,fhat"]
        for _ in range(200):
            rows.append(f"{float(g.random() < 0.5)},{float(g.random() < 0.5)},1.0")
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = study_config(
            tmp_path,
            data={"csv": {"path": str(data_csv),
                           "schema": {"outcome": "y", "prediction": "fhat", "features": ["e"]}}},
            estimand={"kind": "log_odds_ratio", "exposure_column": 0},
            methods=["imputed"],
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["study", "--config", cfg, "--out", str(out_dir), "--seed", "2"], capsys)
        assert code == 4
        assert "imputed" in err
        assert not out_dir.exists()


    @pytest.mark.parametrize("method", ["cross-ppboot", "split-ppboot"])
    def test_logistic_learner_on_non_binary_outcomes_exits_2_without_outputs(self, tmp_path, capsys, method):
        cfg = study_config(
            tmp_path,
            data={"synthetic": {"dgp": "gaussian_linear", "total_rows": 200, "coef": [1.0]}},
            methods=[method], bootstrap={"B": 20}, crossfit={"k": 3, "learner": {"kind": "logistic_irls"}},
        )
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["study", "--config", cfg, "--out", str(out_dir), "--seed", "2"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["ppboot: error: logistic learner requires 0/1 outcomes"]
        assert not out_dir.exists()


class TestLoopThreads:
    """Reports do not depend on how many threads infer's mean and quantile loops run."""

    # At 3 CPUs each loop starts a pool, and so does the one round of three fold models' predictions.
    @pytest.mark.parametrize("flags, loops", [({"--tune": ""}, 2), ({"--estimand": "quantile", "--q": "0.9"}, 1),
                                              ({"--crossfit": "3", "--learner": "knn"}, 2)],
                             ids=["tuned-mean", "quantile", "crossfit-knn"])
    def test_infer_output_is_byte_identical(self, monkeypatch, capsys, flags, loops):
        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        # Chunks of 16 resamples of the fixture's 6 labeled rows: B = 200 spans 13 chunks.
        monkeypatch.setattr(estimators, "DRAW_CHUNK_BYTES", 8 * 6 * 16)
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            outputs.append(run_cli(infer_args(**flags), capsys))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert pools == [2] * loops


class TestBlasThreads:
    """Reports do not depend on how many threads the BLAS library runs."""

    @pytest.mark.parametrize("estimand", ["ols_coef", "logistic_coef", "pearson_corr", "log_odds_ratio"])
    def test_infer_output_is_byte_identical(self, tmp_path, estimand):
        g = np.random.default_rng(23)
        # Over 10^4 unlabeled rows: OpenBLAS threads dot products that long.
        rows = 10_400
        # B = 40 resamples span several chunks of the engine's count matrix.
        assert 40 > CHUNK_BYTES // (8 * (rows - 200))
        X = g.standard_normal((rows, 3))
        eta = X @ np.array([0.8, -0.5, 0.3])
        if estimand == "log_odds_ratio":
            X[:, 0] = (X[:, 0] > 0.0).astype(float)
        if estimand in ("logistic_coef", "log_odds_ratio"):
            y = (g.random(rows) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        else:
            y = eta + g.standard_normal(rows)
        fhat = np.where(g.random(rows) < 0.9, y, y[::-1])
        table = np.column_stack([X, y, fhat])
        labeled, unlabeled = tmp_path / "l.csv", tmp_path / "u.csv"
        np.savetxt(labeled, table[:200], fmt="%.10g", delimiter=",", header="x1,x2,x3,y,fhat", comments="")
        np.savetxt(unlabeled, table[200:][:, [0, 1, 2, 4]], fmt="%.10g", delimiter=",", header="x1,x2,x3,fhat", comments="")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"outcome": "y", "prediction": "fhat", "features": ["x1", "x2", "x3"]}))
        argv = infer_args(**{"--labeled": labeled, "--unlabeled": unlabeled, "--schema": schema,
                             "--estimand": estimand, "--target-index": "0", "--B": "40"})
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppboot.__file__)))
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = src
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-m", "ppboot.cli", *argv], env=env, capture_output=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["estimand"] == estimand
