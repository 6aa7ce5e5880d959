"""End-to-end CLI behaviour: artifacts, determinism, exit codes."""

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genvarswap
from genvarswap import (
    HestonAssetParams,
    HestonPortfolio,
    SimConfig,
    SwapContract,
    expected_realized_variance,
    heston_realized_variance_mc,
    price_swap,
    validate_correlation,
)
from genvarswap import montecarlo
from genvarswap.calibrate import model_curve
from genvarswap.cli import main

CORR_ARRAY = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
CORR = validate_correlation(CORR_ARRAY)
TRUTH = np.array([1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09])


@pytest.fixture(autouse=True)
def pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def write_prices(tmp_path, n_rows=81, name="prices.csv", seed=211):
    rng = np.random.default_rng(seed)
    log_prices = np.cumsum(rng.normal(0.0, 0.013, (n_rows, 3)), axis=0)
    prices = 100.0 * np.exp(log_prices)
    rows = ["date,AAA,BBB,CCC"]
    day = datetime.date(2021, 1, 4)
    for row in prices:
        rows.append(f"{day},{row[0]:.6f},{row[1]:.6f},{row[2]:.6f}")
        day += datetime.timedelta(days=1)
    target = tmp_path / name
    target.write_text("\n".join(rows) + "\n")
    return target


def write_model(tmp_path, name="model.json"):
    assets = tuple(
        HestonAssetParams(k=TRUTH[i], theta2=TRUTH[3 + i], sigma0_2=TRUTH[6 + i], gamma=0.4)
        for i in range(3)
    )
    doc = {"model": "heston", **HestonPortfolio(assets=assets, corr=CORR).to_dict()}
    target = tmp_path / name
    target.write_text(json.dumps(doc))
    return target


def write_contract(tmp_path, name="contract.json"):
    target = tmp_path / name
    target.write_text(json.dumps(SwapContract(1e-4, 0.02, 1.0, 1000.0).to_dict()))
    return target


def write_realized(tmp_path, name="realized.csv", noise=1e-8, n=20):
    times = np.linspace(0.1, 2.0, n)
    values = model_curve("heston", TRUTH, CORR, times)
    values = values + np.random.default_rng(5).normal(0.0, noise, n)
    lines = ["t,value"] + [f"{float(t)!r},{float(v)!r}" for t, v in zip(times, values)]
    target = tmp_path / name
    target.write_text("\n".join(lines) + "\n")
    return target


def write_correlation(tmp_path, name="correlation.csv"):
    lines = ["AAA,BBB,CCC"] + [",".join(f"{float(x)!r}" for x in row) for row in CORR_ARRAY]
    target = tmp_path / name
    target.write_text("\n".join(lines) + "\n")
    return target


class TestEstimate:
    EXPECTED = (
        "realized.csv", "correlation.csv", "summary.csv",
        "histogram.svg", "correlation.svg", "cumulative.svg", "run_manifest.json",
    )

    def test_artifacts_and_window_count(self, tmp_path, capsys):
        prices = write_prices(tmp_path)
        out = tmp_path / "out"
        assert main(["estimate", str(prices), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(self.EXPECTED)
        realized = (out / "realized.csv").read_text().strip().splitlines()
        assert len(realized) - 1 == (81 - 1) // 10
        assert "windows: 8" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        prices = write_prices(tmp_path)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["estimate", str(prices), "--out", str(out1)]) == 0
        assert main(["estimate", str(prices), "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_rolling_flag(self, tmp_path):
        prices = write_prices(tmp_path)
        out = tmp_path / "out"
        assert main(["estimate", str(prices), "--rolling", "--out", str(out)]) == 0
        realized = (out / "realized.csv").read_text().strip().splitlines()
        assert len(realized) - 1 == 80 - 10 + 1

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,AAA,BBB\n2021-01-04,100,50\n2021-01-05,oops,51\n")
        out = tmp_path / "out"
        assert main(["estimate", str(bad), "--out", str(out)]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 4

    def test_negative_determinant_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "det", lambda a: -1.0)
        prices = write_prices(tmp_path)
        assert main(["estimate", str(prices), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "determinant" in err
        assert "Traceback" not in err


class TestPrice:
    def test_heston_price_matches_library(self, tmp_path, capsys):
        model = write_model(tmp_path)
        contract = write_contract(tmp_path)
        out = tmp_path / "out"
        code = main(["price", "--model", str(model), "--contract", str(contract),
                     "--out", str(out)])
        assert code == 0
        assert "heston" in capsys.readouterr().out
        rows = (out / "price.csv").read_text().strip().splitlines()
        assert rows[0] == "model,maturity,expected_realized_variance,k_var,price"
        assets = tuple(
            HestonAssetParams(k=TRUTH[i], theta2=TRUTH[3 + i], sigma0_2=TRUTH[6 + i], gamma=0.4)
            for i in range(3)
        )
        pf = HestonPortfolio(assets=assets, corr=CORR)
        ev = expected_realized_variance(1.0, pf)
        expected = price_swap(ev, SwapContract(1e-4, 0.02, 1.0, 1000.0))
        assert float(rows[1].split(",")[4]) == expected

    def test_bns_price(self, tmp_path, capsys):
        doc = {
            "model": "bns",
            "correlation": CORR_ARRAY.tolist(),
            "assets": [
                {"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3},
                {"sigma0_2": 0.06, "kappa1": 0.07, "kappa2": 0.006, "rho": -0.2},
                {"sigma0_2": 0.05, "kappa1": 0.06, "kappa2": 0.005, "rho": -0.4},
            ],
            "lambda": 2.0,
            "kappa2_star": 0.01,
        }
        model = tmp_path / "bns.json"
        model.write_text(json.dumps(doc))
        contract = write_contract(tmp_path)
        assert main(["price", "--model", str(model), "--contract", str(contract)]) == 0
        assert "bns" in capsys.readouterr().out

    def test_stdout_only_without_out_flag(self, tmp_path):
        model = write_model(tmp_path)
        contract = write_contract(tmp_path)
        assert main(["price", "--model", str(model), "--contract", str(contract)]) == 0
        assert not (tmp_path / "price.csv").exists()

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        contract = write_contract(tmp_path)
        assert main(["price", "--model", str(bad), "--contract", str(contract)]) == 2

    def test_non_utf8_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        contract = write_contract(tmp_path)
        assert main(["price", "--model", str(bad), "--contract", str(contract)]) == 2

    def test_unknown_model_kind_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "garch"}))
        contract = write_contract(tmp_path)
        assert main(["price", "--model", str(bad), "--contract", str(contract)]) == 2


    def test_two_asset_model_matches_library(self, tmp_path, capsys):
        assets = (
            HestonAssetParams(k=1.0, theta2=0.05, sigma0_2=0.10, gamma=0.4),
            HestonAssetParams(k=3.0, theta2=0.08, sigma0_2=0.06, gamma=0.4),
        )
        pf = HestonPortfolio(assets=assets, corr=validate_correlation(np.array([[1.0, 0.4], [0.4, 1.0]])))
        model = tmp_path / "model2.json"
        model.write_text(json.dumps({"model": "heston", **pf.to_dict()}))
        contract = write_contract(tmp_path)
        out = tmp_path / "out"
        code = main(["price", "--model", str(model), "--contract", str(contract),
                     "--out", str(out)])
        assert code == 0
        ev = expected_realized_variance(1.0, pf)
        assert f"{ev:.6e}" in capsys.readouterr().out
        row = (out / "price.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == ev
        assert float(row[4]) == price_swap(ev, SwapContract(1e-4, 0.02, 1.0, 1000.0))


def _drop(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _bns_doc():
    return {
        "model": "bns",
        "correlation": CORR_ARRAY.tolist(),
        "assets": [{"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3}] * 3,
        "lambda": 2.0,
        "kappa2_star": 0.01,
    }


class TestMalformedDocuments:
    """A JSON document with a missing key or the wrong shape exits 2 with a message."""

    @pytest.mark.parametrize(
        "command, role, content, needle",
        [
            ("price", "model", lambda m: _drop(m, "correlation"), "'correlation'"),
            ("price", "model", lambda m: [m], "JSON object"),
            ("price", "model", lambda m: _drop(_bns_doc(), "assets"), "'assets'"),
            ("price", "contract", lambda m: {"k_var": 1e-4, "r": 0.02, "notional": 1.0}, "'maturity'"),
            ("price", "contract", lambda m: {"k_var": 1e-4, "r": 0.02, "maturity": "1y",
                                            "notional": 1.0}, "1y"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "horizon": 1.0}, "'dt'"),
            ("simulate", "sim", lambda m: {"n_paths": float("inf"), "dt": 0.25, "horizon": 1.0},
             "infinity"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": 1.0,
                                          "block_size": 1e400}, "infinity"),
        ],
        ids=["heston-no-correlation", "top-level-array", "bns-no-assets",
             "contract-no-maturity", "contract-text-maturity", "sim-no-dt",
             "sim-infinite-paths", "sim-infinite-block"],
    )
    def test_exits_2_naming_file(self, tmp_path, capsys, command, role, content, needle):
        paths = {"model": write_model(tmp_path), "contract": write_contract(tmp_path)}
        model_doc = json.loads(paths["model"].read_text())
        paths["sim"] = tmp_path / "sim.json"
        paths["sim"].write_text(json.dumps({"n_paths": 4, "dt": 0.25, "horizon": 1.0}))
        bad = tmp_path / f"bad_{role}.json"
        bad.write_text(json.dumps(content(model_doc)))
        paths[role] = bad
        argv = [command, "--model", str(paths["model"])]
        if command == "price":
            argv += ["--contract", str(paths["contract"])]
        else:
            argv += ["--sim", str(paths["sim"]), "--seed", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and needle in err
        assert "Traceback" not in err


class TestSimulate:
    def test_estimate_matches_library(self, tmp_path):
        model = write_model(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 400, "dt": 0.01, "horizon": 0.5}))
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(model), "--sim", str(sim),
                     "--seed", "5", "--threads", "2", "--out", str(out)])
        assert code == 0
        estimate = json.loads((out / "mc_estimate.json").read_text())
        assets = tuple(
            HestonAssetParams(k=TRUTH[i], theta2=TRUTH[3 + i], sigma0_2=TRUTH[6 + i], gamma=0.4)
            for i in range(3)
        )
        pf = HestonPortfolio(assets=assets, corr=CORR)
        direct = heston_realized_variance_mc(
            pf, SimConfig(n_paths=400, dt=0.01, horizon=0.5, seed=5), threads=1
        )
        assert estimate["mean"] == direct.mean
        assert estimate["std_error"] == direct.std_error
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["command"] == "simulate"

    def test_seed_flag_is_mandatory(self, tmp_path, capsys):
        model = write_model(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 4, "dt": 0.25, "horizon": 1.0}))
        code = main(["simulate", "--model", str(model), "--sim", str(sim),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_paths_csv_export(self, tmp_path):
        model = write_model(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 3, "dt": 0.25, "horizon": 1.0}))
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(model), "--sim", str(sim),
                     "--seed", "7", "--paths-csv", "--out", str(out)])
        assert code == 0
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert lines[0] == "path,time,var_1,var_2,var_3"
        assert len(lines) == 1 + 3 * 5

    @pytest.mark.parametrize("kind", ["heston", "bns"])
    def test_paths_csv_simulates_each_path_once(self, tmp_path, monkeypatch, kind):
        model = write_model(tmp_path) if kind == "heston" else tmp_path / "bns.json"
        if kind == "bns":
            model.write_text(json.dumps(_bns_doc()))
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 11, "dt": 0.25, "horizon": 1.0, "block_size": 4}))
        made = []
        path_rng = montecarlo._path_rng
        monkeypatch.setattr(
            montecarlo, "_path_rng", lambda seed, j: made.append(j) or path_rng(seed, j)
        )
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(model), "--sim", str(sim), "--seed", "7",
                     "--threads", "2", "--paths-csv", "--out", str(out)])
        assert code == 0
        assert sorted(made) == list(range(11))
        assert len((out / "paths.csv").read_text().strip().splitlines()) == 1 + 11 * 5

    def test_bad_sim_config_exits_2(self, tmp_path, capsys):
        model = write_model(tmp_path)
        sim = tmp_path / "sim.json"
        good = {"n_paths": 4, "dt": 0.25, "horizon": 1.0}
        for doc, flags in (
            ({"n_paths": 4, "dt": 0.3, "horizon": 1.0}, []),
            ({"n_paths": 4, "dt": 0.25, "horizon": float("inf")}, []),
            (good, ["--threads", "0"]),
        ):
            sim.write_text(json.dumps(doc))
            code = main(["simulate", "--model", str(model), "--sim", str(sim),
                         "--seed", "7", "--out", str(tmp_path / "out")] + flags)
            assert code == 2
            assert "Traceback" not in capsys.readouterr().err


class TestCalibrate:
    def test_round_trip_via_files(self, tmp_path, capsys):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"initial": (TRUTH * 1.3).tolist()}))
        out = tmp_path / "out"
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["model"] == "heston"
        assert doc["converged"] is True
        assert doc["param_names"] == list(
            ("k_1", "k_2", "k_3", "theta2_1", "theta2_2", "theta2_3",
             "sigma0_2_1", "sigma0_2_2", "sigma0_2_3")
        )
        assert len(doc["params"]) == 9
        assert "converged: True" in capsys.readouterr().out

    def test_default_start_without_init(self, tmp_path):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        out = tmp_path / "out"
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--out", str(out)])
        assert code in (0, 3)
        assert (out / "result.json").exists()

    def test_explicit_bounds_with_null(self, tmp_path):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        init = tmp_path / "init.json"
        bounds = [[1e-4, None]] * 3 + [[1e-10, None]] * 6
        init.write_text(json.dumps({"initial": TRUTH.tolist(), "bounds": bounds}))
        out = tmp_path / "out"
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init), "--out", str(out)])
        assert code == 0

    def test_non_finite_series_exits_3(self, tmp_path, capsys):
        realized = tmp_path / "realized.csv"
        realized.write_text("t,value\n0.5,nan\n1.0,1e-4\n")
        correlation = write_correlation(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"initial": TRUTH.tolist()}))
        out = tmp_path / "out"
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init), "--out", str(out)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_initial_outside_bounds_exits_2(self, tmp_path):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"initial": (TRUTH * 1e9).tolist()}))
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_init_without_initial_exits_2(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"bounds": None}))
        code = main(["calibrate", str(write_realized(tmp_path)), str(write_correlation(tmp_path)),
                     "--model", "heston", "--init", str(init), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'initial'" in capsys.readouterr().err


class TestReport:
    def run_calibration(self, tmp_path):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        out = tmp_path / "cal"
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"initial": (TRUTH * 1.3).tolist()}))
        assert main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init), "--out", str(out)]) == 0
        return realized, out / "result.json"

    def test_report_artifacts(self, tmp_path, capsys):
        realized, result = self.run_calibration(tmp_path)
        out = tmp_path / "rep"
        code = main(["report", str(realized), "--result", str(result), "--out", str(out)])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert rows[0] == "model,RMSE,APE,AAE,ARPE"
        assert rows[1].startswith("heston,")
        svg = (out / "fitted_vs_realized.svg").read_text()
        assert svg.startswith("<svg")
        assert "heston fit" in svg
        assert "realized" in svg

    def test_missing_one_result_warns(self, tmp_path, capsys):
        realized, result = self.run_calibration(tmp_path)
        out = tmp_path / "rep"
        code = main(["report", str(realized), "--result", str(result),
                     "--result", str(tmp_path / "missing.json"), "--out", str(out)])
        assert code == 0
        assert "skipping" in capsys.readouterr().err
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_all_results_missing_exits_4(self, tmp_path):
        realized, _ = self.run_calibration(tmp_path)
        code = main(["report", str(realized), "--result", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "rep")])
        assert code == 4

    def test_result_without_params_exits_2(self, tmp_path, capsys):
        realized, result = self.run_calibration(tmp_path)
        result.write_text(json.dumps(_drop(json.loads(result.read_text()), "params")))
        code = main(["report", str(realized), "--result", str(result),
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "'params'" in capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize(
        "command", ["estimate", "price", "simulate", "calibrate", "report"]
    )
    def test_help_documents_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--out" in text

    def test_unknown_flag_is_an_error(self, tmp_path, capsys):
        assert main(["estimate", "x.csv", "--out", "o", "--bogus"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "genvarswap" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    """scipy stays off the CLI import path; every command pays for what it loads."""
    source = str(Path(genvarswap.__file__).resolve().parents[1])
    code = "import sys, genvarswap.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": source}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
