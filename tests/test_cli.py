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
from genvarswap import cli, montecarlo
from genvarswap.calibrate import model_curve
from genvarswap.cli import main

CORR_ARRAY = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
CORR = validate_correlation(CORR_ARRAY)
TRUTH = np.array([1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09])


@pytest.fixture(autouse=True)
def pinned_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def write_prices(tmp_path, n_rows=81, name="prices.csv", seed=211, tickers=("AAA", "BBB", "CCC")):
    rng = np.random.default_rng(seed)
    log_prices = np.cumsum(rng.normal(0.0, 0.013, (n_rows, 3)), axis=0)
    prices = 100.0 * np.exp(log_prices)
    rows = ["date," + ",".join(tickers)]
    day = datetime.date(2021, 1, 4)
    for row in prices:
        rows.append(f"{day},{row[0]:.6f},{row[1]:.6f},{row[2]:.6f}")
        day += datetime.timedelta(days=1)
    target = tmp_path / name
    target.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
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


def write_result(tmp_path, name="result.json", model="heston", params=TRUTH):
    """A result.json as ``calibrate`` writes it, with only the fields ``report`` reads."""
    target = tmp_path / name
    target.write_text(json.dumps(
        {"model": model, "correlation": CORR_ARRAY.tolist(), "params": list(params)}
    ))
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

    @pytest.mark.parametrize("annualization", ["0", "-252"])
    def test_annualization_below_one_exits_2(self, tmp_path, capsys, annualization):
        prices = write_prices(tmp_path)
        code = main(["estimate", str(prices), "--annualization", annualization,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "annualization" in err and "Traceback" not in err

    @pytest.mark.parametrize("digits, code", [(400, 2), (300, 3)])
    def test_huge_annualization_exits_in_contract(self, tmp_path, digits, code):
        """10^400 is beyond the float range (a ValidationError); 10^300 overflows |cov|."""
        write_prices(tmp_path, n_rows=60)
        source = str(Path(genvarswap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": source}
        proc = subprocess.run(
            [sys.executable, "-m", "genvarswap.cli", "estimate", "prices.csv",
             "--annualization", "1" + "0" * digits, "--out", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
        assert not (tmp_path / "out" / "realized.csv").exists()

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

    def test_negligible_jump_part_prices_as_none(self, tmp_path):
        """rho = -1e-10 and kappa2* = 1e-8, where a BNS fit's start leaves them: the jump
        part is below E_all's last bit, and price.csv keeps the bytes of kappa2* = 0."""
        contract = write_contract(tmp_path)
        written = []
        for kappa2_star in (1e-8, 0.0):
            doc = _bns_doc()
            doc["assets"] = [{**asset, "rho": -1e-10} for asset in doc["assets"]]
            model = tmp_path / f"bns_{kappa2_star}.json"
            model.write_text(json.dumps({**doc, "kappa2_star": kappa2_star}))
            out = tmp_path / f"out_{kappa2_star}"
            assert main(["price", "--model", str(model), "--contract", str(contract),
                         "--out", str(out)]) == 0
            written.append((out / "price.csv").read_bytes())
        assert written[0] == written[1]

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


    @pytest.mark.parametrize("r, notional", [(-1000.0, 1000.0), (-70.0, 1e10)])
    def test_non_finite_swap_value_exits_3(self, tmp_path, capsys, r, notional):
        model = write_model(tmp_path)
        contract = tmp_path / "contract.json"
        contract.write_text(json.dumps(SwapContract(1e-4, r, 10.0, notional).to_dict()))
        assert main(["price", "--model", str(model), "--contract", str(contract)]) == 3
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err

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


def _with_asset_field(doc, key, value):
    """``doc`` with field ``key`` of its first asset set to ``value``."""
    first = {**doc["assets"][0], key: value}
    return {**doc, "assets": [first] + doc["assets"][1:]}


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
            ("price", "contract", lambda m: [m], "JSON object"),
            ("price", "contract", lambda m: {"k_var": 1e-4, "r": 0.02, "maturity": "1y",
                                            "notional": 1.0}, "1y"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "horizon": 1.0}, "missing key 'dt'"),
            ("simulate", "sim", lambda m: {"dt": 0.25, "horizon": 1.0}, "missing key 'n_paths'"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25}, "missing key 'horizon'"),
            ("simulate", "sim", lambda m: {"n_paths": float("inf"), "dt": 0.25, "horizon": 1.0},
             "infinity"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": 1.0,
                                          "block_size": 1e400}, "infinity"),
            ("simulate", "sim", lambda m: {"n_paths": 2.5, "dt": 0.25, "horizon": 1.0}, "2.5"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": 1.0,
                                          "block_size": 1.9}, "1.9"),
            ("simulate", "model", lambda m: _with_asset_field(m, "k", "2.0"), "'2.0'"),
            ("simulate", "model", lambda m: _with_asset_field(m, "gamma", True), "True"),
            ("price", "model", lambda m: {**_bns_doc(), "lambda": "2"}, "'2'"),
            ("price", "model", lambda m: _with_asset_field(_bns_doc(), "rho", False), "False"),
            ("price", "model", lambda m: {**m, "correlation": [[True, 0.3, 0.3]] + m["correlation"][1:]},
             "True"),
            ("price", "contract", lambda m: {"k_var": 1e-4, "r": True, "maturity": 1.0,
                                            "notional": 1.0}, "True"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": "0.25", "horizon": 1.0}, "'0.25'"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": True}, "True"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": 1.0,
                                          "record_times": ["0.0", 1]}, "'0.0'"),
            ("simulate", "sim", lambda m: {"n_paths": 4, "dt": 0.25, "horizon": 10**400}, "horizon"),
            ("price", "model", lambda m: {**_bns_doc(), "assets": [None] * 3}, "malformed field"),
        ],
        ids=["heston-no-correlation", "top-level-array", "bns-no-assets",
             "contract-no-maturity", "contract-top-level-array", "contract-text-maturity",
             "sim-no-dt", "sim-no-paths", "sim-no-horizon",
             "sim-infinite-paths", "sim-infinite-block", "sim-fractional-paths",
             "sim-fractional-block", "heston-text-k", "heston-bool-gamma", "bns-text-lambda",
             "bns-bool-rho", "bool-correlation", "contract-bool-rate", "sim-text-dt",
             "sim-bool-horizon", "sim-text-record-time", "sim-huge-integer-horizon",
             "bns-null-asset"],
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
        assert err.count(str(bad)) == 1 and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["price", "simulate"])
    def test_subordinator_disagreeing_with_cumulants_exits_2(self, tmp_path, capsys, command):
        """A spec with kappa1 = a/b = 0.0067 against a stated 0.05 prices no model."""
        model = tmp_path / "bns.json"
        model.write_text(json.dumps(
            _with_asset_field(_bns_doc(), "subordinator", {"a": 0.2, "b": 30.0})
        ))
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 4, "dt": 0.25, "horizon": 1.0}))
        argv = [command, "--model", str(model)]
        if command == "price":
            argv += ["--contract", str(write_contract(tmp_path))]
        else:
            argv += ["--sim", str(sim), "--seed", "1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{model}: subordinator has kappa1" in err
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
        # a Heston block draws from live generators (_rngs), a BNS block its jump
        # list (_JumpList) from counters; each path must be drawn once
        made, built = [], []
        rngs, jump_list = montecarlo._rngs, montecarlo._JumpList
        monkeypatch.setattr(montecarlo, "_rngs", lambda cfg, lo, hi: (
            made.extend(range(lo, hi)) or rngs(cfg, lo, hi)
        ))
        monkeypatch.setattr(montecarlo, "_JumpList", lambda p, cfg, lo, hi: (
            made.extend(range(lo, hi)) or jump_list(p, cfg, lo, hi)
        ))
        path_rng = montecarlo._path_rng
        monkeypatch.setattr(
            montecarlo, "_path_rng", lambda seed, j: built.append(j) or path_rng(seed, j)
        )
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(model), "--sim", str(sim), "--seed", "7",
                     "--threads", "2", "--paths-csv", "--out", str(out)])
        assert code == 0
        assert sorted(made) == list(range(11))
        assert len(set(built)) == len(built)
        assert len((out / "paths.csv").read_text().strip().splitlines()) == 1 + 11 * 5

    def test_bad_sim_config_exits_2(self, tmp_path, capsys):
        model = write_model(tmp_path)
        sim = tmp_path / "sim.json"
        good = {"n_paths": 4, "dt": 0.25, "horizon": 1.0}
        # 0.5 and 0.5 + 1e-12 both lie on the dt = 0.01 grid, on one row
        one_row = {"n_paths": 4, "dt": 0.01, "horizon": 1.0, "record_times": [0.5, 0.500000000001]}
        for doc, flags in (
            ({"n_paths": 4, "dt": 0.3, "horizon": 1.0}, []),
            ({"n_paths": 4, "dt": 0.25, "horizon": float("inf")}, []),
            ({"n_paths": 4, "dt": 1e-300, "horizon": 1.0}, []),
            ({"n_paths": 4, "dt": 0.25, "horizon": 1e300}, []),
            ({"n_paths": 1e15, "dt": 0.25, "horizon": 1.0}, []),
            (good, ["--threads", "0"]),
            (one_row, []),
            (one_row, ["--paths-csv"]),
        ):
            sim.write_text(json.dumps(doc))
            code = main(["simulate", "--model", str(model), "--sim", str(sim),
                         "--seed", "7", "--out", str(tmp_path / "out")] + flags)
            assert code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if doc is one_row:
                assert "sim.json" in err and "0.5 and 0.500000000001" in err

    @pytest.mark.parametrize("kind", ["rate_2e300", "lambda_1e300"])
    def test_finite_but_huge_jump_rate_exits_2(self, tmp_path, capsys, kind):
        """An asset with a = 2 kappa1^2 / kappa2 = 2e300, or the CI mixed model at lambda =
        1e300, expects far more jumps than can be drawn: exit 2 naming the limit."""
        doc = _bns_doc()
        if kind == "rate_2e300":
            doc["assets"] = [{"sigma0_2": 0.04, "kappa1": 1e150, "kappa2": 1.0, "rho": -0.3}] * 3
        else:
            doc["lambda"] = 1e300
            doc["assets"] = [
                {"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3},
                {"sigma0_2": 0.06, "kappa1": 0.07, "kappa2": 0.0, "rho": -0.2},
                {"sigma0_2": 0.05, "kappa1": 0.06, "kappa2": 0.005, "rho": 0.0},
            ]
        model = tmp_path / "bns.json"
        model.write_text(json.dumps(doc))
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 4, "dt": 0.25, "horizon": 1.0}))
        code = main(["simulate", "--model", str(model), "--sim", str(sim), "--seed", "7",
                     "--paths-csv", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(montecarlo._MAX_ENSEMBLE_ENTRIES) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["heston", "bns"])
    def test_non_finite_estimate_exits_3(self, tmp_path, capsys, kind):
        """sigma_0^2 = 1e300 on one asset: the standard error overflows, so the run exits 3
        and writes no estimate (JSON has no Infinity), no paths and no manifest."""
        if kind == "heston":
            model = write_model(tmp_path)
            doc = json.loads(model.read_text())
        else:
            model, doc = tmp_path / "bns.json", _bns_doc()
        model.write_text(json.dumps(_with_asset_field(doc, "sigma0_2", 1e300)))
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_paths": 10, "dt": 0.1, "horizon": 1.0}))
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["simulate", "--model", str(model), "--sim", str(sim), "--seed", "1",
                         "--paths-csv", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "not finite" in err and "Traceback" not in err
        assert not any(out.iterdir())

    def test_integral_float_counts_accepted(self, tmp_path):
        """n_paths 5.0 and block_size 4096.0 run as 5 and 4096, not as an error."""
        model = write_model(tmp_path)
        estimates = []
        for doc in ({"n_paths": 5, "dt": 0.25, "horizon": 1.0},
                    {"n_paths": 5.0, "dt": 0.25, "horizon": 1.0, "block_size": 4096.0}):
            sim = tmp_path / "sim.json"
            sim.write_text(json.dumps(doc))
            out = tmp_path / f"out{len(estimates)}"
            code = main(["simulate", "--model", str(model), "--sim", str(sim),
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            estimates.append((out / "mc_estimate.json").read_text())
        assert estimates[0] == estimates[1]
        assert json.loads(estimates[1])["n_paths"] == 5


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

    def test_huge_integer_bound_is_an_open_bound(self, tmp_path):
        """A JSON bound of +-10**400 reads as +-inf, as null does: the same fit."""
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        results = []
        for name, open_hi, open_lo in [("null", None, None), ("huge", 10**400, -10**400)]:
            init = tmp_path / f"{name}.json"
            bounds = [[1e-4, open_hi]] * 3 + [[1e-10, 10.0]] * 6
            bounds[3] = [open_lo, 10.0]
            init.write_text(json.dumps({"initial": TRUTH.tolist(), "bounds": bounds}))
            out = tmp_path / name
            assert main(["calibrate", str(realized), str(correlation),
                         "--model", "heston", "--init", str(init), "--out", str(out)]) == 0
            results.append((out / "result.json").read_text())
        assert results[0] == results[1]

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

    @pytest.mark.parametrize("model", ["heston", "bns"])
    @pytest.mark.parametrize(
        "rows", ["0.5,-1e-4\n1.0,1e-4\n", "0.5,1e-4\n0.5,1e-4\n", "0,1e-4\n1.0,1e-4\n"],
        ids=["negative-value", "repeated-time", "zero-time"],
    )
    def test_impossible_series_exits_2(self, tmp_path, capsys, model, rows):
        realized = tmp_path / "realized.csv"
        realized.write_text("t,value\n" + rows)
        code = main(["calibrate", str(realized), str(write_correlation(tmp_path)),
                     "--model", model, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{realized}: row 2" in err or f"{realized}: row 3" in err
        assert "Traceback" not in err

    def test_initial_outside_bounds_exits_2(self, tmp_path):
        realized = write_realized(tmp_path)
        correlation = write_correlation(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"initial": (TRUTH * 1e9).tolist()}))
        code = main(["calibrate", str(realized), str(correlation),
                     "--model", "heston", "--init", str(init),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"initial": ["2.0"] + TRUTH.tolist()[1:]}, "'2.0'"),
            ({"initial": [True] + TRUTH.tolist()[1:]}, "True"),
            ({"initial": TRUTH.tolist(), "bounds": [["1e-4", None]] + [[None, None]] * 8}, "'1e-4'"),
            ({"initial": TRUTH.tolist(), "bounds": [[None, True]] + [[None, None]] * 8}, "True"),
            ({"initial": 2.0}, "initial"),
            ({"initial": TRUTH.tolist(), "bounds": 1.0}, "bounds"),
            ({"initial": TRUTH.tolist(), "bounds": [[1e-4, 100.0, 3.0]] + [[None, None]] * 8},
             "bounds"),
        ],
        ids=["text-initial", "bool-initial", "text-bound", "bool-bound", "scalar-initial",
             "scalar-bounds", "non-pair-bound"],
    )
    def test_non_numeric_init_exits_2_naming_file(self, tmp_path, capsys, doc, needle):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(doc))
        code = main(["calibrate", str(write_realized(tmp_path)), str(write_correlation(tmp_path)),
                     "--model", "heston", "--init", str(init), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(init) in err and needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", ["heston", "bns"])
    def test_nine_tickers_exit_2_naming_the_asset_count(self, tmp_path, capsys, model):
        n = 9
        corr = validate_correlation(np.full((n, n), 0.2) + 0.8 * np.eye(n))
        assets = tuple(
            HestonAssetParams(k=2.0 + 0.1 * i, theta2=0.04 + 0.002 * i, sigma0_2=0.05, gamma=0.3)
            for i in range(n)
        )
        cfg = SimConfig(n_paths=1, dt=1.0 / 252, horizon=1.0, seed=17)
        closes = montecarlo.simulate_heston_prices(
            HestonPortfolio(assets=assets, corr=corr), cfg, s0=100.0, mu=0.05
        ).prices[0]
        rows = ["date," + ",".join(f"T{i}" for i in range(n))]
        day = datetime.date(2021, 1, 4)
        for row in closes:
            rows.append(f"{day}," + ",".join(f"{x:.10f}" for x in row))
            day += datetime.timedelta(days=1)
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(rows) + "\n")
        est = tmp_path / "estimate"
        assert main(["estimate", str(prices), "--out", str(est)]) == 0
        capsys.readouterr()
        code = main(["calibrate", str(est / "realized.csv"), str(est / "correlation.csv"),
                     "--model", model, "--out", str(tmp_path / "fit")])
        assert code == 2
        err = capsys.readouterr().err
        assert "calibration takes 3 assets, got 9" in err and "absolute" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("key", ["params", "correlation"])
    def test_result_with_scalar_field_exits_2_naming_it(self, tmp_path, capsys, key):
        realized, result = self.run_calibration(tmp_path)
        result.write_text(json.dumps({**json.loads(result.read_text()), key: 0.5}))
        code = main(["report", str(realized), "--result", str(result),
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key} must be a list" in err and str(result) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", [["bns"], {"kind": "bns"}, 5])
    def test_result_with_unknown_model_exits_2_naming_file(self, tmp_path, capsys, model):
        realized = write_realized(tmp_path)
        result = tmp_path / "result.json"
        result.write_text(json.dumps(
            {"model": model, "correlation": CORR_ARRAY.tolist(), "params": TRUTH.tolist()}
        ))
        code = main(["report", str(realized), "--result", str(result),
                     "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown model" in err and str(result) in err
        assert "Traceback" not in err

    def test_one_model_twice_draws_both_curves(self, tmp_path, capsys):
        """A model given by more than one --result labels its curves by position."""
        realized = write_realized(tmp_path)
        result = write_result(tmp_path)
        out = tmp_path / "rep"
        code = main(["report", str(realized), "--result", str(result),
                     "--result", str(tmp_path / "missing.json"), "--result", str(result),
                     "--out", str(out)])
        assert code == 0
        svg = (out / "fitted_vs_realized.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "heston fit (1)" in svg and "heston fit (3)" in svg
        assert ">heston fit<" not in svg
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["heston", "heston"]


class TestParserReuse:
    """``main`` builds its parser once per process; no call sees what another parsed."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def report(self, tmp_path, capsys, name, results, fresh):
        """``report`` on ``results``; returns its exit code, stdout and output bytes."""
        if fresh:
            cli._build_parser.cache_clear()
        out = tmp_path / name
        argv = ["report", str(tmp_path / "realized.csv")]
        for result in results:
            argv += ["--result", str(tmp_path / result)]
        code = main(argv + ["--out", str(out)])
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return code, capsys.readouterr().out, files

    def test_repeated_report_calls_carry_nothing_over(self, tmp_path, capsys):
        write_realized(tmp_path)
        write_result(tmp_path, "a.json")
        bns_params = [2.0, 0.04, 0.06, 0.05, 0.05, 0.07, 0.06, 0.004, 0.006, 0.005,
                      -0.3, -0.2, -0.4, 0.01]
        write_result(tmp_path, "b.json", model="bns", params=bns_params)
        sequence = [["a.json"], ["a.json", "b.json"], ["b.json"]]
        reused = [self.report(tmp_path, capsys, f"reused{k}", results, fresh=False)
                  for k, results in enumerate(sequence)]
        assert cli._build_parser.cache_info().misses == 1
        fresh = [self.report(tmp_path, capsys, f"fresh{k}", results, fresh=True)
                 for k, results in enumerate(sequence)]
        assert reused == fresh
        models = [[row.split(",")[0] for row in files["metrics.csv"].decode().splitlines()[1:]]
                  for _, _, files in reused]
        assert models == [["heston"], ["heston", "bns"], ["bns"]]

    def test_errors_and_version_on_first_and_later_calls(self, capsys):
        for _ in range(2):
            assert main(["estimate", "x.csv", "--out", "o", "--bogus"]) == 2
            assert "unrecognized arguments: --bogus" in capsys.readouterr().err
            assert main(["--version"]) == 0
            assert capsys.readouterr().out == f"genvarswap {genvarswap.__version__}\n"

    def test_parser_is_built_once(self, capsys):
        for argv in (["--version"], ["price", "--help"], ["estimate", "--bogus"]):
            main(argv)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize(
    "command, bad",
    [("estimate", "prices"), ("calibrate", "realized"), ("calibrate", "correlation"),
     ("report", "realized")],
)
def test_non_utf8_csv_exits_2_naming_file(tmp_path, capsys, command, bad):
    files = {
        "prices": write_prices(tmp_path),
        "realized": write_realized(tmp_path),
        "correlation": write_correlation(tmp_path),
    }
    files[bad].write_bytes(files[bad].read_bytes().replace(b"\n", b"\n\xe9", 1))
    result = tmp_path / "result.json"
    result.write_text(json.dumps(
        {"model": "heston", "correlation": CORR_ARRAY.tolist(), "params": TRUTH.tolist()}
    ))
    out = str(tmp_path / "out")
    argv = {
        "estimate": ["estimate", str(files["prices"]), "--out", out],
        "calibrate": ["calibrate", str(files["realized"]), str(files["correlation"]),
                      "--model", "heston", "--out", out],
        "report": ["report", str(files["realized"]), "--result", str(result), "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(files[bad]) in err and "utf-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("epoch", ["abc", "1.5", "-99999999999999", "99999999999999999"])
def test_malformed_source_date_epoch_exits_2_writing_nothing(tmp_path, capsys, monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "out"
    assert main(["estimate", str(write_prices(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "SOURCE_DATE_EPOCH" in err and repr(epoch) in err
    assert "Traceback" not in err
    assert not out.exists()


def _run_every_command(root, capsys, bom):
    """Every command on inputs written under ``root``, each prefixed with a BOM if ``bom``.

    Returns {output directory: (exit code, stdout), output file: bytes}.
    """
    root.mkdir()
    files = {
        "prices": write_prices(root),
        "realized": write_realized(root),
        "correlation": write_correlation(root),
        "model": write_model(root),
        "contract": write_contract(root),
        "sim": root / "sim.json",
        "init": root / "init.json",
        "result": root / "result.json",
    }
    files["sim"].write_text(json.dumps({"n_paths": 8, "dt": 0.25, "horizon": 1.0}))
    files["init"].write_text(json.dumps({"initial": TRUTH.tolist()}))
    files["result"].write_text(json.dumps(
        {"model": "heston", "correlation": CORR_ARRAY.tolist(), "params": TRUTH.tolist()}
    ))
    for path in files.values() if bom else ():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    f = {k: str(v) for k, v in files.items()}
    commands = {
        "est": ["estimate", f["prices"]],
        "priced": ["price", "--model", f["model"], "--contract", f["contract"]],
        "mc": ["simulate", "--model", f["model"], "--sim", f["sim"], "--seed", "1", "--threads", "1"],
        "fit": ["calibrate", f["realized"], f["correlation"], "--model", "heston",
                "--init", f["init"]],
        "rep": ["report", f["realized"], "--result", f["result"]],
    }
    seen = {}
    for out, argv in commands.items():
        code = main(argv + ["--out", str(root / out)])
        seen[out] = (code, capsys.readouterr().out.replace(str(root), "<root>"))
        for path in sorted((root / out).iterdir()):
            if path.name != "run_manifest.json":  # holds the input hashes
                seen[f"{out}/{path.name}"] = path.read_bytes()
    return seen


def test_byte_order_mark_is_skipped_on_every_input(tmp_path, capsys):
    """A BOM-prefixed copy of each CSV and JSON input gives the plain file's outputs."""
    expected = _run_every_command(tmp_path / "plain", capsys, bom=False)
    assert [expected[out][0] for out in ("est", "priced", "mc", "fit", "rep")] == [0] * 5
    got = _run_every_command(tmp_path / "bom", capsys, bom=True)
    assert got == expected
    for name, data in got.items():
        if isinstance(data, bytes):
            assert not data.startswith(b"\xef\xbb\xbf"), name


def test_non_ascii_pipeline_under_the_c_locale(tmp_path):
    """estimate -> calibrate -> report and price write the same bytes under C and C.UTF-8."""
    source = str(Path(genvarswap.__file__).resolve().parents[1])
    locales = {
        "c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"LC_ALL": "C.UTF-8"},
    }
    runs = {}
    for name, settings in locales.items():
        root = tmp_path / name
        root.mkdir()
        write_prices(root, tickers=("CAFÉ", "Ørsted", "BBB"))
        write_model(root)
        contract = SwapContract(1e-4, 0.02, 1.0, 1000.0).to_dict()
        (root / "contract.json").write_bytes(
            json.dumps({**contract, "desk": "Zürich – €"}, ensure_ascii=False).encode("utf-8")
        )
        env = {**os.environ, "PYTHONPATH": source, "SOURCE_DATE_EPOCH": "1700000000", **settings}
        codes = []
        for argv in (
            ["estimate", "prices.csv", "--out", "est"],
            ["calibrate", "est/realized.csv", "est/correlation.csv", "--model", "heston",
             "--out", "fit"],
            ["report", "est/realized.csv", "--result", "fit/result.json", "--out", "rep"],
            ["price", "--model", "model.json", "--contract", "contract.json", "--out", "priced"],
        ):
            proc = subprocess.run([sys.executable, "-m", "genvarswap.cli", *argv], cwd=root,
                                  env=env, capture_output=True, timeout=300)
            assert b"Traceback" not in proc.stderr, proc.stderr.decode("utf-8", "replace")
            codes.append(proc.returncode)
        outputs = {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.glob("*/*"))
        }
        runs[name] = codes, outputs
    (c_codes, c_outputs), (codes, outputs) = runs["c"], runs["utf8"]
    assert codes[0] == 0 and codes[3] == 0
    assert c_codes == codes
    assert "CAFÉ".encode("utf-8") in outputs["est/correlation.csv"]
    assert sorted(c_outputs) == sorted(outputs)
    for name in outputs:
        assert c_outputs[name] == outputs[name], name


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


def _loaded_by_cli_import(package: str) -> str:
    """The modules of ``package`` that a fresh ``import genvarswap.cli`` loads, as printed."""
    source = str(Path(genvarswap.__file__).resolve().parents[1])
    code = (
        "import sys, genvarswap.cli; "
        f"print([m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})])"
    )
    env = {**os.environ, "PYTHONPATH": source}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy stays off the CLI import path; every command pays for what it loads."""
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_numpy_random():
    """numpy.random is loaded by the first simulation, not by the import."""
    assert _loaded_by_cli_import("numpy.random") == "[]"
