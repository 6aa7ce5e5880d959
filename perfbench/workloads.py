"""The three benchmark workloads: their inputs, command sequences and checks.

Inputs are generated before timing from the package's own models and
simulators, so nothing is downloaded. Each workload is a list of CLI
commands run one after another through ``genvarswap.cli.main(argv)``; a
command fails when it exits nonzero or when one of its output checks fails.

* ``mc_heston``: ``simulate`` on the three-asset Heston model of the README,
  streaming route. ``--seed`` is the Monte Carlo seed.
* ``mc_bns_paths``: ``simulate --paths-csv`` on the leveraged BNS model of
  acceptance criterion 5 (rho < 0, kappa2* > 0), 11 recorded times.
  ``--seed`` is the Monte Carlo seed.
* ``market_calibrate``: ``estimate``, ``calibrate --model heston``,
  ``calibrate --model bns`` and ``report`` on two years of synthetic daily
  closes of three tickers. The closes follow one Heston path drawn at a fixed
  seed (the one ``demos/03_market_pipeline.py`` uses): the number of LM
  iterations, and so the fit time, depends strongly on the path (5 to 13 s
  across paths), which would drown any change in the code. ``--seed`` draws
  the price levels, the start date and the ticker names, which leave the log
  returns, and so the fit, as they are.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate

from genvarswap import (
    BnsPortfolioParams,
    HestonPortfolio,
    SimConfig,
    expected_realized_variance,
    expected_realized_variance_bns,
    simulate_heston_prices,
    validate_correlation,
)
from genvarswap.bns import (
    expected_variance_bns,
    expected_vol_bns,
    third_central_moment_bns,
)

CORRELATION = [[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]]

HESTON_MODEL = {
    "model": "heston",
    "assets": [
        {"k": 2.0, "theta2": 0.09, "sigma0_2": 0.04, "gamma": 0.3},
        {"k": 1.0, "theta2": 0.05, "sigma0_2": 0.06, "gamma": 0.2},
        {"k": 3.0, "theta2": 0.07, "sigma0_2": 0.05, "gamma": 0.35},
    ],
    "correlation": CORRELATION,
}

BNS_MODEL = {
    "model": "bns",
    "lambda": 2.0,
    "kappa2_star": 0.01,
    "assets": [
        {"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3},
        {"sigma0_2": 0.06, "kappa1": 0.07, "kappa2": 0.006, "rho": -0.2},
        {"sigma0_2": 0.05, "kappa1": 0.06, "kappa2": 0.005, "rho": -0.4},
    ],
    "correlation": CORRELATION,
}

RECORD_TIMES = [i / 10 for i in range(11)]
HISTORY_SEED = 7
TRADING_DAYS = 252
WINDOW = 10

# Per size: Monte Carlo paths and step, or years of daily closes.
SIZES = {
    "full": {
        "mc_heston": {"n_paths": 16384, "dt": 1e-3, "horizon": 1.0},
        "mc_bns_paths": {"n_paths": 8192, "dt": 1e-3, "horizon": 1.0},
        "market_calibrate": {"years": 2},
    },
    "tiny": {
        "mc_heston": {"n_paths": 512, "dt": 1e-2, "horizon": 1.0},
        "mc_bns_paths": {"n_paths": 256, "dt": 1e-2, "horizon": 1.0},
        "market_calibrate": {"years": 2},
    },
}

NAMES = tuple(SIZES["full"])


@dataclass
class Command:
    """One CLI call. ``core`` marks the workload's main job (``core_cmd_s``)."""

    name: str
    argv: list[str]
    out: str
    core: bool = False
    check: Callable[[], list[str]] | None = None


@dataclass
class Plan:
    commands: list[Command]
    sizes: dict
    path_steps: int = 0
    simulate: Command | None = None
    one_thread: Command | None = None
    references: dict = field(default_factory=dict)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def read_estimate(out: str) -> dict:
    with open(os.path.join(out, "mc_estimate.json")) as fh:
        return json.load(fh)


def _within(estimate: dict, n_paths: int, reference: float, slack: float) -> list[str]:
    """MC estimate within 3 standard errors (+ slack) of the closed form."""
    mean, se = estimate["mean"], estimate["std_error"]
    if estimate["n_paths"] != n_paths:
        return [f"n_paths {estimate['n_paths']} != {n_paths}"]
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0.0):
        return [f"estimate not finite or zero std error: {estimate}"]
    allowed = 3.0 * se + slack
    if abs(mean - reference) > allowed:
        return [f"|mean - closed form| = {abs(mean - reference):.3e} > {allowed:.3e}"]
    return []


def brockhaus_budget(maturity: float, p: BnsPortfolioParams, corr) -> float:
    """Bound on the E4..E6 approximation error inside the BNS closed form.

    The closed form replaces E[sigma] by the two-term Taylor value v, whose
    error is at most eps = mu3 / (16 E^{5/2}); each cross-term integrand is
    therefore off by at most v_a eps_b + v_b eps_a + eps_a eps_b.
    """
    grid = np.linspace(0.0, maturity, 201)
    budget = 0.0
    for sq, a, b in ((2, 1, 0), (1, 2, 0), (0, 2, 1)):
        coeff = 2.0 * abs(corr.delta[a, b] * p.rho[a] * p.rho[b])
        if coeff == 0.0:
            continue
        integrand = np.empty_like(grid)
        for idx, t in enumerate(grid):
            mean_sq = expected_variance_bns(t, p.assets[sq], p.lambda_)
            vols = [
                expected_vol_bns(
                    t, p.assets[i], p.lambda_, mu3=third_central_moment_bns(t, p.assets[i], p.lambda_)
                )
                for i in (a, b)
            ]
            va, vb = vols
            integrand[idx] = mean_sq * (
                va.value * vb.error_bound + vb.value * va.error_bound + va.error_bound * vb.error_bound
            )
        budget += coeff * integrate.simpson(integrand, x=grid)
    return (corr.det_c / maturity) * p.lambda_ * p.kappa2_star * budget


def _simulate_plan(work: str, seed: int, threads: int, size: dict, model: dict, paths_csv: bool):
    sim = {"n_paths": size["n_paths"], "dt": size["dt"], "horizon": size["horizon"]}
    if paths_csv:
        sim["record_times"] = RECORD_TIMES
    model_path = _write_json(os.path.join(work, "model.json"), model)
    sim_path = _write_json(os.path.join(work, "sim.json"), sim)
    out = os.path.join(work, "out", "simulate")
    base = ["simulate", "--model", model_path, "--sim", sim_path, "--seed", str(seed)]
    argv = base + ["--threads", str(threads)] + (["--paths-csv"] if paths_csv else []) + ["--out", out]
    one_out = os.path.join(work, "out", "simulate_1thread")
    one_thread = Command("simulate_1thread", base + ["--threads", "1", "--out", one_out], one_out)
    steps = round(size["horizon"] / size["dt"])
    sizes = dict(sim, n_steps=steps, n_assets=3, seed=seed, threads=threads)
    return argv, out, one_thread, sizes, steps * size["n_paths"]


def plan_mc_heston(work: str, seed: int, threads: int, size: dict) -> Plan:
    argv, out, one_thread, sizes, path_steps = _simulate_plan(
        work, seed, threads, size, HESTON_MODEL, paths_csv=False
    )
    reference = expected_realized_variance(size["horizon"], HestonPortfolio.from_dict(HESTON_MODEL))

    def check() -> list[str]:
        return _within(read_estimate(out), size["n_paths"], reference, 0.0)

    simulate = Command("simulate", argv, out, core=True, check=check)
    return Plan([simulate], sizes, path_steps, simulate, one_thread, {"closed_form": reference})


def plan_mc_bns_paths(work: str, seed: int, threads: int, size: dict) -> Plan:
    argv, out, one_thread, sizes, path_steps = _simulate_plan(
        work, seed, threads, size, BNS_MODEL, paths_csv=True
    )
    portfolio = BnsPortfolioParams.from_dict(BNS_MODEL)
    corr = validate_correlation(np.asarray(CORRELATION))
    reference = expected_realized_variance_bns(size["horizon"], portfolio, corr)
    budget = brockhaus_budget(size["horizon"], portfolio, corr)
    rows = size["n_paths"] * len(RECORD_TIMES)

    def check() -> list[str]:
        problems = _within(read_estimate(out), size["n_paths"], reference, budget)
        with open(os.path.join(out, "paths.csv")) as fh:
            found = sum(1 for _ in fh) - 1
        if found != rows:
            problems.append(f"paths.csv has {found} rows, expected {rows}")
        return problems

    simulate = Command("simulate", argv, out, core=True, check=check)
    sizes["record_times"] = len(RECORD_TIMES)
    references = {"closed_form": reference, "brockhaus_budget": budget}
    return Plan([simulate], sizes, path_steps, simulate, one_thread, references)


def _synthetic_closes(seed: int, years: int):
    """Daily closes of one fixed Heston path, scaled and labelled from ``seed``."""
    rng = np.random.default_rng(seed)
    portfolio = HestonPortfolio.from_dict(HESTON_MODEL)
    tickers = portfolio.n
    cfg = SimConfig(n_paths=1, dt=1.0 / TRADING_DAYS, horizon=float(years), seed=HISTORY_SEED)
    s0 = rng.uniform(20.0, 200.0, tickers)
    closes = simulate_heston_prices(portfolio, cfg, s0=s0, mu=0.05).prices[0]
    names = ["".join(chr(ord("A") + c) for c in rng.integers(0, 26, 4)) + str(i) for i in range(tickers)]
    start = datetime.date(2000, 1, 3) + datetime.timedelta(days=int(rng.integers(0, 7000)))
    dates = []
    day = start
    while len(dates) < closes.shape[0]:
        if day.weekday() < 5:
            dates.append(day)
        day += datetime.timedelta(days=1)
    return names, dates, closes


def _result_check(path: str) -> Callable[[], list[str]]:
    def check() -> list[str]:
        with open(path) as fh:
            doc = json.load(fh)
        problems = []
        if doc.get("converged") is not True:
            problems.append(f"{path}: fit did not converge")
        values = [doc["sse"], *doc["metrics"].values(), *doc["params"]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{path}: non-finite sse, metrics or params")
        return problems

    return check


def plan_market_calibrate(work: str, seed: int, threads: int, size: dict) -> Plan:
    names, dates, closes = _synthetic_closes(seed, size["years"])
    prices = os.path.join(work, "prices.csv")
    with open(prices, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for day, row in zip(dates, closes):
            writer.writerow([day.isoformat(), *(f"{x:.17g}" for x in row)])
    windows = (closes.shape[0] - 1) // WINDOW

    out = os.path.join(work, "out")
    est, fit_h, fit_b, rep = (os.path.join(out, d) for d in ("estimate", "fit_heston", "fit_bns", "report"))
    realized = os.path.join(est, "realized.csv")
    correlation = os.path.join(est, "correlation.csv")

    def check_estimate() -> list[str]:
        with open(realized) as fh:
            found = sum(1 for _ in fh) - 1
        return [] if found == windows else [f"realized.csv has {found} windows, expected {windows}"]

    def check_report() -> list[str]:
        with open(os.path.join(rep, "metrics.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if [r["model"] for r in rows] != ["heston", "bns"]:
            return [f"metrics.csv rows {[r['model'] for r in rows]}"]
        if not all(math.isfinite(float(r[k])) for r in rows for k in ("RMSE", "APE", "AAE", "ARPE")):
            return ["metrics.csv has non-finite metrics"]
        return []

    fit_h_json = os.path.join(fit_h, "result.json")
    fit_b_json = os.path.join(fit_b, "result.json")
    commands = [
        Command("estimate", ["estimate", prices, "--window", str(WINDOW), "--out", est], est, check=check_estimate),
        Command(
            "calibrate_heston",
            ["calibrate", realized, correlation, "--model", "heston", "--out", fit_h],
            fit_h,
            core=True,
            check=_result_check(fit_h_json),
        ),
        Command(
            "calibrate_bns",
            ["calibrate", realized, correlation, "--model", "bns", "--out", fit_b],
            fit_b,
            core=True,
            check=_result_check(fit_b_json),
        ),
        Command(
            "report",
            ["report", realized, "--result", fit_h_json, "--result", fit_b_json, "--out", rep],
            rep,
            check=check_report,
        ),
    ]
    sizes = {
        "days": int(closes.shape[0]),
        "tickers": len(names),
        "window": WINDOW,
        "windows": windows,
        "history_seed": HISTORY_SEED,
        "seed": seed,
    }
    return Plan(commands, sizes)


PLANS = {
    "mc_heston": plan_mc_heston,
    "mc_bns_paths": plan_mc_bns_paths,
    "market_calibrate": plan_market_calibrate,
}


def make_plan(name: str, work: str, seed: int, threads: int, size: str) -> Plan:
    return PLANS[name](work, seed, threads, SIZES[size][name])
