"""Batch command line interface.

Subcommands: ``estimate`` (prices CSV to realized series, correlation and
summary artifacts), ``price`` (closed-form swap pricing from JSON configs),
``simulate`` (Monte Carlo estimate; ``--seed`` is mandatory, there is no
hidden entropy), ``calibrate`` (NLS fit to a realized series) and ``report``
(fitted-vs-realized plot plus the RMSE/APE/AAE/ARPE table).

Every command is deterministic given inputs, flags and seed, and writes
exactly one ``run_manifest.json`` (command, config paths, input hashes,
seed, tool version, timestamp) into its output directory; set
SOURCE_DATE_EPOCH (whole seconds; anything else exits 2 before a command
runs) to pin the timestamp for byte-identical reruns.

Every file is UTF-8. CSV goes through ``marketdata._read_rows`` and
``marketdata._write_rows``, JSON through ``_load_json`` and ``_write_json``;
the readers skip a leading byte-order mark and the writers write none.
``paths.csv`` and the SVGs have their own writers, also UTF-8.

Exit codes: 0 success, 2 input validation, 3 numerical failure (including
calibration non-convergence), 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bns import expected_realized_variance_bns, price_swap_bns
from .calibrate import (
    CalibrationProblem,
    default_bounds,
    error_metrics,
    fit,
    initial_guess,
    model_curve,
    param_names,
)
from .core import (
    BnsPortfolioParams,
    SwapContract,
    _as_float,
    _real_matrix,
    _real_vector,
    validate_correlation,
)
from .errors import (
    GenvarswapError,
    InvalidConfig,
    NumericalError,
    ParseError,
    ValidationError,
)
from .heston import HestonPortfolio, expected_realized_variance, price_swap
from .marketdata import (
    _read_rows,
    _write_rows,
    estimate_correlation,
    load_prices,
    load_realized_csv,
    log_returns,
    realized_to_csv,
    rolling_determinants,
    summary_stats,
    summary_to_csv,
)
# simulate_heston and simulate_bns stay bound here: perfbench/tracing.py wraps
# them (and ensemble_to_csv) at these names.
from .montecarlo import (  # noqa: F401
    SimConfig,
    bns_realized_variance_mc,
    ensemble_to_csv,
    heston_realized_variance_mc,
    simulate_bns,
    simulate_heston,
)
from .svgplot import grouped_histogram, heatmap, line_chart

__all__ = ["RunManifest", "main"]


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written once per output directory."""

    command: str
    config: dict
    input_hashes: dict
    seed: int | None
    version: str
    timestamp: str

    @classmethod
    def build(
        cls, command: str, inputs: dict, timestamp: str, seed: int | None = None
    ) -> "RunManifest":
        hashes = {}
        for name, path in inputs.items():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                digest.update(fh.read())
            hashes[name] = digest.hexdigest()
        return cls(
            command=command,
            config={name: str(path) for name, path in inputs.items()},
            input_hashes=hashes,
            seed=seed,
            version=__version__,
            timestamp=timestamp,
        )

    def write(self, out_dir: str) -> None:
        _write_json(os.path.join(out_dir, "run_manifest.json"), dataclasses.asdict(self))


def _timestamp() -> str:
    """The manifest time, ISO 8601 in UTC: SOURCE_DATE_EPOCH if set, else now."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        epoch = int(time.time()) if raw is None else int(raw)
        return datetime.datetime.fromtimestamp(epoch, datetime.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise InvalidConfig(
            f"SOURCE_DATE_EPOCH must be a whole number of seconds within the datetime range, "
            f"got {raw!r} ({exc})"
        ) from None


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_json(path: str) -> dict:
    """A JSON object read as UTF-8, a leading byte-order mark skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def _write_json(path: str, doc: dict) -> None:
    """``doc`` as UTF-8 JSON: two-space indent, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _reading(path: str):
    """Report a missing key, a mistyped field or an invalid setting as invalid input naming ``path``."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except GenvarswapError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc.args[0]!r}") from None
    # AttributeError: a list, number or null where the document needs an object
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ValidationError(f"{path}: malformed field ({exc})") from None


def _load_model(path: str):
    """Read a model document; returns ('heston', HestonPortfolio) or ('bns', (params, corr))."""
    doc = _load_json(path)
    kind = doc.get("model")
    with _reading(path):
        if kind == "heston":
            return kind, HestonPortfolio.from_dict(doc)
        if kind == "bns":
            corr = validate_correlation(_real_matrix("correlation", doc["correlation"]))
            return kind, (BnsPortfolioParams.from_dict(doc), corr)
    raise ValidationError(f"{path}: model must be 'heston' or 'bns', got {kind!r}")


def _load_correlation_csv(path: str):
    rows = _read_rows(path)
    if len(rows) < 2:
        raise ParseError(f"{path}: expected a ticker header plus matrix rows")
    tickers = [c.strip() for c in rows[0]]
    try:
        matrix = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError:
        raise ParseError(f"{path}: matrix entries must be numbers") from None
    if matrix.shape != (len(tickers), len(tickers)):
        raise ParseError(f"{path}: matrix shape {matrix.shape} does not match header")
    return tickers, validate_correlation(matrix)


# estimate


def cmd_estimate(args) -> int:
    out = _ensure_out(args.out)
    ps = load_prices(args.prices)
    returns = log_returns(ps)
    series = rolling_determinants(
        returns,
        window=args.window,
        annualization=args.annualization,
        rolling=args.rolling,
    )
    corr = estimate_correlation(returns)
    cumulative = np.cumsum(returns, axis=0)
    summaries = summary_stats(cumulative, ps.tickers)

    realized_to_csv(series, os.path.join(out, "realized.csv"))
    _write_rows(
        os.path.join(out, "correlation.csv"),
        [ps.tickers, *([f"{x:.17g}" for x in row] for row in corr.c)],
    )
    summary_to_csv(summaries, os.path.join(out, "summary.csv"))

    grouped_histogram(
        os.path.join(out, "histogram.svg"),
        {t: returns[:, i] for i, t in enumerate(ps.tickers)},
        title="Daily log returns",
        xlabel="log return",
    )
    heatmap(
        os.path.join(out, "correlation.svg"),
        corr.c,
        ps.tickers,
        title="Return correlation",
    )
    day_grid = np.arange(1, returns.shape[0] + 1) / args.annualization
    line_chart(
        os.path.join(out, "cumulative.svg"),
        {t: (day_grid, cumulative[:, i]) for i, t in enumerate(ps.tickers)},
        title="Cumulative log returns",
        ylabel="cumulative log return",
    )
    RunManifest.build("estimate", {"prices": args.prices}, args.timestamp).write(out)

    mode = "rolling" if args.rolling else "blocked"
    print(f"rows: {len(ps.dates)} (dropped {ps.dropped_rows})")
    print(f"windows: {series.n_windows} ({mode}, window={args.window})")
    print(f"|C| = {corr.det_c:.6g}")
    print(f"wrote realized.csv, correlation.csv, summary.csv and 3 SVGs to {out}")
    return 0


# price


def cmd_price(args) -> int:
    kind, model = _load_model(args.model)
    contract_doc = _load_json(args.contract)
    with _reading(args.contract):
        contract = SwapContract.from_dict(contract_doc)
    if kind == "heston":
        ev = expected_realized_variance(contract.maturity, model)
        price = price_swap(ev, contract)
    else:
        portfolio, corr = model
        ev = expected_realized_variance_bns(contract.maturity, portfolio, corr)
        price = price_swap_bns(ev, contract)

    header = f"{'model':<8} {'maturity':>9} {'E[sigma_R^2]':>14} {'k_var':>12} {'price':>14}"
    row = f"{kind:<8} {contract.maturity:>9.4f} {ev:>14.6e} {contract.k_var:>12.6e} {price:>14.6e}"
    print(header)
    print(row)
    if args.out:
        out = _ensure_out(args.out)
        _write_rows(
            os.path.join(out, "price.csv"),
            [
                ["model", "maturity", "expected_realized_variance", "k_var", "price"],
                [kind, f"{contract.maturity:.12g}", f"{ev:.17g}", f"{contract.k_var:.17g}", f"{price:.17g}"],
            ],
        )
        RunManifest.build(
            "price", {"model": args.model, "contract": args.contract}, args.timestamp
        ).write(out)
    return 0


# simulate


def cmd_simulate(args) -> int:
    out = _ensure_out(args.out)
    kind, model = _load_model(args.model)
    sim_doc = _load_json(args.sim)
    with _reading(args.sim):
        optional = {k: sim_doc[k] for k in ("scheme", "record_times", "block_size") if k in sim_doc}
        cfg = SimConfig(
            n_paths=sim_doc["n_paths"],
            dt=sim_doc["dt"],
            horizon=sim_doc["horizon"],
            seed=args.seed,
            **optional,
        )
    # one pass gives the estimate and, with --paths-csv, the recorded ensemble
    if kind == "heston":
        result = heston_realized_variance_mc(
            model, cfg, threads=args.threads, return_ensemble=args.paths_csv
        )
    else:
        portfolio, corr = model
        result = bns_realized_variance_mc(
            portfolio, corr, cfg, threads=args.threads, return_ensemble=args.paths_csv
        )
    estimate, ensemble = result if args.paths_csv else (result, None)

    _write_json(os.path.join(out, "mc_estimate.json"), estimate.to_dict())
    if ensemble is not None:
        ensemble_to_csv(ensemble, os.path.join(out, "paths.csv"))
    RunManifest.build(
        "simulate", {"model": args.model, "sim": args.sim}, args.timestamp, seed=args.seed
    ).write(out)
    print(
        f"E[sigma_R^2] ~ {estimate.mean:.6e} +/- {estimate.std_error:.2e} "
        f"({estimate.n_paths} paths)"
    )
    return 0


# calibrate


def cmd_calibrate(args) -> int:
    out = _ensure_out(args.out)
    series = load_realized_csv(args.realized)
    _, corr = _load_correlation_csv(args.correlation)

    if args.init:
        init_doc = _load_json(args.init)
        raw_bounds = init_doc.get("bounds")
        with _reading(args.init):
            initial = _real_vector("initial", init_doc["initial"])
            if raw_bounds is None:
                bounds = default_bounds(args.model)
            elif not isinstance(raw_bounds, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in raw_bounds
            ):
                raise InvalidConfig(f"bounds must be a list of [lo, hi] pairs, got {raw_bounds!r}")
            else:
                bounds = tuple(
                    (
                        -np.inf if lo is None else _as_float("bounds", lo),
                        np.inf if hi is None else _as_float("bounds", hi),
                    )
                    for lo, hi in raw_bounds
                )
    else:
        initial = initial_guess(args.model, series, corr)
        bounds = default_bounds(args.model)

    problem = CalibrationProblem(
        model=args.model, observed=series, corr=corr, initial=initial, bounds=bounds
    )
    result = fit(problem)

    payload = {
        "model": args.model,
        "param_names": list(param_names(args.model)),
        "correlation": corr.c.tolist(),
        **result.to_dict(),
    }
    _write_json(os.path.join(out, "result.json"), payload)
    RunManifest.build(
        "calibrate", {"realized": args.realized, "correlation": args.correlation}, args.timestamp
    ).write(out)

    m = result.metrics
    print(f"converged: {result.converged} after {result.iterations} iterations")
    print(f"sse: {result.sse:.6e}")
    print(f"RMSE {m.rmse:.6e}  APE {m.ape:.6e}  AAE {m.aae:.6e}  ARPE {m.arpe:.6e}")
    if not result.converged:
        print("calibration did not converge; result.json holds the best point", file=sys.stderr)
        return 3
    return 0


# report


def cmd_report(args) -> int:
    out = _ensure_out(args.out)
    series = load_realized_csv(args.realized)

    loaded = []
    inputs = {"realized": args.realized}
    for idx, path in enumerate(args.result):
        if not os.path.exists(path):
            print(f"warning: result file {path} not found, skipping", file=sys.stderr)
            continue
        doc = _load_json(path)
        with _reading(path):
            model = doc["model"]
            corr = validate_correlation(_real_matrix("correlation", doc["correlation"]))
            params = _real_vector("params", doc["params"])
            curve = model_curve(model, params, corr, series.times)
        try:  # before any file is written
            metrics = error_metrics(series.values, curve)
        except NumericalError as exc:
            raise type(exc)(f"{path} on {args.realized}: {exc}") from None
        loaded.append((idx + 1, model, curve, metrics))
        inputs[f"result_{idx + 1}"] = path
    if not loaded:
        raise FileNotFoundError("no result files could be read")

    # a model given more than once is labelled by its --result position, so no curve hides another
    models = [model for _, model, _, _ in loaded]
    curves = {}
    for position, model, curve, _ in loaded:
        label = f"{model} fit" if models.count(model) == 1 else f"{model} fit ({position})"
        curves[label] = (series.times, curve)
    line_chart(
        os.path.join(out, "fitted_vs_realized.svg"),
        curves,
        points={"realized": (series.times, series.values)},
        title="Realized vs fitted generalized variance",
        ylabel="E[sigma_R^2]",
    )
    header = f"{'model':<8} {'RMSE':>12} {'APE':>12} {'AAE':>12} {'ARPE':>12}"
    print(header)
    rows = [["model", "RMSE", "APE", "AAE", "ARPE"]]
    for _, model, _, m in loaded:
        rows.append([model, f"{m.rmse:.12g}", f"{m.ape:.12g}", f"{m.aae:.12g}", f"{m.arpe:.12g}"])
        print(f"{model:<8} {m.rmse:>12.6e} {m.ape:>12.6e} {m.aae:>12.6e} {m.arpe:>12.6e}")
    _write_rows(os.path.join(out, "metrics.csv"), rows)
    RunManifest.build("report", inputs, args.timestamp).write(out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first ``main`` call and reused by later ones.

    ``parse_args`` reads every value into a fresh namespace, so no call
    sees another's; ``--threads`` defaults to the CPU count read then.
    """
    parser = argparse.ArgumentParser(
        prog="genvarswap",
        description="Multivariate variance swaps on the covariance determinant: "
        "estimation, pricing, simulation, calibration, reporting.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="prices CSV -> realized series, correlation, summaries, plots")
    p.add_argument("prices", help="CSV with header date,<ticker1>,<ticker2>,...")
    p.add_argument("--window", type=int, default=10, help="window length in trading days (default 10)")
    p.add_argument("--rolling", action="store_true", help="advance windows by one day instead of blocking")
    p.add_argument("--annualization", type=int, default=252, help="trading days per year (default 252)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("price", help="closed-form swap price from model/contract JSON")
    p.add_argument("--model", required=True, help="model JSON document")
    p.add_argument("--contract", required=True, help="contract JSON document")
    p.add_argument("--out", help="optional output directory for price.csv")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of E[sigma_R^2]")
    p.add_argument("--model", required=True, help="model JSON document")
    p.add_argument("--sim", required=True, help="simulation JSON: n_paths, dt, horizon, ...")
    p.add_argument("--seed", required=True, type=int, help="RNG seed (required; no hidden entropy)")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="worker threads")
    p.add_argument("--paths-csv", action="store_true", help="also export the variance ensemble")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="NLS fit of model parameters to a realized series")
    p.add_argument("realized", help="realized.csv from `estimate`")
    p.add_argument("correlation", help="correlation.csv from `estimate`")
    p.add_argument("--model", required=True, choices=("heston", "bns"))
    p.add_argument("--init", help="JSON with 'initial' and optional 'bounds' (null = unbounded)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="fitted-vs-realized plot and metrics table")
    p.add_argument("realized", help="realized.csv the fits refer to")
    p.add_argument("--result", action="append", required=True, help="result.json (repeat for two models)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.timestamp = _timestamp()
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except GenvarswapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
