"""Property test of the exit-code contract: any input document exits 0, 2, 3 or 4.

Valid model, sim, contract, init and result documents and price and realized
CSVs are mutated in up to two places (a member dropped, scaled or replaced by
any JSON value; a CSV cell replaced by any short text, a row dropped), a CSV
may get one byte that is not UTF-8, and each is run through ``cli.main``
in-process. No input may end in another code or a traceback.
Simulations stay at most 8 paths by 50 steps: a document that would run a
larger one is discarded, the others (invalid ones included) all run.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genvarswap.calibrate import model_curve
from genvarswap.cli import main
from genvarswap.core import validate_correlation

EXIT_CODES = {0, 2, 3, 4}
CORRELATION = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]
HESTON = {
    "model": "heston",
    "correlation": CORRELATION,
    "assets": [
        {"k": 2.0, "theta2": 0.09, "sigma0_2": 0.04, "gamma": 0.3},
        {"k": 1.0, "theta2": 0.05, "sigma0_2": 0.06, "gamma": 0.2},
        {"k": 3.0, "theta2": 0.07, "sigma0_2": 0.05, "gamma": 0.35},
    ],
}
BNS = {
    "model": "bns",
    "lambda": 2.0,
    "kappa2_star": 0.01,
    "correlation": CORRELATION,
    "assets": [
        {"sigma0_2": 0.04, "kappa1": 0.05, "kappa2": 0.004, "rho": -0.3},
        {"sigma0_2": 0.06, "kappa1": 0.07, "kappa2": 0.006, "rho": -0.2,
         "subordinator": {"a": 1.6333333333333335, "b": 23.333333333333336}},
        {"sigma0_2": 0.05, "kappa1": 0.06, "kappa2": 0.005, "rho": -0.4},
    ],
}
SIM = {"n_paths": 4, "dt": 0.05, "horizon": 1.0, "record_times": [0.0, 0.5, 1.0],
       "block_size": 3, "scheme": "auto"}
CONTRACT = {"k_var": 1e-4, "r": 0.02, "maturity": 1.0, "notional": 1000.0}
HESTON_TRUTH = [1.0, 3.0, 6.0, 0.05, 0.08, 0.06, 0.10, 0.03, 0.09]
RESULT = {"model": "heston", "correlation": CORRELATION, "params": HESTON_TRUTH}
BNS_RESULT = {"model": "bns", "correlation": CORRELATION,
              "params": [2.0, 0.04, 0.06, 0.05, 0.05, 0.07, 0.06, 0.004, 0.006, 0.005,
                         -0.3, -0.2, -0.4, 0.01]}

# valid under the field rules, but the closed form leaves the float range
OVERFLOWING_HESTON = copy.deepcopy(HESTON)
for asset in OVERFLOWING_HESTON["assets"][:2]:
    asset["theta2"] = 1e200
OVERFLOWING_BNS = copy.deepcopy(BNS)
OVERFLOWING_BNS["assets"][0].update(sigma0_2=1e200, kappa1=1e200)
OVERFLOWING_BNS["assets"][1]["sigma0_2"] = 1e200
OVERFLOWING_RESULT = {**RESULT, "params": HESTON_TRUTH[:3] + [1e200, 0.08, 1e200] + HESTON_TRUTH[6:]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
cells = st.sampled_from(["", "0", "-1", "nan", "inf", "1e400", "x", "2021-13-01", " "]) | st.text(
    max_size=5
)


def members(value, path=()):
    """The path of ``value`` and of every member in it: dict keys and list indices."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in items:
        yield from members(member, path + (key,))


def edited(doc):
    """A strategy: ``doc`` as is, or with one or two members replaced by any JSON value, scaled or removed."""
    scales = st.sampled_from([("scale", f) for f in (0.5, 2.0, 1.5, -1.0, 0.0, 1e300)])
    changes = scales | json_values | st.just("drop")
    edits = st.lists(st.tuples(st.sampled_from(list(members(doc))), changes), min_size=1, max_size=2)

    def apply(edits):
        root = {"doc": copy.deepcopy(doc)}
        for path, change in edits:
            parent, key = root, "doc"
            try:
                for step in path:
                    parent, key = parent[key], step
                target = parent[key]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced this member
            if change == "drop":
                del parent[key]
            elif isinstance(change, tuple):
                number = isinstance(target, (int, float)) and not isinstance(target, bool)
                parent[key] = target * change[1] if number else change[1]
            else:
                parent[key] = change
        return root.get("doc")

    return st.just(doc) | edits.map(apply)


def csv_bytes(rows):
    """A strategy: CSV ``rows`` as UTF-8 with up to three cells replaced, up to two rows
    dropped and maybe one byte that is not UTF-8 inserted."""
    edits = st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows[0]) - 1), cells), max_size=3
    )
    drops = st.lists(st.integers(0, len(rows) - 1), max_size=2)
    invalid = st.none() | st.tuples(st.integers(0, 10**4), st.sampled_from([b"\xe9", b"\xff", b"\x80"]))

    def build(args):
        edits, drops, invalid = args
        table = [list(row) for row in rows]
        for r, c, cell in edits:
            table[r][c] = cell
        kept = [row for i, row in enumerate(table) if i not in drops]
        data = ("\n".join(",".join(row) for row in kept) + "\n").encode()
        if invalid is not None:
            at, byte = invalid
            at %= len(data) + 1
            data = data[:at] + byte + data[at:]
        return data

    return st.tuples(edits, drops, invalid).map(build)


def price_rows():
    rng = np.random.default_rng(3)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.013, (24, 3)), axis=0))
    rows = [["date", "AAA", "BBB", "CCC"]]
    for day, row in enumerate(closes, start=1):
        rows.append([f"2021-02-{day:02d}", *(f"{x:.6f}" for x in row)])
    return rows


def realized_rows():
    times = np.linspace(0.1, 1.0, 6)
    values = model_curve("heston", np.array(HESTON_TRUTH), validate_correlation(CORRELATION), times)
    return [["t", "value"]] + [[repr(float(t)), repr(float(v))] for t, v in zip(times, values)]


def _realized_csv(value=None):
    """``realized_rows()`` as CSV text, the third value replaced by ``value`` if given."""
    rows = realized_rows()
    if value is not None:
        rows[3][1] = value
    return "\n".join(",".join(row) for row in rows) + "\n"


CORRELATION_CSV = "AAA,BBB,CCC\n" + "\n".join(",".join(map(str, row)) for row in CORRELATION) + "\n"


def run(commands, files):
    """Write ``files`` (name -> text or bytes) to a fresh directory and run the CLI on each argv of
    ``commands(paths, work)`` in turn; every exit code must be 0, 2, 3 or 4, and no traceback shown.
    """
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, text in files.items():
            paths[name] = str(Path(work) / name)
            Path(paths[name]).write_bytes(text.encode() if isinstance(text, str) else text)
        for argv in commands(paths, work):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in EXIT_CODES, (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue(), err.getvalue()


def small_simulation(sim) -> bool:
    """False for a sim document that is valid but asks for more than 8 paths or 50 steps."""
    try:
        n_paths, dt, horizon = sim["n_paths"], sim["dt"], sim["horizon"]
        if n_paths > 8 or horizon / dt > 50.5:
            return False
    except (KeyError, TypeError, ZeroDivisionError, OverflowError):
        pass  # not a valid document: it runs, and must exit 2
    return True


@settings(max_examples=200)
@example(model=OVERFLOWING_HESTON, contract=CONTRACT)
@example(model=OVERFLOWING_BNS, contract=CONTRACT)
@given(model=edited(HESTON) | edited(BNS), contract=edited(CONTRACT))
def test_price_documents(model, contract):
    files = {"model.json": json.dumps(model), "contract.json": json.dumps(contract)}
    run(lambda p, work: [["price", "--model", p["model.json"], "--contract", p["contract.json"],
                          "--out", work + "/out"]], files)


@settings(max_examples=120)
@given(model=edited(HESTON) | edited(BNS), sim=edited(SIM))
def test_simulate_documents(model, sim):
    assume(small_simulation(sim))
    files = {"model.json": json.dumps(model), "sim.json": json.dumps(sim)}
    run(lambda p, work: [["simulate", "--model", p["model.json"], "--sim", p["sim.json"],
                          "--seed", "1", "--threads", "2", "--paths-csv", "--out", work + "/out"]],
        files)


@settings(max_examples=100)
@given(prices=csv_bytes(price_rows()))
def test_estimate_prices_csv(prices):
    run(lambda p, work: [["estimate", p["prices.csv"], "--window", "5", "--out", work + "/out"]],
        {"prices.csv": prices})


@settings(max_examples=60)
@given(
    realized=csv_bytes(realized_rows()),
    init=st.none() | edited({"initial": HESTON_TRUTH, "bounds": [[1e-4, None]] * 3 + [[1e-10, 10.0]] * 6}),
)
def test_calibrate_and_report_inputs(realized, init):
    files = {"realized.csv": realized, "correlation.csv": CORRELATION_CSV}
    if init is not None:
        files["init.json"] = json.dumps(init)

    def commands(p, work):
        flags = ["--init", p["init.json"]] if "init.json" in p else []
        return [
            ["calibrate", p["realized.csv"], p["correlation.csv"], "--model", "heston", *flags,
             "--out", work + "/fit"],
            ["report", p["realized.csv"], "--result", work + "/fit/result.json",
             "--out", work + "/report"],
        ]

    run(commands, files)


@settings(max_examples=100)
@example(result={**RESULT, "model": ["bns"]})
@example(result={**RESULT, "model": {"bns": 1}})
@example(result={**RESULT, "model": 5})
@example(result=OVERFLOWING_RESULT)
@given(result=edited(RESULT) | edited(BNS_RESULT))
def test_report_result_documents(result):
    files = {"realized.csv": _realized_csv(), "result.json": json.dumps(result)}
    run(lambda p, work: [["report", p["realized.csv"], "--result", p["result.json"],
                          "--out", work + "/out"]], files)


def _main_without_warnings(files, argv):
    """Write ``files`` (name -> JSON document or CSV text) to a fresh directory and run ``main``
    in-process on ``argv(paths, work)``; assert that no RuntimeWarning was raised or printed, and
    return the exit code, stderr and the names of the files written under ``work/out``."""
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(work) / name)
            Path(paths[name]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv(paths, work))
        written = sorted(path.name for path in Path(work, "out").rglob("*"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
        str(w.message) for w in caught
    ]
    assert "RuntimeWarning" not in err.getvalue()
    return code, err.getvalue(), written


def _simulate_without_warnings(model, sim, *flags):
    """``_main_without_warnings`` for ``simulate``: the exit code and stderr."""
    code, err, _ = _main_without_warnings(
        {"model.json": model, "sim.json": sim},
        lambda p, work: ["simulate", "--model", p["model.json"], "--sim", p["sim.json"],
                         "--seed", "1", *flags, "--out", work + "/out"],
    )
    return code, err


def test_non_finite_estimate_exits_3_without_a_numpy_warning():
    """sigma0_2 = 1e300 overflows the determinant: exit 3 with only the CLI's own message."""
    model = copy.deepcopy(HESTON)
    model["assets"][0]["sigma0_2"] = 1e300
    code, err = _simulate_without_warnings(model, {"n_paths": 10, "dt": 0.1, "horizon": 1.0})
    assert code == 3, err


@pytest.mark.parametrize("flags", [(), ("--paths-csv",)], ids=("estimate", "paths_csv"))
def test_overflowing_heston_path_exits_3_without_a_numpy_warning(flags):
    """gamma = 1e200 overflows the Euler step itself, in the worker threads: a numerical
    failure, exit 3, whether or not the paths are recorded, and no warning from numpy."""
    model = copy.deepcopy(HESTON)
    model["assets"][1]["gamma"] = 1e200
    code, err = _simulate_without_warnings(model, {"n_paths": 10, "dt": 0.1, "horizon": 1.0}, *flags)
    assert code == 3, err
    assert "numerical failure" in err


@pytest.mark.parametrize("model", [OVERFLOWING_HESTON, OVERFLOWING_BNS], ids=["heston", "bns"])
def test_overflowing_price_exits_3_without_a_numpy_warning(model):
    """A closed form past the float range is a numerical failure naming E[sigma_R^2], not
    invalid input, and writes no price.csv."""
    code, err, written = _main_without_warnings(
        {"model.json": model, "contract.json": CONTRACT},
        lambda p, work: ["price", "--model", p["model.json"], "--contract", p["contract.json"],
                         "--out", work + "/out"],
    )
    assert code == 3, err
    assert "numerical failure" in err and "E[sigma_R^2]" in err
    assert written == []


@pytest.mark.parametrize(
    "realized, result",
    [(_realized_csv(), OVERFLOWING_RESULT), (_realized_csv("nan"), RESULT),
     (_realized_csv("inf"), RESULT)],
    ids=["overflowing-fit", "nan-observed", "inf-observed"],
)
def test_non_finite_report_exits_3_without_a_numpy_warning(realized, result):
    """A non-finite fitted or observed value fails before metrics.csv or the SVG is written."""
    code, err, written = _main_without_warnings(
        {"realized.csv": realized, "result.json": result},
        lambda p, work: ["report", p["realized.csv"], "--result", p["result.json"],
                         "--out", work + "/out"],
    )
    assert code == 3, err
    assert "numerical failure" in err and "result.json" in err
    assert written == []
