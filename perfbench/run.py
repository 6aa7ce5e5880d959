"""Fixed-seed benchmark of the genvarswap CLI.

    python3 perfbench/run.py --workload mc_heston --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.
For each workload this process first times ``setup_s``, a fresh interpreter
importing ``genvarswap.cli`` (several times, median reported), then starts
one fresh client process (``client.py``) that runs the workload as a closed
loop for ``--seconds`` and checks every output. It prints each metric by
name with its unit and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.

Results, the run environment and the spans of the traced run are kept in
``.perfbench_out/`` under the checkout. See ``perfbench/README.md`` for the
workloads, the metrics and what each layer is predicted to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("mc_heston", "mc_bns_paths", "market_calibrate")
SETUP_SAMPLES = {"full": 3, "tiny": 1}
CHILD_GRACE_S = 140.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters importing genvarswap.cli."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import genvarswap.cli"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def run_workload(name: str, args) -> dict:
    work = OUT / f"work-{name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(SETUP_SAMPLES[args.size])
        child_result = work / "result.json"
        command = [
            sys.executable, str(HERE / "client.py"),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, "--work", str(work),
            "--result", str(child_result),
            "--spans", str(OUT / f"spans_{name}_seed{args.seed}.json"),
        ]
        subprocess.run(
            command, env=child_env(), cwd=ROOT, check=True,
            timeout=args.seconds + CHILD_GRACE_S,
        )
        with open(child_result) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = setup
    result["end_to_end"] = {"setup_s": (statistics.median(setup), "s"), **result["end_to_end"]}
    with open(OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def report(name: str, result: dict, trace: int) -> dict:
    """Print one workload's metrics; returns the ones the JSON line carries."""
    env = result["environment"]
    print(
        f"[{name}] nproc={env['nproc']} threads={env['threads']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} seed={env['seed']} sizes={env['sizes']}"
    )
    walls = [p["wall_s"] for p in result["passes"]]
    print(
        f"[{name}] {len(walls)} passes of the command sequence, wall_s min {min(walls):.4f} "
        f"max {max(walls):.4f}; setup_s samples {[round(s, 4) for s in result['setup_samples']]}"
    )
    shown = dict(result["end_to_end"])
    for metric in ("mc_path_steps_per_s", "calibrate_s"):
        shown[metric] = result["derived"].get(metric, ("not applicable", ""))
    rate = result["failed"] / result["attempted"]
    shown["failure_rate"] = (rate, f"({result['failed']} failed of {result['attempted']} attempted)")
    for metric, (value, unit) in shown.items():
        print(f"[{name}] {metric} = {value} {unit}")
    if not trace:
        return result["end_to_end"]
    for metric, (value, unit) in result["per_layer"].items():
        print(f"[{name}] {metric} = {value} {unit}")
    for metric in result["absent"]:
        print(f"[{name}] {metric} = absent (its wrapped name is gone)")
    return result["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="closed-loop measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(SETUP_SAMPLES), help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "genvarswap" / "cli.py").is_file():
        print(f"perfbench: no genvarswap sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_workload(name, args)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        shown = report(name, result, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in shown.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
