"""One workload as a closed loop with a single client, in its own process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. The client generates
the workload's inputs, then runs its command sequence through
``genvarswap.cli.main(argv)`` again and again, each sequence starting only
after the previous one ended, until the next one would run past
``--seconds`` (at least once). It checks every command's outputs and writes
one JSON result file. With ``--trace 1`` it then runs the sequence once more
with the span recorder installed, plus a one-thread ``simulate`` on the Monte
Carlo workloads, and reports the per-layer split instead of the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import genvarswap
import genvarswap.cli as cli

import tracing as spans
import workloads

# Largest share of the traced wall the layer self times may leave unexplained.
ACCOUNTING_TOLERANCE = 0.01


def run_command(cmd: workloads.Command, recorder: spans.Recorder | None = None):
    """Run one CLI command; returns (exit code, wall seconds).

    With a recorder the whole call, stdout capture included, is the root
    span of its own trace.
    """
    sink = io.StringIO()
    root = None
    start = time.perf_counter()
    if recorder is not None:
        recorder.begin_trace()
        root = recorder.open(f"cli.{cmd.argv[0]}", "cli")
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(cmd.argv)
    except Exception:
        traceback.print_exc()
        code = -1
    finally:
        if root is not None:
            recorder.close(root)
    wall = time.perf_counter() - start
    if code != 0:
        print(f"{cmd.name}: exit {code}\n{sink.getvalue()}", file=sys.stderr)
    return code, wall


def check_command(cmd: workloads.Command, code: int) -> bool:
    if code != 0:
        return False
    if cmd.check is None:
        return True
    try:
        problems = cmd.check()
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    for problem in problems:
        print(f"{cmd.name}: check failed: {problem}", file=sys.stderr)
    return not problems


def clean(plan: workloads.Plan) -> None:
    for cmd in plan.commands:
        shutil.rmtree(cmd.out, ignore_errors=True)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_sequence(plan: workloads.Plan, tally: Tally, recorder=None) -> dict:
    """One pass over the command sequence; outputs are checked after timing."""
    clean(plan)
    results = []
    start = time.perf_counter()
    for cmd in plan.commands:
        results.append(run_command(cmd, recorder))
    wall = time.perf_counter() - start
    for cmd, (code, _) in zip(plan.commands, results):
        tally.add(check_command(cmd, code))
    walls = {cmd.name: w for cmd, (_, w) in zip(plan.commands, results)}
    core = sum(w for cmd, (_, w) in zip(plan.commands, results) if cmd.core)
    return {"wall_s": wall, "core_cmd_s": core, "commands": walls}


def closed_loop(plan: workloads.Plan, seconds: float, tally: Tally) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_sequence(plan, tally))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > seconds:
            return passes


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[dict]) -> dict:
    return {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "core_cmd_s": (median(p["core_cmd_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def derived(plan: workloads.Plan, passes: list[dict]) -> dict:
    """The per-workload views of core_cmd_s: MC throughput or time to a fit."""
    core = median(p["core_cmd_s"] for p in passes)
    if plan.path_steps:
        return {"mc_path_steps_per_s": (plan.path_steps / core, "1/s")}
    return {"calibrate_s": (core, "s")}


# per-layer split


def layer_metrics(recorder, traced_wall, untraced_wall, one_thread, threads, broken):
    """Per-layer metrics of the traced sequence; returns (metrics, absent, problems).

    ``broken`` holds the layers with a wrapped name that no longer exists;
    their metrics are absent, and so is ``cli.self_s``, which would absorb
    their time.
    """
    self_time = spans.attributed_self_times(recorder.spans)
    by_layer: dict[str, list[spans.Span]] = {}
    for s in recorder.spans:
        by_layer.setdefault(s.layer, []).append(s)

    def spans_of(layer, **match):
        return [s for s in by_layer.get(layer, ()) if all(s.attrs.get(k) == v for k, v in match.items())]

    def self_s(*layers):
        return sum(self_time[s.id] for layer in layers for s in spans_of(layer))

    def busy(group):
        return sum(s.end - s.start for s in group)

    def total(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    det = spans_of("genvar")
    in_flight = min(threads, len(det))
    block_bytes = max((s.attrs["block_bytes"] for s in det), default=0) * in_flight
    stream = busy(spans_of("montecarlo.stream"))
    scaling = 0.0
    if one_thread is not None and stream > 0:
        scaling = busy(s for s in one_thread.spans if s.layer == "montecarlo.stream") / stream
    fits = {model: spans_of("calibrate.fit", model=model) for model in ("heston", "bns")}
    unattributed = traced_wall - sum(self_time.values())

    calibrate = ("calibrate", "calibrate.fit")
    values = {  # name: (value, unit, layers it needs; None = every layer)
        "cli.self_s": (self_s("cli"), "s", None),
        "cli.manifest_s": (self_s("cli.manifest"), "s", ("cli.manifest",)),
        "montecarlo.stream_self_s": (self_s("montecarlo.stream"), "s", ("montecarlo.stream",)),
        "montecarlo.thread_scaling": (scaling, "ratio", ("montecarlo.stream",)),
        "montecarlo.simulate_s": (self_s("montecarlo.simulate"), "s", ("montecarlo.simulate",)),
        "montecarlo.csv_s": (self_s("montecarlo.csv"), "s", ("montecarlo.csv",)),
        "montecarlo.csv_bytes": (total(spans_of("montecarlo.csv"), "bytes"), "bytes", ("montecarlo.csv",)),
        "montecarlo.block_bytes_computed": (block_bytes, "bytes", ("genvar",)),
        "genvar.det_s": (self_s("genvar"), "s", ("genvar",)),
        "genvar.det_calls": (len(det), "count", ("genvar",)),
        "genvar.det_gbps_computed": (
            total(det, "bytes") / busy(det) / 1e9 if det else 0.0, "GB/s", ("genvar",)),
        "bns.erv_s": (self_s("bns"), "s", ("bns",)),
        "bns.erv_calls": (len(spans_of("bns")), "count", ("bns",)),
        "bns.quad_calls": (recorder.counters.get("bns.quad_calls", 0), "count", ("bns.quad_calls",)),
        "heston.erv_s": (self_s("heston"), "s", ("heston",)),
        "heston.erv_calls": (len(spans_of("heston")), "count", ("heston",)),
        "calibrate.fit_heston_s": (busy(fits["heston"]), "s", calibrate),
        "calibrate.fit_bns_s": (busy(fits["bns"]), "s", calibrate),
        "calibrate.lm_iterations_heston": (total(fits["heston"], "iterations"), "count", calibrate),
        "calibrate.lm_iterations_bns": (total(fits["bns"], "iterations"), "count", calibrate),
        "calibrate.model_curve_calls_bns": (len(spans_of("calibrate", model="bns")), "count", calibrate),
        "calibrate.self_s": (self_s(*calibrate), "s", calibrate),
        "marketdata.s": (self_s("marketdata"), "s", ("marketdata",)),
        "marketdata.windows": (total(spans_of("marketdata"), "windows"), "count", ("marketdata",)),
        "svgplot.s": (self_s("svgplot"), "s", ("svgplot",)),
        "svgplot.bytes": (total(spans_of("svgplot"), "bytes"), "bytes", ("svgplot",)),
        "trace.wall_s": (traced_wall, "s", ()),
        "trace.overhead_s": (traced_wall - untraced_wall, "s", ()),
        "trace.unattributed_s": (unattributed, "s", ()),
    }

    metrics, absent = {}, []
    for name, (value, unit, needs) in values.items():
        if broken and (needs is None or broken.intersection(needs)):
            absent.append(name)
        else:
            metrics[name] = (value if isinstance(value, int) else float(value), unit)

    problems = []
    if abs(unattributed) > ACCOUNTING_TOLERANCE * traced_wall:
        problems.append(f"layer self times leave {unattributed:.4f} s of the {traced_wall:.4f} s traced wall")
    return metrics, absent, problems


def _mean(cmd: workloads.Command):
    try:
        return workloads.read_estimate(cmd.out)["mean"]
    except (OSError, ValueError, KeyError):
        return None


def traced_run(plan, untraced_wall, threads, tally, spans_path):
    """The sequence once with spans on; returns (metrics, absent)."""
    untraced_mean = _mean(plan.simulate) if plan.simulate else None
    recorder = spans.Recorder()
    with spans.Instrumentation(recorder) as inst:
        traced_wall = run_sequence(plan, tally, recorder)["wall_s"]

    one_thread = None
    if plan.one_thread is not None:
        one_thread = spans.Recorder()
        with spans.Instrumentation(one_thread):
            shutil.rmtree(plan.one_thread.out, ignore_errors=True)
            code, _ = run_command(plan.one_thread, one_thread)
        means = (untraced_mean, _mean(plan.simulate), _mean(plan.one_thread) if code == 0 else None)
        same = means[0] is not None and means.count(means[0]) == len(means)
        if not same:
            print(
                f"per-path RNG contract broken: untraced, traced {threads}-thread and "
                f"traced 1-thread means are {means}",
                file=sys.stderr,
            )
        tally.add(same)

    broken = set(inst.missing.values())
    metrics, absent, problems = layer_metrics(
        recorder, traced_wall, untraced_wall, one_thread, threads, broken
    )
    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    tally.add(not problems)

    doc = {
        "spans": [dataclasses.asdict(s) for s in recorder.spans],
        "one_thread_spans": [dataclasses.asdict(s) for s in one_thread.spans] if one_thread else [],
        "counters": recorder.counters,
        "missing_wraps": sorted(inst.missing),
    }
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return metrics, absent


def environment(args, threads: int, plan: workloads.Plan) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "genvarswap": genvarswap.__version__,
        "machine": platform.machine(),
        "sizes": plan.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", required=True, choices=tuple(workloads.SIZES))
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--result", required=True, help="JSON result file to write")
    parser.add_argument("--spans", required=True, help="span file written by the traced run")
    args = parser.parse_args(argv)

    threads = len(os.sched_getaffinity(0))
    os.makedirs(args.work, exist_ok=True)
    plan = workloads.make_plan(args.workload, args.work, args.seed, threads, args.size)
    tally = Tally()
    passes = closed_loop(plan, args.seconds, tally)
    result = {
        "environment": environment(args, threads, plan),
        "passes": passes,
        "references": plan.references,
        "end_to_end": end_to_end(passes),
        "derived": derived(plan, passes),
    }
    if args.trace:
        untraced_wall = median(p["wall_s"] for p in passes)
        metrics, absent = traced_run(plan, untraced_wall, threads, tally, args.spans)
        result["per_layer"] = metrics
        result["absent"] = absent
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
