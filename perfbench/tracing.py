"""In-memory span recorder and the wrappers that feed it.

The traced run wraps public functions at the names each calling module binds
(``genvarswap.cli.fit``, ``genvarswap.montecarlo.det_sigma2_values``, ...), so
no source file of the package changes. Every span records its name, layer,
start, end, parent span, trace id and thread. Worker-thread spans (the Monte
Carlo determinant kernels run in a thread pool) have no open span of their
own thread; their parent is the innermost open span of the thread that began
the trace, which is blocked in the pool at that moment.

A layer's self time is its spans' duration minus the part of that interval
covered by child spans. Concurrent sibling spans (two worker threads inside
one streaming estimate) split the instants they share equally, so the self
times of all layers add up exactly to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    trace_id: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects spans and counters in memory; nothing is written until the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[Span] | None = None
        self._trace_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_trace(self) -> None:
        """Start a new trace (one CLI command) owned by the calling thread."""
        self._trace_id += 1
        self._owner_stack = self._stack()

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._owner_stack:
            parent = self._owner_stack[-1].id
        else:
            parent = None
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            trace_id=self._trace_id,
            parent=parent,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1


# What a wrapper records besides its span: hooks read the call's arguments
# and result and return span attributes.


def _model_attr(args, kwargs, result):
    model = args[0] if args else kwargs.get("model")
    return {"model": model}


def _fit_attrs(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {"model": problem.model, "iterations": result.iterations}


def _det_attrs(args, kwargs, result):
    variances = args[0] if args else kwargs["variances"]
    return {"block_bytes": variances.nbytes, "bytes": variances.nbytes + result.nbytes}


def _windows_attrs(args, kwargs, result):
    return {"windows": result.n_windows}


def _file_bytes(position):
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}

    return hook


# (module, attribute, layer, hook). An attribute "Cls.meth" wraps a method.
WRAPS = (
    ("genvarswap.cli", "RunManifest.build", "cli.manifest", None),
    ("genvarswap.cli", "RunManifest.write", "cli.manifest", None),
    ("genvarswap.cli", "heston_realized_variance_mc", "montecarlo.stream", None),
    ("genvarswap.cli", "bns_realized_variance_mc", "montecarlo.stream", None),
    ("genvarswap.cli", "simulate_heston", "montecarlo.simulate", None),
    ("genvarswap.cli", "simulate_bns", "montecarlo.simulate", None),
    ("genvarswap.cli", "ensemble_to_csv", "montecarlo.csv", _file_bytes(1)),
    ("genvarswap.montecarlo", "det_sigma1_values", "genvar", _det_attrs),
    ("genvarswap.montecarlo", "det_sigma2_values", "genvar", _det_attrs),
    ("genvarswap.cli", "fit", "calibrate.fit", _fit_attrs),
    ("genvarswap.calibrate", "model_curve", "calibrate", _model_attr),
    ("genvarswap.cli", "model_curve", "calibrate", _model_attr),
    ("genvarswap.calibrate", "expected_realized_variance_bns", "bns", None),
    ("genvarswap.calibrate", "expected_realized_variance", "heston", None),
    ("genvarswap.cli", "load_prices", "marketdata", None),
    ("genvarswap.cli", "log_returns", "marketdata", None),
    ("genvarswap.cli", "rolling_determinants", "marketdata", _windows_attrs),
    ("genvarswap.cli", "estimate_correlation", "marketdata", None),
    ("genvarswap.cli", "summary_stats", "marketdata", None),
    ("genvarswap.cli", "realized_to_csv", "marketdata", None),
    ("genvarswap.cli", "summary_to_csv", "marketdata", None),
    ("genvarswap.cli", "load_realized_csv", "marketdata", None),
    ("genvarswap.cli", "grouped_histogram", "svgplot", _file_bytes(0)),
    ("genvarswap.cli", "heatmap", "svgplot", _file_bytes(0)),
    ("genvarswap.cli", "line_chart", "svgplot", _file_bytes(0)),
)

# Counted, not spanned: one call per adaptive quadrature, tens of thousands
# per BNS fit.
COUNTS = (("genvarswap.bns", "quad", "bns.quad_calls"),)


def _spanned(recorder: Recorder, func, *, name: str, layer: str, hook):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            span.attrs.update(hook(args, kwargs, result))
        return result

    return wrapper


def _counted(recorder: Recorder, func, *, counter: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.count(counter)
        return func(*args, **kwargs)

    return wrapper


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, raw attribute) or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(leaf)
    else:
        raw = getattr(owner, leaf, None)
    if raw is None:
        return None
    return owner, leaf, raw


class Instrumentation:
    """Installs the wrappers for the traced run and removes them afterwards.

    ``missing`` maps each wrapped name that no longer exists to its layer;
    the metrics built on that layer are reported as absent.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for module_name, attr, layer, hook in WRAPS:
            name = f"{module_name}.{attr}"
            self._patch(module_name, attr, layer, functools.partial(
                _spanned, self.recorder, name=name, layer=layer, hook=hook))
        for module_name, attr, counter in COUNTS:
            self._patch(module_name, attr, counter, functools.partial(
                _counted, self.recorder, counter=counter))
        return self

    def _patch(self, module_name: str, attr: str, layer: str, make) -> None:
        found = _resolve(module_name, attr)
        if found is None:
            self.missing[f"{module_name}.{attr}"] = layer
            return
        owner, leaf, raw = found
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, leaf, replacement)
        self._restore.append((owner, leaf, raw))

    def __exit__(self, *exc) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()


def attributed_self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's share of wall time not covered by its children.

    For a span p with weight W (1 for a root), children get
    weight W * share(c) / dur(c), where share(c) is the part of p's interval
    that c covers, instants shared by overlapping siblings split equally.
    p itself gets W * (dur(p) - covered(p)). Summed over all spans this
    equals the total root duration exactly.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    roots = []
    for s in spans:
        if s.parent is None or s.parent not in by_id:
            roots.append(s)
        else:
            children.setdefault(s.parent, []).append(s)

    out: dict[int, float] = {}
    todo = [(r, 1.0) for r in roots]
    while todo:
        span, weight = todo.pop()
        kids = children.get(span.id, [])
        shares = _sweep_shares(span, kids)
        covered = sum(shares.values())
        out[span.id] = weight * ((span.end - span.start) - covered)
        for kid in kids:
            duration = kid.end - kid.start
            kid_weight = weight * shares[kid.id] / duration if duration > 0 else 0.0
            todo.append((kid, kid_weight))
    return out


def _sweep_shares(parent: Span, kids: list[Span]) -> dict[int, float]:
    """Split the parent interval's covered instants among overlapping kids."""
    shares = {k.id: 0.0 for k in kids}
    if not kids:
        return shares
    edges = []
    for k in kids:
        lo, hi = max(k.start, parent.start), min(k.end, parent.end)
        if hi > lo:
            edges.append((lo, 1, k.id))
            edges.append((hi, -1, k.id))
    edges.sort(key=lambda e: (e[0], e[1]))
    active: set[int] = set()
    last = None
    for t, kind, kid in edges:
        if active and last is not None and t > last:
            part = (t - last) / len(active)
            for a in active:
                shares[a] += part
        if kind > 0:
            active.add(kid)
        else:
            active.discard(kid)
        last = t
    return shares
