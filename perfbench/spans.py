"""Spans recorded from outside the program, and the per-layer numbers they give.

Tracing never edits ``subsel``. Inside :func:`instrument` the module-level
names through which one layer calls the next are replaced by timing
wrappers, and restored on exit:

* ``subsel.cli.load_csv_matrix`` and ``load_triples`` -> ``cli.parse``;
* ``subsel.cli.sparse_from_triples``, ``subsel.selector.squared_correlation_similarity``
  and ``subsel.objectives.FeatureMatrix`` -> ``matrices.build``;
* ``subsel.selector.BaseSelector.fit`` -> ``selector.fit``;
* ``subsel.cli._write_output`` -> ``cli.write``;
* ``subsel.selector.hybrid_maximize`` -> one ``optimizer.pick`` span per
  selection, cut at the public ``progress`` callback. The objective it gets
  is wrapped in :class:`TimedObjective`, which times every method by name.

A name that no longer exists raises, so a renamed layer boundary is noticed
instead of silently leaving a layer untimed.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory spans of one traced call; all share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.objective_calls: dict[str, list[int]] = {}
        self._open: list[int] = []

    def _add(self, name, start, end, parent, attrs) -> dict:
        span = {"id": len(self.spans), "run": self.run_id, "name": name, "start_ns": start,
                "end_ns": end, "parent": parent, "attrs": attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = self._add(name, perf_counter_ns(), None, parent, attrs)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            self._open.pop()
            span["end_ns"] = perf_counter_ns()

    def record(self, name: str, start: int, end: int, **attrs) -> None:
        """A finished span under the innermost open one."""
        self._add(name, start, end, self._open[-1] if self._open else None, attrs)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


class TimedObjective:
    """Delegates to an objective and times each of its methods by name.

    Methods are wrapped on first access, so a method a later objective
    contract adds is timed without changing this class.
    """

    def __init__(self, inner):
        self._inner = inner
        self.calls: dict[str, list[int]] = {}

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        stats = self.calls.setdefault(name, [0, 0])

        def timed(*args, **kwargs):
            t = perf_counter_ns()
            try:
                return attr(*args, **kwargs)
            finally:
                stats[1] += perf_counter_ns() - t
                stats[0] += 1

        self.__dict__[name] = timed
        return timed

    def totals(self, name: str) -> tuple[int, int]:
        calls, ns = self.calls.get(name, (0, 0))
        return calls, ns


@contextmanager
def instrument(tracer: Tracer):
    """Swap the layer boundaries for traced wrappers while the block runs."""
    import subsel.cli as cli
    import subsel.objectives as objectives
    import subsel.selector as selector

    saved = []

    def patch(owner, name, new):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    base_matrix = objectives.FeatureMatrix

    class TracedFeatureMatrix(base_matrix):
        def __init__(self, values):
            with tracer.span("matrices.build"):
                super().__init__(values)

    patch(cli, "load_csv_matrix", tracer.wrap("cli.parse", cli.load_csv_matrix))
    patch(cli, "load_triples", tracer.wrap("cli.parse", cli.load_triples))
    patch(cli, "sparse_from_triples", tracer.wrap("matrices.build", cli.sparse_from_triples))
    patch(cli, "_write_output", tracer.wrap("cli.write", cli._write_output))
    patch(selector, "squared_correlation_similarity",
          tracer.wrap("matrices.build", selector.squared_correlation_similarity))
    patch(objectives, "FeatureMatrix", TracedFeatureMatrix)
    patch(selector.BaseSelector, "fit", tracer.wrap("selector.fit", selector.BaseSelector.fit))
    patch(selector, "hybrid_maximize", _traced_maximize(tracer, selector.hybrid_maximize))
    try:
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def _traced_maximize(tracer: Tracer, maximize):
    signature = inspect.signature(maximize)

    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        naive_rounds = bound.arguments["naive_rounds"]
        sink = bound.arguments["progress"]
        objective = TimedObjective(bound.arguments["objective"])
        last = [perf_counter_ns(), 0, 0, 0]  # pick start, gain calls, gain ns, update ns

        def on_pick(rec):
            now = perf_counter_ns()
            calls, gain_ns = objective.totals("gain")
            update_ns = objective.totals("update")[1]
            tracer.record(
                "optimizer.pick", last[0], now, step=rec.step, index=rec.index,
                phase="naive" if rec.step < naive_rounds else "lazy",
                evals=calls - last[1], evaluations_total=rec.evaluations,
                gain_ns=gain_ns - last[2], update_ns=update_ns - last[3],
            )
            last[:] = [now, calls, gain_ns, update_ns]
            if sink is not None:
                sink(rec)

        bound.arguments["objective"] = objective
        bound.arguments["progress"] = on_pick
        tracer.objective_calls = objective.calls
        return maximize(*bound.args, **bound.kwargs)

    return traced


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced call, keyed by metric name."""
    spans = tracer.spans

    def total(name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9

    picks = [s for s in spans if s["name"] == "optimizer.pick"]
    naive = [p for p in picks if p["attrs"]["phase"] == "naive"]
    lazy = [p for p in picks if p["attrs"]["phase"] == "lazy"]
    lazy_evals = sum(p["attrs"]["evals"] for p in lazy)
    calls = tracer.objective_calls
    gain_calls, gain_ns = calls.get("gain", (0, 0))
    update_ns = calls.get("update", (0, 0))[1]
    pick_ns = sum(p["end_ns"] - p["start_ns"] for p in picks)
    per_pick = [p["attrs"]["evals"] for p in lazy] or [0]
    return {
        "cli.parse_s": total("cli.parse"),
        "cli.write_s": total("cli.write"),
        "matrices.build_s": total("matrices.build"),
        "selector.fit_s": total("selector.fit"),
        "objectives.gain_calls": gain_calls,
        "objectives.gain_s": gain_ns / 1e9,
        "objectives.gain_us": gain_ns / 1e3 / gain_calls if gain_calls else 0.0,
        "objectives.update_s": update_ns / 1e9,
        "optimizer.naive_s": sum(p["end_ns"] - p["start_ns"] for p in naive) / 1e9,
        "optimizer.naive_evals": sum(p["attrs"]["evals"] for p in naive),
        "optimizer.lazy_s": sum(p["end_ns"] - p["start_ns"] for p in lazy) / 1e9,
        "optimizer.lazy_evals": lazy_evals,
        "optimizer.lazy_picks": len(lazy),
        "optimizer.lazy_pops": lazy_evals + len(lazy),
        "optimizer.lazy_useful_ratio": len(lazy) / (lazy_evals + len(lazy)) if lazy else 0.0,
        "optimizer.evals_per_pick.p50": float(np.median(per_pick)),
        "optimizer.evals_per_pick.max": max(per_pick),
        "optimizer.self_s": (pick_ns - gain_ns - update_ns) / 1e9,
        "bench.span_self_sum_s": sum(self_times(spans).values()) / 1e9,
    }


def trace_problem(tracer: Tracer, wall_s: float, evaluations: int) -> str:
    """Why the spans of one traced call cannot be trusted; empty when they can.

    The gain calls the wrapper saw must match the optimizer's own evaluation
    count at every pick, and the self times of all spans must add up to the
    ``workload`` span, which must match the wall time measured around it.
    """
    seen = 0
    for s in tracer.spans:
        if s["name"] == "optimizer.pick":
            seen += s["attrs"]["evals"]
            if seen != s["attrs"]["evaluations_total"]:
                return f"pick {s['attrs']['step']}: {seen} gain calls seen, optimizer counts {s['attrs']['evaluations_total']}"
    if tracer.objective_calls.get("gain", (0, 0))[0] != evaluations:
        return "traced gain calls differ from the optimizer's evaluation count"
    root = next(s for s in tracer.spans if s["name"] == "workload")
    span_ns = root["end_ns"] - root["start_ns"]
    if abs(sum(self_times(tracer.spans).values()) - span_ns) > 1000:
        return "span self times do not add up to the workload span"
    if abs(span_ns / 1e9 - wall_s) > 0.01 * wall_s + 1e-3:
        return f"workload span {span_ns / 1e9:.4f} s differs from the traced wall time {wall_s:.4f} s"
    return ""
