"""The contract the benchmark's tracer (``perfbench/spans.py``) relies on.

The tracer wraps module-level layer boundaries by name, binds
``hybrid_maximize`` arguments by parameter name, and requires the optimizer
to spend exactly one ``objective.gain`` call per counted evaluation. A tiny
traced fit here catches a break of any of these in a second, without the
benchmark's own slower smoke test.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np

from subsel import FacilityLocationSelector

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fit_satisfies_the_trace_checks():
    spans = _load_spans()
    X = np.random.default_rng(11).uniform(size=(30, 5))
    records = []
    selector = FacilityLocationSelector(
        6, similarity="squared-correlation", naive_rounds=2, verbose=True,
        progress=records.append,
    )
    tracer = spans.Tracer("contract")
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("workload"):
            selector.fit(X)
        wall = time.perf_counter() - t0

    assert spans.trace_problem(tracer, wall, selector.result_.evaluations) == ""
    assert [r.index for r in records] == list(selector.ranking_)
    phases = [s["attrs"]["phase"] for s in tracer.spans if s["name"] == "optimizer.pick"]
    assert phases == ["naive"] * 2 + ["lazy"] * 4
    names = {s["name"] for s in tracer.spans}
    assert {"selector.fit", "matrices.build"} <= names
