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

from subsel import FacilityLocationSelector, FeatureBasedSelector

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


def test_traced_pure_lazy_feature_fit_satisfies_the_trace_checks():
    # Pure lazy builds its queue from one naive sweep; the tracer must still
    # see one gain call per counted evaluation and label every pick lazy.
    # Each lazy step after the sweep asks the objective for its gain bounds
    # once, through a method of its own that the tracer times by name.
    spans = _load_spans()
    X = np.random.default_rng(13).uniform(size=(40, 6))
    selector = FeatureBasedSelector(7, verbose=True, progress=lambda record: None)
    tracer = spans.Tracer("contract-lazy")
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("workload"):
            selector.fit(X)
        wall = time.perf_counter() - t0

    assert spans.trace_problem(tracer, wall, selector.result_.evaluations) == ""
    picks = [s for s in tracer.spans if s["name"] == "optimizer.pick"]
    assert [s["attrs"]["phase"] for s in picks] == ["lazy"] * 7
    assert picks[0]["attrs"]["evals"] == 40
    assert tracer.objective_calls["upper_bounds"][0] == 7 - 1


def test_traced_fit_with_initial_and_naive_rounds_satisfies_the_trace_checks():
    # One run enters the optimizer's loop three ways: the replay of initial
    # indices, one sweep step and the lazy steps after it. Each must spend
    # exactly one gain call per counted evaluation. ``naive_rounds`` is still
    # accepted, and the tracer still binds it by name, but it changes nothing.
    spans = _load_spans()
    X = np.random.default_rng(17).uniform(size=(25, 4))
    records = []
    selector = FeatureBasedSelector(
        6, initial=[4, 9], naive_rounds=2, verbose=True, progress=records.append,
    )
    tracer = spans.Tracer("contract-initial")
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("workload"):
            selector.fit(X)
        wall = time.perf_counter() - t0

    assert spans.trace_problem(tracer, wall, selector.result_.evaluations) == ""
    assert selector.ranking_[:2] == (4, 9)
    # Two replayed indices, a sweep over the 23 left, then three lazy steps.
    assert [r.evaluations for r in records] == [1, 2, 2 + 23, 28, 31, 34]
    assert selector.result_ == FeatureBasedSelector(6, initial=[4, 9]).fit(X).result_


def test_traced_cli_feature_run_satisfies_the_trace_checks(tmp_path, capsys):
    # The CLI adopts its parsed feature matrix as the FeatureMatrix the
    # objective takes as is; that must hold while the tracer has swapped
    # that class for its own subclass.
    from subsel.cli import main

    spans = _load_spans()
    path = tmp_path / "in.csv"
    np.savetxt(path, np.random.default_rng(19).uniform(size=(30, 4)), delimiter=",")
    tracer = spans.Tracer("contract-cli")
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("workload"):
            code = main(["--function", "feature-based", "--k", "5", "--input", str(path),
                         "--output", str(tmp_path / "out.csv"), "--verbose"])
        wall = time.perf_counter() - t0

    assert code == 0
    last = capsys.readouterr().err.splitlines()[-1]
    evaluations = int(last.split("evaluations=")[1].split()[0])
    assert spans.trace_problem(tracer, wall, evaluations) == ""
    assert (tmp_path / "out.csv").read_text().count("\n") == 6


def test_traced_cli_triples_run_satisfies_the_trace_checks(tmp_path, capsys):
    # The CLI builds a sparse matrix through its module-level name
    # ``cli.sparse_from_triples``, which the tracer wraps as matrices.build.
    from subsel.cli import main

    spans = _load_spans()
    rng = np.random.default_rng(23)
    n = 20
    entries = [f"{i},{j},{rng.uniform():.6f}" for i in range(n) for j in range(n) if (i + j) % 3 == 0]
    path = tmp_path / "in.txt"
    path.write_text("\n".join([f"n={n}", *entries]) + "\n")
    tracer = spans.Tracer("contract-cli-triples")
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.span("workload"):
            code = main(["--function", "facility-location", "--similarity", "precomputed",
                         "--format", "triples", "--k", "5", "--input", str(path),
                         "--output", str(tmp_path / "out.csv"), "--verbose"])
        wall = time.perf_counter() - t0

    assert code == 0
    last = capsys.readouterr().err.splitlines()[-1]
    evaluations = int(last.split("evaluations=")[1].split()[0])
    assert spans.trace_problem(tracer, wall, evaluations) == ""
    names = {s["name"] for s in tracer.spans}
    assert {"cli.parse", "matrices.build", "selector.fit"} <= names
    assert (tmp_path / "out.csv").read_text().count("\n") == 6
