"""subsel benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; ``subsel`` is imported from ``src/``. The
workloads, metric names and units are those of ``BENCHMARK.json``.

``--trace 0`` times the user-facing call (a ``subsel`` process, or
``Selector.fit`` in a fresh worker process) repeatedly for S seconds after
one untimed warm-up, with one in-process set-up after each call, and reports
each end-to-end metric as the median over the run's calls or set-ups.
Every call's value is printed too.

``--trace 1`` runs the same call in this process, alternating untraced and
traced calls for S seconds, and reports the per-layer metrics of the
traced calls (medians) and the tracing overhead. The spans of the last
traced call are written to ``.perfbench/traces/``.

Every call's selection goes through the correctness gate in
``reference.py``; a call that fails it, or exits non-zero, counts in
``failed``. Human-readable lines come first on stdout; the last line is
the JSON result. ``--smoke`` uses tiny inputs, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CALLS = 5
RUN_LIMIT_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return p.parse_args(argv)


def environment(wl, seed: int) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": wl.name,
        **wl.input_sizes(),
    }


class Gate:
    """Counts calls and failures; every call's selection is checked here."""

    def __init__(self, wl, ref):
        self.wl = wl
        self.ref = ref
        self.n = wl.input_sizes()["n"]
        self.attempted = 0
        self.failed = 0
        self.evaluations = None

    def check(self, out) -> bool:
        import reference

        self.attempted += 1
        problems = [out.error] if not out.ok else reference.check_selection(
            out.ranking, out.gains, *self.ref, self.n, self.wl.k, self.wl.evaluate)
        if out.ok and out.evaluations:
            total = out.evaluations[-1]
            if self.evaluations is None:
                self.evaluations = total
            elif total != self.evaluations:
                problems.append(f"evaluation count {total} != {self.evaluations} of an earlier call")
        if problems:
            self.failed += 1
            print(f"FAILED call {self.attempted}: {problems[0]}", file=sys.stderr)
        return not problems


def lazy_pops(evaluations, naive_rounds: int) -> int:
    """Pops of the lazy phase: its evaluations plus one fresh pop per lazy pick."""
    per_pick = [b - a for a, b in zip([0] + evaluations[:-1], evaluations)]
    lazy = per_pick[naive_rounds:]
    return sum(lazy) + len(lazy)


def measure_end_to_end(wl, seconds: float, smoke: bool, started: float):
    wl.setup()  # warm-up: imports and first-touch costs stay out of setup_s
    gate = Gate(wl, wl.reference())
    gate.check(wl.run())  # warm-up: fills caches and writes bytecode; untimed
    calls, setups = [], []
    t_start = time.perf_counter()
    for attempt in itertools.count():
        if attempt >= (1 if smoke else MIN_CALLS) and time.perf_counter() - t_start >= seconds:
            break
        if time.perf_counter() - started > RUN_LIMIT_S:
            break
        gc.collect()
        out = wl.run()
        if gate.check(out):
            calls.append(out)
        # One set-up after each call spreads the set-ups over the whole run,
        # so both see the same drift of the machine's speed.
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    if not calls:
        return {}, gate, {}

    values = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(out.total_s for out in calls),
        "first_pick_s": statistics.median(out.pick_s[0] for out in calls),
        "peak_rss_mb": statistics.median(out.rss_mb for out in calls),
    }
    evaluations = calls[0].evaluations
    counts = {
        "setup_s per set-up": " ".join(f"{t:.4f}" for t in setups),
        "total_s per call": " ".join(f"{out.total_s:.4f}" for out in calls),
        "first_pick_s per call": " ".join(f"{out.pick_s[0]:.4f}" for out in calls),
        "samples": f"{len(setups)} set-ups, {len(calls)} timed calls of {len(calls[0].ranking)} picks",
        "objectives.gain_calls": evaluations[-1],
        "optimizer.lazy_pops": lazy_pops(evaluations, wl.naive_rounds),
    }
    return values, gate, counts


def measure_layers(wl, seconds: float, smoke: bool, started: float, run_id: str):
    from spans import Tracer, layer_metrics, trace_problem

    wl.setup()
    gate = Gate(wl, wl.reference())
    gate.check(wl.run_inprocess())  # warm-up
    plain, traced = [], []
    t_start = time.perf_counter()
    for pair in itertools.count():
        if pair >= (1 if smoke else MIN_CALLS) and time.perf_counter() - t_start >= seconds:
            break
        if time.perf_counter() - started > RUN_LIMIT_S:
            break
        # Alternate which side goes first so drift hits both alike.
        for side in ("plain", "traced") if pair % 2 == 0 else ("traced", "plain"):
            gc.collect()
            if side == "plain":
                out = wl.run_inprocess()
                if gate.check(out):
                    plain.append(out.total_s)
                continue
            tracer = Tracer(f"{run_id}-{len(traced)}")
            out = wl.run_inprocess(tracer)
            layers = layer_metrics(tracer)
            if out.ok:
                out.error = trace_problem(tracer, out.total_s, out.evaluations[-1])
                out.ok = not out.error
            if gate.check(out):
                traced.append((out, layers, tracer))
    if not traced or not plain:
        return {}, gate, None

    values = {}
    for name in traced[0][1]:
        samples = [layers[name] for _, layers, _ in traced]
        if name.endswith(("_calls", "_evals", "_pops", "_picks", ".max", ".p50")):
            # Counts, which must repeat exactly from call to call.
            if len(set(samples)) > 1:
                gate.failed += 1
                print(f"FAILED: {name} differs between traced calls: {sorted(set(samples))}", file=sys.stderr)
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    values.update(wl.layer_bytes())
    values["cli.parse_mb_per_s"] = (
        values["cli.parse_bytes"] / 1e6 / values["cli.parse_s"] if values["cli.parse_s"] else 0.0
    )
    values["bench.untraced_total_s"] = statistics.median(plain)
    values["bench.traced_total_s"] = statistics.median(out.total_s for out, _, _ in traced)
    values["bench.trace_overhead"] = values["bench.traced_total_s"] / values["bench.untraced_total_s"] - 1.0
    return values, gate, traced[-1][2]


def emit(spec_metrics, values, gate, extra_lines):
    units = {m["name"]: m["unit"] for m in spec_metrics}
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if values and (missing or unknown):
        raise SystemExit(f"perfbench: metrics do not match BENCHMARK.json: missing {missing}, unlisted {unknown}")
    for line in extra_lines:
        print(line)
    for name, unit in units.items():
        if name in values:
            print(f"  {name:32s} {values[name]:>14.6g} {unit}")
    print(f"  calls attempted {gate.attempted}, failed {gate.failed}, "
          f"error_rate {gate.failed / max(gate.attempted, 1):.4g}")
    result = {
        "correct": gate.failed == 0 and bool(values),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "subsel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no subsel sources under {ROOT / 'src'}; run from a subsel checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so pin it before any import
    # of numpy; the child processes inherit it.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    started = time.perf_counter()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as work:
        wl = workloads.make(args.workload, args.smoke, ROOT, Path(work))
        wl.generate(args.seed)
        env = environment(wl, args.seed)
        header = [f"env {json.dumps(env)}",
                  f"workload {wl.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}"]
        if args.trace == 0:
            values, gate, counts = measure_end_to_end(wl, args.seconds, args.smoke, started)
            header += [f"  {k}: {v}" for k, v in counts.items()]
            emit(spec["end_to_end"], values, gate, header)
            return 0
        run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}"
        values, gate, tracer = measure_layers(wl, args.seconds, args.smoke, started, run_id)
        if tracer is not None:
            trace_dir = out_dir / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{wl.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"env": env, "metrics": values, "spans": tracer.spans}))
            header.append(f"  spans of the last traced call: {trace_path.relative_to(ROOT)}")
        emit(spec["per_layer"], values, gate, header)
    return 0


if __name__ == "__main__":
    sys.exit(main())
