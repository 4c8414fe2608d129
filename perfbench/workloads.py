"""The benchmark's workloads: seeded inputs, set-up, the user-facing call, checks.

Every workload is a closed loop: one caller runs one selection at a time.
Inputs are generated from the seed and written to files before anything is
timed; the program only ever sees those inputs.

* ``feature-csv-cli``: the ``subsel`` CLI, feature-based, on a CSV of
  exponential features, pure lazy. Feature gains and lazy-queue churn
  dominate, CSV parsing is the rest; no similarity matrix exists.
* ``facility-dense-mem``: ``FacilityLocationSelector.fit`` in memory with
  squared-correlation similarity on a Gaussian mixture, 50 naive rounds
  then lazy. The n^2 similarity build and dense naive sweeps dominate.
* ``facility-sparse-cli``: the CLI on a ~90%-zero triples file, pure lazy.
  Triple parsing and ``sparse_from_triples`` dominate; gains read CSR rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import launch
import memworker
import reference
from spans import Tracer, instrument

SIZES = {
    "feature-csv-cli": {"n": 10000, "d": 50, "k": 300},
    "facility-dense-mem": {"n": 2000, "d": 64, "k": 200, "naive_rounds": 50, "clusters": 20},
    "facility-sparse-cli": {"n": 1400, "d": 16, "k": 200, "density": 0.1, "clusters": 20},
}
SMOKE_SIZES = {
    "feature-csv-cli": {"n": 300, "d": 8, "k": 20},
    "facility-dense-mem": {"n": 150, "d": 8, "k": 20, "naive_rounds": 5, "clusters": 4},
    "facility-sparse-cli": {"n": 120, "d": 8, "k": 20, "density": 0.1, "clusters": 4},
}
CHILD_TIMEOUT_S = 150.0
PROGRESS_PREFIX = "step="  # --verbose progress records; other stderr lines are ignored


@dataclass
class Outcome:
    """What one user-facing call returned, and how long it took."""

    ok: bool = False
    error: str = ""
    ranking: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)  # cumulative, one per pick
    total_s: float = 0.0
    pick_s: list[float] = field(default_factory=list)  # from call start to each pick
    rss_mb: float = 0.0


def _mixture(rng, n, d, clusters):
    centers = rng.normal(size=(clusters, d)) * 3.0
    return centers[rng.integers(clusters, size=n)] + rng.normal(size=(n, d))


def _parse_progress(lines: list[str], out: Outcome) -> None:
    """Fill picks from ``--verbose`` lines: step= index= gain= objective= evaluations=."""
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split())
        out.ranking.append(int(fields["index"]))
        out.gains.append(float(fields["gain"]))
        out.evaluations.append(int(fields["evaluations"]))


def _spawn(cmd, env, cwd) -> tuple[int, list[tuple[float, str]], float, float]:
    """Run ``cmd`` to exit through ``launch.py``.

    Returns (exit code, timed stderr lines, wall s, peak RSS MB).
    """
    proc = subprocess.run(
        [sys.executable, str(Path(launch.__file__)), str(CHILD_TIMEOUT_S), *cmd],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10,
    )
    if proc.returncode != 0:
        return proc.returncode, [(0.0, proc.stderr)], 0.0, 0.0
    r = json.loads(proc.stdout)
    return r["code"], [tuple(line) for line in r["lines"]], r["wall_s"], r["rss_mb"]


class Workload:
    """One workload at one seed. Subclasses define the path it runs."""

    name = ""

    def __init__(self, sizes: dict, root: Path, work: Path):
        self.sizes = sizes
        self.k = sizes["k"]
        self.naive_rounds = sizes.get("naive_rounds", 0)
        self.work = work
        self.input_path: Path | None = None
        self.objective = None
        self.child_env = dict(os.environ)
        src = str(root / "src")
        old = self.child_env.get("PYTHONPATH")
        self.child_env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def generate(self, seed: int) -> None:
        """Make the inputs from ``seed`` and write the input file."""
        raise NotImplementedError

    def input_sizes(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Turn the input into a ready objective through the path's public functions."""
        raise NotImplementedError

    def reference(self) -> tuple[list[int], list[float]]:
        raise NotImplementedError

    def evaluate(self, indices) -> float:
        raise NotImplementedError

    def run(self) -> Outcome:
        """The user-facing call, untraced, in a fresh process."""
        raise NotImplementedError

    def run_inprocess(self, tracer: Tracer | None = None) -> Outcome:
        """The user-facing call in this process; traced when ``tracer`` is given."""
        raise NotImplementedError

    def layer_bytes(self) -> dict:
        """Bytes metrics computed from the input sizes."""
        raise NotImplementedError


class CliWorkload(Workload):
    """The ``subsel`` command line, from input file to ranking file."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def _output(self) -> Path:
        return self.work / "ranking.csv"

    def _read_output(self, out: Outcome) -> None:
        """The written ranking file must parse back to the picks reported on stderr."""
        with open(self._output(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        ranks = [int(r[0]) for r in rows]
        ranking = [int(r[1]) for r in rows]
        gains = [float(r[2]) for r in rows]
        if lines[:1] != ["rank,index,gain"] or ranks != list(range(len(rows))):
            out.ok, out.error = False, "ranking file has a bad header or rank column"
        elif ranking != out.ranking or gains != out.gains:
            out.ok, out.error = False, "ranking file differs from the --verbose progress records"

    def run(self) -> Outcome:
        self._output().unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "subsel", *self.argv()]
        code, lines, wall, rss = _spawn(cmd, self.child_env, self.work)
        out = Outcome(ok=code == 0, total_s=wall, rss_mb=rss)
        text = "".join(line for _, line in lines)
        if code != 0:
            out.error = f"exit code {code}: {text.strip()[-500:]}"
            return out
        progress = [(t, line) for t, line in lines if line.startswith(PROGRESS_PREFIX)]
        _parse_progress([line for _, line in progress], out)
        out.pick_s = [t for t, _ in progress]
        self._read_output(out)
        return out

    def run_inprocess(self, tracer: Tracer | None = None) -> Outcome:
        import subsel.cli

        self._output().unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            if tracer is None:
                t0 = time.perf_counter()
                code = subsel.cli.main(self.argv())
                wall = time.perf_counter() - t0
            else:
                with instrument(tracer):
                    t0 = time.perf_counter()
                    with tracer.span("workload", workload=self.name):
                        code = subsel.cli.main(self.argv())
                    wall = time.perf_counter() - t0
        out = Outcome(ok=code == 0, total_s=wall)
        if code != 0:
            out.error = f"exit code {code}: {sink.getvalue().strip()[-500:]}"
            return out
        _parse_progress([line for line in sink.getvalue().splitlines()
                         if line.startswith(PROGRESS_PREFIX)], out)
        self._read_output(out)
        return out


class FeatureCsvCli(CliWorkload):
    name = "feature-csv-cli"

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        self.X = rng.exponential(size=(self.sizes["n"], self.sizes["d"]))
        self.input_path = self.work / "features.csv"
        body = "".join(",".join(map(repr, row)) + "\n" for row in self.X.tolist())
        self.input_path.write_text(body, encoding="utf-8")

    def input_sizes(self):
        n, d = self.X.shape
        return {"n": n, "D": d, "k": self.k, "nnz": n * d,
                "input_bytes": self.input_path.stat().st_size}

    def argv(self):
        return ["--function", "feature-based", "--k", str(self.k), "--input",
                str(self.input_path), "--output", str(self._output()), "--verbose"]

    def setup(self):
        from subsel import FeatureBasedObjective, cli

        matrix, _ = cli.load_csv_matrix(str(self.input_path), False)
        self.objective = FeatureBasedObjective(matrix)
        return self.objective

    def reference(self):
        return reference.feature_sqrt(self.X, self.k)

    def evaluate(self, indices):
        from subsel import feature_based_eval

        return feature_based_eval(self.objective.features, None, "sqrt", indices)

    def layer_bytes(self):
        n, d = self.X.shape
        # A gain reads the candidate's row, the feature sums and the weights.
        return {"cli.parse_bytes": self.input_path.stat().st_size,
                "matrices.bytes": 8 * n * d, "objectives.gain_bytes": 3 * 8 * d}


class FacilitySparseCli(CliWorkload):
    name = "facility-sparse-cli"

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        n = self.sizes["n"]
        X = _mixture(rng, n, self.sizes["d"], self.sizes["clusters"])
        S = np.corrcoef(X) ** 2
        per_row = max(1, round(self.sizes["density"] * n))
        top = np.argpartition(-S, per_row - 1, axis=1)[:, :per_row]
        self.rows = np.repeat(np.arange(n), per_row)
        self.cols = top.ravel()
        self.vals = S[self.rows, self.cols]
        self.n = n
        self.input_path = self.work / "similarity.txt"
        body = f"n={n}\n" + "".join(
            f"{i},{j},{v!r}\n"
            for i, j, v in zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())
        )
        self.input_path.write_text(body, encoding="utf-8")

    def input_sizes(self):
        return {"n": self.n, "D": self.sizes["d"], "k": self.k, "nnz": len(self.vals),
                "input_bytes": self.input_path.stat().st_size}

    def argv(self):
        return ["--function", "facility-location", "--similarity", "precomputed",
                "--format", "triples", "--k", str(self.k), "--input", str(self.input_path),
                "--output", str(self._output()), "--verbose"]

    def setup(self):
        from subsel import FacilityLocationObjective, cli, sparse_from_triples

        n, triples, _ = cli.load_triples(str(self.input_path))
        self.objective = FacilityLocationObjective(sparse_from_triples(n, triples))
        return self.objective

    def reference(self):
        return reference.facility_sparse(self.n, self.rows, self.cols, self.vals, self.k)

    def evaluate(self, indices):
        from subsel import facility_location_eval

        return facility_location_eval(self.objective.similarity, indices)

    def layer_bytes(self):
        nnz = len(self.vals)
        # CSR stores int64 columns, float64 values and n + 1 int64 row offsets;
        # a gain reads one row's columns and values and gathers best_sim at them.
        return {"cli.parse_bytes": self.input_path.stat().st_size,
                "matrices.bytes": 16 * nnz + 8 * (self.n + 1),
                "objectives.gain_bytes": 24 * nnz / self.n}


class FacilityDenseMem(Workload):
    name = "facility-dense-mem"

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        s = self.sizes
        self.X = _mixture(rng, s["n"], s["d"], s["clusters"])
        self.input_path = self.work / "features.npy"
        np.save(self.input_path, self.X)

    def input_sizes(self):
        n, d = self.X.shape
        return {"n": n, "D": d, "k": self.k, "nnz": n * n,
                "input_bytes": self.input_path.stat().st_size}

    def setup(self):
        from subsel import FacilityLocationObjective, squared_correlation_similarity

        self.objective = FacilityLocationObjective(squared_correlation_similarity(self.X))
        return self.objective

    def reference(self):
        return reference.facility_dense(self.objective.similarity.to_dense(), self.k)

    def evaluate(self, indices):
        from subsel import facility_location_eval

        return facility_location_eval(self.objective.similarity, indices)

    def run(self):
        result_path = self.work / "fit.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(memworker.__file__)), str(self.input_path),
               str(self.k), str(self.naive_rounds), str(result_path)]
        code, lines, _, rss = _spawn(cmd, self.child_env, self.work)
        if code != 0:
            text = "".join(line for _, line in lines)
            return Outcome(ok=False, error=f"worker exit code {code}: {text.strip()[-500:]}")
        out = Outcome(ok=True, **json.loads(result_path.read_text(encoding="utf-8")))
        out.rss_mb = rss
        return out

    def run_inprocess(self, tracer=None):
        if tracer is None:
            return Outcome(ok=True, **memworker.fit(self.X, self.k, self.naive_rounds))
        with instrument(tracer), tracer.span("workload", workload=self.name):
            result = memworker.fit(self.X, self.k, self.naive_rounds)
        return Outcome(ok=True, **result)

    def layer_bytes(self):
        n = self.X.shape[0]
        # A dense gain reads the candidate's row and the best_sim vector.
        return {"cli.parse_bytes": 0, "matrices.bytes": 8 * n * n,
                "objectives.gain_bytes": 16 * n}


WORKLOADS = {cls.name: cls for cls in (FeatureCsvCli, FacilityDenseMem, FacilitySparseCli)}


def make(name: str, smoke: bool, root: Path, work: Path) -> Workload:
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    return WORKLOADS[name](sizes, root, work)
