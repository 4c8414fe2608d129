"""End-to-end acceptance gate.

Nine numbered checks cover the behavioral contract of the library: lazy and
naive greedy agree, greedy meets the (1 - 1/e) guarantee against brute force,
the objectives are monotone submodular, incremental gains telescope to the
from-scratch values, sparse and dense storage select identically, the lazy
queue actually saves work, facility location covers well-separated clusters,
desk-scale problems finish fast, and the hybrid knobs never change the answer.

Each check prints one PASS/FAIL line straight to the terminal (capture is
suspended for that line) before asserting, so a plain ``pytest`` run shows
the verdict for every criterion.
"""

import functools
import time

import numpy as np

from subsel import (
    FacilityLocationObjective,
    FeatureBasedObjective,
    FeatureMatrix,
    SimilarityMatrix,
    hybrid_maximize,
    sparse_from_triples,
)
from subsel.oracle import (
    GREEDY_GUARANTEE,
    brute_force_max,
    facility_location_direct,
    feature_based_direct,
)


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


# Criterion 1 instances are reused by criterion 4, so they are built once.
EQ_TRIALS, EQ_N, EQ_D, EQ_K = 100, 200, 20, 25


@functools.lru_cache(maxsize=1)
def _equivalence_runs():
    """Random instances run both pure-lazy and pure-naive, plus direct values."""
    rng = np.random.default_rng(8261)
    runs = []
    for _ in range(EQ_TRIALS):
        F = FeatureMatrix(rng.uniform(size=(EQ_N, EQ_D)))
        obj = FeatureBasedObjective(F)
        lazy = hybrid_maximize(obj, EQ_K)
        naive = hybrid_maximize(obj, EQ_K, naive_rounds=EQ_K)
        runs.append(("feature-based", lazy, naive, feature_based_direct(F, lazy.ranking)))

        S = SimilarityMatrix.from_dense(rng.uniform(size=(EQ_N, EQ_N)))
        obj = FacilityLocationObjective(S)
        lazy = hybrid_maximize(obj, EQ_K)
        naive = hybrid_maximize(obj, EQ_K, naive_rounds=EQ_K)
        runs.append(("facility-location", lazy, naive, facility_location_direct(S, lazy.ranking)))
    return runs


@functools.lru_cache(maxsize=1)
def _guarantee_runs():
    """Small random instances with greedy, brute-force, and direct values."""
    rng = np.random.default_rng(90210)
    runs = []
    for _ in range(50):
        F = FeatureMatrix(rng.uniform(size=(10, 5)))
        fdirect = lambda X, F=F: feature_based_direct(F, X)
        res = hybrid_maximize(FeatureBasedObjective(F), 3)
        opt_value, _ = brute_force_max(fdirect, 10, 3)
        greedy_value = fdirect(res.ranking)
        ratio = 1.0 if opt_value == 0.0 else greedy_value / opt_value
        runs.append(("feature-based", res, greedy_value, ratio))

        S = SimilarityMatrix.from_dense(rng.uniform(size=(10, 10)))
        sdirect = lambda X, S=S: facility_location_direct(S, X)
        res = hybrid_maximize(FacilityLocationObjective(S), 3)
        opt_value, _ = brute_force_max(sdirect, 10, 3)
        greedy_value = sdirect(res.ranking)
        ratio = 1.0 if opt_value == 0.0 else greedy_value / opt_value
        runs.append(("facility-location", res, greedy_value, ratio))
    return runs


def test_01_lazy_matches_naive(capsys):
    """Rankings identical element-for-element; gains within 1e-12."""
    mismatches = 0
    max_delta = 0.0
    runs = _equivalence_runs()
    for _, lazy, naive, _ in runs:
        if lazy.ranking != naive.ranking:
            mismatches += 1
            continue
        delta = max(abs(a - b) for a, b in zip(lazy.gains, naive.gains))
        max_delta = max(max_delta, delta)
    ok = mismatches == 0 and max_delta <= 1e-12
    _report(
        capsys, 1, "lazy equals naive", ok,
        f"{len(runs)} instances, {mismatches} ranking mismatches, "
        f"max gain delta {max_delta:.3g}",
    )
    assert mismatches == 0
    assert max_delta <= 1e-12


def test_02_greedy_meets_approximation_guarantee(capsys):
    """Greedy/optimal ratio at least 1 - 1/e on every brute-forced instance."""
    runs = _guarantee_runs()
    min_ratio = min(ratio for _, _, _, ratio in runs)
    ok = min_ratio >= GREEDY_GUARANTEE - 1e-12
    _report(
        capsys, 2, "approximation guarantee", ok,
        f"{len(runs)} instances, min ratio {min_ratio:.6f} "
        f"vs bound {GREEDY_GUARANTEE:.6f}",
    )
    assert ok


def test_03_monotone_submodular_gains(capsys):
    """Nested-subset gains shrink (within 1e-9); no gain below -1e-12."""
    rng = np.random.default_rng(550)
    worst_margin = np.inf
    min_gain = np.inf
    for _ in range(1000):
        n = int(rng.integers(3, 31))
        objectives = (
            FeatureBasedObjective(FeatureMatrix(rng.uniform(size=(n, 8)))),
            FacilityLocationObjective(SimilarityMatrix.from_dense(rng.uniform(size=(n, n)))),
        )
        perm = rng.permutation(n)
        z_size = int(rng.integers(1, n))
        x_size = int(rng.integers(0, z_size + 1))
        v = int(perm[z_size])
        for obj in objectives:
            state_x, state_z = obj.new_state(), obj.new_state()
            for i in perm[:x_size]:
                obj.update(state_x, int(i))
            for i in perm[:z_size]:
                obj.update(state_z, int(i))
            gain_x, gain_z = obj.gain(state_x, v), obj.gain(state_z, v)
            worst_margin = min(worst_margin, gain_x - gain_z)
            min_gain = min(min_gain, gain_x, gain_z)
    ok = worst_margin >= -1e-9 and min_gain >= -1e-12
    _report(
        capsys, 3, "monotone submodular gains", ok,
        f"2000 nested trials, worst shrink margin {worst_margin:.3g}, "
        f"min gain {min_gain:.3g}",
    )
    assert ok


def test_04_gains_telescope_to_direct_values(capsys):
    """Sum of recorded gains equals the from-scratch value, relative 1e-9."""
    worst = 0.0
    count = 0
    for _, lazy, naive, direct in _equivalence_runs():
        for run in (lazy, naive):
            rel = abs(sum(run.gains) - direct) / max(1.0, abs(direct))
            worst = max(worst, rel)
            count += 1
    for _, run, greedy_value, _ in _guarantee_runs():
        rel = abs(sum(run.gains) - greedy_value) / max(1.0, abs(greedy_value))
        worst = max(worst, rel)
        count += 1
    ok = worst <= 1e-9
    _report(
        capsys, 4, "incremental matches direct", ok,
        f"{count} greedy runs, worst relative deviation {worst:.3g}",
    )
    assert ok


def test_05_sparse_and_dense_select_identically(capsys):
    """Triple-built storage reproduces the dense selection exactly."""
    rng = np.random.default_rng(7117)
    identical = 0
    trials = 20
    for _ in range(trials):
        dense = rng.uniform(size=(200, 200))
        dense[rng.random(size=(200, 200)) < 0.9] = 0.0
        triples = [
            (int(i), int(j), float(dense[i, j])) for i, j in np.argwhere(dense != 0.0)
        ]
        from_dense = hybrid_maximize(
            FacilityLocationObjective(SimilarityMatrix.from_dense(dense)), 25
        )
        from_triples = hybrid_maximize(
            FacilityLocationObjective(sparse_from_triples(200, triples)), 25
        )
        if (
            from_dense.ranking == from_triples.ranking
            and from_dense.gains == from_triples.gains
        ):
            identical += 1
    ok = identical == trials
    _report(
        capsys, 5, "sparse equals dense", ok,
        f"{identical}/{trials} selections identical in ranking and gains",
    )
    assert ok


def test_06_lazy_queue_saves_evaluations(capsys):
    """Lazy gain evaluations at most half of naive's 95,050 on n=1000, k=100."""
    rng = np.random.default_rng(41)
    obj = FeatureBasedObjective(FeatureMatrix(rng.uniform(size=(1000, 20))))
    lazy = hybrid_maximize(obj, 100)
    naive_count = sum(1000 - i for i in range(100))
    assert naive_count == 95050
    ratio = lazy.evaluations / naive_count
    ok = lazy.evaluations <= 0.5 * naive_count
    _report(
        capsys, 6, "lazy evaluation economy", ok,
        f"{lazy.evaluations} evaluations vs naive {naive_count} (ratio {ratio:.4f})",
    )
    assert ok


def test_07_covers_every_gaussian_cluster(capsys):
    """k=6 facility location picks one example from each of 6 clusters."""
    angles = 2.0 * np.pi * np.arange(6) / 6.0
    means = 10.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = np.concatenate(
            [rng.normal(mean, 0.5, size=(100, 2)) for mean in means]
        )
        labels = np.argmin(
            ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        distances = np.sqrt(
            ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        )
        S = SimilarityMatrix.from_dense(1.0 / (1.0 + distances))
        result = hybrid_maximize(FacilityLocationObjective(S), 6)
        picked = sorted(labels[list(result.ranking)].tolist())
        if picked != [0, 1, 2, 3, 4, 5]:
            failures.append((seed, picked))
    ok = not failures
    _report(
        capsys, 7, "cluster coverage", ok,
        "20/20 seeds picked one example per cluster" if ok else f"failures: {failures}",
    )
    assert ok


def test_08_desk_scale_throughput(capsys):
    """Feature-based 100k x 50, k=500 under 60 s; dense 2000 x 2000, k=100 under 10 s."""
    rng = np.random.default_rng(99)
    X = rng.uniform(size=(100_000, 50))
    start = time.perf_counter()
    feature_result = hybrid_maximize(FeatureBasedObjective(X), 500)
    feature_seconds = time.perf_counter() - start

    S = rng.uniform(size=(2000, 2000))
    start = time.perf_counter()
    location_result = hybrid_maximize(FacilityLocationObjective(S), 100)
    location_seconds = time.perf_counter() - start

    assert len(feature_result) == 500 and len(location_result) == 100
    ok = feature_seconds < 60.0 and location_seconds < 10.0
    _report(
        capsys, 8, "desk-scale throughput", ok,
        f"feature-based {feature_seconds:.2f}s (limit 60s), "
        f"facility-location {location_seconds:.2f}s (limit 10s)",
    )
    assert ok


def test_09_hybrid_knobs_never_change_the_answer(capsys):
    """naive_rounds in {0, 1, 10, k}: one ranking."""
    rng = np.random.default_rng(3)
    k = 25
    F = FeatureMatrix(rng.uniform(size=(200, 20)))
    S = SimilarityMatrix.from_dense(rng.uniform(size=(200, 200)))
    distinct = {}
    for label, factory in (
        ("feature-based", lambda: FeatureBasedObjective(F)),
        ("facility-location", lambda: FacilityLocationObjective(S)),
    ):
        rankings = {
            hybrid_maximize(factory(), k, naive_rounds=rounds).ranking
            for rounds in (0, 1, 10, k)
        }
        distinct[label] = len(rankings)
    ok = all(v == 1 for v in distinct.values())
    _report(
        capsys, 9, "hybrid invariance", ok,
        f"distinct rankings across 4 naive_rounds settings: {distinct}",
    )
    assert ok
