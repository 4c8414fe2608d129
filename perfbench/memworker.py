"""In-memory ``FacilityLocationSelector.fit``, run in a fresh process per call.

Usage: ``python3 memworker.py FEATURES.npy K NAIVE_ROUNDS RESULT.json``
with ``subsel`` importable. The fit's timings and selection are written to
RESULT.json; the parent reads the process's peak RSS from ``wait4``.
"""

from __future__ import annotations

import json
import sys
import time


def fit(X, k: int, naive_rounds: int) -> dict:
    """Fit once; times come from the public progress callback."""
    from subsel import FacilityLocationSelector

    picks: list[float] = []
    evaluations: list[int] = []

    def progress(record):
        picks.append(time.perf_counter())
        evaluations.append(record.evaluations)

    selector = FacilityLocationSelector(
        k, similarity="squared-correlation", naive_rounds=naive_rounds,
        verbose=True, progress=progress,
    )
    t0 = time.perf_counter()
    selector.fit(X)
    total = time.perf_counter() - t0
    return {
        "total_s": total,
        "pick_s": [t - t0 for t in picks],
        "ranking": [int(i) for i in selector.ranking_],
        "gains": [float(g) for g in selector.gains_],
        "evaluations": evaluations,
    }


def main(argv: list[str]) -> int:
    import numpy as np

    features, k, naive_rounds, result_path = argv
    result = fit(np.load(features), int(k), int(naive_rounds))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
