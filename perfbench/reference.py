"""Independent reference selections and the correctness gate.

The reference greedy shares no code with ``subsel``'s optimizer or
objectives. It is a lazy greedy that re-evaluates stale upper bounds in
batches with whole-array numpy operations, so it is fast enough to run on
every benchmark run. Its gains are summed in another order than the
program's, which is why gains are compared within a relative tolerance and
rankings exactly.
"""

from __future__ import annotations

import numpy as np

GAIN_RTOL = 1e-12
PREFIX_RTOL = 1e-9
_FIRST_BATCH = 64


def greedy(n: int, k: int, batch_gain, update) -> tuple[list[int], list[float]]:
    """Greedy selection of min(k, n) indices, ties to the smallest index.

    ``batch_gain(candidates)`` returns the marginal gains of an index array
    against the current selection; ``update(v)`` adds ``v`` to it.
    """
    bound = np.full(n, np.inf)
    stamp = np.full(n, -1)
    alive = np.ones(n, dtype=bool)
    ranking: list[int] = []
    gains: list[float] = []
    for step in range(min(k, n)):
        batch = _FIRST_BATCH
        while True:
            fresh = alive & (stamp == step)
            stale = alive & ~fresh
            if not stale.any():
                break
            stale_bounds = np.where(stale, bound, -np.inf)
            top = stale_bounds.max()
            if fresh.any() and np.where(fresh, bound, -np.inf).max() > top:
                break
            if np.isinf(top):
                cand = np.flatnonzero(stale & np.isinf(bound))
            else:
                size = min(batch, int(stale.sum()))
                cand = np.argpartition(-stale_bounds, size - 1)[:size]
                batch *= 2
            bound[cand] = batch_gain(cand)
            stamp[cand] = step
        v = int(np.argmax(np.where(alive & (stamp == step), bound, -np.inf)))
        ranking.append(v)
        gains.append(float(bound[v]))
        alive[v] = False
        update(v)
    return ranking, gains


def feature_sqrt(X: np.ndarray, k: int):
    """Feature-based objective with unit weights and the sqrt saturation."""
    mass = np.zeros(X.shape[1])

    def batch_gain(cand):
        return (np.sqrt(mass + X[cand]) - np.sqrt(mass)).sum(axis=1)

    def update(v):
        mass[:] += X[v]

    return greedy(X.shape[0], k, batch_gain, update)


def facility_dense(S: np.ndarray, k: int):
    """Facility location over a dense similarity array, S[i, j] = i covers j."""
    best = np.zeros(S.shape[0])

    def batch_gain(cand):
        return np.maximum(S[cand] - best, 0.0).sum(axis=1)

    def update(v):
        np.maximum(best, S[v], out=best)

    return greedy(S.shape[0], k, batch_gain, update)


def facility_sparse(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int):
    """Facility location over (row, col, value) entries; every row needs one entry."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    start = np.searchsorted(rows, np.arange(n + 1))
    if np.any(start[1:] == start[:-1]):
        raise ValueError("every row needs at least one stored entry")
    best = np.zeros(n)

    def batch_gain(cand):
        lo, hi = start[cand], start[cand + 1]
        seg = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        improve = np.maximum(vals[seg] - best[cols[seg]], 0.0)
        return np.add.reduceat(improve, np.concatenate(([0], np.cumsum(hi - lo)[:-1])))

    def update(v):
        c, x = cols[start[v]:start[v + 1]], vals[start[v]:start[v + 1]]
        best[c] = np.maximum(best[c], x)

    return greedy(n, k, batch_gain, update)


def check_selection(ranking, gains, ref_ranking, ref_gains, n, k, evaluate) -> list[str]:
    """Every way ``(ranking, gains)`` fails the gate; empty when it passes.

    ``evaluate(indices)`` is the program's from-scratch objective value.
    The gains may rise by at most GAIN_RTOL from one pick to the next:
    incremental sums are exact only up to rounding.
    """
    problems = []
    target = min(k, n)
    if len(ranking) != target or len(gains) != target:
        problems.append(f"selected {len(ranking)} indices with {len(gains)} gains, expected {target}")
        return problems
    if len(set(ranking)) != target or not all(0 <= i < n for i in ranking):
        problems.append("ranking indices are not distinct and in range")
    if list(ranking) != list(ref_ranking):
        at = next(t for t, (a, b) in enumerate(zip(ranking, ref_ranking)) if a != b)
        problems.append(f"ranking differs from the reference at pick {at}: {ranking[at]} != {ref_ranking[at]}")
    g = np.asarray(gains, dtype=np.float64)
    r = np.asarray(ref_gains, dtype=np.float64)
    off = np.abs(g - r) > GAIN_RTOL * np.abs(r)
    if off.any():
        t = int(np.argmax(off))
        problems.append(f"gain at pick {t} is {g[t]!r}, reference {r[t]!r}")
    rise = g[1:] > g[:-1] * (1.0 + GAIN_RTOL)
    if rise.any():
        t = int(np.argmax(rise)) + 1
        problems.append(f"gain rises at pick {t}: {g[t - 1]!r} -> {g[t]!r}")
    for m in sorted({1, target // 4, target // 2, target} - {0}):
        want = evaluate(list(ranking[:m]))
        got = float(np.sum(g[:m]))
        if abs(got - want) > PREFIX_RTOL * abs(want):
            problems.append(f"prefix {m}: gains sum to {got!r}, objective is {want!r}")
    return problems
