"""From-scratch reference evaluators, a reference greedy and the approximation-ratio check.

The two evaluators compute an objective's value straight from its
definition, with whole-array numpy over the selected rows. They share no
code with the incremental gain/update machinery in :mod:`subsel.objectives`;
that independence is the point, since they are the yardstick the fast paths
are measured against (brute force, telescoping checks, the benchmark's
prefix gate). Likewise :func:`naive_greedy` shares no code with the
optimizer's lazy queue, which it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .exceptions import ApproximationFailure, EnumerationBoundError, InputError
from .matrices import FeatureMatrix, as_similarity
from .optimizer import SelectionResult, hybrid_maximize

if TYPE_CHECKING:
    from .objectives import SubmodularObjective

__all__ = [
    "GREEDY_GUARANTEE",
    "OracleReport",
    "facility_location_eval",
    "feature_based_eval",
    "naive_greedy",
    "brute_force_max",
    "check_ratio",
]

GREEDY_GUARANTEE = 1.0 - math.exp(-1.0)

ENUMERATION_LIMIT = 10_000_000

_CONCAVE = {"sqrt": np.sqrt, "log": np.log1p}


def _indices(X: Iterable[int], n: int) -> np.ndarray:
    """The distinct indices of X, ascending; InputError for one that is not an
    integer (``bool`` included), IndexError for one outside [0, n)."""
    idx = np.asarray(list(X))
    if idx.size and idx.dtype.kind not in "iu":
        raise InputError(f"indices must be integers, got {idx.tolist()!r}")
    idx = np.unique(idx.astype(np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexError(f"index {bad} out of range for {n} examples")
    return idx


def facility_location_eval(S, X: Iterable[int]) -> float:
    """Facility-location value of X: sum over every element of its best
    similarity to X. Empty X is worth 0. ``S`` is anything
    :func:`~subsel.matrices.as_similarity` accepts; sparse storage is read
    through the CSR rows of X only."""
    S = as_similarity(S)
    n = S.n_examples
    idx = _indices(X, n)
    if not S.is_sparse:
        return float(S._dense[idx].max(axis=0, initial=0.0).sum())
    starts = S._indptr[idx]
    counts = S._indptr[idx + 1] - starts
    entries = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    best = np.zeros(n)
    np.maximum.at(best, S._cols[entries], S._vals[entries])
    return float(best.sum())


def feature_based_eval(F: FeatureMatrix, weights, concave, X: Iterable[int]) -> float:
    """Feature-based value of X: sum over features d of w_d * phi(mass of d over X).

    ``concave`` is "sqrt", "log" (t -> ln(1 + t)) or a callable applied to
    the array of feature masses; ``weights`` (one finite, non-negative value
    per feature) default to all ones. Empty X is worth 0.
    """
    try:
        phi = concave if callable(concave) else _CONCAVE[concave]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise InputError(f"unknown concave function {concave!r}; expected one of {sorted(_CONCAVE)}") from None
    if not isinstance(F, FeatureMatrix):
        F = FeatureMatrix(F)
    mass = F.values[_indices(X, F.n_examples)].sum(axis=0)
    w = np.ones(F.n_features) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (F.n_features,) or not np.all((w >= 0.0) & (w < np.inf)):
        raise InputError(f"weights must be {F.n_features} finite non-negative values, got {weights!r}")
    return float(np.sum(w * phi(mass)))


def naive_greedy(
    objective: SubmodularObjective, k: int, initial: Iterable[int] = ()
) -> SelectionResult:
    """Plain naive greedy: the reference the optimizer's lazy queue must match.

    ``initial`` indices are applied first, in order. Then each step calls
    ``objective.gain`` on every remaining candidate in ascending index
    order, takes the first maximum (largest gain, then smallest index) and
    calls ``objective.update``, until min(k, n) indices are chosen. The
    evaluation count is one per initial index plus every sweep. Inputs are
    not validated.
    """
    state = objective.new_state()
    ranking: list[int] = []
    gains: list[float] = []
    for v in initial:
        gains.append(objective.gain(state, v))
        objective.update(state, v)
        ranking.append(v)
    evaluations = len(ranking)
    while len(ranking) < min(k, objective.n_examples):
        candidates = [v for v in range(objective.n_examples) if v not in ranking]
        sweep = [objective.gain(state, v) for v in candidates]
        evaluations += len(sweep)
        best = sweep.index(max(sweep))
        gains.append(sweep[best])
        objective.update(state, candidates[best])
        ranking.append(candidates[best])
    return SelectionResult(tuple(ranking), tuple(gains), evaluations)


@dataclass(frozen=True)
class OracleReport:
    """Greedy vs exhaustive comparison on one instance."""

    opt_value: float
    opt_set: tuple[int, ...]
    greedy_value: float
    ratio: float

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0 + 1e-12):
            raise InputError(f"greedy/optimal ratio {self.ratio} outside [0, 1]")


def brute_force_max(
    f: Callable[[tuple[int, ...]], float],
    n: int,
    k: int,
    limit: int = ENUMERATION_LIMIT,
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum of f over all size-min(k, n) subsets of range(n).

    Ties go to the lexicographically smallest subset. Refuses instances with
    more than ``limit`` subsets to enumerate.
    """
    if n < 1 or k < 1:
        raise InputError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    r = min(k, n)
    count = math.comb(n, r)
    if count > limit:
        raise EnumerationBoundError(
            f"C({n}, {r}) = {count} subsets exceeds the enumeration limit of {limit}"
        )
    best_value = -math.inf
    best_subset: tuple[int, ...] = ()
    for subset in combinations(range(n), r):
        value = float(f(subset))
        if value > best_value:
            best_value, best_subset = value, subset
    return best_value, best_subset


def check_ratio(
    objective: SubmodularObjective,
    direct: Callable[[tuple[int, ...]], float],
    k: int,
) -> OracleReport:
    """Run greedy and exhaustive search on one instance and compare.

    ``objective`` drives the greedy optimizer; ``direct`` is the from-scratch
    evaluator used both to enumerate and to score the greedy set, so the two
    values are measured by the same yardstick. Raises ApproximationFailure
    if greedy falls below the (1 - 1/e) guarantee.
    """
    result = hybrid_maximize(objective, k)
    greedy_set = result.ranking
    greedy_value = float(direct(tuple(greedy_set)))
    opt_value, opt_set = brute_force_max(direct, objective.n_examples, k)
    ratio = 1.0 if opt_value == 0.0 else greedy_value / opt_value
    report = OracleReport(opt_value, opt_set, greedy_value, ratio)
    if ratio < GREEDY_GUARANTEE - 1e-12:
        raise ApproximationFailure(
            f"greedy value {greedy_value} is {ratio:.6f} of optimum {opt_value}, "
            f"below the guaranteed {GREEDY_GUARANTEE:.6f}; greedy set {tuple(greedy_set)}, "
            f"optimal set {opt_set}",
            greedy_set,
            opt_set,
        )
    return report
