"""Submodular objectives: the gain/update contract and two implementations.

An objective is anything the optimizer can drive through three operations:

* ``new_state()``  -- fresh sufficient statistics for the empty selection,
* ``gain(state, v)`` -- marginal value of adding example ``v``, a pure read,
* ``update(state, v)`` -- fold ``v`` into the statistics and append it to
  ``state.selected`` (mutates the state in place).

An objective may also offer ``upper_bounds(state)``: an n-vector of floats,
each at or above the float ``gain`` would return for that candidate. The
lazy optimizer caps its stale bounds with it, so fewer gains are computed;
the default returns ``None`` (no bounds).

Both built-in objectives keep O(n)-or-O(D) statistics so each gain costs one
vector pass instead of a from-scratch evaluation:

* :class:`FacilityLocationObjective` tracks, per ground-set element, the best
  similarity to any selected example. The gain of a candidate is the sum of
  its strictly positive improvements over that vector. Positive improvements
  are compacted before summation so the dense and sparse storage paths add
  exactly the same floats in the same order and agree bit-for-bit.
* :class:`FeatureBasedObjective` tracks per-feature accumulated mass and
  its saturated value ``phi(mass)``, refreshed by ``update``; the gain of a
  candidate is the weighted increase of the saturated mass, so each gain
  applies ``phi`` once instead of twice. Its ``upper_bounds`` come from
  concavity, one matrix-vector product for all candidates.

Gains are plain 64-bit arithmetic with no compensated summation: the lazy
and naive optimizers rely on recomputed gains being identical, not merely
close.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from .exceptions import AlreadySelectedError, InputError, _integer
from .matrices import FeatureMatrix, SimilarityMatrix, _check_values, as_similarity

__all__ = [
    "ObjectiveState",
    "SubmodularObjective",
    "FacilityLocationObjective",
    "FeatureBasedObjective",
    "FunctionObjective",
]


# Each saturator by name: phi, applied pointwise to accumulated feature mass,
# and its derivative phi' for ``upper_bounds``. ``log`` is t -> ln(1 + t),
# so both map 0 to 0 and the empty selection is worth exactly zero.
_SATURATORS = {
    "sqrt": (np.sqrt, lambda F: 0.5 / np.sqrt(F)),
    "log": (np.log1p, lambda F: 1.0 / (1.0 + F)),
}


def _saturator(concave):
    """(phi, phi') of the saturator named ``concave``; InputError for any other value."""
    try:
        return _SATURATORS[concave]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise InputError(
            f"unknown saturator {concave!r}; expected one of {sorted(_SATURATORS)}"
        ) from None


class ObjectiveState:
    """Mutable per-run selection state: the ordered selected indices.

    Subclasses add the objective's sufficient statistics. ``selected`` is
    append-only; replaying ``update`` over it from a fresh state reproduces
    the statistics exactly.
    """

    def __init__(self):
        self.selected: list[int] = []
        self._selected_set: set[int] = set()

    def _mark(self, v: int):
        self.selected.append(v)
        self._selected_set.add(v)

    def is_selected(self, v: int) -> bool:
        return v in self._selected_set


class FacilityLocationState(ObjectiveState):
    """Tracks best_sim[y] = max similarity of y to any selected example."""

    def __init__(self, n: int):
        super().__init__()
        self.best_sim = np.zeros(n)


class FeatureBasedState(ObjectiveState):
    """Tracks feature_sum[d] = total mass of feature d over the selection.

    ``saturated`` is ``phi(feature_sum)``, kept in step by ``update``; both
    start at zero because every saturator maps 0 to 0.
    """

    def __init__(self, n_features: int):
        super().__init__()
        self.feature_sum = np.zeros(n_features)
        self.saturated = np.zeros(n_features)


class SubmodularObjective(ABC):
    """Contract every objective implements: new_state, gain, update.

    ``gain`` must be a pure function of (state, v): a naive sweep evaluates
    every remaining candidate against one state, and the lazy queue relies on
    a recomputed gain being identical to the one a sweep would give.
    ``update`` mutates the state. New objectives subclass this and implement
    these three methods; ``upper_bounds`` is optional.
    """

    n_examples: int

    def _check_candidate(self, state: ObjectiveState, v: int):
        if type(v) is not int:
            v = _integer("candidate index", v)
        if not 0 <= v < self.n_examples:
            raise IndexError(f"candidate index {v} out of range for {self.n_examples} examples")
        if state.is_selected(v):
            raise AlreadySelectedError(f"candidate {v} is already selected")
        return v

    @abstractmethod
    def new_state(self) -> ObjectiveState:
        """Statistics for the empty selection."""

    @abstractmethod
    def gain(self, state: ObjectiveState, v: int) -> float:
        """f(selected + [v]) - f(selected). Pure; state is unchanged."""

    @abstractmethod
    def update(self, state: ObjectiveState, v: int) -> None:
        """Fold v into the statistics and append it to state.selected."""

    def upper_bounds(self, state: ObjectiveState) -> np.ndarray | None:
        """``None``, or one float per candidate at or above the float that
        ``gain(state, v)`` would return, rounding included. Entries of
        selected candidates are ignored; -inf for any other is refused. The
        optimizer calls it once per lazy step, after the last ``update``."""
        return None


class FacilityLocationObjective(SubmodularObjective):
    """Coverage objective over a pairwise similarity matrix.

    The value of a selection X is the sum over all ground-set elements of
    their best similarity to X (zero for the empty selection). Works with
    dense or sparse similarity storage; a sparse gain touches only the
    candidate's stored entries. ``similarity`` is anything
    :func:`~subsel.matrices.as_similarity` accepts: a SimilarityMatrix, a CSR
    matrix or a dense square array.
    """

    def __init__(self, similarity):
        self._sim = as_similarity(similarity)
        self.n_examples = self._sim.n_examples

    @property
    def similarity(self) -> SimilarityMatrix:
        return self._sim

    def new_state(self) -> FacilityLocationState:
        return FacilityLocationState(self.n_examples)

    def gain(self, state: FacilityLocationState, v: int) -> float:
        v = self._check_candidate(state, v)
        cols, vals = self._sim.row(v)
        diff = vals - state.best_sim[cols]
        # Compact to the strictly positive improvements before summing: the
        # dense path then adds the exact same floats as the sparse path.
        pos = diff[diff > 0.0]
        return float(np.add.reduce(pos))

    def update(self, state: FacilityLocationState, v: int) -> None:
        v = self._check_candidate(state, v)
        cols, vals = self._sim.row(v)
        state.best_sim[cols] = np.maximum(state.best_sim[cols], vals)
        state._mark(v)


class FeatureBasedObjective(SubmodularObjective):
    """Saturated-coverage objective over non-negative feature values.

    The value of a selection is sum_d w_d * phi(sum of feature d over the
    selection) for a monotone concave phi, named by ``concave``: ``"sqrt"``
    or ``"log"`` (t -> ln(1 + t)). Weights default to all ones.
    """

    def __init__(self, features: FeatureMatrix | np.ndarray, concave="sqrt", weights=None):
        if not isinstance(features, FeatureMatrix):
            features = FeatureMatrix(features)
        self._phi, self._dphi = _saturator(concave)
        self._F = features
        self._concave = concave
        self._w = _feature_weights(weights, features.n_features)
        self.n_examples = features.n_examples
        self._X = features.values
        self._colmax = self._X.max(axis=0, initial=0.0)

    @property
    def features(self) -> FeatureMatrix:
        return self._F

    @property
    def concave(self) -> str:
        """The saturator's name, ``"sqrt"`` or ``"log"``."""
        return self._concave

    @property
    def weights(self) -> np.ndarray:
        return self._w

    def new_state(self) -> FeatureBasedState:
        return FeatureBasedState(self._F.n_features)

    def gain(self, state: FeatureBasedState, v: int) -> float:
        v = self._check_candidate(state, v)
        diff = self._phi(state.feature_sum + self._X[v]) - state.saturated
        # np.add.reduce is the pairwise sum np.sum runs, without its wrapper.
        return float(np.add.reduce(self._w * diff))

    def upper_bounds(self, state: FeatureBasedState) -> np.ndarray:
        """Every candidate's gain bound from concavity, phi(F + x) - phi(F) <= phi'(F) x.

        With F = ``state.feature_sum``, x a candidate's row and D features,
        the bound is ``(x @ slope + slack) * (1 + 4 (D + 8) eps)``, where
        ``slope_d = w_d phi'(F_d)`` (phi' is 0.5 / sqrt(F) or 1 / (1 + F)),
        ``slack = 16 eps sum_d w_d (phi(F_d + colmax_d) + 1)``, colmax_d is
        the largest value of feature d and eps the float64 machine epsilon
        (2u, u being the unit roundoff). The margins cover the floats
        ``gain`` computes, per feature:

        * ``F + x`` may round up by u (F + x); through phi'(F) that is at most
          u phi'(F) x + u (phi(F + x) + 1), for both saturators.
        * phi of that sum and the cached phi(F) are each within 8u: ``sqrt``
          is correctly rounded and numpy's ``log1p`` may run SIMD code with up
          to 4 ulp error. Together at most 16u phi(F + x) on top.
        * So the computed difference exceeds (1 + u) phi'(F) x by at most
          18u (phi(F + colmax) + 1), where the slack allows 32u.
        * The last factor covers the subtraction and the product by w_d, the
          sum of D terms (non-negative up to rounding, in any order) and the
          bound's own rounding, the matrix-vector product included.

        Without the slack, tiny rows on a large F break the bare linear bound:
        with F = 1e8 and x in [1e-9, 1e-7], computed sqrt gains exceed it by
        up to 1.6 times and log gains by up to 4.3 times.

        Where phi'(F_d) is infinite (``sqrt`` at F_d = 0) and w_d > 0, every
        candidate with x_d > 0 gets +inf. A feature with w_d = 0 adds nothing.
        """
        F, w = state.feature_sum, self._w
        eps = np.finfo(np.float64).eps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slope = w * self._dphi(F)
            slack = 16 * eps * float(w @ (self._phi(F + self._colmax) + 1.0))
        steep = np.isinf(slope)
        slope[steep | np.isnan(slope)] = 0.0  # NaN: w_d = 0 times an infinite phi'
        ub = self._X @ slope
        ub += slack
        ub *= 1.0 + 4 * (len(F) + 8) * eps
        if steep.any():
            # X >= 0, so a candidate holds a steep feature iff this sum is > 0.
            ub[self._X @ steep.astype(np.float64) > 0.0] = np.inf
        return ub

    def update(self, state: FeatureBasedState, v: int) -> None:
        v = self._check_candidate(state, v)
        state.feature_sum += self._X[v]
        self._phi(state.feature_sum, out=state.saturated)
        state._mark(v)


class FunctionObjective(SubmodularObjective):
    """Adapter turning a plain set function f(indices) -> float into the contract.

    No sufficient statistics: each gain evaluates f twice. Meant for small
    problems, prototyping a new objective, and tests. f must be monotone
    submodular for the optimizer's guarantees to mean anything.
    """

    def __init__(self, f: Callable[[tuple[int, ...]], float], n_examples: int):
        self._f = f
        self.n_examples = _integer("n_examples", n_examples)
        if self.n_examples < 0:
            raise InputError(f"n_examples must be at least 0, got {n_examples}")

    def new_state(self) -> ObjectiveState:
        return ObjectiveState()

    def gain(self, state: ObjectiveState, v: int) -> float:
        v = self._check_candidate(state, v)
        sel = tuple(state.selected)
        return float(self._f(sel + (v,))) - float(self._f(sel))

    def update(self, state: ObjectiveState, v: int) -> None:
        v = self._check_candidate(state, v)
        state._mark(v)


def _feature_weights(weights, n_features: int) -> np.ndarray:
    if weights is None:
        return np.ones(n_features)
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.shape != (n_features,):
        raise InputError(f"expected {n_features} feature weights in a 1-D array, got shape {w.shape}")
    _check_values(w[None, :], "feature weight")  # a 1 x D view: positions are (0, i)
    w.setflags(write=False)
    return w
