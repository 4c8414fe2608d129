"""Submodular objectives: the gain/update contract and two implementations.

An objective is anything the optimizer can drive through three operations:

* ``new_state()``  -- fresh sufficient statistics for the empty selection,
* ``gain(state, v)`` -- marginal value of adding example ``v``, a pure read,
* ``update(state, v)`` -- fold ``v`` into the statistics and append it to
  ``state.selected`` (mutates the state in place).

Both built-in objectives keep O(n)-or-O(D) statistics so each gain costs one
vector pass instead of a from-scratch evaluation:

* :class:`FacilityLocationObjective` tracks, per ground-set element, the best
  similarity to any selected example. The gain of a candidate is the sum of
  its strictly positive improvements over that vector. Positive improvements
  are compacted before summation so the dense and sparse storage paths add
  exactly the same floats in the same order and agree bit-for-bit.
* :class:`FeatureBasedObjective` tracks per-feature accumulated mass; the
  gain of a candidate is the weighted increase of the saturated mass.

Gains are plain 64-bit arithmetic with no compensated summation: the lazy
and naive optimizers rely on recomputed gains being identical, not merely
close.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

import numpy as np

from .exceptions import AlreadySelectedError, ConstraintViolationError, InputError
from .matrices import FeatureMatrix, SimilarityMatrix, _first_invalid

__all__ = [
    "Saturator",
    "saturator",
    "ObjectiveState",
    "SubmodularObjective",
    "FacilityLocationObjective",
    "FeatureBasedObjective",
    "FunctionObjective",
    "facility_location_eval",
    "feature_based_eval",
]


class Saturator:
    """Monotone concave function applied pointwise to accumulated feature mass.

    ``sqrt`` is t -> sqrt(t); ``log`` is t -> ln(1 + t). Both map 0 to 0,
    which makes the empty selection worth exactly zero. The log variant uses
    ln(1 + t) rather than ln(t) so it is defined at zero.
    """

    _FUNCS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "sqrt": np.sqrt,
        "log": np.log1p,
    }

    def __init__(self, kind: str):
        if kind not in self._FUNCS:
            raise InputError(f"unknown saturator {kind!r}; expected one of {sorted(self._FUNCS)}")
        self.kind = kind
        self._f = self._FUNCS[kind]

    def apply(self, t):
        return self._f(t)

    def __call__(self, t):
        return self._f(t)

    def __eq__(self, other):
        return isinstance(other, Saturator) and other.kind == self.kind

    def __repr__(self):
        return f"Saturator({self.kind!r})"


def saturator(kind) -> Saturator:
    """Coerce a name or Saturator instance to a Saturator."""
    if isinstance(kind, Saturator):
        return kind
    return Saturator(kind)


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
    """Tracks feature_sum[d] = total mass of feature d over the selection."""

    def __init__(self, n_features: int):
        super().__init__()
        self.feature_sum = np.zeros(n_features)


class SubmodularObjective(ABC):
    """Contract every objective implements: new_state, gain, update.

    ``gain`` must be a pure function of (state, v): a naive sweep evaluates
    every remaining candidate against one state, and the lazy queue relies on
    a recomputed gain being identical to the one a sweep would give.
    ``update`` mutates the state. New objectives subclass this and implement
    exactly these three methods.
    """

    n_examples: int

    def _check_candidate(self, state: ObjectiveState, v: int):
        v = int(v)
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


class FacilityLocationObjective(SubmodularObjective):
    """Coverage objective over a pairwise similarity matrix.

    The value of a selection X is the sum over all ground-set elements of
    their best similarity to X (zero for the empty selection). Works with
    dense or sparse similarity storage; a sparse gain touches only the
    candidate's stored entries.
    """

    def __init__(self, similarity: SimilarityMatrix | np.ndarray):
        if not isinstance(similarity, SimilarityMatrix):
            similarity = SimilarityMatrix.from_dense(similarity)
        self._sim = similarity
        self.n_examples = similarity.n_examples

    @property
    def similarity(self) -> SimilarityMatrix:
        return self._sim

    def new_state(self) -> FacilityLocationState:
        return FacilityLocationState(self.n_examples)

    def gain(self, state: FacilityLocationState, v: int) -> float:
        v = self._check_candidate(state, v)
        if self._sim.is_sparse:
            cols, vals = self._sim.row(v)
            diff = vals - state.best_sim[cols]
        else:
            diff = self._sim.dense_row(v) - state.best_sim
        # Compact to the strictly positive improvements before summing: the
        # dense path then adds the exact same floats as the sparse path.
        pos = diff[diff > 0.0]
        return float(pos.sum())

    def update(self, state: FacilityLocationState, v: int) -> None:
        v = self._check_candidate(state, v)
        if self._sim.is_sparse:
            cols, vals = self._sim.row(v)
            state.best_sim[cols] = np.maximum(state.best_sim[cols], vals)
        else:
            np.maximum(state.best_sim, self._sim.dense_row(v), out=state.best_sim)
        state._mark(v)


class FeatureBasedObjective(SubmodularObjective):
    """Saturated-coverage objective over non-negative feature values.

    The value of a selection is sum_d w_d * phi(sum of feature d over the
    selection) for a monotone concave phi. Weights default to all ones.
    """

    def __init__(self, features: FeatureMatrix | np.ndarray, concave="sqrt", weights=None):
        if not isinstance(features, FeatureMatrix):
            features = FeatureMatrix(features)
        self._F = features
        self._sat = saturator(concave)
        self._w = _feature_weights(weights, features.n_features)
        self.n_examples = features.n_examples

    @property
    def features(self) -> FeatureMatrix:
        return self._F

    @property
    def concave(self) -> Saturator:
        return self._sat

    @property
    def weights(self) -> np.ndarray:
        return self._w

    def new_state(self) -> FeatureBasedState:
        return FeatureBasedState(self._F.n_features)

    def gain(self, state: FeatureBasedState, v: int) -> float:
        v = self._check_candidate(state, v)
        fs = state.feature_sum
        diff = self._sat.apply(fs + self._F.values[v]) - self._sat.apply(fs)
        return float(np.sum(self._w * diff))

    def update(self, state: FeatureBasedState, v: int) -> None:
        v = self._check_candidate(state, v)
        state.feature_sum += self._F.values[v]
        state._mark(v)


class FunctionObjective(SubmodularObjective):
    """Adapter turning a plain set function f(indices) -> float into the contract.

    No sufficient statistics: each gain evaluates f twice. Meant for small
    problems, prototyping a new objective, and tests. f must be monotone
    submodular for the optimizer's guarantees to mean anything.
    """

    def __init__(self, f: Callable[[tuple[int, ...]], float], n_examples: int):
        self._f = f
        self.n_examples = int(n_examples)

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
    w = np.array(weights, dtype=np.float64, copy=True).ravel()
    if w.shape[0] != n_features:
        raise InputError(f"expected {n_features} feature weights, got {w.shape[0]}")
    pos = _first_invalid(w)
    if pos is not None:
        (bad,) = pos
        raise ConstraintViolationError(
            f"feature weights must be finite and non-negative: weight {w[bad]!r} at position {bad}",
            position=(0, bad),
        )
    w.setflags(write=False)
    return w


def _index_set(X: Iterable[int], n: int) -> np.ndarray:
    idx = np.unique(np.asarray(list(X), dtype=np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexError(f"index {bad} out of range for {n} examples")
    return idx


def facility_location_eval(S: SimilarityMatrix, X: Iterable[int]) -> float:
    """Direct (non-incremental) facility-location value of the index set X.

    Empty X evaluates to 0 by the empty-max convention.
    """
    idx = _index_set(X, S.n_examples)
    if idx.size == 0:
        return 0.0
    if S.is_sparse:
        best = np.zeros(S.n_examples)
        for i in idx:
            cols, vals = S.row(int(i))
            best[cols] = np.maximum(best[cols], vals)
        return float(best.sum())
    return float(np.max(S._dense[idx, :], axis=0).sum())


def feature_based_eval(F: FeatureMatrix, weights, concave, X: Iterable[int]) -> float:
    """Direct feature-based value of the index set X: sum_d w_d * phi(mass_d)."""
    if not isinstance(F, FeatureMatrix):
        F = FeatureMatrix(F)
    sat = saturator(concave)
    w = _feature_weights(weights, F.n_features)
    idx = _index_set(X, F.n_examples)
    if idx.size == 0:
        return 0.0
    mass = F.values[idx, :].sum(axis=0)
    return float(np.sum(w * sat.apply(mass)))
