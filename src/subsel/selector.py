"""Transformer-style facade: configure, fit a ranking, transform a dataset.

Selection parameters are constructor arguments. ``fit`` runs the greedy
maximization and stores the ranking, ``transform`` materializes the selected
rows, ``fit_transform`` does both. Note that ``transform`` returns rows in
ranking (selection) order, not original order: every prefix of the output is
itself a greedy solution for the smaller budget.

A fitted selector is immutable and can serve concurrent ``transform`` calls;
``fit`` itself is exclusive-use. To plug in a custom objective, subclass
:class:`BaseSelector` and implement ``_build_objective``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import InputError
from .matrices import (
    FeatureMatrix,
    SimilarityMatrix,
    _refuse_sparse,
    cosine_similarity,
    squared_correlation_similarity,
)
from .objectives import FacilityLocationObjective, FeatureBasedObjective, SubmodularObjective
from .objectives import _saturator
from .optimizer import (
    SelectionResult,
    _check_budget,
    _check_initial,
    _print_progress,
    hybrid_maximize,
)

__all__ = ["BaseSelector", "FacilityLocationSelector", "FeatureBasedSelector"]

SIMILARITY_KINDS = ("precomputed", "squared-correlation", "cosine")


class BaseSelector:
    """Shared fit/transform machinery for all selection objectives.

    Parameters
    ----------
    k : int
        Number of examples to select (capped at the dataset size).
    naive_rounds : int
        Accepted and validated (an integer, at least 0) but has no effect;
        it will be removed. For exact naive greedy use
        :func:`subsel.oracle.naive_greedy`.
    initial : sequence of int, optional
        Indices forced into the selection first, in the given order: at most
        ``k`` distinct integers (numpy integers count, ``bool`` does not).
    verbose : bool
        Print one progress line per selected example to stderr, unless a
        ``progress`` sink is given.
    progress : callable, optional
        Sink receiving one ProgressRecord per selected example, whether or
        not ``verbose`` is true.
    """

    def __init__(
        self,
        k: int,
        naive_rounds: int = 0,
        initial: Iterable[int] | None = None,
        verbose: bool = False,
        progress=None,
    ):
        self.k, self.naive_rounds = _check_budget(k, naive_rounds)
        self.initial = _check_initial(initial, self.k)
        self.verbose = bool(verbose)
        self.progress = progress
        self.result_: SelectionResult | None = None
        self._n_fitted: int | None = None

    def _build_objective(self, data) -> SubmodularObjective:
        raise NotImplementedError

    def fit(self, data) -> "BaseSelector":
        """Run the selection on ``data`` and store the ranking. Returns self."""
        objective = self._build_objective(data)
        sink = self.progress
        if sink is None and self.verbose:
            sink = _print_progress
        self.result_ = hybrid_maximize(
            objective,
            self.k,
            naive_rounds=self.naive_rounds,
            initial=self.initial,
            progress=sink,
        )
        self._n_fitted = objective.n_examples
        return self

    @property
    def ranking_(self) -> tuple[int, ...]:
        self._check_fitted()
        return self.result_.ranking

    @property
    def gains_(self) -> tuple[float, ...]:
        self._check_fitted()
        return self.result_.gains

    def _check_fitted(self):
        if self.result_ is None:
            raise InputError("selector is not fitted; call fit first")

    def transform(self, data):
        """Rows of ``data`` at the stored ranking, in ranking order.

        ``data`` may be a FeatureMatrix or a 2-D array with one row per
        ground-set example; the output has the same type as the input.
        """
        self._check_fitted()
        if isinstance(data, SimilarityMatrix):
            raise InputError("transform selects rows of example data, not of a similarity matrix")
        _refuse_sparse(data, "dataset")
        wrap = isinstance(data, FeatureMatrix)
        arr = data.values if wrap else np.asarray(data)
        if arr.ndim != 2:
            raise InputError(f"transform expects a 2-D dataset, got ndim={arr.ndim}")
        if arr.shape[0] != self._n_fitted:
            raise InputError(
                f"dataset has {arr.shape[0]} rows but the selector was fitted on {self._n_fitted}"
            )
        picked = arr[list(self.result_.ranking)]
        # The gathered rows are a new array: adopt it rather than copy it again.
        return FeatureMatrix._from_owned(picked) if wrap else picked

    def fit_transform(self, data):
        """fit on ``data``, then transform the same ``data``."""
        return self.fit(data).transform(data)


class FacilityLocationSelector(BaseSelector):
    """Coverage-driven selection over pairwise similarities.

    ``similarity`` names the data the selector expects: "precomputed" fits a
    SimilarityMatrix, CSR matrix or dense square array directly, while
    "squared-correlation" and "cosine" fit feature data and build the
    similarity matrix first.
    """

    def __init__(self, k: int, similarity: str = "precomputed", **kwargs):
        super().__init__(k, **kwargs)
        if similarity not in SIMILARITY_KINDS:
            raise InputError(
                f"unknown similarity {similarity!r}; expected one of {SIMILARITY_KINDS}"
            )
        self.similarity = similarity

    def _build_objective(self, data) -> FacilityLocationObjective:
        if self.similarity == "precomputed":
            if isinstance(data, FeatureMatrix):
                raise InputError(
                    "similarity='precomputed' expects a SimilarityMatrix or square array; "
                    "got a FeatureMatrix (use similarity='squared-correlation' or 'cosine' "
                    "to build one from features)"
                )
            return FacilityLocationObjective(data)  # the constructor runs as_similarity
        if isinstance(data, SimilarityMatrix):
            raise InputError(
                f"similarity={self.similarity!r} builds its own matrix and expects feature "
                "data, not a SimilarityMatrix"
            )
        if self.similarity == "squared-correlation":
            return FacilityLocationObjective(squared_correlation_similarity(data))
        return FacilityLocationObjective(cosine_similarity(data))


class FeatureBasedSelector(BaseSelector):
    """Saturated-coverage selection directly on non-negative feature values."""

    def __init__(self, k: int, concave="sqrt", weights=None, **kwargs):
        super().__init__(k, **kwargs)
        _saturator(concave)
        self.concave = concave
        self.weights = weights

    def _build_objective(self, data) -> FeatureBasedObjective:
        if isinstance(data, SimilarityMatrix):
            raise InputError(
                "feature-based selection operates on feature values, not a similarity matrix"
            )
        return FeatureBasedObjective(data, concave=self.concave, weights=self.weights)
