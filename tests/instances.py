"""Shared random-instance builders for the test suite."""

import numpy as np

from subsel import SimilarityMatrix, sparse_from_triples

# Values the optimizer and every selector must refuse as ``k`` or as
# ``naive_rounds``: out of range, fractional, bool, numpy float, string.
BAD_K = [0, -1, 2.5, True, np.float64(2.0), "3"]
BAD_NAIVE_ROUNDS = [-1, 1.5, True]
# Index lists the optimizer and every selector must refuse as ``initial``, and
# the oracle's evaluators as a set: each holds one index that is not an
# integer (float, bool, numpy float, string).
BAD_INITIAL = [[0.7], [True], [np.float64(1.0)], ["1"]]


def rand_features(rng, n, d):
    """Uniform non-negative feature matrix."""
    return rng.uniform(0.0, 1.0, size=(n, d))


def rand_similarity(rng, n):
    """Uniform non-negative dense similarity matrix."""
    return rng.uniform(0.0, 1.0, size=(n, n))


def sparse_and_dense(rng, n, zero_fraction=0.9):
    """One mostly-zero similarity matrix in dense and triple-built sparse form."""
    dense = rng.uniform(0.0, 1.0, size=(n, n))
    dense[rng.random(size=(n, n)) < zero_fraction] = 0.0
    triples = [(int(i), int(j), float(dense[i, j])) for i, j in np.argwhere(dense != 0.0)]
    return SimilarityMatrix(dense), sparse_from_triples(n, triples)


def wide_features(rng, n, d):
    """Features for stressing gain bounds: magnitudes from 1e-12 to 1e8,
    columns that are mostly zero, and rows that nearly repeat others."""
    X = 10.0 ** rng.uniform(-12.0, 8.0, size=(n, d))
    X[rng.random(size=(n, d)) < rng.uniform(0.0, 0.95, size=d)] = 0.0
    copies = rng.random(n) < 0.3
    X[copies] = X[rng.integers(n, size=int(copies.sum()))] * (1.0 + 1e-15 * rng.integers(-4, 5, size=(1, d)))
    return X


def weights_with_zero(rng, d):
    """Feature weights from 1e-3 to 1e3 with at least one zero."""
    w = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
    w[rng.random(d) < 0.3] = 0.0
    w[rng.integers(d)] = 0.0
    return w
