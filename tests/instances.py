"""Shared random-instance builders for the test suite."""

import numpy as np

from subsel import SimilarityMatrix, sparse_from_triples

# Values the optimizer and every selector must refuse as ``k`` or as
# ``naive_rounds``: out of range, fractional, bool, numpy float, string.
BAD_K = [0, -1, 2.5, True, np.float64(2.0), "3"]
BAD_NAIVE_ROUNDS = [-1, 1.5, True]


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
    return SimilarityMatrix.from_dense(dense), sparse_from_triples(n, triples)
