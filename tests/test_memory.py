"""Each path holds one copy of its input from build (or file) to selection.

numpy reports its buffers to ``tracemalloc``, so the traced peak above the
level at the start of a call measures what the call itself held at once.
Building a dense similarity matrix needs one n x n array; a second one (a
temporary or a defensive copy) would put the peak at 2 x 8n^2 bytes or more.
The CLI's feature path holds one n x d array, and a sparse build holds its
output (16 bytes per stored entry) plus less than one more array of the sort.
"""

import tracemalloc

import numpy as np
import pytest

from subsel import (
    FacilityLocationSelector,
    FeatureMatrix,
    cosine_similarity,
    sparse_from_triples,
    squared_correlation_similarity,
)
from subsel.cli import main
from subsel.matrices import TRIPLE_DTYPE


def _peak(call):
    """Traced peak of ``call()`` above the starting level, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _peak_over_n2(call, n):
    """Traced peak of ``call()`` above the starting level, in units of 8 n^2 bytes."""
    return _peak(call) / (8.0 * n * n)


N = 1000
X = np.random.default_rng(11).normal(size=(N, 20))
X_POS = np.abs(X)

CALLS = {
    "squared-correlation": lambda: squared_correlation_similarity(X),
    "cosine": lambda: cosine_similarity(X_POS),
    "cosine clamp_negative": lambda: cosine_similarity(X, clamp_negative=True),
    "fit squared-correlation": lambda: FacilityLocationSelector(
        5, similarity="squared-correlation").fit(X),
    "fit cosine": lambda: FacilityLocationSelector(5, similarity="cosine").fit(X_POS),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_builders_and_fit_hold_one_n2_array(name):
    assert _peak_over_n2(CALLS[name], N) < 1.3


def test_cli_precomputed_matrix_is_not_copied(tmp_path):
    n = 800
    path = tmp_path / "sim.csv"
    np.savetxt(path, np.random.default_rng(12).random((n, n)), delimiter=",", fmt="%.3f")
    args = ["--function", "facility-location", "--similarity", "precomputed", "--k", "5",
            "--input", str(path), "--output", str(tmp_path / "out.csv")]
    # Parsing alone peaks near 1.2 x 8n^2 (np.loadtxt grows its buffer in chunks).
    assert _peak_over_n2(lambda: main(args), n) < 1.5
    assert (tmp_path / "out.csv").read_text().count("\n") == 6


def test_cli_feature_matrix_is_not_copied(tmp_path):
    n, d = 2000, 200
    path = tmp_path / "features.csv"
    np.savetxt(path, np.random.default_rng(13).exponential(size=(n, d)), delimiter=",", fmt="%.4f")
    args = ["--function", "feature-based", "--k", "5",
            "--input", str(path), "--output", str(tmp_path / "out.csv")]
    # Parsing alone peaks near 1.2 x 8nd; a copy for the selection would add 1.
    assert _peak(lambda: main(args)) / (8.0 * n * d) < 1.5
    assert (tmp_path / "out.csv").read_text().count("\n") == 6


def test_sparse_build_holds_its_output_and_one_sort_array():
    n, m = 1400, 196_000
    rng = np.random.default_rng(14)
    flat = rng.choice(n * n, size=m, replace=False)
    triples = np.empty(m, dtype=TRIPLE_DTYPE)
    triples["row"], triples["col"] = np.divmod(flat, n)
    triples["value"] = rng.random(m)
    del flat
    # The output is 16 bytes per triple (columns and values); the sort needs
    # an 8-byte permutation and one 8-byte key at a time besides.
    assert _peak(lambda: sparse_from_triples(n, triples)) / m < 30


def test_public_feature_matrix_copies_its_input():
    X = np.random.default_rng(15).uniform(size=(50, 4))
    before = X.copy()
    F = FeatureMatrix(X)
    assert F.values is not X and not np.shares_memory(F.values, X)
    assert X.flags.writeable and not F.values.flags.writeable
    X[0, 0] = 123.0
    assert F.values.tobytes() == before.tobytes()
