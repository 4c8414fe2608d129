"""Dense facility location holds one n x n float64 array from build to selection.

numpy reports its buffers to ``tracemalloc``, so the traced peak above the
level at the start of a call measures what the call itself held at once.
Building the matrix needs one n x n array; a second one (a temporary or a
defensive copy) would put the peak at 2 x 8n^2 bytes or more.
"""

import tracemalloc

import numpy as np
import pytest

from subsel import FacilityLocationSelector, cosine_similarity, squared_correlation_similarity
from subsel.cli import main


def _peak_over_n2(call, n):
    """Traced peak of ``call()`` above the starting level, in units of 8 n^2 bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / (8.0 * n * n)
    finally:
        tracemalloc.stop()


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
