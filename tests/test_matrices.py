"""Data containers and similarity construction."""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

import subsel
from subsel import (
    ConstraintViolationError,
    DegenerateInputError,
    FeatureMatrix,
    InputError,
    NegativeCosineError,
    SimilarityMatrix,
    TripleValidationError,
    cosine_similarity,
    sparse_from_triples,
    squared_correlation_similarity,
)
from subsel.matrices import _CHECK_CHUNK_BYTES, _TILE, TRIPLE_DTYPE, _scaled_rows, as_similarity
from instances import sparse_and_dense


class TestFeatureMatrix:
    def test_converts_to_float64_copy(self):
        src = np.array([[1, 2], [3, 4]], dtype=np.int32)
        F = FeatureMatrix(src)
        assert F.values.dtype == np.float64
        src[0, 0] = 99
        assert F.values[0, 0] == 1.0

    def test_shape_attributes(self):
        F = FeatureMatrix([[4.0, 9.0], [1.0, 0.0]])
        assert F.n_examples == 2
        assert F.n_features == 2

    def test_values_are_read_only(self):
        F = FeatureMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            F.values[0, 0] = 5.0

    def test_rejects_negative_entry(self):
        with pytest.raises(ConstraintViolationError) as exc:
            FeatureMatrix([[1.0, 2.0], [3.0, -0.5]])
        assert exc.value.position == (1, 1)

    def test_rejects_nan(self):
        with pytest.raises(ConstraintViolationError):
            FeatureMatrix([[1.0, np.nan]])

    def test_rejects_column_sum_that_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintViolationError, match="column sums must be finite") as exc:
                FeatureMatrix([[1.0, 1e308], [2.0, 1e308], [3.0, 1.0]])
            assert FeatureMatrix([[1e308], [7e307]]).n_examples == 2
        # The first row at which the running sum of a column is no longer finite.
        assert exc.value.position == (1, 1)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(InputError):
            FeatureMatrix([1.0, 2.0])
        with pytest.raises(InputError):
            FeatureMatrix([[[1.0]]])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInputError):
            FeatureMatrix(np.empty((0, 3)))
        with pytest.raises(DegenerateInputError):
            FeatureMatrix(np.empty((3, 0)))


class TestDenseSimilarity:
    def test_dense_basics(self):
        S = SimilarityMatrix([[1.0, 0.5], [0.3, 1.0]])
        assert not S.is_sparse
        assert S.n_examples == 2
        assert S.nnz == 4
        assert S.to_dense()[0, 1] == 0.5
        assert S.to_dense()[1, 0] == 0.3  # asymmetry is allowed

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            SimilarityMatrix([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3]])

    def test_rejects_negative(self):
        with pytest.raises(ConstraintViolationError) as exc:
            SimilarityMatrix([[1.0, -0.1], [0.5, 1.0]])
        assert exc.value.position == (0, 1)

    @pytest.mark.parametrize("values, position", [
        ([[-1.0, 0.0], [0.0, 1.0]], (0, 0)),
        ([[1.0, 0.0], [np.nan, 1.0]], (1, 0)),
    ])
    def test_constructor_checks_values(self, values, position):
        with pytest.raises(ConstraintViolationError) as exc:
            SimilarityMatrix(values)
        assert exc.value.position == position

    def test_constructor_takes_no_dense_keyword(self):
        with pytest.raises(TypeError):
            SimilarityMatrix(dense=np.eye(2))

    def test_dense_is_read_only(self):
        S = SimilarityMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            S.row(0)[1][0] = 2.0

    def test_row_reads_every_column(self):
        S = SimilarityMatrix([[1.0, 0.5], [0.25, 1.0]])
        cols, vals = S.row(1)
        assert cols == slice(None)
        assert vals.tolist() == [0.25, 1.0]
        assert np.arange(2.0)[cols].tolist() == [0.0, 1.0]

    def test_to_dense_returns_copy(self):
        S = SimilarityMatrix([[1.0, 0.0], [0.0, 1.0]])
        out = S.to_dense()
        out[0, 0] = 7.0
        assert S.to_dense()[0, 0] == 1.0

    def test_constructor_copies_the_callers_array(self):
        values = np.array([[1.0, 0.5], [0.3, 1.0]])
        S = SimilarityMatrix(values)
        assert values.flags.writeable
        values[0, 1] = 9.0
        assert S.to_dense()[0, 1] == 0.5
        assert not np.shares_memory(S.row(0)[1], values)


class TestSparseSimilarity:
    def test_absent_entries_read_zero(self):
        S = sparse_from_triples(3, [(0, 0, 1.0)])
        assert S.is_sparse
        assert S.to_dense()[0, 0] == 1.0
        assert S.to_dense()[0, 1] == 0.0
        assert S.to_dense()[2, 2] == 0.0
        assert S.nnz == 1

    def test_no_triples_is_all_zero(self):
        S = sparse_from_triples(2, [])
        assert np.array_equal(S.to_dense(), np.zeros((2, 2)))

    def test_row_has_ascending_columns(self):
        S = sparse_from_triples(4, [(1, 3, 0.7), (1, 0, 0.2), (1, 2, 0.5)])
        cols, vals = S.row(1)
        assert cols.tolist() == [0, 2, 3]
        assert vals.tolist() == [0.2, 0.5, 0.7]
        cols0, vals0 = S.row(0)
        assert len(cols0) == 0 and len(vals0) == 0

    def test_round_trips_mostly_zero_matrix(self):
        rng = np.random.default_rng(7)
        dense, sparse = sparse_and_dense(rng, 40)
        assert np.array_equal(sparse.to_dense(), dense.to_dense())

    def test_rejects_out_of_range_index(self):
        with pytest.raises(TripleValidationError) as exc:
            sparse_from_triples(2, [(0, 0, 1.0), (0, 2, 0.5)])
        assert exc.value.row == 1

    def test_rejects_negative_value(self):
        with pytest.raises(TripleValidationError) as exc:
            sparse_from_triples(2, [(0, 0, -1.0)])
        assert exc.value.row == 0

    def test_rejects_nan_value(self):
        with pytest.raises(TripleValidationError):
            sparse_from_triples(2, [(0, 0, float("nan"))])

    def test_duplicate_pair_reports_later_occurrence(self):
        with pytest.raises(TripleValidationError) as exc:
            sparse_from_triples(3, [(0, 0, 1.0), (1, 1, 0.5), (0, 0, 2.0)])
        assert exc.value.row == 2
        assert exc.value.triple == (0, 0, 2.0)

    def test_rejects_malformed_triple(self):
        with pytest.raises(TripleValidationError) as exc:
            sparse_from_triples(2, [(0, 0)])
        assert exc.value.row == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DegenerateInputError):
            sparse_from_triples(0, [])

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(InputError, match="n must be an integer"):
            sparse_from_triples(n, [(0, 0, 1.0)])

    def test_numpy_integer_n(self):
        S = sparse_from_triples(np.int64(3), [(0, 2, 0.5)])
        assert S.n_examples == 3 and S.to_dense()[0, 2] == 0.5

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_matches_hand_built_dense(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        pairs = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=n * n,
            )
        )
        pairs = sorted(pairs)
        vals = data.draw(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        expected = np.zeros((n, n))
        for (i, j), v in zip(pairs, vals):
            expected[i, j] = v
        S = sparse_from_triples(n, [(i, j, v) for (i, j), v in zip(pairs, vals)])
        assert np.array_equal(S.to_dense(), expected)


def _lexsort_reference(n, triples):
    """(indptr, cols, vals) of a CSR build by a stable lexsort of (col, row), or
    the index of the earliest later occurrence of a repeated pair."""
    rows, cols, vals = triples["row"], triples["col"], triples["value"]
    order = np.lexsort((cols, rows))
    rows_s, cols_s = rows[order], cols[order]
    repeat = (rows_s[1:] == rows_s[:-1]) & (cols_s[1:] == cols_s[:-1])
    if repeat.any():
        return int(order[1:][repeat].min())
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols_s, vals[order]


@st.composite
def _triples(draw, duplicates):
    n = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=40, unique=not duplicates))
    if duplicates:
        pairs += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5)) if pairs else [(0, 0)] * 2
        pairs = draw(st.permutations(pairs))
    elif draw(st.booleans()):
        pairs = sorted(pairs)
    triples = np.empty(len(pairs), dtype=TRIPLE_DTYPE)
    for k, (i, j) in enumerate(pairs):
        triples[k] = (i, j, draw(st.floats(0.0, 1e6, allow_nan=False)))
    return n, triples


class TestSparseSortEquivalence:
    """The one-key sort builds exactly what a lexsort of (col, row) builds."""

    @given(_triples(duplicates=False))
    @settings(max_examples=200, deadline=None)
    def test_csr_arrays_match_the_lexsort_reference_bit_for_bit(self, case):
        n, triples = case
        S = sparse_from_triples(n, triples)
        indptr, cols, vals = _lexsort_reference(n, triples)
        assert S._indptr.tobytes() == indptr.astype(np.int64).tobytes()
        assert S._cols.dtype == np.int64 and S._cols.tobytes() == cols.tobytes()
        assert S._vals.dtype == np.float64 and S._vals.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("n", [1, 5])
    def test_no_triples_and_one_example(self, n):
        for triples in ([], [(0, 0, 0.5)]):
            S = sparse_from_triples(n, triples)
            indptr, cols, vals = _lexsort_reference(n, np.array(triples, dtype=TRIPLE_DTYPE))
            assert S._indptr.tolist() == indptr.tolist()
            assert S._cols.tolist() == cols.tolist() and S._vals.tolist() == vals.tolist()

    @given(_triples(duplicates=True))
    @settings(max_examples=200, deadline=None)
    def test_duplicate_error_names_the_triple_of_the_reference_rule(self, case):
        n, triples = case
        with pytest.raises(TripleValidationError, match="duplicate") as exc:
            sparse_from_triples(n, triples)
        assert exc.value.row == _lexsort_reference(n, triples)
        assert exc.value.triple == triples[exc.value.row].item()

    def test_n_whose_square_passes_int64_is_refused_before_any_allocation(self):
        # 3_037_000_500 ** 2 > 2 ** 63; the row pointers alone would be 24 GB.
        with pytest.raises(InputError, match="n=3037000500 .* at most 3037000499"):
            sparse_from_triples(3_037_000_500, [])


class TestCsrSimilarity:
    """``as_similarity`` reads anything shaped like a CSR matrix through the triples path."""

    @staticmethod
    def _csr(indptr, indices, data, shape):
        return SimpleNamespace(indptr=indptr, indices=indices, data=data, shape=shape)

    def test_duck_csr_matches_triples(self):
        S = as_similarity(self._csr([0, 2, 2, 3], [2, 0, 1], [0.5, 1.0, 0.25], (3, 3)))
        expected = sparse_from_triples(3, [(0, 2, 0.5), (0, 0, 1.0), (2, 1, 0.25)])
        assert S.is_sparse
        assert np.array_equal(S.to_dense(), expected.to_dense())
        assert S.row(0)[0].tolist() == [0, 2]  # unsorted CSR columns come back sorted

    def test_passes_similarity_matrices_and_dense_arrays_through(self):
        S = SimilarityMatrix([[1.0, 0.5], [0.5, 1.0]])
        assert as_similarity(S) is S
        assert not as_similarity([[1.0, 0.5], [0.5, 1.0]]).is_sparse

    def test_rejects_non_square_shape(self):
        with pytest.raises(InputError, match="must be square, got shape \\(2, 3\\)"):
            as_similarity(self._csr([0, 1, 1], [2], [1.0], (2, 3)))

    @pytest.mark.parametrize("indptr, indices, data", [
        ([0, 1], [0], [1.0]),             # indptr too short for n = 2
        ([1, 1, 1], [0], [1.0]),          # does not start at 0
        ([0, 2, 1], [0, 1], [1.0, 1.0]),  # falls
        ([0, 1, 3], [0, 1], [1.0, 1.0]),  # ends past the stored entries
        ([0, 1, 2], [0.0, 1.0], [1.0, 1.0]),  # fractional column indices
        ([0, 1, 2], [0, 1], [1.0]),       # one value short
        ([0, 1, 2], [0, 1], ["a", "b"]),  # values that are not numbers
    ])
    def test_rejects_malformed_structure(self, indptr, indices, data):
        with pytest.raises(InputError, match="malformed CSR"):
            as_similarity(self._csr(indptr, indices, data, (2, 2)))

    def test_entry_checks_are_those_of_the_triples_path(self):
        with pytest.raises(TripleValidationError, match="out of range") as exc:
            as_similarity(self._csr([0, 1, 2], [0, 2], [1.0, 1.0], (2, 2)))
        assert exc.value.row == 1
        with pytest.raises(TripleValidationError, match="negative"):
            as_similarity(self._csr([0, 1, 2], [0, 1], [1.0, -1.0], (2, 2)))
        with pytest.raises(TripleValidationError, match="non-finite"):
            as_similarity(self._csr([0, 1, 2], [0, 1], [np.nan, 1.0], (2, 2)))
        with pytest.raises(TripleValidationError, match="duplicate"):
            as_similarity(self._csr([0, 2, 2], [1, 1], [1.0, 1.0], (2, 2)))
        with pytest.raises(DegenerateInputError):
            as_similarity(self._csr([0], np.zeros(0, np.int32), np.zeros(0), (0, 0)))

    def test_scipy_csr_round_trips(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(17)
        dense, _ = sparse_and_dense(rng, 30)
        S = as_similarity(sp.csr_matrix(dense.to_dense()))
        assert S.is_sparse
        assert np.array_equal(S.to_dense(), dense.to_dense())

    def test_dense_constructors_refuse_sparse_input_by_name(self):
        csr = self._csr([0, 1, 2], [0, 1], [1.0, 1.0], (2, 2))
        for build in (FeatureMatrix, SimilarityMatrix,
                      squared_correlation_similarity, cosine_similarity):
            with pytest.raises(InputError, match="must be a dense array, got a sparse SimpleNamespace"):
                build(csr)


class TestSquaredCorrelation:
    def test_identical_rows_give_one(self):
        S = squared_correlation_similarity([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert S.to_dense()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_rows_give_one(self):
        S = squared_correlation_similarity([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert S.to_dense()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_pearson(self):
        # Pearson((1,2,3),(1,2,4)) = 27/sqrt(2*756) hand-reduced; squared = 27/28.
        S = squared_correlation_similarity([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
        assert S.to_dense()[0, 1] == pytest.approx(27.0 / 28.0, rel=1e-12)
        assert S.to_dense()[1, 0] == pytest.approx(27.0 / 28.0, rel=1e-12)

    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(3)
        S = squared_correlation_similarity(rng.normal(size=(5, 4)))
        for i in range(5):
            assert S.to_dense()[i, i] == 1.0

    def test_symmetric_and_in_unit_range(self):
        rng = np.random.default_rng(4)
        S = squared_correlation_similarity(rng.normal(size=(8, 6))).to_dense()
        assert np.array_equal(S, S.T)
        assert (S >= 0.0).all() and (S <= 1.0).all()

    def test_zero_variance_row_rejected(self):
        with pytest.raises(DegenerateInputError) as exc:
            squared_correlation_similarity([[1.0, 2.0, 4.0], [5.0, 5.0, 5.0]])
        assert exc.value.row == 1

    def test_constant_row_with_an_inexact_mean_rejected(self):
        # np.var([0.1, 0.1, 0.1]) is 1.9e-34, not 0: rounding residue of the mean.
        with pytest.raises(DegenerateInputError, match="row 0 has zero variance") as exc:
            squared_correlation_similarity([[0.1, 0.1, 0.1], [1.0, 2.0, 4.0]])
        assert exc.value.row == 0

    def test_needs_at_least_two_features(self):
        with pytest.raises(InputError):
            squared_correlation_similarity([[1.0], [2.0]])

    def test_two_features_rejected(self):
        # Two centred coordinates are ±(t, -t): every squared correlation is 1.
        with pytest.raises(InputError, match="at least 3 features per row .* got 2"):
            squared_correlation_similarity([[1.0, 2.0], [3.0, 7.0], [5.0, -1.0]])

    def test_accepts_feature_matrix(self):
        F = FeatureMatrix([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
        S = squared_correlation_similarity(F)
        assert S.to_dense()[0, 1] == pytest.approx(27.0 / 28.0, rel=1e-12)

    def test_single_row_gives_unit_matrix(self):
        S = squared_correlation_similarity([[1.0, 2.0, 4.0]])
        assert S.to_dense().tolist() == [[1.0]]

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_row_variance_past_the_float_range(self, scale):
        # The variance of (1, 3, 2) * 1e200 overflows and that of (1, 3, 2) *
        # 1e-200 underflows; the squared correlation with (1, 2, 4) is 3/28.
        # 1e200 and 1e-200 are not a power of two apart, so the two rows
        # round differently and each has its own exact value.
        expected = {1e200: 0.10714285714285708, 1e-200: 0.10714285714285712}[scale]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = squared_correlation_similarity([[scale, 3.0 * scale, 2.0 * scale], [1.0, 2.0, 4.0]])
        assert S.to_dense()[0, 1] == expected
        assert S.to_dense()[0, 1] == pytest.approx(3.0 / 28.0, rel=1e-15)
        assert S.to_dense()[1, 0] == S.to_dense()[0, 1]

    @pytest.mark.parametrize("value", [1e-200, 5e300, 5e-320])
    def test_constant_row_at_the_ends_of_the_float_range_rejected(self, value):
        with pytest.raises(DegenerateInputError, match="row 1 has zero variance") as exc:
            squared_correlation_similarity([[1.0, 2.0, 4.0], [value] * 3])
        assert exc.value.row == 1


class TestCosine:
    def test_identical_rows_give_one(self):
        S = cosine_similarity([[1.0, 0.0], [1.0, 0.0]])
        assert S.to_dense()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_give_zero(self):
        S = cosine_similarity([[1.0, 0.0], [0.0, 1.0]])
        assert S.to_dense()[0, 1] == 0.0

    def test_scale_invariance(self):
        S = cosine_similarity([[1.0, 1.0], [2.0, 2.0]])
        assert S.to_dense()[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError) as exc:
            cosine_similarity([[1.0, 0.0], [0.0, 0.0]])
        assert exc.value.row == 1

    def test_negative_cosine_rejected_by_default(self):
        with pytest.raises(ConstraintViolationError):
            cosine_similarity([[1.0, 0.0], [-1.0, 0.0]])

    def test_negative_cosine_clamped_on_request(self):
        S = cosine_similarity([[1.0, 0.0], [-1.0, 0.0]], clamp_negative=True)
        assert S.to_dense()[0, 1] == 0.0
        assert S.to_dense()[0, 0] == 1.0

    def test_clamped_output_in_unit_range(self):
        rng = np.random.default_rng(5)
        S = cosine_similarity(rng.normal(size=(10, 4)), clamp_negative=True).to_dense()
        assert (S >= 0.0).all() and (S <= 1.0).all()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_row_norm_past_the_float_range(self, scale):
        # The sum of squares of (scale, scale) overflows to inf or underflows
        # to 0; the cosine with (1, 2) is 3 / sqrt(10) either way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = cosine_similarity([[scale, scale], [1.0, 2.0]])
        assert S.to_dense()[0, 1] == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)
        assert S.to_dense()[1, 0] == S.to_dense()[0, 1]

    def test_subnormal_sum_of_squares_keeps_precision(self):
        # 3e-160 squared is subnormal; the cosine of (3, -1) and (1, 1) is 2 / sqrt(20).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = cosine_similarity([[3e-160, -1e-160], [1.0, 1.0]])
        assert S.to_dense()[0, 1] == pytest.approx(2.0 / np.sqrt(20.0), rel=1e-15)

    def test_zero_row_rejected_after_a_rescaled_row(self):
        with pytest.raises(DegenerateInputError, match="row 2 is all-zero") as exc:
            cosine_similarity([[1.0, 2.0], [1e-200, 0.0], [0.0, 0.0]])
        assert exc.value.row == 2


# n from 1 to 600, around 256 included; d from 2 to more than n.
BUILD_SHAPES = [(n, d) for n in (1, 2, 255, 256, 257, 600) for d in (2, 3, 64, 300)]


class TestSymmetricBuild:
    """Both builders take one product of unit rows with their transpose,
    which is symmetric bit for bit without any averaging afterwards."""

    @pytest.mark.parametrize("build", [
        squared_correlation_similarity,
        lambda X: cosine_similarity(X, clamp_negative=True),
    ], ids=["squared-correlation", "cosine"])
    @pytest.mark.parametrize("n, d", BUILD_SHAPES)
    def test_bitwise_symmetric(self, build, n, d):
        X = np.random.default_rng(n * 1000 + d).normal(size=(n, d))
        if build is squared_correlation_similarity and d == 2:
            with pytest.raises(InputError, match="at least 3 features per row"):
                build(X)
            return
        S = build(X).to_dense()
        assert S.tobytes() == S.T.copy().tobytes()

    @pytest.mark.parametrize("n, d", BUILD_SHAPES)
    def test_cosine_equals_the_averaged_halves(self, n, d):
        # The formula the builder used when it averaged the two halves.
        X = np.random.default_rng(n * 1000 + d).normal(size=(n, d))
        unit = _scaled_rows(X)
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        c = np.clip(unit @ unit.T, -1.0, 1.0)
        expected = (c + c.T) * 0.5
        np.fill_diagonal(expected, 1.0)
        np.maximum(expected, 0.0, out=expected)
        S = cosine_similarity(X, clamp_negative=True).to_dense()
        if n <= _TILE:  # one tile: the same product as the whole-matrix formula
            assert S.tobytes() == expected.tobytes()
            return
        # Tiles sum each dot product in their own order. Set from eps and d:
        # a computed dot product of two unit rows is within d u = d eps / 2 of
        # the exact one (Higham, ch. 3), so two orders differ by at most d eps.
        assert np.abs(S - expected).max() <= d * np.finfo(np.float64).eps

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_squared_correlation_matches_corrcoef(self, data):
        n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(3, 40))
        # Small integers give ties and repeated rows; the floats keep every
        # variance far from the ends of the float range, where corrcoef fails.
        values = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
        )
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
        assume((X.max(axis=1) > X.min(axis=1)).all())
        # Set from eps and d: each build's squares are within about
        # 2(d + 8) eps of the exact values, so the two differ by twice that.
        tol = 4 * (d + 8) * np.finfo(np.float64).eps
        expected = np.atleast_2d(np.corrcoef(X)) ** 2
        assert np.abs(squared_correlation_similarity(X).to_dense() - expected).max() <= tol


def _whole_matrix_squared_correlation(X):
    """squared_correlation_similarity written as one whole-matrix product."""
    unit = _scaled_rows(X)
    unit -= unit.mean(axis=1, keepdims=True)
    unit /= np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]
    sim = np.minimum(np.square(unit @ unit.T), 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim


TILE_SIZES = [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 3 * _TILE + 5]
BUILDERS = {
    "squared-correlation": squared_correlation_similarity,
    "cosine": cosine_similarity,
    "cosine-clamped": lambda X: cosine_similarity(X, clamp_negative=True),
}


class TestTiledBuild:
    """Both builders fill the upper triangle tile by tile and mirror each tile."""

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("n", TILE_SIZES)
    @pytest.mark.parametrize("d", [3, 64])
    def test_bitwise_symmetric_with_a_unit_diagonal(self, name, n, d):
        rng = np.random.default_rng(n * 100 + d)
        # Non-negative features keep every cosine >= 0, so the unclamped build succeeds.
        X = rng.uniform(0.0, 1.0, size=(n, d)) if name == "cosine" else rng.normal(size=(n, d))
        S = BUILDERS[name](X).to_dense()
        assert S.tobytes() == S.T.copy().tobytes()
        assert (np.diagonal(S) == 1.0).all()

    @pytest.mark.parametrize("n", [1, 2, 17, _TILE - 1, _TILE])
    def test_one_tile_gives_the_bytes_of_the_whole_matrix_formula(self, n):
        # Cosine's counterpart is TestSymmetricBuild::test_cosine_equals_the_averaged_halves.
        X = np.random.default_rng(n).normal(size=(n, 40))
        S = squared_correlation_similarity(X).to_dense()
        assert S.tobytes() == _whole_matrix_squared_correlation(X).tobytes()

    def test_negative_cosine_in_a_later_tile_names_the_row_major_first(self):
        n = 3 * _TILE + 5
        rng = np.random.default_rng(5)
        # Rows near (0, 0, 1) have positive cosines with each other and with
        # (1, -1, 1) and (-1, 1, 1), whose cosines with each other are negative.
        X = np.column_stack([rng.uniform(0.0, 0.1, size=(n, 2)), np.ones(n)])
        p, q, r = _TILE + 2, 2 * _TILE + 1, 3 * _TILE
        X[p] = [1.0, -1.0, 1.0]
        X[q] = [-1.0, 1.0, 1.0]
        X[r] = [-1.0, 1.0, 1.0]
        with pytest.raises(NegativeCosineError) as exc:
            cosine_similarity(X)
        assert exc.value.position == (p, q)
        assert exc.value.value == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "import hashlib, numpy as np, subsel\n"
            f"X = np.random.default_rng(3).normal(size=({3 * _TILE + 5}, 64))\n"
            "for S in (subsel.squared_correlation_similarity(X),\n"
            "          subsel.cosine_similarity(X, clamp_negative=True)):\n"
            "    print(hashlib.sha256(S.to_dense().tobytes()).hexdigest())\n"
        )
        src = str(Path(subsel.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            digests.append(done.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]


def _chunk_rows(n_cols):
    """Rows per chunk of the value check for float64 rows of ``n_cols`` entries."""
    return _CHECK_CHUNK_BYTES // (8 * n_cols)


class TestChunkedValueCheck:
    """The value check reads rows in chunks and still names the first bad entry."""

    # (n, width) for each container: several chunks and a short last one.
    SHAPES = {"feature": (3 * _chunk_rows(4096) + 5, 4096), "similarity": (500, 500)}

    @staticmethod
    def _positions(n, width):
        step = _chunk_rows(width)
        last = (n - 1) // step * step
        return [(step - 1, width - 1), (step, 0), (2 * step - 1, width // 2),
                (last, 0), (n - 1, width - 1)]

    @pytest.mark.parametrize("container", ["feature", "similarity"])
    @pytest.mark.parametrize("bad, kind", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                           (-0.5, "negative")])
    def test_first_bad_entry_at_chunk_boundaries(self, container, bad, kind):
        n, width = self.SHAPES[container]
        assert n > 3 * _chunk_rows(width) and n % _chunk_rows(width) != 0
        build = FeatureMatrix if container == "feature" else SimilarityMatrix
        for r, c in self._positions(n, width):
            values = np.full((n, width), 0.25)
            values[r, c] = bad
            # Bad entries later in row-major order must not be the one named.
            values[r, c + 1:] = -1.0
            values[r + 1:, :] = np.inf
            with pytest.raises(ConstraintViolationError, match=kind) as exc:
                build(values)
            assert exc.value.position == (r, c)

    def test_a_row_wider_than_a_chunk(self):
        width = _CHECK_CHUNK_BYTES // 8 + 3
        values = np.ones((3, width))
        values[2, width - 1] = np.nan
        with pytest.raises(ConstraintViolationError) as exc:
            FeatureMatrix(values)
        assert exc.value.position == (2, width - 1)


class TestRowScaling:
    """A row scaled by a power of two has the same similarities, bit for bit."""

    @pytest.mark.parametrize("build, least_d", [
        (squared_correlation_similarity, 3),
        (lambda X: cosine_similarity(X, clamp_negative=True), 2),
    ], ids=["squared-correlation", "cosine"])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_row_scaling_keeps_the_bits(self, build, least_d, seed):
        rng = np.random.default_rng(seed)
        n, d = (int(v) for v in rng.integers((2, least_d), 7))
        # Magnitudes in [0.5, 4) times 2**e with |e| <= 1000 stay normal floats.
        X = rng.uniform(0.5, 4.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
        exponents = rng.integers(-1000, 1001, size=(n, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = build(np.ldexp(X, exponents)).to_dense()
        assert scaled.tobytes() == build(X).to_dense().tobytes()


class TestFiniteBoundary:
    """Non-finite values are rejected where they enter, naming the first one."""

    def test_feature_matrix_rejects_inf(self):
        with pytest.raises(ConstraintViolationError, match="non-finite") as exc:
            FeatureMatrix([[1.0, 2.0], [np.inf, 0.5]])
        assert exc.value.position == (1, 0)

    def test_first_bad_entry_in_row_major_order(self):
        with pytest.raises(ConstraintViolationError, match="non-finite") as exc:
            SimilarityMatrix([[1.0, np.inf], [-1.0, 1.0]])
        assert exc.value.position == (0, 1)
        with pytest.raises(ConstraintViolationError, match="negative similarity") as exc:
            SimilarityMatrix([[1.0, -1.0], [np.inf, 1.0]])
        assert exc.value.position == (0, 1)

    @pytest.mark.parametrize("build", [squared_correlation_similarity, cosine_similarity])
    def test_similarity_inputs_must_be_finite(self, build):
        with pytest.raises(ConstraintViolationError) as exc:
            build([[1.0, 2.0, 3.0], [1.0, np.nan, 4.0], [2.0, 1.0, np.inf]])
        assert exc.value.position == (1, 1)

    def test_triples_reject_inf(self):
        with pytest.raises(TripleValidationError, match="non-finite") as exc:
            sparse_from_triples(2, [(0, 0, 1.0), (1, 1, np.inf)])
        assert exc.value.row == 1

    def test_first_offending_triple_in_input_order(self):
        with pytest.raises(TripleValidationError, match="negative") as exc:
            sparse_from_triples(2, [(0, 0, 1.0), (1, 1, -1.0), (0, 5, 1.0)])
        assert exc.value.row == 1
        # Range and value errors win over an earlier duplicate.
        with pytest.raises(TripleValidationError, match="out of range") as exc:
            sparse_from_triples(2, [(0, 0, 1.0), (0, 0, 1.0), (0, 5, 1.0)])
        assert exc.value.row == 2
        # Of two repeated pairs, the repeat that comes first in the input is named.
        with pytest.raises(TripleValidationError, match="duplicate") as exc:
            sparse_from_triples(2, [(1, 1, 1.0), (0, 0, 1.0), (1, 1, 2.0), (0, 0, 2.0)])
        assert exc.value.row == 2
        assert exc.value.triple == (1, 1, 2.0)

    def test_index_beyond_int64_is_malformed(self):
        with pytest.raises(TripleValidationError) as exc:
            sparse_from_triples(2, [(0, 0, 1.0), (2**70, 0, 1.0)])
        assert exc.value.row == 1

    def test_structured_array_matches_tuples(self):
        rng = np.random.default_rng(11)
        dense, _ = sparse_and_dense(rng, 30)
        D = dense.to_dense()
        rows, cols = np.nonzero(D)
        order = rng.permutation(len(rows))
        tuples = [(int(i), int(j), float(D[i, j])) for i, j in zip(rows[order], cols[order])]
        from_tuples = sparse_from_triples(30, tuples)
        from_array = sparse_from_triples(30, np.array(tuples, dtype=TRIPLE_DTYPE))
        for a, b in [(from_tuples._indptr, from_array._indptr), (from_tuples._cols, from_array._cols),
                     (from_tuples._vals, from_array._vals)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(from_array.to_dense(), dense.to_dense())


def _outcome(build, X):
    """The matrix bytes ``build(X)`` gives, or its refusal's type, text, row and position."""
    try:
        return build(X).to_dense().tobytes()
    except InputError as exc:
        return type(exc), str(exc), exc.row, getattr(exc, "position", None)


class TestBuilderInputCheck:
    """The builders' scaling pass is their input check: it names the first
    non-finite entry in row-major order, before any other fault."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_first_non_finite_entry_is_refused_first(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        d = data.draw(st.integers(1, 6), label="d")  # d < 3 is too few for some builders
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.normal(size=(n, d))
        if data.draw(st.booleans(), label="non-negative"):
            X = np.abs(X)
        # Constant and all-zero rows, which the builders refuse after this check.
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="flat rows"):
            X[r] = data.draw(st.sampled_from([0.0, 1.5]))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, d - 1))
        cells = data.draw(st.lists(cell, min_size=1, max_size=4, unique=True), label="cells")
        for r, c in cells:
            X[r, c] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        r, c = min(cells)
        expected = (ConstraintViolationError,
                    f"non-finite value {float(X[r, c])} in input matrix at row {r}, column {c}",
                    r, (r, c))
        for build in BUILDERS.values():
            assert _outcome(build, X) == expected
            assert _outcome(build, X.tolist()) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_feature_matrix_input_reads_as_its_values(self, data):
        # A FeatureMatrix holds only finite values, so its refusals are the
        # later ones; each must be the one its values give as a raw array.
        n = data.draw(st.integers(1, 8), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.exponential(size=(n, d)) * 2.0 ** data.draw(st.integers(-600, 600), label="scale")
        for r in data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="flat rows"):
            X[r] = data.draw(st.sampled_from([0.0, 1.5]))
        F, before = FeatureMatrix(X), X.copy()
        for build in BUILDERS.values():
            assert _outcome(build, F) == _outcome(build, X)
        # Rows are scaled in place only in the builders' own copy.
        assert X.tobytes() == before.tobytes()

    @pytest.mark.parametrize("build, X, message", [
        (squared_correlation_similarity, [[1.0, 1.0], [0.0, 0.0]], "at least 3 features"),
        (squared_correlation_similarity, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], "row 0 has zero variance"),
        (cosine_similarity, [[0.0], [1.0]], "at least 2 features"),
        (cosine_similarity, [[1.0, 2.0], [0.0, 0.0]], "row 1 is all-zero"),
    ])
    def test_too_few_features_come_before_row_faults(self, build, X, message):
        for given_as in (X, FeatureMatrix(X)):
            with pytest.raises(InputError, match=message):
                build(given_as)
