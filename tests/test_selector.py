"""Fit/transform facade behavior."""

import numpy as np
import pytest

from subsel import (
    FacilityLocationObjective,
    FacilityLocationSelector,
    FeatureBasedSelector,
    FeatureMatrix,
    InputError,
    SimilarityMatrix,
    cosine_similarity,
    hybrid_maximize,
    squared_correlation_similarity,
)
from instances import BAD_INITIAL, BAD_K, BAD_NAIVE_ROUNDS, rand_features, rand_similarity

S3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


class TestFitRanking:
    def test_feature_based_singleton(self):
        sel = FeatureBasedSelector(1).fit([[4.0, 9.0], [1.0, 0.0]])
        assert sel.ranking_ == (0,)
        assert sel.gains_[0] == pytest.approx(5.0, rel=1e-12)

    def test_facility_location_singleton(self):
        sel = FacilityLocationSelector(1).fit(S3)
        assert sel.ranking_ == (1,)
        assert sel.gains_[0] == pytest.approx(1.8, rel=1e-12)

    def test_k_equal_to_n_is_a_permutation(self):
        sel = FacilityLocationSelector(3).fit(S3)
        assert sorted(sel.ranking_) == [0, 1, 2]

    def test_k_capped_at_n(self):
        sel = FeatureBasedSelector(10).fit([[4.0, 9.0], [1.0, 0.0]])
        assert len(sel.ranking_) == 2

    def test_refit_is_deterministic(self):
        rng = np.random.default_rng(71)
        X = rand_features(rng, 30, 5)
        sel = FeatureBasedSelector(6)
        first = sel.fit(X).result_
        second = sel.fit(X).result_
        assert first == second


class TestTransform:
    def test_selects_single_row(self):
        data = np.array([[10.0, 0.0], [20.0, 1.0], [30.0, 2.0]])
        sel = FacilityLocationSelector(1).fit(S3)
        out = sel.transform(data)
        assert np.array_equal(out, data[[1]])

    def test_identity_ranking_keeps_data(self):
        # Single-feature rows with decreasing mass select 0, 1, 2 in order.
        data = np.array([[9.0], [4.0], [1.0]])
        sel = FeatureBasedSelector(3).fit(data)
        assert sel.ranking_ == (0, 1, 2)
        assert np.array_equal(sel.transform(data), data)

    def test_rows_come_back_in_ranking_order(self):
        S = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.9, 1.0]])
        sel = FacilityLocationSelector(2).fit(S)
        assert sel.ranking_ == (2, 0)
        data = np.array([[0.0], [1.0], [2.0]])
        assert sel.transform(data).tolist() == [[2.0], [0.0]]

    def test_feature_matrix_in_feature_matrix_out(self):
        F = FeatureMatrix([[4.0, 9.0], [1.0, 0.0]])
        out = FeatureBasedSelector(1).fit(F).transform(F)
        assert isinstance(out, FeatureMatrix)
        assert out.values.tolist() == [[4.0, 9.0]]

    def test_requires_fit_first(self):
        with pytest.raises(InputError):
            FeatureBasedSelector(1).transform([[1.0]])
        with pytest.raises(InputError):
            FeatureBasedSelector(1).ranking_

    def test_rejects_row_count_mismatch(self):
        sel = FeatureBasedSelector(1).fit([[4.0, 9.0], [1.0, 0.0]])
        with pytest.raises(InputError):
            sel.transform([[1.0, 2.0]])

    def test_rejects_similarity_matrix(self):
        sel = FacilityLocationSelector(1).fit(S3)
        with pytest.raises(InputError):
            sel.transform(SimilarityMatrix(S3))

    def test_rejects_non_2d(self):
        sel = FeatureBasedSelector(1).fit([[4.0], [1.0]])
        with pytest.raises(InputError):
            sel.transform([4.0, 1.0])

    def test_sparse_input_refused_by_name(self):
        sp = pytest.importorskip("scipy.sparse")
        X = np.array([[4.0, 0.0], [1.0, 2.0], [0.0, 3.0]])
        sel = FeatureBasedSelector(2).fit(X)
        with pytest.raises(InputError, match="must be a dense array, got a sparse csr_matrix; "
                                             "convert it with .toarray()"):
            sel.transform(sp.csr_matrix(X))


class TestFitTransform:
    def test_equals_fit_then_transform(self):
        rng = np.random.default_rng(73)
        X = rand_features(rng, 25, 4)
        combined = FeatureBasedSelector(5).fit_transform(X)
        split = FeatureBasedSelector(5).fit(X).transform(X)
        assert np.array_equal(combined, split)

    def test_singleton_dataset(self):
        out = FeatureBasedSelector(1).fit_transform([[7.0, 7.0]])
        assert out.tolist() == [[7.0, 7.0]]

    def test_output_row_count_is_min_k_n(self):
        rng = np.random.default_rng(79)
        X = rand_features(rng, 20, 3)
        assert FeatureBasedSelector(8).fit_transform(X).shape == (8, 3)
        assert FeatureBasedSelector(50).fit_transform(X).shape == (20, 3)


class TestDataKinds:
    @pytest.mark.parametrize("similarity", ["squared-correlation", "cosine"])
    def test_single_row_selects_it(self, similarity):
        sel = FacilityLocationSelector(1, similarity=similarity).fit([[1.0, 2.0, 4.0]])
        assert sel.ranking_ == (0,)
        assert sel.gains_ == (1.0,)

    @pytest.mark.parametrize("similarity, X, message", [
        ("cosine", [[1.0], [2.0], [3.0], [0.5]], "cosine similarity needs at least 2 features"),
        ("squared-correlation", [[1.0, 2.0], [3.0, 7.0], [5.0, -1.0]],
         "squared-correlation similarity needs at least 3 features"),
    ], ids=["cosine", "squared-correlation"])
    def test_too_few_features_per_row_rejected(self, similarity, X, message):
        # With one feature every cosine is 1 or -1; with two every squared
        # correlation is 1. Either would rank by index with one non-zero gain.
        with pytest.raises(InputError, match=message) as exc:
            FacilityLocationSelector(len(X), similarity=similarity).fit(X)
        assert exc.value.row is None  # a fault of the whole matrix, not of one row

    def test_precomputed_accepts_similarity_matrix(self):
        sel = FacilityLocationSelector(1).fit(SimilarityMatrix(S3))
        assert sel.ranking_ == (1,)

    def test_precomputed_rejects_feature_matrix(self):
        with pytest.raises(InputError, match="squared-correlation"):
            FacilityLocationSelector(1).fit(FeatureMatrix([[1.0, 2.0]]))

    def test_unknown_similarity_kind_rejected(self):
        with pytest.raises(InputError):
            FacilityLocationSelector(1, similarity="hamming")

    @pytest.mark.parametrize("concave", ["cube", ["sqrt"]], ids=["cube", "list"])
    def test_unknown_saturator_rejected_at_construction(self, concave):
        with pytest.raises(InputError, match=r"unknown saturator .*expected one of \['log', 'sqrt'\]"):
            FeatureBasedSelector(1, concave=concave)

    def test_constructed_kinds_reject_similarity_matrix(self):
        S = SimilarityMatrix(S3)
        for kind in ("squared-correlation", "cosine"):
            with pytest.raises(InputError):
                FacilityLocationSelector(1, similarity=kind).fit(S)

    def test_squared_correlation_matches_manual_construction(self):
        rng = np.random.default_rng(83)
        X = rng.normal(size=(12, 6))
        via_selector = FacilityLocationSelector(4, similarity="squared-correlation").fit(X)
        manual = hybrid_maximize(
            FacilityLocationObjective(squared_correlation_similarity(X)), 4
        )
        assert via_selector.ranking_ == manual.ranking

    def test_cosine_matches_manual_construction(self):
        rng = np.random.default_rng(89)
        X = rand_features(rng, 12, 6) + 0.01
        via_selector = FacilityLocationSelector(4, similarity="cosine").fit(X)
        manual = hybrid_maximize(FacilityLocationObjective(cosine_similarity(X)), 4)
        assert via_selector.ranking_ == manual.ranking

    def test_feature_based_rejects_similarity_matrix(self):
        with pytest.raises(InputError):
            FeatureBasedSelector(1).fit(SimilarityMatrix(S3))

    def test_precomputed_accepts_scipy_csr_like_its_dense_form(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(101)
        D = rand_similarity(rng, 25)
        D[D < 0.6] = 0.0
        via_csr = FacilityLocationSelector(6).fit(sp.csr_matrix(D))
        via_dense = FacilityLocationSelector(6).fit(D)
        assert via_csr.ranking_ == via_dense.ranking_
        assert via_csr.gains_ == via_dense.gains_  # compacted sums agree bit for bit
        with pytest.raises(InputError, match="must be CSR, got format 'csc'"):
            FacilityLocationSelector(3).fit(sp.csc_matrix(D))
        with pytest.raises(InputError, match="must be square"):
            FacilityLocationSelector(3).fit(sp.csr_matrix(D[:, :20]))

    def test_sparse_feature_data_is_refused_by_name(self):
        sp = pytest.importorskip("scipy.sparse")
        X = sp.csr_matrix(rand_features(np.random.default_rng(103), 10, 4))
        for kind in ("squared-correlation", "cosine"):
            with pytest.raises(InputError, match="must be a dense array, got a sparse csr_matrix"):
                FacilityLocationSelector(2, similarity=kind).fit(X)
        with pytest.raises(InputError, match="must be a dense array, got a sparse csr_matrix"):
            FeatureBasedSelector(2).fit(X)


class TestConstructorValidation:
    def test_k_must_be_positive_integer(self):
        for cls in (FeatureBasedSelector, FacilityLocationSelector):
            for bad in BAD_K:
                with pytest.raises(InputError, match="^k must"):
                    cls(bad)
            assert type(cls(np.int64(3)).k) is int

    def test_knob_validation(self):
        for cls in (FeatureBasedSelector, FacilityLocationSelector):
            for bad in BAD_NAIVE_ROUNDS:
                with pytest.raises(InputError, match="^naive_rounds must"):
                    cls(1, naive_rounds=bad)
            assert type(cls(1, naive_rounds=np.int64(2)).naive_rounds) is int
            for bad in BAD_INITIAL:
                with pytest.raises(InputError, match="^initial index must be an integer"):
                    cls(2, initial=bad)
            assert [type(i) for i in cls(2, initial=[np.int64(1)]).initial] == [int]

    def test_knobs_do_not_change_the_selection(self):
        rng = np.random.default_rng(97)
        X = rand_features(rng, 40, 6)
        rankings = {
            FeatureBasedSelector(8, naive_rounds=r).fit(X).ranking_
            for r in (0, 1, 2, 8)
        }
        assert len(rankings) == 1


class TestVerbose:
    def test_progress_goes_to_stderr(self, capsys):
        FeatureBasedSelector(2, verbose=True).fit([[4.0, 9.0], [1.0, 0.0]])
        err = capsys.readouterr().err
        assert "step=0" in err and "step=1" in err
        assert "index=" in err and "gain=" in err

    def test_custom_progress_sink(self, capsys):
        records = []
        sel = FeatureBasedSelector(2, verbose=True, progress=records.append)
        sel.fit([[4.0, 9.0], [1.0, 0.0]])
        assert [r.index for r in records] == list(sel.ranking_)
        assert capsys.readouterr().err == ""

    def test_progress_sink_without_verbose_records_every_pick(self, capsys):
        records = []
        sel = FeatureBasedSelector(3, progress=records.append)
        sel.fit(rand_features(np.random.default_rng(5), 9, 3))
        assert [r.step for r in records] == [0, 1, 2]
        assert [r.index for r in records] == list(sel.ranking_)
        assert [r.gain for r in records] == list(sel.gains_)
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == ""

    def test_stderr_line_reports_seconds_since_start(self, capsys):
        FeatureBasedSelector(3, verbose=True).fit(rand_features(np.random.default_rng(7), 9, 3))
        lines = capsys.readouterr().err.splitlines()
        seconds = [float(dict(p.split("=", 1) for p in line.split())["seconds"]) for line in lines]
        assert len(seconds) == 3 and seconds == sorted(seconds) and seconds[0] >= 0.0

    def test_silent_by_default(self, capsys):
        FeatureBasedSelector(2).fit([[4.0, 9.0], [1.0, 0.0]])
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == ""


class TestDocumentedUsage:
    def test_select_hundred_with_sqrt_from_synthetic_data(self):
        # The README quick-start: pick 100 representatives of a larger set.
        rng = np.random.default_rng(0)
        X = rng.exponential(size=(5000, 100))
        sel = FeatureBasedSelector(100, "sqrt")
        subset = sel.fit_transform(X)
        assert subset.shape == (100, 100)
        assert np.array_equal(subset, X[list(sel.ranking_)])


class TestCustomObjectiveHook:
    def test_subclass_plugs_in_an_objective(self):
        from subsel import BaseSelector, FunctionObjective

        class CardinalitySelector(BaseSelector):
            def _build_objective(self, data):
                return FunctionObjective(lambda X: float(len(X)), len(data))

        sel = CardinalitySelector(2).fit([[0.0], [0.0], [0.0]])
        assert sel.ranking_ == (0, 1)
        assert sel.gains_ == (1.0, 1.0)
