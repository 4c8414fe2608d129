"""Objective values, marginal gains, and the gain/update contract."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import (
    AlreadySelectedError,
    ConstraintViolationError,
    FacilityLocationObjective,
    FeatureBasedObjective,
    FeatureBasedSelector,
    FeatureMatrix,
    FunctionObjective,
    InputError,
    SimilarityMatrix,
    facility_location_eval,
    feature_based_eval,
    hybrid_maximize,
    sparse_from_triples,
)
from subsel.oracle import naive_greedy
from instances import (
    rand_features,
    rand_similarity,
    sparse_and_dense,
    weights_with_zero,
    wide_features,
)

S3 = SimilarityMatrix([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
F2 = FeatureMatrix([[4.0, 9.0], [1.0, 0.0]])
PHI = {"sqrt": np.sqrt, "log": np.log1p}


class TestFacilityLocationValue:
    def test_empty_set_is_zero(self):
        assert facility_location_eval(S3, []) == 0.0

    def test_single_element_value(self):
        assert facility_location_eval(S3, [0]) == pytest.approx(1.7, rel=1e-12)
        assert facility_location_eval(S3, [1]) == pytest.approx(1.8, rel=1e-12)
        assert facility_location_eval(S3, [2]) == pytest.approx(1.5, rel=1e-12)

    def test_full_set_covers_diagonal(self):
        assert facility_location_eval(S3, [0, 1, 2]) == pytest.approx(3.0, rel=1e-12)

    def test_duplicates_in_set_are_ignored(self):
        assert facility_location_eval(S3, [0, 0, 1]) == facility_location_eval(S3, [0, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            facility_location_eval(S3, [3])

    def test_sparse_eval_matches_dense(self):
        rng = np.random.default_rng(11)
        dense, sparse = sparse_and_dense(rng, 30)
        X = [2, 7, 19]
        assert facility_location_eval(sparse, X) == pytest.approx(
            facility_location_eval(dense, X), rel=1e-12
        )


class TestFacilityLocationGain:
    def test_gain_from_empty_state_equals_singleton_value(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        for v in range(3):
            assert obj.gain(state, v) == pytest.approx(
                facility_location_eval(S3, [v]), rel=1e-12
            )

    def test_hand_evaluated_incremental_gain(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        obj.update(state, 0)
        # max(0,.5-1) + max(0,1-.5) + max(0,.3-.2) = 0.6
        assert obj.gain(state, 1) == pytest.approx(0.6, rel=1e-12)

    def test_duplicate_row_gains_exactly_zero(self):
        S = SimilarityMatrix(
            [[0.9, 0.4, 0.1], [0.9, 0.4, 0.1], [0.0, 0.2, 0.8]]
        )
        obj = FacilityLocationObjective(S)
        state = obj.new_state()
        obj.update(state, 0)
        assert obj.gain(state, 1) == 0.0

    def test_selected_candidate_rejected(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        obj.update(state, 0)
        with pytest.raises(AlreadySelectedError):
            obj.gain(state, 0)
        with pytest.raises(AlreadySelectedError):
            obj.update(state, 0)

    def test_out_of_range_candidate_rejected(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        with pytest.raises(IndexError):
            obj.gain(state, 3)

    def test_update_tracks_elementwise_max(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        obj.update(state, 0)
        obj.update(state, 1)
        assert state.best_sim.tolist() == [1.0, 1.0, 0.3]
        assert state.selected == [0, 1]

    def test_best_sim_never_decreases(self):
        rng = np.random.default_rng(23)
        obj = FacilityLocationObjective(rand_similarity(rng, 25))
        state = obj.new_state()
        previous = state.best_sim.copy()
        for v in rng.permutation(25)[:10]:
            obj.update(state, int(v))
            assert (state.best_sim >= previous).all()
            previous = state.best_sim.copy()

    def test_accepts_raw_dense_array(self):
        obj = FacilityLocationObjective(np.eye(3))
        assert obj.n_examples == 3

    def test_sparse_and_dense_gains_identical(self):
        # The two storage paths must agree bit-for-bit, not just approximately.
        rng = np.random.default_rng(17)
        for _ in range(5):
            dense, sparse = sparse_and_dense(rng, 40)
            obj_d = FacilityLocationObjective(dense)
            obj_s = FacilityLocationObjective(sparse)
            state_d, state_s = obj_d.new_state(), obj_s.new_state()
            order = rng.permutation(40)
            for step in range(8):
                for v in range(40):
                    if state_d.is_selected(v):
                        continue
                    assert obj_d.gain(state_d, v) == obj_s.gain(state_s, v)
                chosen = int(order[step])
                obj_d.update(state_d, chosen)
                obj_s.update(state_s, chosen)
                assert np.array_equal(state_d.best_sim, state_s.best_sim)

    @pytest.mark.parametrize("sparse", [False, True])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_computed_gains_never_rise_after_an_update(self, sparse, seed):
        # Lazy greedy takes a stale gain as a bound on the candidate's later
        # gain, so lazy == naive needs the floats themselves never to rise,
        # not only the exact gains: compared with no tolerance.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        S = 10.0 ** rng.uniform(-8.0, 2.0, size=(n, n))
        S[rng.random(size=(n, n)) < 0.3] = 0.0
        if sparse:
            S = sparse_from_triples(n, [(int(i), int(j), S[i, j]) for i, j in np.argwhere(S != 0.0)])
        obj = FacilityLocationObjective(S)
        state = obj.new_state()
        previous = [obj.gain(state, v) for v in range(n)]
        for chosen in rng.permutation(n)[: int(rng.integers(1, n))]:
            obj.update(state, int(chosen))
            for v in range(n):
                if not state.is_selected(v):
                    gain = obj.gain(state, v)
                    assert gain <= previous[v]
                    previous[v] = gain


class TestCandidateIndices:
    """Every objective takes one kind of candidate index: an integer, numpy's included."""

    OBJECTIVES = [
        lambda: FacilityLocationObjective(S3),
        lambda: FacilityLocationObjective(sparse_and_dense(np.random.default_rng(3), 3)[1]),
        lambda: FeatureBasedObjective(F2),
        lambda: FunctionObjective(lambda X: float(len(X)), 3),
    ]

    @pytest.mark.parametrize("make", OBJECTIVES)
    @pytest.mark.parametrize("v", [1.7, 1.0, True, "1", None])
    def test_non_integer_candidate_rejected(self, make, v):
        obj = make()
        state = obj.new_state()
        with pytest.raises(InputError, match="candidate index must be an integer"):
            obj.gain(state, v)
        with pytest.raises(InputError, match="candidate index must be an integer"):
            obj.update(state, v)
        assert state.selected == []

    @pytest.mark.parametrize("make", OBJECTIVES)
    def test_numpy_integers_give_bit_identical_gains(self, make):
        obj = make()
        state_int, state_np = obj.new_state(), obj.new_state()
        for chosen in (1, 0):
            for v in range(obj.n_examples):
                if not state_int.is_selected(v):
                    a, b = obj.gain(state_int, v), obj.gain(state_np, np.int64(v))
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()
            obj.update(state_int, chosen)
            obj.update(state_np, np.intp(chosen))
        assert state_np.selected == state_int.selected == [1, 0]
        assert all(type(v) is int for v in state_np.selected)


class TestFeatureBasedValue:
    def test_empty_set_is_zero(self):
        assert feature_based_eval(F2, None, "sqrt", []) == 0.0

    def test_single_row_value(self):
        assert feature_based_eval(F2, None, "sqrt", [0]) == pytest.approx(5.0, rel=1e-12)

    def test_two_row_value(self):
        expected = math.sqrt(5.0) + 3.0
        assert feature_based_eval(F2, None, "sqrt", [0, 1]) == pytest.approx(expected, rel=1e-12)


class TestFeatureBasedGain:
    def test_gain_from_empty_state_equals_singleton_value(self):
        obj = FeatureBasedObjective(F2, "sqrt")
        state = obj.new_state()
        assert obj.gain(state, 0) == pytest.approx(5.0, rel=1e-15)
        assert obj.gain(state, 1) == pytest.approx(1.0, rel=1e-15)

    def test_hand_evaluated_incremental_gain(self):
        obj = FeatureBasedObjective(F2, "sqrt")
        state = obj.new_state()
        obj.update(state, 0)
        assert obj.gain(state, 1) == pytest.approx(math.sqrt(5.0) - 2.0, rel=1e-14)

    def test_all_zero_row_gains_zero_from_any_state(self):
        obj = FeatureBasedObjective([[3.0, 7.0], [0.0, 0.0], [1.0, 1.0]], "sqrt")
        state = obj.new_state()
        assert obj.gain(state, 1) == 0.0
        obj.update(state, 0)
        assert obj.gain(state, 1) == 0.0

    def test_log_saturator_is_log1p(self):
        obj = FeatureBasedObjective([[math.e - 1.0]], "log")
        state = obj.new_state()
        assert obj.gain(state, 0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    def test_concave_is_the_name(self, concave):
        assert FeatureBasedObjective(F2, concave).concave == concave

    @pytest.mark.parametrize("concave", ["cube", ["sqrt"]])
    def test_unknown_saturator_rejected(self, concave):
        with pytest.raises(InputError, match=r"unknown saturator .*expected one of \['log', 'sqrt'\]"):
            FeatureBasedObjective(F2, concave)

    def test_weights_scale_gains(self):
        unweighted = FeatureBasedObjective(F2, "sqrt")
        weighted = FeatureBasedObjective(F2, "sqrt", weights=[2.0, 0.0])
        assert weighted.gain(weighted.new_state(), 0) == pytest.approx(
            2.0 * math.sqrt(4.0), rel=1e-15
        )
        assert unweighted.gain(unweighted.new_state(), 0) == pytest.approx(5.0)

    def test_weight_validation(self):
        with pytest.raises(InputError):
            FeatureBasedObjective(F2, "sqrt", weights=[1.0])
        with pytest.raises(ConstraintViolationError):
            FeatureBasedObjective(F2, "sqrt", weights=[1.0, -1.0])

    @pytest.mark.parametrize("n_features, weights", [
        (4, np.ones((2, 2))),  # D values, but not in one row
        (1, 2.0),  # a 0-d scalar
        (2, [[1.0, 1.0]]),
        (2, [1.0]),
        (2, [1.0, 1.0, 1.0]),
    ])
    def test_weights_must_be_one_value_per_feature(self, n_features, weights):
        """The objective, the selector and the oracle refuse the same shapes."""
        X = np.ones((3, n_features))
        named = re.escape(f"got shape {np.shape(weights)}")
        with pytest.raises(InputError, match=named):
            FeatureBasedObjective(X, "sqrt", weights=weights)
        with pytest.raises(InputError, match=named):
            FeatureBasedSelector(2, weights=weights).fit(X)
        with pytest.raises(InputError, match="^weights must be"):
            feature_based_eval(X, weights, "sqrt", [0])

    def test_negative_features_rejected(self):
        with pytest.raises(ConstraintViolationError):
            FeatureBasedObjective([[1.0, -2.0]], "sqrt")

    def test_feature_sum_never_decreases(self):
        rng = np.random.default_rng(29)
        obj = FeatureBasedObjective(rand_features(rng, 20, 6))
        state = obj.new_state()
        previous = state.feature_sum.copy()
        for v in range(10):
            obj.update(state, v)
            assert (state.feature_sum >= previous).all()
            previous = state.feature_sum.copy()

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    def test_saturated_is_phi_of_feature_sum_bit_for_bit(self, concave):
        rng = np.random.default_rng(31)
        obj = FeatureBasedObjective(rand_features(rng, 20, 6), concave)
        phi = PHI[concave]
        state = obj.new_state()
        assert state.saturated.tobytes() == phi(state.feature_sum).tobytes()
        for v in rng.permutation(20)[:12]:
            obj.update(state, v)
            assert state.saturated.tobytes() == phi(state.feature_sum).tobytes()

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    def test_gain_equals_the_unfactored_formula_bit_for_bit(self, concave):
        # The gain reuses the cached saturated mass and calls np.add.reduce;
        # the float it returns must be the one the textbook formula gives.
        rng = np.random.default_rng(37)
        F = rand_features(rng, 30, 7)
        w = rng.uniform(0.5, 2.0, size=7)
        obj = FeatureBasedObjective(F, concave, weights=w)
        phi = PHI[concave]
        state = obj.new_state()
        for step in range(6):
            fs = state.feature_sum
            for v in range(30):
                if not state.is_selected(v):
                    expected = float(np.sum(w * (phi(fs + F[v]) - phi(fs))))
                    assert obj.gain(state, v) == expected
            obj.update(state, int(rng.choice([v for v in range(30) if not state.is_selected(v)])))


def _bounds_hold_at_every_step(obj, order):
    """Check ``upper_bounds`` against every remaining gain, then select the
    next index of ``order``, until ``order`` is used up."""
    state = obj.new_state()
    for chosen in order:
        bounds = obj.upper_bounds(state)
        assert bounds.shape == (obj.n_examples,)
        for v in range(obj.n_examples):
            if not state.is_selected(v):
                assert bounds[v] >= obj.gain(state, v), (v, len(state.selected))
        obj.update(state, int(chosen))


class TestFeatureBasedUpperBounds:
    """Each bound is at or above the float ``gain`` returns, rounding included."""

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_on_wide_zero_heavy_near_duplicate_rows(self, concave, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 7))
        obj = FeatureBasedObjective(wide_features(rng, n, d), concave,
                                    weights=weights_with_zero(rng, d))
        _bounds_hold_at_every_step(obj, rng.permutation(n)[: int(rng.integers(1, n + 1))])

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    def test_bounds_hold_for_tiny_rows_on_a_large_mass(self, concave):
        # After the 1e8 row, F + x rounds to a multiple of ulp(1e8) ~ 1.5e-8,
        # so many computed gains exceed phi'(F) x; the slack must cover them.
        rng = np.random.default_rng(71)
        X = np.vstack([[1e8], rng.uniform(1e-9, 1e-7, size=(400, 1))])
        _bounds_hold_at_every_step(FeatureBasedObjective(X, concave), [0, 1])

    @pytest.mark.parametrize("concave", ["sqrt", "log"])
    @pytest.mark.parametrize("seed", range(8))
    def test_infinite_bounds_fall_exactly_on_rows_holding_an_uncovered_feature(self, concave, seed):
        rng = np.random.default_rng(seed)
        n, d = 80, 20
        X = rand_features(rng, n, d)
        X[rng.random(size=(n, d)) < 0.8] = 0.0
        w = weights_with_zero(rng, d)
        steps = []

        class Checked(FeatureBasedObjective):
            def upper_bounds(self, state):
                bounds = super().upper_bounds(state)
                # sqrt's slope is infinite where F_d = 0 and w_d > 0; log1p's never is.
                steep = (state.feature_sum == 0.0) & (w > 0.0) & (concave == "sqrt")
                assert (np.isinf(bounds) == (X[:, steep] > 0.0).any(axis=1)).all()
                steps.append(steep.any())
                return bounds

        lazy = hybrid_maximize(Checked(X, concave, weights=w), 30)
        naive = naive_greedy(FeatureBasedObjective(X, concave, weights=w), 30)
        assert lazy.ranking == naive.ranking
        assert np.array(lazy.gains).tobytes() == np.array(naive.gains).tobytes()
        assert len(steps) == 29 and any(steps) == (concave == "sqrt")

    def test_other_objectives_have_no_bounds(self):
        for obj in (FacilityLocationObjective(S3), FunctionObjective(lambda X: 0.0, 3)):
            assert obj.upper_bounds(obj.new_state()) is None


class TestFunctionObjective:
    def test_modular_cardinality_function(self):
        obj = FunctionObjective(lambda X: float(len(X)), 5)
        state = obj.new_state()
        for v in range(3):
            assert obj.gain(state, v) == 1.0
        obj.update(state, 2)
        assert state.selected == [2]
        assert obj.gain(state, 0) == 1.0

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(InputError, match="n_examples must be an integer"):
            FunctionObjective(lambda X: float(len(X)), n)

    def test_negative_size_rejected_at_construction(self):
        with pytest.raises(InputError, match="n_examples must be at least 0, got -1"):
            FunctionObjective(lambda X: float(len(X)), -1)

    def test_numpy_integer_size_and_empty_ground_set(self):
        assert FunctionObjective(lambda X: 0.0, np.int64(4)).n_examples == 4
        assert type(FunctionObjective(lambda X: 0.0, np.int64(4)).n_examples) is int
        assert FunctionObjective(lambda X: 0.0, 0).n_examples == 0

    def test_matches_native_facility_location(self):
        obj_fn = FunctionObjective(lambda X: facility_location_eval(S3, X), 3)
        obj_native = FacilityLocationObjective(S3)
        state_fn, state_native = obj_fn.new_state(), obj_native.new_state()
        for v in range(3):
            assert obj_fn.gain(state_fn, v) == pytest.approx(
                obj_native.gain(state_native, v), rel=1e-12
            )
        obj_fn.update(state_fn, 1)
        obj_native.update(state_native, 1)
        assert obj_fn.gain(state_fn, 0) == pytest.approx(
            obj_native.gain(state_native, 0), rel=1e-12
        )


class TestTelescoping:
    def test_facility_location_gains_sum_to_value(self):
        rng = np.random.default_rng(31)
        S = SimilarityMatrix(rand_similarity(rng, 30))
        obj = FacilityLocationObjective(S)
        state = obj.new_state()
        total = 0.0
        for v in rng.permutation(30)[:12]:
            total += obj.gain(state, int(v))
            obj.update(state, int(v))
        direct = facility_location_eval(S, state.selected)
        assert total == pytest.approx(direct, rel=1e-9)

    def test_feature_based_gains_sum_to_value(self):
        rng = np.random.default_rng(37)
        F = FeatureMatrix(rand_features(rng, 30, 8))
        obj = FeatureBasedObjective(F, "log")
        state = obj.new_state()
        total = 0.0
        for v in rng.permutation(30)[:12]:
            total += obj.gain(state, int(v))
            obj.update(state, int(v))
        direct = feature_based_eval(F, None, "log", state.selected)
        assert total == pytest.approx(direct, rel=1e-9)


def _nested_gains(obj, rng, n):
    """Gains of one candidate against nested selections X within Z."""
    perm = rng.permutation(n)
    z_size = int(rng.integers(1, n))
    x_size = int(rng.integers(0, z_size + 1))
    v = int(perm[z_size])
    state_x, state_z = obj.new_state(), obj.new_state()
    for i in perm[:x_size]:
        obj.update(state_x, int(i))
    for i in perm[:z_size]:
        obj.update(state_z, int(i))
    return obj.gain(state_x, v), obj.gain(state_z, v)


class TestDiminishingReturns:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_facility_location(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        obj = FacilityLocationObjective(rand_similarity(rng, n))
        gain_small, gain_large = _nested_gains(obj, rng, n)
        assert gain_small >= gain_large - 1e-9
        assert gain_small >= -1e-12 and gain_large >= -1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_feature_based(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        concave = "sqrt" if seed % 2 else "log"
        obj = FeatureBasedObjective(rand_features(rng, n, 6), concave)
        gain_small, gain_large = _nested_gains(obj, rng, n)
        assert gain_small >= gain_large - 1e-9
        assert gain_small >= -1e-12 and gain_large >= -1e-12


class TestNonFiniteInputs:
    def test_inf_feature_is_rejected_not_turned_into_nan_gains(self):
        with pytest.raises(ConstraintViolationError, match="non-finite"):
            FeatureBasedObjective([[np.inf, 1.0], [1.0, 1.0]], "sqrt")

    def test_inf_weight_is_rejected(self):
        with pytest.raises(ConstraintViolationError) as exc:
            FeatureBasedObjective(F2, "sqrt", weights=[1.0, np.inf])
        assert exc.value.position == (0, 1)
