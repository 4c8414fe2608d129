"""From-scratch evaluators, brute force and the approximation-ratio check."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from subsel import (
    ApproximationFailure,
    EnumerationBoundError,
    FacilityLocationObjective,
    FeatureBasedObjective,
    FeatureMatrix,
    FunctionObjective,
    InputError,
    SimilarityMatrix,
    facility_location_eval,
    feature_based_eval,
    sparse_from_triples,
)
from subsel import objectives
from subsel.oracle import (
    GREEDY_GUARANTEE,
    OracleReport,
    brute_force_max,
    check_ratio,
    naive_greedy,
)
from instances import BAD_INITIAL, rand_features, rand_similarity, sparse_and_dense

S3 = SimilarityMatrix([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
F2 = FeatureMatrix([[4.0, 9.0], [1.0, 0.0]])


class TestDirectEvaluators:
    def test_facility_location_hand_values(self):
        assert facility_location_eval(S3, []) == 0.0
        assert facility_location_eval(S3, [0]) == pytest.approx(1.7, rel=1e-12)
        assert facility_location_eval(S3, [0, 1, 2]) == pytest.approx(3.0, rel=1e-12)

    def test_facility_location_ignores_duplicates(self):
        assert facility_location_eval(S3, [1, 1]) == facility_location_eval(S3, [1])

    def test_facility_location_out_of_range(self):
        for bad in ([5], [-1], [0, 3]):
            with pytest.raises(IndexError):
                facility_location_eval(S3, bad)

    def test_facility_location_sparse_storage(self):
        rng = np.random.default_rng(101)
        dense, sparse = sparse_and_dense(rng, 20)
        for X in ([], [0, 7, 13], [19, 3, 3, 0], range(20)):
            assert facility_location_eval(sparse, X) == pytest.approx(
                facility_location_eval(dense, X), rel=1e-12
            )
        with pytest.raises(IndexError):
            facility_location_eval(sparse, [20])

    def test_facility_location_takes_what_the_objective_takes(self):
        dense = S3.to_dense()
        csr = SimpleNamespace(indptr=[0, 3, 6, 9], indices=[0, 1, 2] * 3,
                              data=dense.ravel(), shape=(3, 3))
        for S in (S3, dense, dense.tolist(), csr):
            assert facility_location_eval(S, [0]) == pytest.approx(1.7, rel=1e-12)
        assert facility_location_eval(np.eye(3), [0]) == 1.0

    def test_feature_based_hand_values(self):
        assert feature_based_eval(F2, None, "sqrt", []) == 0.0
        assert feature_based_eval(F2, None, "sqrt", [0]) == pytest.approx(5.0, rel=1e-12)
        assert feature_based_eval(F2, None, "sqrt", [0, 1, 1]) == pytest.approx(
            math.sqrt(5.0) + 3.0, rel=1e-12
        )
        with pytest.raises(IndexError):
            feature_based_eval(F2, None, "sqrt", [2])

    def test_feature_based_log_and_weights(self):
        F = FeatureMatrix([[math.e - 1.0, 3.0]])
        value = feature_based_eval(F, [2.0, 0.0], "log", [0])
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_feature_based_accepts_callable_concave(self):
        value = feature_based_eval(F2, None, lambda t: t, [0])
        assert value == pytest.approx(13.0, rel=1e-12)

    def test_feature_based_unknown_concave(self):
        for concave in ("cube", ["sqrt"]):  # ["sqrt"] is unhashable
            with pytest.raises(InputError, match=r"^unknown concave function .*expected one of \['log', 'sqrt'\]"):
                feature_based_eval(F2, None, concave, [0])

    def test_non_integer_indices_and_bad_weights_rejected(self):
        for bad in BAD_INITIAL:
            with pytest.raises(InputError, match="^indices must be integers"):
                facility_location_eval(S3, bad)
            with pytest.raises(InputError, match="^indices must be integers"):
                feature_based_eval(F2, None, "sqrt", bad)
        for weights in (2.0, [1.0], [1.0, -1.0], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(InputError, match="^weights must be"):
                feature_based_eval(F2, weights, "sqrt", [0])
        assert facility_location_eval(S3, np.array([1, 0], dtype=np.uint8)) == pytest.approx(
            2.3, rel=1e-12
        )

    def test_agrees_with_incremental_evaluators(self):
        """Gains summed over the objectives' gain/update path equal the value."""
        rng = np.random.default_rng(103)
        dense, sparse = sparse_and_dense(rng, 15, zero_fraction=0.5)
        F = FeatureMatrix(rand_features(rng, 15, 4))
        weights = rng.uniform(0.0, 2.0, size=4)
        cases = [
            (FacilityLocationObjective(dense), lambda X: facility_location_eval(dense, X)),
            (FacilityLocationObjective(sparse), lambda X: facility_location_eval(sparse, X)),
            (FeatureBasedObjective(F), lambda X: feature_based_eval(F, None, "sqrt", X)),
            (
                FeatureBasedObjective(F, "log", weights),
                lambda X: feature_based_eval(F, weights, "log", X),
            ),
        ]
        for _ in range(10):
            X = [int(i) for i in rng.permutation(15)[: rng.integers(1, 8)]]
            for obj, value in cases:
                state, total = obj.new_state(), 0.0
                for v in X:
                    total += obj.gain(state, v)
                    obj.update(state, v)
                assert total == pytest.approx(value(X), rel=1e-9)


class TestOracleIndependence:
    """The evaluators reach none of the incremental machinery they check."""

    def test_evaluators_run_with_gain_update_and_saturator_disabled(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called into subsel.objectives")

        for cls in (FacilityLocationObjective, FeatureBasedObjective):
            monkeypatch.setattr(cls, "gain", refuse)
            monkeypatch.setattr(cls, "update", refuse)
        monkeypatch.setattr(objectives, "_SATURATORS", {})

        sparse = sparse_from_triples(
            3, [(i, j, float(S3.to_dense()[i, j])) for i in range(3) for j in range(3)]
        )
        for S in (S3, sparse):
            assert facility_location_eval(S, [0, 1]) == pytest.approx(2.3, rel=1e-12)
            assert facility_location_eval(S, [2]) == pytest.approx(1.5, rel=1e-12)
        F = FeatureMatrix([[1.0, 2.0], [0.0, 1.0]])
        # log1p masses (1, 3) weighted (2, 0.5): 2 ln 2 + 0.5 ln 4 = 3 ln 2.
        assert feature_based_eval(F, [2.0, 0.5], "log", [0, 1]) == pytest.approx(
            3.0 * math.log(2.0), rel=1e-12
        )
        assert feature_based_eval(F, None, "sqrt", [0]) == pytest.approx(
            1.0 + math.sqrt(2.0), rel=1e-12
        )


def _modular(costs):
    return FunctionObjective(lambda X: float(sum(costs[i] for i in X)), len(costs))


class TestNaiveGreedy:
    def test_modular_ranking_gains_and_evaluations(self):
        result = naive_greedy(_modular([3.0, 1.0, 2.0]), 2)
        assert (result.ranking, result.gains, result.evaluations) == ((0, 2), (3.0, 2.0), 3 + 2)

    def test_ties_break_to_the_smallest_index(self):
        assert naive_greedy(_modular([1.0, 2.0, 2.0, 2.0]), 3).ranking == (1, 2, 3)

    def test_initial_indices_are_replayed_first(self):
        result = naive_greedy(_modular([3.0, 1.0, 2.0]), 2, initial=[1])
        assert (result.ranking, result.gains, result.evaluations) == ((1, 0), (1.0, 3.0), 1 + 2)

    def test_k_capped_at_n(self):
        assert naive_greedy(FacilityLocationObjective(S3), 10).ranking == (1, 2, 0)

    def test_runs_without_the_optimizer_loop(self, monkeypatch):
        import subsel.optimizer

        def refuse(*args, **kwargs):
            raise AssertionError("the reference greedy used the optimizer's loop")

        monkeypatch.setattr(subsel.optimizer, "_gain", refuse)
        monkeypatch.setattr(subsel.optimizer, "_lazy_pick", refuse)
        result = naive_greedy(FacilityLocationObjective(S3), 2)
        assert result.ranking == (1, 2)
        assert sum(result.gains) == pytest.approx(facility_location_eval(S3, [1, 2]), rel=1e-12)


class TestBruteForce:
    def test_modular_top_two(self):
        costs = [3.0, 1.0, 2.0]
        value, subset = brute_force_max(
            lambda X: sum(costs[i] for i in X), n=3, k=2
        )
        assert value == 5.0
        assert subset == (0, 2)

    def test_k_equal_n_returns_everything(self):
        value, subset = brute_force_max(lambda X: facility_location_eval(S3, X), 3, 3)
        assert subset == (0, 1, 2)
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_facility_location_pairs(self):
        # Pair values: {0,1} -> 2.3, {0,2} -> 2.5, {1,2} -> 2.5. The optimum is
        # tied and the lexicographically smaller pair wins.
        value, subset = brute_force_max(lambda X: facility_location_eval(S3, X), 3, 2)
        assert value == pytest.approx(2.5, rel=1e-12)
        assert subset == (0, 2)

    def test_tie_goes_to_lexicographically_smallest(self):
        value, subset = brute_force_max(lambda X: float(len(X)), n=4, k=2)
        assert value == 2.0
        assert subset == (0, 1)

    def test_k_capped_at_n(self):
        value, subset = brute_force_max(lambda X: float(len(X)), n=2, k=5)
        assert subset == (0, 1)

    def test_refuses_oversized_enumerations(self):
        with pytest.raises(EnumerationBoundError):
            brute_force_max(lambda X: 0.0, n=100, k=50)
        with pytest.raises(EnumerationBoundError):
            brute_force_max(lambda X: 0.0, n=10, k=3, limit=10)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(InputError):
            brute_force_max(lambda X: 0.0, n=0, k=1)
        with pytest.raises(InputError):
            brute_force_max(lambda X: 0.0, n=3, k=0)


class TestGuaranteeConstant:
    def test_value(self):
        assert GREEDY_GUARANTEE == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        assert 0.632 < GREEDY_GUARANTEE < 0.6322


class TestOracleReport:
    def test_ratio_must_be_a_fraction(self):
        with pytest.raises(InputError):
            OracleReport(1.0, (0,), 1.3, 1.3)
        with pytest.raises(InputError):
            OracleReport(1.0, (0,), -0.2, -0.2)

    def test_fields(self):
        report = OracleReport(2.0, (0, 1), 1.5, 0.75)
        assert report.opt_set == (0, 1)
        assert report.ratio == 0.75


class TestCheckRatio:
    def test_modular_objective_is_solved_exactly(self):
        costs = [5.0, 1.0, 3.0, 2.0]
        obj = FunctionObjective(lambda X: float(sum(costs[i] for i in X)), 4)
        report = check_ratio(obj, lambda X: float(sum(costs[i] for i in X)), k=2)
        assert report.ratio == 1.0
        assert report.opt_set == (0, 2)

    def test_random_feature_based_instances_meet_the_guarantee(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            F = FeatureMatrix(rand_features(rng, 10, 4))
            report = check_ratio(
                FeatureBasedObjective(F), lambda X, F=F: feature_based_eval(F, None, "sqrt", X), k=3
            )
            assert report.ratio >= GREEDY_GUARANTEE - 1e-12

    def test_random_facility_location_instances_meet_the_guarantee(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            S = SimilarityMatrix(rand_similarity(rng, 10))
            report = check_ratio(
                FacilityLocationObjective(S),
                lambda X, S=S: facility_location_eval(S, X),
                k=3,
            )
            assert report.ratio >= GREEDY_GUARANTEE - 1e-12

    def test_failure_carries_both_subsets(self):
        # A monotone but non-submodular function on which greedy lands at
        # 1.0/1.8, well under the guarantee: greedy grabs 0, then ties give
        # it 1; the true optimum is {1, 2}.
        values = {
            (): 0.0,
            (0,): 1.0,
            (1,): 0.9,
            (2,): 0.9,
            (0, 1): 1.0,
            (0, 2): 1.0,
            (1, 2): 1.8,
            (0, 1, 2): 1.8,
        }
        f = lambda X: values[tuple(sorted(X))]
        obj = FunctionObjective(f, 3)
        with pytest.raises(ApproximationFailure) as exc:
            check_ratio(obj, f, k=2)
        assert exc.value.greedy_set == (0, 1)
        assert exc.value.opt_set == (1, 2)

    def test_greedy_value_is_scored_by_the_direct_evaluator(self):
        rng = np.random.default_rng(113)
        S = SimilarityMatrix(rand_similarity(rng, 9))
        report = check_ratio(
            FacilityLocationObjective(S), lambda X: facility_location_eval(S, X), k=3
        )
        assert 0.0 <= report.ratio <= 1.0 + 1e-12
        assert report.greedy_value <= report.opt_value + 1e-12
