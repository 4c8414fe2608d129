"""Greedy strategies: equivalence, tie-breaking, evaluation counts, hybrid knobs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import (
    CandidateQueue,
    FacilityLocationObjective,
    FeatureBasedObjective,
    FunctionObjective,
    InputError,
    SelectionResult,
    SimilarityMatrix,
    facility_location_eval,
    hybrid_maximize,
    lazy_greedy_step,
    naive_greedy_step,
    sparse_from_triples,
)
from instances import BAD_K, BAD_NAIVE_ROUNDS, rand_features, rand_similarity

S3 = SimilarityMatrix.from_dense([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def modular_objective(costs):
    return FunctionObjective(lambda X: float(sum(costs[i] for i in X)), len(costs))


class TestCandidateQueue:
    def test_orders_by_bound_then_index(self):
        q = CandidateQueue()
        q.push(1.0, 5, 0)
        q.push(2.0, 3, 0)
        q.push(1.0, 2, 1)
        assert q.pop() == (2.0, 3, 0)
        assert q.pop() == (1.0, 2, 1)  # bound tie goes to the smaller index
        assert q.pop() == (1.0, 5, 0)

    def test_len_and_truthiness(self):
        q = CandidateQueue()
        assert len(q) == 0 and not q
        q.push(0.5, 0, 0)
        assert len(q) == 1 and q


class TestSelectionResult:
    def test_len_is_ranking_length(self):
        r = SelectionResult((3, 1), (2.0, 1.0), 7)
        assert len(r) == 2

    def test_frozen(self):
        r = SelectionResult((0,), (1.0,), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.evaluations = 9


class TestNaiveStep:
    def test_modular_argmax(self):
        obj = modular_objective([3.0, 1.0, 2.0])
        state = obj.new_state()
        chosen, gain, sweep = naive_greedy_step(obj, state, [0, 1, 2])
        assert (chosen, gain) == (0, 3.0)
        assert sweep == [3.0, 1.0, 2.0]
        assert state.selected == [0]

    def test_tie_breaks_to_smallest_index(self):
        obj = modular_objective([2.0, 2.0, 2.0])
        chosen, gain, _ = naive_greedy_step(obj, obj.new_state(), [0, 1, 2])
        assert chosen == 0

    def test_facility_location_first_choice(self):
        # Single-element values are 1.7, 1.8, 1.5; the argmax is index 1.
        obj = FacilityLocationObjective(S3)
        chosen, gain, _ = naive_greedy_step(obj, obj.new_state(), [0, 1, 2])
        assert chosen == 1
        assert gain == pytest.approx(1.8, rel=1e-12)

    def test_needs_candidates(self):
        obj = modular_objective([1.0])
        with pytest.raises(InputError):
            naive_greedy_step(obj, obj.new_state(), [])


class TestLazyStep:
    def test_first_step_matches_naive(self):
        obj = FacilityLocationObjective(S3)
        state = obj.new_state()
        q = CandidateQueue()
        for v in range(3):
            q.push(np.inf, v, -1)
        chosen, gain, spent = lazy_greedy_step(obj, state, q, 0)
        assert chosen == 1
        assert gain == pytest.approx(1.8, rel=1e-12)
        assert spent == 3  # every seed bound was stale

    def test_needs_nonempty_queue(self):
        obj = modular_objective([1.0])
        with pytest.raises(InputError):
            lazy_greedy_step(obj, obj.new_state(), CandidateQueue(), 0)

    def test_bounds_stay_above_true_gains(self):
        rng = np.random.default_rng(13)
        obj = FacilityLocationObjective(rand_similarity(rng, 30))
        state = obj.new_state()
        q = CandidateQueue()
        for v in range(30):
            q.push(np.inf, v, -1)
        for it in range(10):
            lazy_greedy_step(obj, state, q, it)
            for neg_bound, index, _ in q._heap:
                assert -neg_bound >= obj.gain(state, index) - 1e-12


class TestModularRuns:
    def test_full_run_ranking_and_evaluation_count(self):
        # After the first full refresh (n evaluations), a modular objective
        # needs exactly one recomputation per further step: n + (k-1) total.
        obj = modular_objective([3.0, 1.0, 2.0])
        result = hybrid_maximize(obj, k=2)
        assert result.ranking == (0, 2)
        assert result.gains == (3.0, 2.0)
        assert result.evaluations == 3 + 1

    def test_all_tied_selects_ascending_indices(self):
        obj = modular_objective([1.0] * 5)
        result = hybrid_maximize(obj, k=3)
        assert result.ranking == (0, 1, 2)
        assert result.gains == (1.0, 1.0, 1.0)


def _lazy_and_naive(objective_factory, n, k):
    lazy = hybrid_maximize(objective_factory(), k)
    naive = hybrid_maximize(objective_factory(), k, naive_rounds=k)
    return lazy, naive


class TestLazyNaiveEquivalence:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_facility_location(self, seed):
        rng = np.random.default_rng(seed)
        S = rand_similarity(rng, 60)
        lazy, naive = _lazy_and_naive(lambda: FacilityLocationObjective(S), 60, 12)
        assert lazy.ranking == naive.ranking
        assert lazy.gains == naive.gains  # same arithmetic path, so bit-equal

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_feature_based(self, seed):
        rng = np.random.default_rng(seed)
        F = rand_features(rng, 60, 10)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 60, 12)
        assert lazy.ranking == naive.ranking
        assert lazy.gains == naive.gains


class TestEvaluationCounts:
    def test_naive_count_is_a_closed_form(self):
        n, k = 40, 7
        rng = np.random.default_rng(41)
        obj = FeatureBasedObjective(rand_features(rng, n, 5))
        naive = hybrid_maximize(obj, k, naive_rounds=k)
        assert naive.evaluations == sum(n - i for i in range(k))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lazy_never_exceeds_naive(self, seed):
        rng = np.random.default_rng(seed)
        F = rand_features(rng, 50, 8)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 50, 10)
        assert lazy.evaluations <= naive.evaluations

    def test_lazy_is_strictly_cheaper_on_non_uniform_gains(self):
        rng = np.random.default_rng(43)
        F = rand_features(rng, 100, 8)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 100, 10)
        assert lazy.evaluations < naive.evaluations


class TestHybridKnobs:
    def test_rankings_invariant_across_rounds(self):
        rng = np.random.default_rng(47)
        S = rand_similarity(rng, 50)
        F = rand_features(rng, 50, 8)
        for factory in (
            lambda: FacilityLocationObjective(S),
            lambda: FeatureBasedObjective(F),
        ):
            results = [
                hybrid_maximize(factory(), 10, naive_rounds=rounds)
                for rounds in (0, 1, 2, 5, 10)
            ]
            assert len({r.ranking for r in results}) == 1
            assert len({r.gains for r in results}) == 1

    def test_partial_rounds_seed_the_lazy_phase(self):
        rng = np.random.default_rng(53)
        obj = FeatureBasedObjective(rand_features(rng, 30, 5))
        mixed = hybrid_maximize(obj, 8, naive_rounds=3)
        pure = hybrid_maximize(obj, 8)
        assert mixed.ranking == pure.ranking


def _tied_rows(rng, n, width, prototypes=4, high=3):
    """``n`` rows of small integers drawn from a few prototype rows, so rows
    repeat and many gains tie exactly."""
    protos = rng.integers(0, high + 1, size=(prototypes, width))
    return protos[rng.integers(0, prototypes, size=n)].astype(np.float64)


def _one_answer(results):
    """Every result has the same ranking and bit-identical gains."""
    return (
        len({r.ranking for r in results}) == 1
        and len({np.array(r.gains).tobytes() for r in results}) == 1
    )


class TestTieHeavyInvariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_naive_rounds_keep_feature_based_answer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        F = _tied_rows(rng, n, 4)
        results = [
            hybrid_maximize(FeatureBasedObjective(F), k, naive_rounds=rounds)
            for rounds in (0, 1, k)
        ]
        assert _one_answer(results)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_naive_rounds_and_storage_keep_facility_location_answer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        S = _tied_rows(rng, n, n)
        dense = SimilarityMatrix.from_dense(S)
        sparse = sparse_from_triples(
            n, [(int(i), int(j), float(S[i, j])) for i, j in np.argwhere(S != 0.0)]
        )
        results = [
            hybrid_maximize(FacilityLocationObjective(matrix), k, naive_rounds=rounds)
            for matrix in (dense, sparse)
            for rounds in (0, 1, k)
        ]
        assert _one_answer(results)


def _overflowing():
    # Selecting 0 brings the feature sum to 1e308; adding 1 then overflows
    # it, so the gain of 1 is sqrt(inf) - 1e154 = inf.
    return FeatureBasedObjective([[1e308], [1e308], [1.0]])


def _nan_once_one_is_selected():
    return FunctionObjective(lambda X: math.nan if 1 in X else float(len(X)), 3)


class TestNonFiniteGains:
    """A NaN or infinite gain stops the run, naming the candidate and the step."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "factory,kwargs,message",
        [
            (_overflowing, {}, "candidate 1 at step 1 is inf"),
            (_overflowing, {"naive_rounds": 3}, "candidate 1 at step 1 is inf"),
            (_overflowing, {"initial": [0, 1]}, "candidate 1 at step 1 is inf"),
            (_nan_once_one_is_selected, {}, "candidate 1 at step 0 is nan"),
            (_nan_once_one_is_selected, {"naive_rounds": 3}, "candidate 1 at step 0 is nan"),
            (_nan_once_one_is_selected, {"initial": [0, 1]}, "candidate 1 at step 1 is nan"),
        ],
        ids=["inf-lazy", "inf-naive", "inf-initial", "nan-lazy", "nan-naive", "nan-initial"],
    )
    def test_run_refuses_non_finite_gain(self, factory, kwargs, message):
        with pytest.raises(InputError, match=message):
            hybrid_maximize(factory(), 3, **kwargs)


class TestInitialSelection:
    def test_full_ground_set_replays_in_user_order(self):
        obj = FacilityLocationObjective(S3)
        result = hybrid_maximize(obj, k=3, initial=[2, 0, 1])
        assert result.ranking == (2, 0, 1)
        assert sum(result.gains) == pytest.approx(
            facility_location_eval(S3, [0, 1, 2]), rel=1e-9
        )

    def test_prefix_is_respected_and_gain_measured_at_application(self):
        obj = FacilityLocationObjective(S3)
        result = hybrid_maximize(obj, k=2, initial=[2])
        assert result.ranking[0] == 2
        assert result.gains[0] == pytest.approx(1.5, rel=1e-12)

    def test_initial_counts_as_evaluations(self):
        obj = modular_objective([3.0, 1.0, 2.0])
        result = hybrid_maximize(obj, k=2, initial=[1])
        assert result.evaluations >= 1

    def test_greedy_tail_gains_are_non_increasing(self):
        rng = np.random.default_rng(59)
        obj = FeatureBasedObjective(rand_features(rng, 40, 6))
        result = hybrid_maximize(obj, k=12, initial=[5, 3])
        tail = result.gains[2:]
        for a, b in zip(tail, tail[1:]):
            assert a >= b - 1e-9

    def test_duplicate_initial_rejected(self):
        obj = modular_objective([1.0, 2.0])
        with pytest.raises(InputError):
            hybrid_maximize(obj, k=2, initial=[0, 0])

    def test_out_of_range_initial_rejected(self):
        obj = modular_objective([1.0, 2.0])
        with pytest.raises(IndexError):
            hybrid_maximize(obj, k=2, initial=[2])

    def test_oversized_initial_rejected(self):
        obj = modular_objective([1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            hybrid_maximize(obj, k=2, initial=[0, 1, 2])


class TestBudgetEdges:
    def test_k_larger_than_n_selects_everything(self):
        obj = FacilityLocationObjective(S3)
        result = hybrid_maximize(obj, k=10)
        assert len(result) == 3
        assert sorted(result.ranking) == [0, 1, 2]

    def test_k_must_be_positive(self):
        obj = modular_objective([1.0])
        for k in BAD_K:
            with pytest.raises(InputError, match="^k must"):
                hybrid_maximize(obj, k=k)
        assert hybrid_maximize(obj, k=np.int64(3)).ranking == (0,)

    def test_knob_validation(self):
        obj = modular_objective([1.0, 2.0])
        for rounds in BAD_NAIVE_ROUNDS:
            with pytest.raises(InputError, match="^naive_rounds must"):
                hybrid_maximize(obj, k=1, naive_rounds=rounds)
        assert hybrid_maximize(obj, k=2, naive_rounds=np.int64(1)).ranking == (1, 0)


class TestResultShape:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_gains_non_increasing_without_initial(self, seed):
        rng = np.random.default_rng(seed)
        obj = FacilityLocationObjective(rand_similarity(rng, 40))
        result = hybrid_maximize(obj, k=15)
        assert len(set(result.ranking)) == len(result.ranking)
        for a, b in zip(result.gains, result.gains[1:]):
            assert a >= b - 1e-9

    def test_deterministic_across_repeat_runs(self):
        rng = np.random.default_rng(61)
        F = rand_features(rng, 50, 6)
        first = hybrid_maximize(FeatureBasedObjective(F), 10, naive_rounds=2)
        second = hybrid_maximize(FeatureBasedObjective(F), 10, naive_rounds=2)
        assert first == second


class TestProgressReporting:
    def test_one_record_per_selection_with_telescoping_objective(self):
        rng = np.random.default_rng(67)
        obj = FeatureBasedObjective(rand_features(rng, 30, 5))
        records = []
        result = hybrid_maximize(obj, 8, naive_rounds=2, progress=records.append)
        assert [r.step for r in records] == list(range(8))
        assert [r.index for r in records] == list(result.ranking)
        assert [r.gain for r in records] == list(result.gains)
        running = 0.0
        for r in records:
            running += r.gain
            assert r.objective == running
        counts = [r.evaluations for r in records]
        assert counts == sorted(counts)
        assert counts[-1] == result.evaluations
