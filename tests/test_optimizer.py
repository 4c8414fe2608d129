"""Greedy strategies: equivalence, tie-breaking, evaluation counts, hybrid knobs."""

import dataclasses
import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsel import (
    FacilityLocationObjective,
    FacilityLocationSelector,
    FeatureBasedObjective,
    FeatureBasedSelector,
    FunctionObjective,
    InputError,
    ProgressRecord,
    SelectionResult,
    SimilarityMatrix,
    facility_location_eval,
    hybrid_maximize,
    sparse_from_triples,
)
from subsel.oracle import naive_greedy
from instances import (
    BAD_INITIAL,
    BAD_K,
    BAD_NAIVE_ROUNDS,
    rand_features,
    rand_similarity,
    sparse_and_dense,
    weights_with_zero,
    wide_features,
)

S3 = SimilarityMatrix([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])


def modular_objective(costs):
    return FunctionObjective(lambda X: float(sum(costs[i] for i in X)), len(costs))


class TestSelectionResult:
    def test_len_is_ranking_length(self):
        r = SelectionResult((3, 1), (2.0, 1.0), 7)
        assert len(r) == 2

    def test_frozen(self):
        r = SelectionResult((0,), (1.0,), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.evaluations = 9


def _heap_lazy(obj, k):
    """Lazy greedy written out with ``heapq``, started from +inf bounds.

    It shares no code with the optimizer's loop. Returns the ranking, the
    gains and the evaluations of each step, and asserts after every step
    that each remaining bound is at or above its candidate's true gain.
    """
    state = obj.new_state()
    heap = [(-math.inf, v, -1) for v in range(obj.n_examples)]
    gains, spent = [], []
    for step in range(k):
        evals = 0
        while heap[0][2] != step:
            v = heap[0][1]
            heapq.heapreplace(heap, (-obj.gain(state, v), v, step))
            evals += 1
        neg, v, _ = heapq.heappop(heap)
        obj.update(state, v)
        gains.append(-neg)
        spent.append(evals)
        for neg_bound, index, _ in heap:
            assert -neg_bound >= obj.gain(state, index) - 1e-12
    return tuple(state.selected), tuple(gains), spent


class TestNaiveStep:
    """One sweep step: every candidate is evaluated and the argmax is taken."""

    def test_modular_argmax(self):
        result = hybrid_maximize(modular_objective([3.0, 1.0, 2.0]), 1, naive_rounds=1)
        assert (result.ranking, result.gains, result.evaluations) == ((0,), (3.0,), 3)

    def test_tie_breaks_to_smallest_index(self):
        result = hybrid_maximize(modular_objective([2.0, 2.0, 2.0]), 1, naive_rounds=1)
        assert result.ranking == (0,)

    def test_facility_location_first_choice(self):
        # Single-element values are 1.7, 1.8, 1.5; the argmax is index 1.
        result = hybrid_maximize(FacilityLocationObjective(S3), 1, naive_rounds=1)
        assert result.ranking == (1,)
        assert result.gains[0] == pytest.approx(1.8, rel=1e-12)


class TestLazyStep:
    """Lazy greedy from +inf bounds, as a check on the optimizer's lazy queue."""

    def test_first_step_matches_naive(self):
        ranking, gains, spent = _heap_lazy(FacilityLocationObjective(S3), 1)
        assert ranking == (1,)
        assert gains[0] == pytest.approx(1.8, rel=1e-12)
        assert spent == [3]  # every seed bound was stale

    def test_bounds_stay_above_true_gains(self):
        rng = np.random.default_rng(13)
        obj = FacilityLocationObjective(rand_similarity(rng, 30))
        ranking, gains, _ = _heap_lazy(obj, 10)  # asserts the bounds at every step
        result = hybrid_maximize(obj, 10)
        assert (ranking, gains) == (result.ranking, result.gains)


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


def _lazy_and_naive(objective_factory, k):
    """The optimizer's run and ``oracle.naive_greedy``'s, which has no queue."""
    return hybrid_maximize(objective_factory(), k), naive_greedy(objective_factory(), k)


def _one_answer(results):
    """Every result has the same ranking and bit-identical gains."""
    return (
        len({r.ranking for r in results}) == 1
        and len({np.array(r.gains).tobytes() for r in results}) == 1
    )


class TestLazyNaiveEquivalence:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_facility_location(self, seed):
        rng = np.random.default_rng(seed)
        S = rand_similarity(rng, 60)
        lazy, naive = _lazy_and_naive(lambda: FacilityLocationObjective(S), 12)
        assert _one_answer([lazy, naive])  # same arithmetic path, so bit-equal

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_feature_based(self, seed):
        rng = np.random.default_rng(seed)
        F = rand_features(rng, 60, 10)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 12)
        assert _one_answer([lazy, naive])


class TestEvaluationCounts:
    def test_naive_count_is_a_closed_form(self):
        # Naive greedy's count is a closed form; the optimizer spends a sweep
        # on its first greedy step and at most one sweep on each later one.
        n, k = 40, 7
        rng = np.random.default_rng(41)
        obj = FeatureBasedObjective(rand_features(rng, n, 5))
        naive = naive_greedy(obj, k)
        assert naive.evaluations == sum(n - i for i in range(k))
        # Each initial index costs one evaluation; the sweeps start after it.
        initial = [4, 31]
        m = len(initial)
        seeded = naive_greedy(obj, k, initial)
        assert seeded.evaluations == m + sum(n - m - i for i in range(k - m))
        for reference, first in ((naive, []), (seeded, initial)):
            records = []
            result = hybrid_maximize(obj, k, initial=first, progress=records.append)
            assert _one_answer([result, reference])
            assert records[len(first)].evaluations == n  # the replays, then a sweep of the rest
            assert result.evaluations < reference.evaluations

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lazy_never_exceeds_naive(self, seed):
        rng = np.random.default_rng(seed)
        F = rand_features(rng, 50, 8)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 10)
        assert lazy.evaluations <= naive.evaluations

    def test_lazy_is_strictly_cheaper_on_non_uniform_gains(self):
        rng = np.random.default_rng(43)
        F = rand_features(rng, 100, 8)
        lazy, naive = _lazy_and_naive(lambda: FeatureBasedObjective(F), 10)
        assert _one_answer([lazy, naive])
        assert lazy.evaluations < naive.evaluations


class _UnboundedFeatures(FeatureBasedObjective):
    """The feature-based objective without its gain bounds."""

    def upper_bounds(self, state):
        return None


class _MisshapenBounds(FeatureBasedObjective):
    """The feature-based objective with its gain bounds reshaped."""

    def __init__(self, X, reshape):
        super().__init__(X)
        self.reshape = reshape

    def upper_bounds(self, state):
        return self.reshape(super().upper_bounds(state))


class TestUpperBoundsShape:
    @pytest.mark.parametrize(
        "reshape,shape",
        [(lambda b: np.append(b, 0.0), "(7,)"), (lambda b: b[:, None], "(6, 1)")],
        ids=["n+1", "column"],
    )
    def test_bounds_that_are_not_n_floats_are_refused(self, reshape, shape):
        obj = _MisshapenBounds(rand_features(np.random.default_rng(5), 6, 3), reshape)
        with pytest.raises(InputError, match=re.escape(f"upper_bounds returned shape {shape}; "
                                                       "expected (6,)")):
            hybrid_maximize(obj, 3)
        # The first greedy step, a sweep, never asks for bounds.
        assert len(hybrid_maximize(obj, 1)) == 1
        assert len(hybrid_maximize(obj, 3, initial=[0, 1])) == 3


class _NegInfBounds(FeatureBasedObjective):
    """The feature-based objective with -inf bounds for the candidates ``hidden(state)``."""

    def __init__(self, X, hidden):
        super().__init__(X)
        self.hidden = hidden

    def upper_bounds(self, state):
        caps = super().upper_bounds(state).copy()
        caps[self.hidden(state)] = -np.inf
        return caps


class TestUpperBoundsNegInf:
    """-inf is the queue's mark of a selected candidate; a bound cannot forge it."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [5, 8])
    def test_minus_inf_for_a_remaining_candidate_is_refused(self, seed, k):
        X = rand_features(np.random.default_rng(seed), 8, 4)
        ranking = hybrid_maximize(FeatureBasedObjective(X), 8).ranking
        last = ranking[-1]
        obj = _NegInfBounds(X, lambda state: [last])
        # The first greedy step, a sweep, never asks for bounds: the error
        # names the step after it.
        for initial, step in (([], 1), (list(ranking[:2]), 3)):
            with pytest.raises(InputError, match=re.escape(
                    f"upper_bounds gave -inf for candidate {last} at step {step}, "
                    "which is not selected")):
                hybrid_maximize(obj, k, initial=initial)
        assert hybrid_maximize(obj, 1) == hybrid_maximize(FeatureBasedObjective(X), 1)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [5, 8])
    def test_minus_inf_for_selected_candidates_is_ignored(self, seed, k):
        X = rand_features(np.random.default_rng(seed), 8, 4)
        plain = hybrid_maximize(FeatureBasedObjective(X), k, initial=[seed])
        marked = hybrid_maximize(_NegInfBounds(X, lambda state: state.selected), k,
                                 initial=[seed])
        assert marked == plain


class TestFirstLazyStep:
    """Pure lazy's first step is one naive sweep; the queue is built from it."""

    @staticmethod
    def _objectives():
        rng = np.random.default_rng(53)
        dense, sparse = sparse_and_dense(rng, 40, zero_fraction=0.7)
        F = rand_features(rng, 40, 6)
        return [FeatureBasedObjective(F), _UnboundedFeatures(F),
                FacilityLocationObjective(dense), FacilityLocationObjective(sparse)]

    def test_zero_and_one_naive_rounds_spend_identical_evaluations(self):
        # Without gain bounds the optimizer evaluates exactly what a heap of
        # stale bounds does, step by step; with them, never more.
        for obj in self._objectives():
            runs = []
            for rounds in (0, 1):
                records = []
                result = hybrid_maximize(obj, 12, naive_rounds=rounds, progress=records.append)
                runs.append((result, [r.evaluations for r in records]))
            (lazy, lazy_evals), (one, one_evals) = runs
            assert lazy_evals == one_evals
            assert (lazy.ranking, lazy.gains) == (one.ranking, one.gains)
            ranking, _, spent = _heap_lazy(obj, 12)
            assert ranking == lazy.ranking
            if obj.upper_bounds(obj.new_state()) is None:
                assert list(np.cumsum(spent)) == lazy_evals
            else:
                assert (np.diff(lazy_evals, prepend=0) <= spent).all()
                assert lazy_evals[-1] < sum(spent)


class TestProgressSeconds:
    def test_seconds_since_start_never_decrease(self):
        records = []
        obj = FeatureBasedObjective(rand_features(np.random.default_rng(59), 30, 4))
        hybrid_maximize(obj, 10, naive_rounds=2, initial=[3], progress=records.append)
        seconds = [r.seconds for r in records]
        assert len(seconds) == 10 and seconds[0] >= 0.0
        assert seconds == sorted(seconds)

    def test_seconds_is_the_last_field_and_defaults_to_zero(self):
        record = ProgressRecord(0, 4, 1.5, 1.5, 7)
        assert record.seconds == 0.0 and record._fields[-1] == "seconds"


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


def _every_objective_kind(rng, n):
    """Factories for feature-based selection with both saturators and weights
    that include zero, dense and sparse facility location, and a
    FunctionObjective with no gain bounds."""
    F = rand_features(rng, n, 4)
    w = weights_with_zero(rng, 4)
    dense, sparse = sparse_and_dense(rng, n, zero_fraction=0.5)
    costs = rng.uniform(size=n)
    return {
        "feature-sqrt": lambda: FeatureBasedObjective(F, "sqrt", weights=w),
        "feature-log": lambda: FeatureBasedObjective(F, "log", weights=w),
        "facility-dense": lambda: FacilityLocationObjective(dense),
        "facility-sparse": lambda: FacilityLocationObjective(sparse),
        "function": lambda: FunctionObjective(lambda X: math.sqrt(sum(costs[i] for i in X)), n),
    }


class TestNaiveRoundsInert:
    """``naive_rounds`` is validated but has no effect."""

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["feature-sqrt", "feature-log", "facility-dense",
                            "facility-sparse", "function"]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_setting_repeats_the_run_without_it(self, seed, kind, seeded):
        # Same ranking, gain bytes and evaluations, and the same progress
        # records but for their seconds.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        k = int(rng.integers(1, n + 2))
        factory = _every_objective_kind(rng, n)[kind]
        size = int(rng.integers(1, min(3, k) + 1)) if seeded else 0
        initial = [int(i) for i in rng.choice(n, size=min(size, n), replace=False)]

        def run(rounds):
            records = []
            result = hybrid_maximize(factory(), k, naive_rounds=rounds, initial=initial,
                                     progress=records.append)
            return (result, np.array(result.gains).tobytes(),
                    [r._replace(seconds=0.0) for r in records])

        plain = run(0)
        assert len(plain[2]) == min(k, n)
        for rounds in (1, 2, k, k + 5):
            assert run(rounds) == plain

    @pytest.mark.parametrize("rounds", BAD_NAIVE_ROUNDS)
    def test_bad_values_are_refused_alike_everywhere(self, rounds):
        messages = set()
        for call in (lambda: hybrid_maximize(modular_objective([1.0]), 1, naive_rounds=rounds),
                     lambda: FeatureBasedSelector(1, naive_rounds=rounds),
                     lambda: FacilityLocationSelector(1, naive_rounds=rounds)):
            with pytest.raises(InputError, match="^naive_rounds must") as exc:
                call()
            messages.add(str(exc.value))
        assert len(messages) == 1


def _tied_rows(rng, n, width, prototypes=4, high=3):
    """``n`` rows of small integers drawn from a few prototype rows, so rows
    repeat and many gains tie exactly."""
    protos = rng.integers(0, high + 1, size=(prototypes, width))
    return protos[rng.integers(0, prototypes, size=n)].astype(np.float64)


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
        assert _one_answer([*results, naive_greedy(FeatureBasedObjective(F), k)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_naive_rounds_and_storage_keep_facility_location_answer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        S = _tied_rows(rng, n, n)
        dense = SimilarityMatrix(S)
        sparse = sparse_from_triples(
            n, [(int(i), int(j), float(S[i, j])) for i, j in np.argwhere(S != 0.0)]
        )
        results = [
            hybrid_maximize(FacilityLocationObjective(matrix), k, naive_rounds=rounds)
            for matrix in (dense, sparse)
            for rounds in (0, 1, k)
        ]
        assert _one_answer([*results, naive_greedy(FacilityLocationObjective(dense), k)])


class TestAgainstNaiveReference:
    """The optimizer against ``oracle.naive_greedy``, which has no queue."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tie_heavy_rows_match_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        F = _tied_rows(rng, n, 4)
        S = _tied_rows(rng, n, n)
        dense = SimilarityMatrix(S)
        sparse = sparse_from_triples(
            n, [(int(i), int(j), float(S[i, j])) for i, j in np.argwhere(S != 0.0)]
        )
        # Gain bounds must not change the answer: both saturators, and
        # weights that include zero.
        w = weights_with_zero(rng, 4)
        factories = (
            lambda: FeatureBasedObjective(F),
            lambda: FeatureBasedObjective(F, "sqrt", weights=w),
            lambda: FeatureBasedObjective(F, "log", weights=w),
            lambda: FacilityLocationObjective(dense),
            lambda: FacilityLocationObjective(sparse),
        )
        for factory in factories:
            # No initial, one index, and up to three handing over to a sweep
            # and then lazy steps.
            several = [int(i) for i in rng.choice(n, size=min(3, k), replace=False)]
            for initial in ([], [int(rng.integers(n))], several):
                reference = naive_greedy(factory(), k, initial)
                result = hybrid_maximize(factory(), k, initial=initial)
                assert _one_answer([result, reference])
                assert result.evaluations <= reference.evaluations


@pytest.mark.xfail(strict=True, reason="a gain at rounding level can rise as the selection "
                   "grows, so a stale lazy bound can miss the candidate naive greedy takes")
def test_rounding_level_gains_can_break_lazy_equals_naive():
    # Candidate 19's computed sqrt gain reads 1.2e-10, 0 and 1.2e-10 again at
    # later steps: float gains are not monotone, whatever the exact ones do.
    # A heap of stale bounds misses it at step 12 as well.
    rng = np.random.default_rng(1062)
    n = int(rng.integers(2, 30))
    k = int(rng.integers(1, n + 1))
    W, w = wide_features(rng, n, 5), weights_with_zero(rng, 5)
    reference = naive_greedy(FeatureBasedObjective(W, "sqrt", weights=w), k)
    result = hybrid_maximize(FeatureBasedObjective(W, "sqrt", weights=w), k)
    assert result.ranking == reference.ranking


def _inf_with_0_and_1():
    # Every gain from the empty set is 1, so 0 is picked first; then the
    # gain of 1 is inf - 1 = inf. (Feature sums that overflow are refused
    # by FeatureMatrix before a run starts.)
    return FunctionObjective(lambda X: math.inf if {0, 1} <= set(X) else float(len(X)), 3)


def _nan_once_one_is_selected():
    return FunctionObjective(lambda X: math.nan if 1 in X else float(len(X)), 3)


class TestNonFiniteGains:
    """A NaN or infinite gain stops the run, naming the candidate and the step."""

    @pytest.mark.parametrize(
        "factory,kwargs,message",
        [
            (_inf_with_0_and_1, {}, "candidate 1 at step 1 is inf"),
            (_inf_with_0_and_1, {"naive_rounds": 3}, "candidate 1 at step 1 is inf"),
            (_inf_with_0_and_1, {"initial": [0, 1]}, "candidate 1 at step 1 is inf"),
            (_nan_once_one_is_selected, {}, "candidate 1 at step 0 is nan"),
            (_nan_once_one_is_selected, {"naive_rounds": 3}, "candidate 1 at step 0 is nan"),
            (_nan_once_one_is_selected, {"initial": [0, 1]}, "candidate 1 at step 1 is nan"),
        ],
        ids=["inf-lazy", "inf-naive", "inf-initial", "nan-lazy", "nan-naive", "nan-initial"],
    )
    def test_run_refuses_non_finite_gain(self, factory, kwargs, message):
        with pytest.raises(InputError, match=message):
            hybrid_maximize(factory(), 3, **kwargs)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_overflowing_similarity_gain_is_refused_without_a_warning(self, sparse):
        # Every entry is finite, but row 1 sums past the largest float. numpy's
        # overflow warning would come first; warnings fail the suite.
        triples = [(1, 0, 1e308), (1, 1, 1e308)]
        S = sparse_from_triples(2, triples) if sparse else SimilarityMatrix([[0.0, 0.0], [1e308, 1e308]])
        with pytest.raises(InputError, match="candidate 1 at step 0 is inf"):
            hybrid_maximize(FacilityLocationObjective(S), 1)


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
        assert result.evaluations == 1 + 2  # the replay, then a sweep of 0 and 2

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
        for initial in BAD_INITIAL:
            with pytest.raises(InputError, match="^initial index must be an integer"):
                hybrid_maximize(obj, k=2, initial=initial)
        assert hybrid_maximize(obj, k=2, initial=[np.int64(0)]).ranking == (0, 1)


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
