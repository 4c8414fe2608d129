"""Metamorphic relations: a transformed input with an exactly predicted output.

Scaling by a power of two is exact for normal floats and commutes with every
correctly rounded operation the gains use (sums, differences, products and
``sqrt``), so these relations hold bit for bit, not within a tolerance:

* sqrt features times 4**j: the same ranking, every gain times 2**j;
* weights times 8, either saturator: the same ranking, every gain times 8;
* a precomputed dense similarity times 2: the same ranking, every gain times 2;
* feature rows permuted: the permuted ranking and the same gains, up to the
  first step whose best gain is tied.

Values are drawn so that scaled entries stay normal (a subnormal loses bits).
Evaluation counts are not compared: the gain bounds of lazy greedy hold an
absolute slack term that does not scale, so the same selection may take a
different number of evaluations.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subsel import FacilityLocationSelector, FeatureBasedObjective, FeatureBasedSelector

# Entries from 1e-3 to 1e3, spread evenly in magnitude, zeros and a few
# repeated values (which make ties).
_ENTRY = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_WEIGHT = st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
# Powers from 4**-40 (gains near 1e-12) to 4**40, the extremes drawn often.
_POWER = st.sampled_from([-40, -30, 40]) | st.integers(-40, 40)


@st.composite
def _features(draw, max_n=12, max_d=5):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    return draw(hnp.arrays(np.float64, (n, d), elements=_ENTRY, fill=st.nothing()))


def _fit(X, k, concave="sqrt", weights=None):
    result = FeatureBasedSelector(k, concave, weights=weights).fit(X).result_
    return result.ranking, result.gains


def _first_tie(X, ranking, concave, weights):
    """The first step of ``ranking`` on ``X`` at which the best gain is tied."""
    objective = FeatureBasedObjective(X, concave, weights=weights)
    state = objective.new_state()
    for step, v in enumerate(ranking):
        gains = [objective.gain(state, u) for u in range(len(X)) if not state.is_selected(u)]
        if gains.count(max(gains)) > 1:
            return step
        objective.update(state, v)
    return len(ranking)


@settings(max_examples=200, deadline=None)
@given(_features(), st.integers(1, 12), _POWER)
# At step 1 row 0's bound is not below row 1's, but row 1 has the larger
# gain: a stop test with an absolute tolerance picks row 0 once gains are tiny.
@example(np.array([[0.5, 0.0], [0.0, 2.0], [0.5, 8.0]]), 2, -40)
def test_sqrt_features_times_a_power_of_four(X, k, j):
    ranking, gains = _fit(X, k)
    scaled_ranking, scaled_gains = _fit(X * 4.0 ** j, k)
    assert scaled_ranking == ranking
    assert scaled_gains == tuple(g * 2.0 ** j for g in gains)


@settings(max_examples=100, deadline=None)
@given(_features(), st.data(), st.integers(1, 12), st.sampled_from(["sqrt", "log"]))
def test_weights_times_eight(X, data, k, concave):
    w = data.draw(hnp.arrays(np.float64, X.shape[1], elements=_WEIGHT, fill=st.nothing()))
    ranking, gains = _fit(X, k, concave, w)
    scaled_ranking, scaled_gains = _fit(X, k, concave, w * 8.0)
    assert scaled_ranking == ranking
    assert scaled_gains == tuple(g * 8.0 for g in gains)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=_ENTRY, fill=st.nothing())),
       st.integers(1, 8))
def test_similarity_times_two(S, k):
    base = FacilityLocationSelector(k).fit(S)
    scaled = FacilityLocationSelector(k).fit(S * 2.0)
    assert scaled.ranking_ == base.ranking_
    assert scaled.gains_ == tuple(g * 2.0 for g in base.gains_)


@settings(max_examples=100, deadline=None)
@given(_features(), st.data(), st.integers(1, 12), st.sampled_from(["sqrt", "log"]))
def test_permuted_rows(X, data, k, concave):
    w = data.draw(hnp.arrays(np.float64, X.shape[1], elements=_WEIGHT, fill=st.nothing()))
    perm = np.array(data.draw(st.permutations(range(len(X)))))
    ranking, gains = _fit(X, k, concave, w)
    permuted_ranking, permuted_gains = _fit(X[perm], k, concave, w)
    tie = _first_tie(X, ranking, concave, w)
    assert tuple(int(perm[v]) for v in permuted_ranking[:tie]) == ranking[:tie]
    assert permuted_gains[:tie] == gains[:tie]
