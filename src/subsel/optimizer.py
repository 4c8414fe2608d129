"""Greedy maximization of a submodular objective under a cardinality budget.

One loop serves naive, lazy and hybrid greedy, and all three select the
same indices with bit-identical gains. The queue is one array: ``bound[v]``
is an upper bound on candidate v's gain, or -inf once v is selected. Bounds
from earlier steps stay valid because marginal gains only shrink as the
selection grows.

Every step is one routine, :func:`_lazy_pick`: it visits candidates in
order of their bounds at the start of the step (largest first, ties by
smallest index), writing each fresh gain into ``bound``, until the next
bound is below the best fresh gain, or equal to it with a larger index. No
candidate left can then beat that gain: it is naive greedy's choice. A lazy
step first caps its stale bounds with the objective's ``upper_bounds(state)``
when it has them; without them it evaluates exactly the candidates a heap of
stale bounds re-scores, with them never more.

A sweep step is the same step with its bounds forgotten (all +inf), so it
evaluates every remaining candidate in index order and the first maximum
wins. The first step is always a sweep, as with no bounds yet it must
evaluate every candidate; ``naive_rounds`` asks for more, so 0 and 1 naive
rounds are the same run.

Every gain the optimizer uses comes from one ``objective.gain`` call made
through :func:`_gain`, which refuses a NaN or infinite value: a non-finite
gain would otherwise be ranked silently by the queue.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .exceptions import InputError, _integer
from .objectives import ObjectiveState, SubmodularObjective

__all__ = [
    "SelectionResult",
    "ProgressRecord",
    "hybrid_maximize",
]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one maximization run.

    ranking: chosen indices in selection order; prefixes are themselves
    greedy solutions for smaller budgets.
    gains: marginal gain recorded when each index was chosen; sums to the
    objective value of the full ranking.
    evaluations: total number of gain() calls the run spent.
    """

    ranking: tuple[int, ...]
    gains: tuple[float, ...]
    evaluations: int

    def __len__(self):
        return len(self.ranking)


class ProgressRecord(NamedTuple):
    """One selection: its step, index and gain, the objective so far, the
    evaluations spent so far, and the seconds since the run started."""

    step: int
    index: int
    gain: float
    objective: float
    evaluations: int
    seconds: float = 0.0


def _check_budget(k, naive_rounds) -> tuple[int, int]:
    """``(k, naive_rounds)`` as ints, or InputError naming the bad one.

    Both must be integers (see :func:`_integer`); ``k`` must be at least 1
    and ``naive_rounds`` at least 0.
    """
    for name, value, least in (("k", k, 1), ("naive_rounds", naive_rounds, 0)):
        if _integer(name, value) < least:
            raise InputError(f"{name} must be at least {least}, got {value}")
    return int(k), int(naive_rounds)


def _check_initial(initial: Iterable[int] | None, k: int) -> list[int] | None:
    """``initial`` as a list of distinct ints, at most ``k`` of them.

    Otherwise InputError for the first index, in the caller's order, that is
    not an integer (see :func:`_integer`), repeats an earlier one or is past
    the ``k``-th; its ``row`` is that index's position in ``initial``.
    """
    if initial is None:
        return None
    initial = list(initial)
    checked: dict[int, None] = {}  # ordered, with O(1) lookups
    for row, value in enumerate(initial):
        try:
            value = _integer("initial index", value)
        except InputError as exc:
            exc.row = row
            raise
        if value in checked:
            raise InputError("initial indices must be distinct", row=row)
        if row == k:
            raise InputError(
                f"{len(initial)} initial indices exceed the selection size k = {k}", row=row
            )
        checked[value] = None
    return list(checked)


def _gain(objective: SubmodularObjective, state: ObjectiveState, v) -> float:
    """The gain of ``v`` against ``state``; InputError when it is NaN or infinite."""
    g = objective.gain(state, v)
    if not math.isfinite(g):
        raise InputError(
            f"gain of candidate {v} at step {len(state.selected)} is {float(g)}; "
            "gains must be finite"
        )
    return g


def _lazy_pick(objective, state, bound, size):
    """One greedy step: ``(index, gain, count)``.

    Candidates are visited in (-bound, index) order of ``bound`` as the step
    starts, each fresh gain written into ``bound``, until the next bound is
    below the best fresh gain, or equal to it with a larger index: then no
    unvisited candidate can beat it. ``count`` were visited. The order is
    built prefix by prefix: a prefix is every candidate whose bound is above
    the ``size``-th largest (so never a selected one, at -inf), ``size``
    doubles each time, and a prefix's first ``count`` are already visited.
    """
    start = bound.copy()  # fixes the visit order
    n = bound.size
    best, best_gain, count = -1, -math.inf, 0
    threshold = math.inf
    while threshold > -math.inf:
        threshold = np.partition(start, n - size)[n - size] if size < n else -math.inf
        pool = np.flatnonzero(start > threshold)
        vals = start[pool]
        order = np.lexsort((pool, -vals))[count:]
        # A memoryview yields Python numbers one at a time: no n-item lists.
        for v, b in zip(memoryview(pool[order]), memoryview(vals[order])):
            if b <= best_gain and (b < best_gain or v > best):
                return best, best_gain, count
            g = bound[v] = _gain(objective, state, v)
            count += 1
            if g >= best_gain and (g > best_gain or v < best):
                best, best_gain = v, g
        size *= 2
    return best, best_gain, count


def _print_progress(record: ProgressRecord) -> None:
    print(
        f"step={record.step} index={record.index} gain={record.gain:.17g} "
        f"objective={record.objective:.17g} evaluations={record.evaluations} "
        f"seconds={record.seconds:.6f}",
        file=sys.stderr,
    )


def hybrid_maximize(
    objective: SubmodularObjective,
    k: int,
    naive_rounds: int = 0,
    initial: Iterable[int] | None = None,
    progress: Callable[[ProgressRecord], None] | None = None,
) -> SelectionResult:
    """Select min(k, n) examples by greedy maximization of ``objective``.

    ``initial`` indices are applied first, in the caller's order, with each
    gain measured at the moment the index is applied. Then the first
    ``max(naive_rounds, 1)`` greedy steps are sweep steps (naive greedy) and
    lazy steps finish the budget. The outcome is identical for every choice
    of ``naive_rounds``; it only trades time. ``naive_rounds=0`` is pure
    lazy, ``naive_rounds >= k`` pure naive.

    Raises InputError for a ``k``, ``naive_rounds`` or ``initial`` index
    that is not an integer in range, for a gain that is NaN or infinite and
    for ``upper_bounds`` that are not n floats; IndexError for an
    ``initial`` index that is not an example. Either error about an
    ``initial`` index has its position there as ``row``.

    When ``progress`` is given it receives one ProgressRecord per selection.
    """
    start = time.perf_counter()
    k, naive_rounds = _check_budget(k, naive_rounds)
    n = objective.n_examples
    target = min(k, n)

    # Distinct, in range and at most k, so at most min(k, n) of them.
    initial = _check_initial(initial, k) or []
    for row, i in enumerate(initial):
        if not 0 <= i < n:
            exc = IndexError(f"initial index {i} out of range for {n} examples")
            exc.row = row
            raise exc

    state = objective.new_state()
    ranking: list[int] = []
    gains: list[float] = []
    evaluations = 0
    cumulative = 0.0

    def record(index: int, gain: float):
        nonlocal cumulative
        ranking.append(index)
        gains.append(gain)
        cumulative += gain
        if progress is not None:
            progress(ProgressRecord(len(ranking) - 1, index, gain, cumulative, evaluations,
                                    time.perf_counter() - start))

    # bound[v]: an upper bound on v's gain, or -inf once v is selected.
    bound = np.full(n, np.inf)
    for v in initial:
        g = _gain(objective, state, v)
        evaluations += 1
        objective.update(state, v)
        bound[v] = -np.inf
        record(v, g)

    spent = n  # so the first step's prefix is every candidate
    while len(ranking) < target:
        if len(ranking) < len(initial) + max(naive_rounds, 1):
            bound[bound > -np.inf] = np.inf  # a sweep: every bound forgotten
        elif (caps := objective.upper_bounds(state)) is not None:
            if np.shape(caps) != (n,):
                raise InputError(f"upper_bounds returned shape {np.shape(caps)}; "
                                 f"expected ({n},), one float per example")
            np.fmin(bound, caps, out=bound)  # a NaN cap keeps the stale bound
        index, gain, spent = _lazy_pick(objective, state, bound, 2 * spent + 2)
        bound[index] = -np.inf
        objective.update(state, index)
        evaluations += spent
        record(index, gain)

    return SelectionResult(tuple(ranking), tuple(gains), evaluations)
