"""Greedy maximization of a submodular objective under a cardinality budget.

One loop serves naive, lazy and hybrid greedy, and all three select the
same indices with bit-identical gains. Candidates live in a heap of
``(-bound, index, stamp)`` entries, ordered by bound descending and then
index ascending, where ``stamp`` is the step at which the bound was
computed. Every step re-scores a stale top in place (``heapreplace``) until
the top is fresh, then pops it. Bounds from earlier steps stay valid upper
bounds because marginal gains only shrink as the selection grows, so a
fresh top is exactly the candidate naive greedy would take.

A sweep step re-scores every remaining candidate, builds the heap anew from
those gains with one ``heapify`` and pops its top: with every entry fresh,
that is naive greedy's argmax (largest gain, then smallest index). The
first step is always a sweep, since with no bounds yet it has to evaluate
every candidate anyway; ``naive_rounds`` asks for more sweep steps. So 0
and 1 naive rounds are the same run.

A top is accepted only when its bound was recomputed in the current step.
That is stricter than the usual "recomputed gain beats the next bound"
shortcut, which can diverge from naive greedy under ties; freshness costs
an occasional extra re-score and keeps the selections identical.

Every gain the optimizer uses comes from one ``objective.gain`` call made
through :func:`_gain`, which refuses a NaN or infinite value: a non-finite
gain would otherwise be ranked silently by the heap.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

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
    that is not an integer in range, and for a gain that is NaN or infinite.

    When ``progress`` is given it receives one ProgressRecord per selection.
    """
    start = time.perf_counter()
    k, naive_rounds = _check_budget(k, naive_rounds)
    n = objective.n_examples
    target = min(k, n)

    # Distinct, in range and at most k, so at most min(k, n) of them.
    initial = _check_initial(initial, k) or []
    for i in initial:
        if not 0 <= i < n:
            raise IndexError(f"initial index {i} out of range for {n} examples")

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

    for v in initial:
        g = _gain(objective, state, v)
        evaluations += 1
        objective.update(state, v)
        record(v, g)

    sweep_end = len(ranking) + max(naive_rounds, 1)
    heap: list[tuple[float, int, int]] = []
    while len(ranking) < target:
        step = len(ranking)
        spent = 0
        if step < sweep_end:
            # Sweep step: every remaining candidate gets a fresh bound.
            taken = set(ranking)
            heap = [(-_gain(objective, state, v), v, step) for v in range(n) if v not in taken]
            heapq.heapify(heap)
            spent = len(heap)
        # Re-score stale tops in place; the first fresh top is the argmax.
        neg, index, stamp = heap[0]
        while stamp != step:
            spent += 1
            heapq.heapreplace(heap, (-_gain(objective, state, index), index, step))
            neg, index, stamp = heap[0]
        heapq.heappop(heap)
        objective.update(state, index)
        evaluations += spent
        record(index, -neg)

    return SelectionResult(tuple(ranking), tuple(gains), evaluations)
