"""Greedy maximization of a submodular objective under a cardinality budget.

Three strategies, all producing identical selections:

* naive greedy recomputes every remaining candidate's gain each round and
  takes the argmax (largest gain, then smallest index);
* lazy greedy keeps stale gains as upper bounds in a max-priority queue and
  recomputes only entries that surface, exploiting that gains never grow;
* the hybrid runs a configurable number of naive rounds first, then seeds
  the queue with the final naive round's gains and finishes lazily.

Pure lazy starts with one naive round too: with no bounds yet, its first
step has to evaluate every candidate, which is exactly a naive sweep. The
queue is then built from that sweep with one ``heapify``, so 0 and 1 naive
rounds spend the same evaluations at every step. A stale top is re-scored
in place (``heapreplace``); only the fresh top that is accepted is popped.

Lazy selection accepts a popped entry only when its bound was recomputed in
the current iteration. That is stricter than the usual "recomputed gain beats
the next bound" shortcut, which can diverge from naive greedy under ties;
freshness costs an occasional extra pop and guarantees the two strategies
select identical indices with bit-identical gains.

Every gain the optimizer uses comes from one ``objective.gain`` call made
through :func:`_gain`, which refuses a NaN or infinite value: a non-finite
gain would otherwise be ranked silently by the argmax and the queue.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .exceptions import InputError
from .objectives import ObjectiveState, SubmodularObjective

__all__ = [
    "SelectionResult",
    "ProgressRecord",
    "CandidateQueue",
    "naive_greedy_step",
    "lazy_greedy_step",
    "hybrid_maximize",
]

_STALE = -1  # stamp guaranteed to predate every iteration counter


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


class CandidateQueue:
    """Max-priority queue of (stale gain bound, candidate index, stamp).

    Ordered by bound descending, then index ascending, matching the naive
    tie-break. Every not-yet-selected candidate keeps exactly one live entry;
    bounds computed at earlier iterations stay valid upper bounds because
    marginal gains only shrink as the selection grows.

    The optimizer builds its queue from a naive sweep with one ``heapify``
    and re-scores a stale top in place with ``heapreplace``. Entries are
    totally ordered by their unique index, so the order in which entries
    surface depends only on the entries, not on the heap's layout.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, int]] = []

    def push(self, bound: float, index: int, stamp: int) -> None:
        heapq.heappush(self._heap, (-bound, index, stamp))

    def pop(self) -> tuple[float, int, int]:
        """Remove and return the (bound, index, stamp) with the largest bound."""
        neg, index, stamp = heapq.heappop(self._heap)
        return -neg, index, stamp

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)


def _integer(name: str, value) -> int:
    """``value`` as an int, or InputError naming ``name``; numpy integers count, ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_budget(k, naive_rounds) -> tuple[int, int]:
    """``(k, naive_rounds)`` as ints, or InputError naming the bad one.

    Both must be integers (see :func:`_integer`); ``k`` must be at least 1
    and ``naive_rounds`` at least 0.
    """
    for name, value, least in (("k", k, 1), ("naive_rounds", naive_rounds, 0)):
        if _integer(name, value) < least:
            raise InputError(f"{name} must be at least {least}, got {value}")
    return int(k), int(naive_rounds)


def _check_initial(initial: Iterable[int] | None) -> list[int] | None:
    """``initial`` as a list of ints, or InputError for an index that is not an integer."""
    if initial is None:
        return None
    return [_integer("initial index", i) for i in initial]


def _gain(objective: SubmodularObjective, state: ObjectiveState, v) -> float:
    """The gain of ``v`` against ``state``; InputError when it is NaN or infinite."""
    g = objective.gain(state, v)
    if not math.isfinite(g):
        raise InputError(
            f"gain of candidate {v} at step {len(state.selected)} is {float(g)}; "
            "gains must be finite"
        )
    return g


def naive_greedy_step(
    objective: SubmodularObjective,
    state: ObjectiveState,
    candidates: Sequence[int],
) -> tuple[int, float, list[float]]:
    """One naive round: evaluate every candidate, select the best, update.

    Ties break to the smallest index (candidates must be in ascending
    order). Returns (chosen index, its gain, the full gains list) so the
    caller can seed a lazy queue from the sweep; the sweep costs
    len(candidates) evaluations.
    """
    if not len(candidates):
        raise InputError("naive greedy step needs at least one candidate")
    gains = [_gain(objective, state, v) for v in candidates]
    best = int(np.argmax(gains))  # argmax keeps the first, i.e. smallest index
    chosen = int(candidates[best])
    objective.update(state, chosen)
    return chosen, gains[best], gains


def lazy_greedy_step(
    objective: SubmodularObjective,
    state: ObjectiveState,
    queue: CandidateQueue,
    current_iter: int,
) -> tuple[int, float, int]:
    """One lazy round: re-score the top until it is fresh, select it, update.

    A top entry whose stamp is not ``current_iter`` has its gain
    recomputed against the current state and is replaced in place, restamped.
    Because every bound is an upper bound on the true gain, a fresh top is
    exactly the candidate naive greedy would select, including the
    smallest-index tie-break. Returns (chosen index, gain, evaluations
    spent).
    """
    heap = queue._heap
    if not heap:
        raise InputError("lazy greedy step needs a non-empty candidate queue")
    evaluations = 0
    while True:
        neg, index, stamp = heap[0]
        if stamp == current_iter:
            heapq.heappop(heap)
            objective.update(state, index)
            return index, -neg, evaluations
        evaluations += 1
        heapq.heapreplace(heap, (-_gain(objective, state, index), index, current_iter))


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
    gain measured at the moment the index is applied. Then ``naive_rounds``
    naive rounds run and lazy greedy finishes the budget. The outcome is
    identical for every choice of ``naive_rounds``; it only trades time.
    ``naive_rounds=0`` is pure lazy, ``naive_rounds >= k`` pure naive.

    Raises InputError for a ``k``, ``naive_rounds`` or ``initial`` index
    that is not an integer in range, and for a gain that is NaN or infinite.

    When ``progress`` is given it receives one ProgressRecord per selection.
    """
    start = time.perf_counter()
    k, naive_rounds = _check_budget(k, naive_rounds)
    n = objective.n_examples
    target = min(k, n)

    initial = _check_initial(initial) or []
    if len(set(initial)) != len(initial):
        raise InputError("initial indices must be distinct")
    for i in initial:
        if not 0 <= i < n:
            raise IndexError(f"initial index {i} out of range for {n} examples")
    if len(initial) > target:
        raise InputError(
            f"{len(initial)} initial indices exceed the selection size min(k, n) = {target}"
        )

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

    selected = set(ranking)
    remaining = [i for i in range(n) if i not in selected]

    # Pure lazy's first step is a full sweep anyway, so one naive round always runs.
    for _ in range(min(max(naive_rounds, 1), target - len(ranking))):
        chosen, gain, sweep = naive_greedy_step(objective, state, remaining)
        evaluations += len(remaining)
        pos = remaining.index(chosen)
        del remaining[pos], sweep[pos]
        record(chosen, gain)

    if len(ranking) < target:
        # The final sweep's gains are stale but valid upper bounds (gains
        # never grow); its list becomes the heap in place, saving a copy.
        for i, v in enumerate(remaining):
            sweep[i] = (-sweep[i], v, _STALE)
        heapq.heapify(sweep)
        queue = CandidateQueue()
        queue._heap = sweep
        while len(ranking) < target:
            current_iter = len(ranking)
            chosen, gain, spent = lazy_greedy_step(objective, state, queue, current_iter)
            evaluations += spent
            record(chosen, gain)

    return SelectionResult(tuple(ranking), tuple(gains), evaluations)
