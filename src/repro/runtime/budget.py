"""Per-decision deadline budgets on the monotonic clock.

A :class:`Budget` is created when a decision starts and handed down the
stage chain (criteria → optimizer → certificate → exact).  Stages poll
:attr:`Budget.expired` at their natural checkpoints — between pipeline
stages, every few hundred branch-and-bound boxes, every solver residual
check — and degrade when the deadline passes: optional refutation and
certification stages are skipped (sound — a later complete stage still
decides), and a decision that runs completely dry returns a typed
``UNKNOWN("budget-exhausted")`` verdict rather than raising.

A budget is created when its decision starts, not when the task is built:
the batch engine carries ``budget_seconds`` inside each task, so a task's
deadline measures *decision* time, not the time it waited behind the rest
of its batch.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

from ..exceptions import BudgetExhaustedError

__all__ = ["Budget", "BudgetPoller"]


class Budget:
    """A monotonic-clock deadline for one decision (or one solver call).

    Parameters
    ----------
    seconds:
        Wall-clock allowance from *now*.  ``None`` means unlimited: every
        poll is then a pair of attribute reads, so threading an unlimited
        budget through the pipeline costs nothing measurable.
    clock:
        Injectable time source (tests use a fake); defaults to
        :func:`time.monotonic`, which never jumps backwards.
    """

    __slots__ = ("seconds", "deadline", "_clock")

    def __init__(
        self,
        seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise BudgetExhaustedError(
                f"budget seconds must be nonnegative, got {seconds}"
            )
        self._clock = clock
        self.seconds = None if seconds is None else float(seconds)
        self.deadline = None if seconds is None else clock() + float(seconds)

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(None)

    @property
    def limited(self) -> bool:
        return self.deadline is not None

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, floored at zero)."""
        if self.deadline is None:
            return math.inf
        return max(0.0, self.deadline - self._clock())

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self._clock() >= self.deadline

    def check(self, stage: str) -> None:
        """Raise :class:`BudgetExhaustedError` naming ``stage`` if expired.

        For call sites where continuing is not an option; most pipeline
        stages prefer polling :attr:`expired` and degrading instead.
        """
        if self.expired:
            raise BudgetExhaustedError(
                f"decision budget of {self.seconds}s exhausted before {stage}",
                stage=stage,
            )

    def poller(self, every: int = 128) -> "BudgetPoller":
        """A :class:`BudgetPoller` amortising clock reads over ``every`` work units."""
        return BudgetPoller(self, every=every)

    def __repr__(self) -> str:
        if self.deadline is None:
            return "Budget(unlimited)"
        return f"Budget({self.seconds}s, {self.remaining():.3f}s remaining)"


class BudgetPoller:
    """Amortised expiry polling for batched loops.

    Hot loops that process work in variable-size batches (the frontier
    rounds of the batched Bernstein kernel, solver iteration blocks) cannot
    poll :attr:`Budget.expired` per item without paying one monotonic-clock
    read each — and polling per *batch* alone would make the poll cadence
    depend on the batch size.  A poller decouples the two: each loop round
    :meth:`charge`\\ s the units of work it is about to do, and the clock is
    read only when the accrued units cross ``every`` (and on the very first
    charge, so a deadline dead on arrival is noticed before any work).

    An unlimited budget never reads the clock at all; a charge is then two
    attribute reads, matching the cost contract of ``Budget.expired``.
    """

    __slots__ = ("_budget", "_every", "_accrued")

    def __init__(self, budget: Budget, every: int = 128) -> None:
        if every < 1:
            raise ValueError(f"poll granularity must be >= 1, got {every}")
        self._budget = budget
        self._every = int(every)
        self._accrued = int(every)  # so the first charge always polls

    def charge(self, units: int = 1) -> bool:
        """Account ``units`` of upcoming work; True iff a poll found expiry."""
        if self._budget.deadline is None:
            return False
        self._accrued += units
        if self._accrued < self._every:
            return False
        self._accrued = 0
        return self._budget.expired

    def __repr__(self) -> str:
        return f"BudgetPoller({self._budget!r}, every={self._every})"
