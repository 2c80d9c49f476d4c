"""Task scheduling for multi-task training with size-proportional sampling.

Task i is drawn with probability size_i ** alpha / sum_j size_j ** alpha.
Alpha 1 reproduces raw size proportions, 0 is uniform, and values in
between damp the dominance of large tasks.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import StructuralError


@dataclass(frozen=True)
class TaskSpec:
    name: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise StructuralError(f"task {self.name!r}: size must be >= 1")


@dataclass(frozen=True)
class Schedule:
    """One epoch of batch draws.

    ``draws`` lists (task name, per-task batch index) in order; ``counts``
    gives the number of batches drawn per task.
    """

    draws: tuple[tuple[str, int], ...]
    counts: dict[str, int]
    seed: int


def sampling_weights(sizes, alpha: float) -> list[float]:
    """Normalised size ** alpha weights; they sum to 1."""
    sizes = list(sizes)
    if not sizes:
        raise StructuralError("no task sizes given")
    if not math.isfinite(alpha):
        raise StructuralError(f"alpha must be finite, got {alpha!r}")
    if alpha < 0:
        raise StructuralError("alpha must be >= 0")
    if any(s < 1 for s in sizes):
        raise StructuralError("task sizes must be >= 1")
    try:
        scaled = [s ** alpha for s in sizes]
        total = sum(scaled)
    except OverflowError:  # one power out of range; a sum of finite ones can reach inf
        total = math.inf
    if not math.isfinite(total):
        raise StructuralError(f"task sizes ** alpha {alpha!r} exceed the float range")
    return [v / total for v in scaled]


def schedule_epoch(tasks, batches_per_epoch: int, alpha: float, seed: int) -> Schedule:
    """Draw a task for every batch slot of one epoch.

    Each draw is tagged with that task's running batch index, so the
    k-th draw of a task carries index k - 1. Same seed, same schedule.
    """
    tasks = list(tasks)
    if not tasks:
        raise StructuralError("no tasks to schedule")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise StructuralError("duplicate task names")
    if batches_per_epoch < 1:
        raise StructuralError("batches_per_epoch must be >= 1")
    cumulative = list(accumulate(sampling_weights([t.size for t in tasks], alpha)))
    rng = random.Random(seed)
    counts = dict.fromkeys(names, 0)
    draws = []
    for _ in range(batches_per_epoch):
        pick = bisect.bisect_right(cumulative, rng.random())
        name = names[min(pick, len(names) - 1)]
        draws.append((name, counts[name]))
        counts[name] += 1
    return Schedule(tuple(draws), counts, seed)


class InstanceCycler:
    """Streams instance indices in seeded shuffled order.

    The pool is reshuffled whenever it runs out, so long runs see every
    instance once per pass in a fresh order. Within-task order depends
    only on the seed.
    """

    def __init__(self, n: int, seed: int):
        if n < 1:
            raise StructuralError("cycler needs at least one instance")
        self._n = n
        self._rng = random.Random(seed)
        self._pool: list[int] = []

    def next_batch(self, k: int) -> list[int]:
        if k < 1:
            raise StructuralError("batch size must be >= 1")
        out = []
        while len(out) < k:
            if not self._pool:
                self._pool = list(range(self._n))
                self._rng.shuffle(self._pool)
            out.append(self._pool.pop())
        return out
