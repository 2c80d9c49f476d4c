"""Proportional task sampling and seeded instance cycling."""

import math
import random

import pytest

from slukit import sampler
from slukit.errors import StructuralError


class TestSamplingWeights:
    def test_square_root_damping(self):
        assert sampler.sampling_weights([900, 100], 0.5) == [0.75, 0.25]

    def test_alpha_zero_is_uniform(self):
        assert sampler.sampling_weights([7, 9000, 1], 0.0) == [1 / 3, 1 / 3, 1 / 3]

    def test_alpha_one_is_proportional(self):
        weights = sampler.sampling_weights([30, 10], 1.0)
        assert weights == [0.75, 0.25]

    def test_normalised(self):
        rng = random.Random(41)
        for _ in range(50):
            sizes = [rng.randint(1, 10_000) for _ in range(rng.randint(1, 6))]
            alpha = rng.uniform(0, 2)
            weights = sampler.sampling_weights(sizes, alpha)
            assert math.isclose(sum(weights), 1.0, abs_tol=1e-12)
            assert all(w > 0 for w in weights)

    def test_damping_shrinks_large_task_share(self):
        flat = sampler.sampling_weights([900, 100], 0.0)
        damped = sampler.sampling_weights([900, 100], 0.5)
        raw = sampler.sampling_weights([900, 100], 1.0)
        assert flat[0] < damped[0] < raw[0]

    def test_errors(self):
        with pytest.raises(StructuralError, match="no task sizes"):
            sampler.sampling_weights([], 0.5)
        with pytest.raises(StructuralError, match="alpha"):
            sampler.sampling_weights([1], -0.1)
        for alpha in (math.nan, math.inf):
            with pytest.raises(StructuralError, match="alpha must be finite"):
                sampler.sampling_weights([1, 2], alpha)
        with pytest.raises(StructuralError, match=">= 1"):
            sampler.sampling_weights([0], 0.5)
        # int ** float overflows, and so does a sum of finite powers
        for sizes, alpha in (([10 ** 20], 100.0), ([10 ** 400], 1.0), ([10 ** 308] * 2, 1.0)):
            with pytest.raises(StructuralError, match="exceed the float range"):
                sampler.sampling_weights(sizes, alpha)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(StructuralError, match="size"):
            sampler.TaskSpec("a", 0)


class TestScheduleEpoch:
    def _tasks(self):
        return [sampler.TaskSpec("big", 900), sampler.TaskSpec("small", 100)]

    def test_deterministic(self):
        one = sampler.schedule_epoch(self._tasks(), 200, 0.5, seed=5)
        two = sampler.schedule_epoch(self._tasks(), 200, 0.5, seed=5)
        assert one == two
        assert one.seed == 5

    def test_seed_changes_draws(self):
        one = sampler.schedule_epoch(self._tasks(), 200, 0.5, seed=5)
        other = sampler.schedule_epoch(self._tasks(), 200, 0.5, seed=6)
        assert one.draws != other.draws

    def test_counts_match_draws(self):
        schedule = sampler.schedule_epoch(self._tasks(), 500, 0.5, seed=7)
        assert len(schedule.draws) == 500
        for name in ("big", "small"):
            assert schedule.counts[name] == sum(
                1 for task, _ in schedule.draws if task == name
            )

    def test_per_task_batch_indices_run_contiguously(self):
        schedule = sampler.schedule_epoch(self._tasks(), 300, 0.5, seed=8)
        next_index = {"big": 0, "small": 0}
        for task, index in schedule.draws:
            assert index == next_index[task]
            next_index[task] += 1

    def test_single_task_takes_every_batch(self):
        schedule = sampler.schedule_epoch([sampler.TaskSpec("only", 10)], 50, 1.0, seed=9)
        assert schedule.counts == {"only": 50}

    def test_equal_tasks_near_even_split(self):
        tasks = [sampler.TaskSpec("a", 500), sampler.TaskSpec("b", 500)]
        schedule = sampler.schedule_epoch(tasks, 10_000, 1.0, seed=10)
        share = schedule.counts["a"] / 10_000
        assert abs(share - 0.5) < 0.02

    def test_duplicate_names(self):
        tasks = [sampler.TaskSpec("a", 1), sampler.TaskSpec("a", 2)]
        with pytest.raises(StructuralError, match="duplicate"):
            sampler.schedule_epoch(tasks, 10, 0.5, seed=0)

    def test_needs_batches(self):
        with pytest.raises(StructuralError, match="batches_per_epoch"):
            sampler.schedule_epoch(self._tasks(), 0, 0.5, seed=0)

    def test_needs_tasks(self):
        with pytest.raises(StructuralError, match="no tasks"):
            sampler.schedule_epoch([], 10, 0.5, seed=0)


class TestInstanceCycler:
    def test_each_pass_covers_all_instances(self):
        cycler = sampler.InstanceCycler(10, seed=12)
        first = cycler.next_batch(10)
        second = cycler.next_batch(10)
        assert sorted(first) == list(range(10))
        assert sorted(second) == list(range(10))
        assert first != sorted(first)  # shuffled with this seed

    def test_split_batches_still_cover(self):
        cycler = sampler.InstanceCycler(10, seed=13)
        drawn = cycler.next_batch(7) + cycler.next_batch(3)
        assert sorted(drawn) == list(range(10))

    def test_batch_larger_than_pool_wraps(self):
        cycler = sampler.InstanceCycler(3, seed=14)
        batch = cycler.next_batch(7)
        assert len(batch) == 7
        assert set(batch) == {0, 1, 2}

    def test_deterministic(self):
        a = sampler.InstanceCycler(20, seed=15)
        b = sampler.InstanceCycler(20, seed=15)
        assert [a.next_batch(6) for _ in range(5)] == [b.next_batch(6) for _ in range(5)]

    def test_errors(self):
        with pytest.raises(StructuralError, match="at least one"):
            sampler.InstanceCycler(0, seed=0)
        with pytest.raises(StructuralError, match="batch size"):
            sampler.InstanceCycler(1, seed=0).next_batch(0)
