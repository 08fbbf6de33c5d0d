"""Tests for repro.utils (random, timer, validation)."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.utils import (
    Timer,
    check_probability_vector,
    check_random_state,
    check_square,
    spawn_seeds,
)


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).random(5)
        b = check_random_state(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_rejects_bad_types(self):
        with pytest.raises(TypeError):
            check_random_state("seed")

    def test_numpy_integer_accepted(self):
        gen = check_random_state(np.int64(7))
        assert isinstance(gen, np.random.Generator)


class TestSpawnSeeds:
    def test_count(self):
        assert len(spawn_seeds(0, 5)) == 5

    def test_deterministic(self):
        assert spawn_seeds(3, 4) == spawn_seeds(3, 4)

    def test_distinct_across_seeds(self):
        assert spawn_seeds(1, 3) != spawn_seeds(2, 3)

    def test_zero(self):
        assert spawn_seeds(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0

    def test_start_stop(self):
        t = Timer()
        t.start()
        elapsed = t.stop()
        assert elapsed >= 0.0
        assert t.elapsed == elapsed

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestValidation:
    def test_check_square_accepts(self):
        check_square(np.eye(3))

    def test_check_square_rejects_rect(self):
        with pytest.raises(ShapeError):
            check_square(np.ones((2, 3)))

    def test_check_square_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_square(np.ones(4))

    def test_probability_vector_valid(self):
        out = check_probability_vector([0.25, 0.75])
        assert out.sum() == pytest.approx(1.0)

    def test_probability_vector_wrong_sum(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.5, 0.2])

    def test_probability_vector_negative(self):
        with pytest.raises(ValueError):
            check_probability_vector([1.5, -0.5])

    def test_probability_vector_wrong_size(self):
        with pytest.raises(ShapeError):
            check_probability_vector([0.5, 0.5], size=3)

    def test_probability_vector_2d_rejected(self):
        with pytest.raises(ShapeError):
            check_probability_vector(np.ones((2, 2)) / 4)
