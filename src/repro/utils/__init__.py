"""Small shared utilities: seeding, validation, timing."""

from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_probability_vector,
    check_square,
)

__all__ = [
    "check_random_state",
    "spawn_seeds",
    "Timer",
    "check_probability_vector",
    "check_square",
]
