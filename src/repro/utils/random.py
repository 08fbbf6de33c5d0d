"""Random-state helpers.

Everything stochastic in this library is driven by
:class:`numpy.random.Generator` objects so experiments are reproducible
bit-for-bit given a seed.
"""

from __future__ import annotations

import numpy as np


def check_random_state(seed) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed)!r}"
    )


def spawn_seeds(seed, n: int) -> list[int]:
    """Derive ``n`` independent integer seeds from ``seed``.

    Useful when an experiment fans out into several sub-tasks that must
    each be reproducible on their own.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = check_random_state(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]
