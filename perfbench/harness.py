"""Measurement arithmetic shared by every workload of the benchmark.

Everything here is pure bookkeeping over numbers the workloads
collect: percentile selection, failure accounting, open-loop
lateness, peak memory and the environment fingerprint.  It imports
nothing from the library, so ``selftest.py`` can check it in
isolation.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The tail latency of a sample and what it was taken from.

    ``percentile`` is the share (in %) of samples at or below
    ``value``; ``beyond`` is how many samples lie past it.
    """

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values) -> Tail:
    """Highest percentile that still has ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples that is the ``(n - TAIL_BEYOND)``-th
    smallest one, at percentile ``100 * (n - TAIL_BEYOND) / n``.  Below
    ``2 * TAIL_BEYOND`` samples that percentile falls under the median,
    which is no tail: the sample then reports its maximum as percentile
    100 with nothing beyond, so the shortfall is visible in the record
    instead of hidden behind a made-up percentile.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n, 0)
    index = n - TAIL_BEYOND - 1
    return Tail(ordered[index], 100.0 * (index + 1) / n, n, TAIL_BEYOND)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)`` (the
    exclusive method), the same arithmetic the acceptance check uses.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


@dataclass
class Tally:
    """Requests attempted and everything that counts as an error.

    An error is an exception raised by a request, a job that ended
    ``FAILED`` or ``REJECTED``, or a failed output check; each adds
    one to ``failed``.  ``error_rate`` divides by requests attempted.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def request(self, error: str | None = None) -> None:
        """Count one attempted request, failed when ``error`` is given."""
        self.attempted += 1
        if error is not None:
            self.failures.append(error)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failed check counts as an error."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failures.append(f"check {name} failed: {detail}")


def poisson_schedule(
    rate: float, seconds: float, rng, at_least: int = 0
) -> list[float]:
    """Due times (seconds from the window start) of Poisson arrivals.

    Given its count, a Poisson process's arrival times are independent
    and uniform over the window, so ``round(rate * seconds)`` sorted
    uniform draws are Poisson arrivals whose count is held at its mean:
    every seed offers the same load and only the bursts differ.  The
    count is raised to ``at_least`` so a short window still samples
    every request kind.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    count = max(int(round(rate * seconds)), at_least)
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))


@dataclass(frozen=True)
class OpenLoopTiming:
    """Latencies and generator lateness of one open-loop window."""

    latencies: list[float]
    gen_lag_max: float
    met: int


def open_loop_timing(
    due: list[float],
    sent: list[float],
    finished: list[float | None],
    limit: float,
) -> OpenLoopTiming:
    """Latency of each request from when it was *due* to when it finished.

    Timing from the due time rather than the actual send charges a
    stalled generator's delay to every request it held back, as the
    user who wanted to send on schedule would see it.  A request that
    never finished (failed or rejected) has ``finished`` ``None``: it
    has no latency sample and counts as missing the ``limit``.
    ``gen_lag_max`` is how late the generator sent its most delayed
    request — a validity check on the open loop itself.
    """
    if not (len(due) == len(sent) == len(finished)):
        raise ValueError("due, sent and finished must have equal lengths")
    latencies = [
        end - start for start, end in zip(due, finished) if end is not None
    ]
    lag = max((s - d for d, s in zip(due, sent)), default=0.0)
    met = sum(1 for value in latencies if value <= limit)
    return OpenLoopTiming(latencies, max(lag, 0.0), met)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB.

    ``ru_maxrss`` of the children is the peak of the largest waited-for
    child (pool workers included once the pool has shut down); adding
    it to our own peak is exact for one child at a time and a floor
    when several ran at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fingerprint(seed: int) -> dict:
    """Where a result was measured, so results from different boxes
    are never compared blindly."""
    import multiprocessing

    import numpy
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    return {
        "seed": seed,
        "cpus_available": cpus,
        "cpu_count": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(allow_none=False),
        "platform": platform.platform(),
    }
