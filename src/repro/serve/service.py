"""The in-process alignment service: queue, workers, coalescing.

:class:`AlignmentService` turns the PR-5 engine into a long-lived
**alignment-as-a-service** endpoint: clients :meth:`~AlignmentService.submit`
graph pairs and get back :class:`~repro.serve.jobs.Job` handles they
can wait on, while a pool of worker threads drains a FIFO
:class:`~repro.serve.jobs.JobQueue`.  Every job is solved with the
``fused-dense`` backend under the service's one config and decoder.
Three engine-level properties do the heavy lifting:

* **shared plan cache** — all jobs plan through one
  :class:`~repro.engine.planning.PlanCache` (the process-wide shared
  cache by default), so repeated or content-equal pairs pay kernel
  construction once, across jobs and across workers (the cache's
  single-flight discipline absorbs concurrent misses);
* **batch coalescing** — a worker that dequeues a job also drains the
  queued jobs *compatible* with it (same precision and plan shape) and
  solves them as one stacked ``(B·R, n, m)`` lockstep batch via
  :func:`~repro.engine.coalesce.solve_coalesced`.  Coalescing is pure
  scheduling: every pair's plan stays bit-for-bit identical to a
  direct :class:`~repro.engine.AlignmentEngine` run;
* **admission control** — every submit is reviewed by an
  :class:`~repro.serve.budget.AdmissionPolicy`; over-budget requests
  complete immediately as ``REJECTED`` with a reason instead of
  entering the queue.

The service is deliberately in-process (no sockets): the CLI's
``repro serve`` subcommand and the serving benchmark drive it with
synthetic traffic, and a network front door would be a thin shim over
exactly this API.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.engine.backends import FusedDenseBackend, ensure_balanced_config
from repro.engine.coalesce import solve_coalesced
from repro.engine.precision import DEFAULT_PRECISION, ensure_precision
from repro.engine.decode import ensure_decoder, get_decoder
from repro.engine.evaluate import evaluate_alignment
from repro.engine.pipeline import EngineRun
from repro.engine.planning import (
    PlanCache,
    prepare_problem,
    shared_plan_cache,
)
from repro.engine.pool import shared_pool
from repro.exceptions import ConfigError
from repro.graphs.graph import AttributedGraph
from repro.serve.budget import AdmissionPolicy
from repro.serve.jobs import Job, JobQueue, JobState, QueueClosed

_SHARED = object()
"""Sentinel: "use the process-wide shared plan cache"."""


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class AlignmentService:
    """Long-lived alignment job server over the unified engine.

    Every job is solved with the ``fused-dense`` backend, under the
    service's ``config`` and ``decoder``, from the default start; a job
    chooses only its precision.

    Parameters
    ----------
    config:
        The :class:`SLOTAlignConfig` every job is solved under.  A
        config asking for partial transport (``partial_mass != 1``) is
        refused here with a :class:`ConfigError` naming the partial
        backends: the service solves balanced transport only.
    cache:
        :class:`PlanCache` shared by every job.  Defaults to the
        process-wide shared cache; pass ``None`` to disable caching.
    policy:
        :class:`AdmissionPolicy` reviewed at submit time.
    workers:
        Worker-thread count.  One worker keeps completion strictly
        FIFO; more trade ordering for parallel throughput.
    max_batch:
        Largest number of jobs one coalesced solve may absorb;
        ``max_batch=1`` turns coalescing off.
    decoder:
        Decoder applied to every solved plan.  ``None`` skips the
        decode stage and scores the plan posterior directly — the
        pre-decode service, bit for bit.  Decoding is post-solve, so
        every job of a coalesced batch is decoded on its own.
    """

    def __init__(
        self,
        config: SLOTAlignConfig | None = None,
        cache=_SHARED,
        policy: AdmissionPolicy | None = None,
        workers: int = 1,
        max_batch: int = 8,
        decoder: str | None = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config or SLOTAlignConfig()
        # fail a partial config at construction, not in a worker thread
        # mid-solve
        ensure_balanced_config(self.config, FusedDenseBackend.name)
        self.cache: PlanCache | None = (
            shared_plan_cache() if cache is _SHARED else cache
        )
        self.policy = policy or AdmissionPolicy()
        self.workers = workers
        self.max_batch = max_batch
        self.decoder = ensure_decoder(decoder) if decoder is not None else None
        self._queue = JobQueue()
        self._lifecycle_lock = threading.Lock()
        self._threads: list[threading.Thread] = []  #: guarded-by: _lifecycle_lock
        self._stats_lock = threading.Lock()
        self._counters = {  #: guarded-by: _stats_lock
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "coalesced_batches": 0,
            "coalesced_pairs": 0,
            "solo_pairs": 0,
        }
        self._latencies: list[float] = []  #: guarded-by: _stats_lock

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "AlignmentService":
        """Start the worker pool (idempotent, and safe to race: two
        threads calling ``start`` concurrently spawn one pool).

        The engine's shared process pool, which advances a solo job's
        restart runs, is created first: it forks only while the process
        runs one thread, so never once the worker threads exist.
        """
        with self._lifecycle_lock:
            if self._queue.closed:
                raise QueueClosed("service has been stopped")
            if self._threads:
                return self
            shared_pool()
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"align-serve-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain queued jobs, then join the workers.

        Holding the lifecycle lock across the join is safe — workers
        never touch it — and makes concurrent ``stop``/``start`` calls
        serialize instead of racing the pool bookkeeping.
        """
        with self._lifecycle_lock:
            self._queue.close()
            for thread in self._threads:
                thread.join()
            self._threads.clear()

    def __enter__(self) -> "AlignmentService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client API
    def submit(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        ground_truth: np.ndarray | None = None,
        tag: str | None = None,
        precision: str = DEFAULT_PRECISION,
    ) -> Job:
        """Enqueue one alignment request and return its job handle.

        Admission control runs here: an over-budget request returns a
        job already in state ``REJECTED`` (with ``error`` naming the
        violated budget) and never enters the queue.  ``precision``
        (``"float64"`` or ``"float32"``) is this job's solve-stage
        working precision; an unknown name fails *here*, synchronously,
        with the choice-naming error.  A job with ``ground_truth``
        reports Hits@{1, 5, 10, 30} and MRR, the evaluate stage's
        default cutoffs.
        """
        job = Job(
            source=source,
            target=target,
            ground_truth=ground_truth,
            tag=tag,
            precision=ensure_precision(precision).name,
        )
        with self._stats_lock:
            self._counters["submitted"] += 1
        reason = self.policy.review(
            source.n_nodes, target.n_nodes, self.config, len(self._queue)
        )
        if reason is not None:
            job.mark_rejected(reason)
            with self._stats_lock:
                self._counters["rejected"] += 1
            return job
        self._queue.put(job)
        return job

    def stats(self) -> dict:
        """Service counters, latency percentiles and cache diagnostics."""
        with self._stats_lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
        return {
            **counters,
            "queue_depth": len(self._queue),
            "workers": self.workers,
            "latency_seconds": {
                "count": len(latencies),
                "p50": _percentile(latencies, 50),
                "p99": _percentile(latencies, 99),
                "mean": (
                    float(np.mean(latencies)) if latencies else None
                ),
            },
            "cache": self.cache.info() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    # worker side
    def _worker_loop(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                return  # queue closed and drained
            batch = [head] + self._queue.take_matching(
                lambda job: _compatible(head, job), self.max_batch - 1
            )
            self._run_batch(batch)

    def _run_batch(self, batch: list[Job]) -> None:
        # plan stage: per-job, so a malformed request (missing features,
        # an empty graph) fails that job alone and the survivors still
        # solve
        planned: list[tuple[Job, object, float]] = []
        for job in batch:
            job.mark_running()
            t0 = time.perf_counter()
            try:
                problem = prepare_problem(
                    job.source, job.target, self.config, cache=self.cache
                )
                problem.bases  # force basis construction through the cache
            except Exception as exc:  # noqa: BLE001 - job isolation
                self._finish_failed(job, f"plan failed: {exc!r}")
                continue
            planned.append((job, problem, time.perf_counter() - t0))
        if not planned:
            return

        t0 = time.perf_counter()
        try:
            # the whole batch shares one precision (_compatible keys
            # on it), so the head job's setting drives the solve
            batch_precision = planned[0][0].precision
            if len(planned) > 1:
                results = solve_coalesced(
                    [p for _, p, _ in planned], precision=batch_precision
                )
                with self._stats_lock:
                    self._counters["coalesced_batches"] += 1
                    self._counters["coalesced_pairs"] += len(planned)
            else:
                [(_, problem, _)] = planned
                results = [FusedDenseBackend(batch_precision).solve(problem)]
                with self._stats_lock:
                    self._counters["solo_pairs"] += 1
        except Exception as exc:  # noqa: BLE001 - job isolation
            for job, _, _ in planned:
                self._finish_failed(job, f"solve failed: {exc!r}")
            return
        solve_seconds = time.perf_counter() - t0

        for (job, problem, plan_seconds), result in zip(planned, results):
            t0 = time.perf_counter()
            decoded = None
            try:
                # decode is per-job and post-solve, so a bad plan shape
                # fails this job alone
                if self.decoder is not None:
                    decoded = get_decoder(self.decoder).decode(result.plan)
            except Exception as exc:  # noqa: BLE001 - job isolation
                self._finish_failed(job, f"decode failed: {exc!r}")
                continue
            t_decode = time.perf_counter()
            try:
                metrics: dict[str, float] = {}
                if job.ground_truth is not None:
                    metrics = evaluate_alignment(
                        decoded if decoded is not None else result,
                        job.ground_truth,
                    )
            except Exception as exc:  # noqa: BLE001 - job isolation
                self._finish_failed(job, f"evaluate failed: {exc!r}")
                continue
            stage_seconds = {
                "plan": plan_seconds,
                # one lockstep solve advances the whole batch; each
                # job is billed the shared batch wall-clock
                "solve": solve_seconds,
            }
            if decoded is not None:
                stage_seconds["decode"] = t_decode - t0
            stage_seconds["evaluate"] = time.perf_counter() - t_decode
            run = EngineRun(
                result=result,
                metrics=metrics,
                stage_seconds=stage_seconds,
                decoded=decoded,
            )
            job.mark_done(run, batch_size=len(planned))
            with self._stats_lock:
                self._counters["completed"] += 1
                if job.latency_seconds is not None:
                    self._latencies.append(job.latency_seconds)

    def _finish_failed(self, job: Job, error: str) -> None:
        job.mark_failed(error)
        with self._stats_lock:
            self._counters["failed"] += 1


def _compatible(head: Job, other: Job) -> bool:
    """Whether ``other`` may join ``head``'s coalesced batch: one
    precision and one plan shape (every job shares the service's
    config)."""
    return (
        other.precision == head.precision
        and other.source.n_nodes == head.source.n_nodes
        and other.target.n_nodes == head.target.n_nodes
    )


def wait_all(jobs: list[Job], timeout: float | None = None) -> bool:
    """Block until every job is terminal; False if the deadline passes."""
    deadline = None if timeout is None else time.perf_counter() + timeout
    for job in jobs:
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.perf_counter())
        if not job.wait(remaining) and not job.done:
            return False
    return True


__all__ = [
    "AlignmentService",
    "JobState",
    "wait_all",
]
