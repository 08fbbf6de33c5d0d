"""Tests for the alignment service (repro.serve).

Covers the queue primitives (FIFO + selective extraction), admission
control (graceful rejection with reasons), job ordering under a single
worker, batch coalescing (engaged *and* bitwise-identical to direct
engine runs) at both precisions, per-job failure isolation, the
refusal of a partial config, and the stats/cache-sharing surface.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine, PlanCache
from repro.exceptions import ConfigError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.serve import (
    AdmissionPolicy,
    AlignmentService,
    Job,
    JobQueue,
    JobState,
    QueueClosed,
    wait_all,
)

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=25, sinkhorn_iter=20,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=12):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.1, seed=seed + 2)


def direct_plan(pair, precision="float64"):
    return AlignmentEngine(FAST, cache=None, precision=precision).align(
        pair.source, pair.target
    ).plan


def make_job(seed=0, **kwargs):
    pair = bench_pair(seed=seed)
    return Job(source=pair.source, target=pair.target, **kwargs)


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue()
        jobs = [make_job(seed=s) for s in range(3)]
        for job in jobs:
            queue.put(job)
        assert [queue.get() for _ in jobs] == jobs

    def test_take_matching_preserves_remainder_order(self):
        queue = JobQueue()
        jobs = [make_job(seed=s, tag=f"j{s}") for s in range(6)]
        for job in jobs:
            queue.put(job)
        taken = queue.take_matching(
            lambda job: job.tag in ("j1", "j3", "j4"), limit=2
        )
        assert [job.tag for job in taken] == ["j1", "j3"]
        remaining = [queue.get(timeout=0.1) for _ in range(4)]
        assert [job.tag for job in remaining] == ["j0", "j2", "j4", "j5"]

    def test_close_drains_then_signals_shutdown(self):
        queue = JobQueue()
        job = make_job()
        queue.put(job)
        queue.close()
        assert queue.get() is job
        assert queue.get() is None
        with pytest.raises(QueueClosed):
            queue.put(make_job())

    def test_close_wakes_blocked_getter(self):
        queue = JobQueue()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(queue.get()))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == [None]


class TestAdmissionPolicy:
    def test_rejects_over_queue_depth(self):
        policy = AdmissionPolicy(max_queue_depth=2)
        reason = policy.review(10, 10, FAST, queue_depth=2)
        assert reason is not None and "queue full" in reason
        assert policy.review(10, 10, FAST, queue_depth=1) is None

    def test_rejects_over_iteration_budget(self):
        policy = AdmissionPolicy(max_outer_iter=FAST.max_outer_iter - 1)
        reason = policy.review(10, 10, FAST, queue_depth=0)
        assert reason is not None and "iteration budget" in reason

    def test_rejects_oversized_plans(self):
        policy = AdmissionPolicy(max_plan_bytes=100 * 100 * 8)
        assert policy.review(100, 100, FAST, queue_depth=0) is None
        reason = policy.review(101, 100, FAST, queue_depth=0)
        assert reason is not None and "plan too large" in reason

    def test_none_disables_every_bound(self):
        policy = AdmissionPolicy(
            max_queue_depth=None, max_outer_iter=None, max_plan_bytes=None
        )
        assert policy.review(10_000, 10_000, FAST, queue_depth=10**6) is None


class TestServiceLifecycle:
    def test_single_job_bitwise_equal_to_direct_engine(self):
        pair = bench_pair(seed=0)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(pair.source, pair.target)
            assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert job.batch_size == 1
        np.testing.assert_array_equal(
            job.result.result.plan, direct_plan(pair)
        )

    def test_fifo_completion_order_single_worker(self):
        pairs = [bench_pair(seed=s) for s in range(4)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=1
        )
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        finished = [job.finished_at for job in jobs]
        assert finished == sorted(finished)
        assert all(job.batch_size == 1 for job in jobs)
        assert service.stats()["solo_pairs"] == len(jobs)

    def test_evaluates_when_ground_truth_present(self):
        pair = bench_pair(seed=1)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(
                pair.source, pair.target, ground_truth=pair.ground_truth
            )
            assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert 0.0 <= job.result.metrics["hits@1"] <= 100.0
        assert set(job.result.stage_seconds) == {"plan", "solve", "evaluate"}

    def test_stop_drains_queued_jobs(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(FAST, cache=PlanCache())
        jobs = [service.submit(p.source, p.target) for p in pairs]
        service.start()
        service.stop()  # graceful: drains the queue before joining
        assert all(job.done for job in jobs)
        assert all(job.state is JobState.DONE for job in jobs)


class TestCoalescing:
    def test_batch_engaged_and_bitwise_equal(self):
        """Jobs queued together coalesce into one stacked solve whose
        per-pair plans are bit-for-bit the direct engine's."""
        pairs = [bench_pair(seed=s) for s in range(4)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=8
        )
        # submit *before* start so the worker sees the full backlog
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        for pair, job in zip(pairs, jobs):
            assert job.state is JobState.DONE
            assert job.batch_size == len(pairs)
            result = job.result.result
            assert result.extras["backend"] == "coalesced"
            np.testing.assert_array_equal(result.plan, direct_plan(pair))
        stats = service.stats()
        assert stats["coalesced_batches"] == 1
        assert stats["coalesced_pairs"] == len(pairs)

    def test_incompatible_jobs_are_not_coalesced(self):
        same = [bench_pair(seed=s) for s in range(2)]
        small_graph = stochastic_block_model([8] * 3, 0.4, 0.02, seed=7)
        small_graph = small_graph.with_features(
            community_bag_of_words(
                small_graph.node_labels, 30, words_per_node=6, seed=8
            )
        )
        small_graph.node_labels = None
        small = make_semi_synthetic_pair(small_graph, edge_noise=0.1, seed=9)
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=8
        )
        jobs = [service.submit(p.source, p.target) for p in same]
        odd = service.submit(small.source, small.target)
        with service:
            assert wait_all(jobs + [odd], timeout=120)
        assert jobs[0].batch_size == 2
        assert jobs[1].batch_size == 2
        assert odd.batch_size == 1  # different shape: solved solo

    def test_max_batch_caps_coalescing(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=2
        )
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        assert sorted(job.batch_size for job in jobs) == [1, 2, 2]

    def test_plan_failure_is_isolated_from_the_batch(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=8
        )
        good = [service.submit(p.source, p.target) for p in pairs[:2]]
        # same shape, so it joins the batch; no features, so the plan
        # stage cannot build its node views
        bad = service.submit(
            pairs[2].source.with_features(None), pairs[2].target
        )
        with service:
            assert wait_all(good + [bad], timeout=120)
        assert bad.state is JobState.FAILED
        assert "plan failed" in bad.error
        for pair, job in zip(pairs, good):
            assert job.state is JobState.DONE
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pair)
            )


class TestFloat32Jobs:
    """A float32 job is solved at float32 and never shares a batch with a
    float64 job."""

    def test_solo_job_bitwise_equal_to_direct_engine(self):
        pair = bench_pair(seed=0)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(pair.source, pair.target, precision="float32")
            assert job.wait(timeout=60)
        assert job.state is JobState.DONE, job.error
        assert job.batch_size == 1
        np.testing.assert_array_equal(
            job.result.result.plan, direct_plan(pair, "float32")
        )

    def test_batch_bitwise_equal_to_direct_engine(self):
        pairs = [bench_pair(seed=s) for s in range(2)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=8
        )
        jobs = [
            service.submit(p.source, p.target, precision="float32")
            for p in pairs
        ]
        with service:
            assert wait_all(jobs, timeout=120)
        for pair, job in zip(pairs, jobs):
            assert job.state is JobState.DONE, job.error
            assert job.batch_size == 2
            assert job.result.result.extras["precision"] == "float32"
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pair, "float32")
            )
        assert service.stats()["coalesced_batches"] == 1

    def test_precisions_never_share_a_batch(self):
        pair = bench_pair(seed=0)
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=8
        )
        jobs = [
            service.submit(pair.source, pair.target, precision=precision)
            for precision in ("float64", "float32")
        ]
        with service:
            assert wait_all(jobs, timeout=120)
        for job in jobs:
            assert job.state is JobState.DONE, job.error
            assert job.batch_size == 1
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pair, job.precision)
            )

    def test_unknown_precision_rejected_before_the_queue(self):
        pair = bench_pair(seed=0)
        service = AlignmentService(FAST, cache=PlanCache())
        with pytest.raises(ConfigError, match="float32, float64"):
            service.submit(pair.source, pair.target, precision="float16")
        assert len(service._queue) == 0
        assert service.stats()["submitted"] == 0


class TestPartialJobsInService:
    def test_partial_config_refused_at_construction(self):
        """A service solves balanced transport only: a partial config
        fails when the service is built, naming the partial backends."""
        with pytest.raises(
            ConfigError,
            match="partial_mass=0.8.*partial-dummy, partial-unbalanced",
        ):
            AlignmentService(replace(FAST, partial_mass=0.8))


class TestAdmissionInService:
    def test_oversized_job_rejected_gracefully(self):
        pair = bench_pair(seed=0)
        n, m = pair.source.n_nodes, pair.target.n_nodes
        service = AlignmentService(
            FAST,
            cache=PlanCache(),
            policy=AdmissionPolicy(max_plan_bytes=n * m * 8 - 1),
        )
        job = service.submit(pair.source, pair.target)
        assert job.done  # terminal immediately, no queueing
        assert job.state is JobState.REJECTED
        assert "plan too large" in job.error
        assert service.stats()["rejected"] == 1
        assert len(service._queue) == 0

    def test_queue_depth_rejection_and_recovery(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(
            FAST, cache=PlanCache(), policy=AdmissionPolicy(max_queue_depth=2)
        )
        admitted = [service.submit(p.source, p.target) for p in pairs[:2]]
        overflow = service.submit(pairs[2].source, pairs[2].target)
        assert overflow.state is JobState.REJECTED
        assert "queue full" in overflow.error
        with service:
            assert wait_all(admitted, timeout=120)
        assert all(job.state is JobState.DONE for job in admitted)
        # once the queue drained, the same request is admitted again
        with AlignmentService(
            FAST, cache=PlanCache(), policy=AdmissionPolicy(max_queue_depth=2)
        ) as fresh:
            retry = fresh.submit(pairs[2].source, pairs[2].target)
            assert retry.wait(timeout=60)
        assert retry.state is JobState.DONE

    def test_iteration_budget_rejection(self):
        pair = bench_pair(seed=0)
        service = AlignmentService(
            FAST,
            cache=PlanCache(),
            policy=AdmissionPolicy(max_outer_iter=FAST.max_outer_iter - 1),
        )
        job = service.submit(pair.source, pair.target)
        assert job.state is JobState.REJECTED
        assert "iteration budget" in job.error


class TestCacheSharing:
    def test_repeat_traffic_hits_the_shared_cache(self):
        pair = bench_pair(seed=0)
        cache = PlanCache()
        with AlignmentService(FAST, cache=cache, workers=2) as service:
            jobs = [
                service.submit(pair.source, pair.target) for _ in range(4)
            ]
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        info = cache.info()
        assert info["builds"] == 2  # one per graph of the pair
        assert info["hits"] > 0

    def test_stats_surface(self):
        pair = bench_pair(seed=0)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(pair.source, pair.target)
            assert job.wait(timeout=60)
            stats = service.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert stats["latency_seconds"]["count"] == 1
        assert stats["latency_seconds"]["p50"] > 0
        assert stats["latency_seconds"]["p99"] >= stats["latency_seconds"]["p50"]
        assert stats["cache"]["builds"] == 2
