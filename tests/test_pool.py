"""The shared worker pool: pooled solves are bit for bit the serial ones.

``run_portfolio`` advances the live restart runs of the float64 serial
step on the process-wide pool of :mod:`repro.engine.pool`, and the
``sparse`` backend runs its blocks there.  Every test compares a
pooled solve against the serial loop (the one-CPU path) bit for bit,
and asserts that the pool really ran wherever the machine has more
than one CPU, so a silent serial fallback cannot pass.  The restart
runs go to the pool only while BLAS runs one thread per call, so the
tests that need them pooled stub that check; the workers still run
the parent's BLAS setting, which keeps the bits equal.

CI also runs this module under ``python -X dev -W error::ResourceWarning``.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.core.objective import JointObjective
from repro.datasets import (
    PartialPairSpec,
    load_cora,
    make_partial_pair,
    make_semi_synthetic_pair,
)
from repro.engine import AlignmentEngine, pool, restarts
from repro.exceptions import ConvergenceError, GraphError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.serve import AlignmentService, JobState, wait_all

SRC = Path(__file__).resolve().parents[1] / "src"

CFG = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=40, sinkhorn_iter=30,
    track_history=True,
)

POOLED = pool.available_cpus() > 1


def sbm_graph(seed=1, dim=40):
    graph = stochastic_block_model([12] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, dim, words_per_node=8, seed=seed + 1
    )
    return graph.with_features(feats)


def bijective_pair(seed=1):
    return make_semi_synthetic_pair(sbm_graph(seed), edge_noise=0.1, seed=seed + 2)


def partial_pair():
    spec = PartialPairSpec(overlap=0.8, anchor_fraction=0.2)
    pair = make_partial_pair(sbm_graph(), spec, seed=3)
    return pair, replace(CFG, partial_mass=float(pair.source_matchable.mean()))


def serial(solve):
    """The serial reference: ``solve()`` on the pool's one-CPU path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "available_cpus", lambda: 1)
        return solve()


def csr_bytes(plan) -> bytes:
    return plan.indptr.tobytes() + plan.indices.tobytes() + plan.data.tobytes()


def assert_same_result(pooled, reference):
    """Plan, β, objective, history and portfolio extras, bit for bit."""
    assert pooled.plan.tobytes() == reference.plan.tobytes()
    extras, ref = pooled.extras, reference.extras
    for key in ("beta_source", "beta_target"):
        assert extras[key].tobytes() == ref[key].tobytes()
    for key in ("objective", "selected_start", "start_objectives", "portfolio"):
        assert extras[key] == ref[key]
    for field in ("objective_values", "alpha_deltas", "plan_deltas"):
        assert getattr(extras["history"], field) == getattr(ref["history"], field)
    assert extras["history"].converged == ref["history"].converged


def drop_shared_pool():
    if pool._pool is not None:
        pool._drop_pool(pool._pool)


@pytest.fixture
def pooled_runs(monkeypatch):
    """Send restart runs to the pool whatever BLAS does; yield the
    names of the functions the shared pool is handed."""
    monkeypatch.setattr(restarts, "blas_threads", lambda: 1)
    shared = pool.shared_pool()
    calls: list[str] = []
    if POOLED:
        assert shared is not None, (
            f"no shared pool; live threads: {threading.enumerate()}"
        )
        submit = shared.submit

        def spy(fn, *args, **kwargs):
            calls.append(fn.__name__)
            return submit(fn, *args, **kwargs)

        monkeypatch.setattr(shared, "submit", spy)
    return calls


def assert_pool_ran(calls, name):
    if POOLED:
        assert name in calls


# ----------------------------------------------------------------------
# pool tasks and projections, module-level so they pickle by name


def nan_projection(run, log_kernel, eta):
    """A π-update that breaks: the run's finite check raises."""
    return np.full_like(log_kernel, np.nan)


def dying_projection(run, log_kernel, eta):
    """Kill the worker it runs in; in the parent, the reference projection."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return restarts.project_balanced(run, log_kernel, eta)


def pool_inside_worker():
    return pool.shared_pool(), pool.pool_map(int, [(), ()])


# ----------------------------------------------------------------------


class TestPooledEqualsSerial:
    def test_fused_dense(self, pooled_runs):
        pair = bijective_pair()

        def solve():
            return AlignmentEngine(CFG, cache=None).align(pair.source, pair.target)

        pooled = solve()
        assert_pool_ran(pooled_runs, "_advanced")
        assert len(pooled.extras["portfolio"]["iterations"]) == 4
        assert_same_result(pooled, serial(solve))

    @pytest.mark.parametrize("backend", ["partial-dummy", "partial-unbalanced"])
    def test_partial_backends_with_anchors(self, pooled_runs, backend):
        pair, cfg = partial_pair()
        assert cfg.partial_mass < 1.0 and pair.anchors.size

        def solve():
            engine = AlignmentEngine(cfg, backend=backend, cache=None)
            return engine.solve(
                engine.plan(pair.source, pair.target, anchors=pair.anchors)
            )

        pooled = solve()
        assert_pool_ran(pooled_runs, "_advanced")
        reference = serial(solve)
        assert_same_result(pooled, reference)
        for side in ("source_unmatchable", "target_unmatchable"):
            assert (
                pooled.extras["partial"][side].tobytes()
                == reference.extras["partial"][side].tobytes()
            )

    def test_service_solo_float64_job(self, pooled_runs):
        pair = bijective_pair(seed=4)
        with AlignmentService(CFG, cache=None, max_batch=1) as service:
            job = service.submit(pair.source, pair.target)
            assert wait_all([job], timeout=120)
        assert job.state == JobState.DONE, job.error
        assert_pool_ran(pooled_runs, "_advanced")
        reference = serial(
            lambda: AlignmentEngine(CFG, cache=None).align(pair.source, pair.target)
        )
        assert_same_result(job.result.result, reference)

    def test_sparse_blocks(self, pooled_runs):
        pair = bijective_pair(seed=5)

        def solve(executor):
            return AlignmentEngine(
                CFG, backend="sparse", cache=None,
                backend_options={"n_parts": 3, "executor": executor},
            ).align(pair.source, pair.target)

        pooled = solve("auto")
        assert_pool_ran(pooled_runs, "align_pair")
        if POOLED:
            assert pooled.extras["executor"] == "process"
        reference = solve("serial")
        assert reference.extras["executor"] == "serial"
        assert csr_bytes(pooled.plan) == csr_bytes(reference.plan)


class TestFailures:
    def test_run_exception_carries_worker_traceback(self, pooled_runs):
        pair = bijective_pair()
        problem = AlignmentEngine(CFG, cache=None).plan(pair.source, pair.target)
        runs = restarts.problem_runs(problem)
        for run in runs:
            run.project = nan_projection
        with pytest.raises(ConvergenceError, match="non-finite") as info:
            restarts.run_portfolio([runs], CFG)
        if POOLED:
            assert pooled_runs.count("_advanced") == len(runs)
            assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
            # raised in the worker: the caller's runs were never stepped
            assert all(run.iteration == 0 for run in runs)

    def test_refused_fork_solves_serially(self, monkeypatch):
        import multiprocessing.process as mp_process

        pair = bijective_pair()

        def solve():
            return AlignmentEngine(CFG, cache=None).align(pair.source, pair.target)

        reference = serial(solve)
        monkeypatch.setattr(restarts, "blas_threads", lambda: 1)
        drop_shared_pool()

        def forbidden(self):
            raise PermissionError("sandbox: fork forbidden")

        monkeypatch.setattr(mp_process.BaseProcess, "start", forbidden)
        assert_same_result(solve(), reference)
        assert pool._pool is None

    @pytest.mark.skipif(not POOLED, reason="needs a pool to break")
    def test_killed_worker_falls_back_to_serial(self, pooled_runs):
        pair = bijective_pair()
        problem = AlignmentEngine(CFG, cache=None).plan(pair.source, pair.target)

        def outcomes(project):
            runs = restarts.problem_runs(problem)
            for run in runs:
                run.project = project
            [(result, checkpoints)] = restarts.run_portfolio([runs], CFG)
            return result, checkpoints

        broken = pool._pool
        result, checkpoints = outcomes(dying_projection)
        assert "_advanced" in pooled_runs
        assert pool._pool is not broken  # dropped after the break
        ref_result, ref_checkpoints = serial(
            lambda: outcomes(restarts.project_balanced)
        )
        assert checkpoints == ref_checkpoints
        for out, ref in zip(result, ref_result):
            assert out.plan.tobytes() == ref.plan.tobytes()
            assert out.alpha.tobytes() == ref.alpha.tobytes()
            assert (out.objective, out.pruned, out.iterations) == (
                ref.objective, ref.pruned, ref.iterations,
            )
            assert out.history.plan_deltas == ref.history.plan_deltas


class TestWhereThePoolMayRun:
    def test_no_pool_created_while_threaded(self, monkeypatch):
        pair = bijective_pair()

        def solve():
            return AlignmentEngine(CFG, cache=None).align(pair.source, pair.target)

        reference = serial(solve)
        monkeypatch.setattr(restarts, "blas_threads", lambda: 1)
        drop_shared_pool()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,), daemon=True)
        other.start()
        try:
            assert threading.active_count() > 1
            assert pool.shared_pool() is None
            assert_same_result(solve(), reference)
            assert pool._pool is None
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()

    def test_no_pool_used_inside_a_worker(self, pooled_runs):
        """A sparse solve whose blocks keep the multi-start portfolio
        (the two graphs' features are incomparable) runs each block's
        restart group serially inside its worker."""
        source = sbm_graph(seed=8, dim=40)
        target = sbm_graph(seed=8, dim=30)

        def solve(executor):
            return AlignmentEngine(
                CFG, backend="sparse", cache=None,
                backend_options={"n_parts": 2, "executor": executor},
            ).align(source, target)

        pooled = solve("auto")
        assert_pool_ran(pooled_runs, "align_pair")
        assert not pooled.extras["block_feature_init"]
        for block in pooled.block_results:
            assert len(block.extras["portfolio"]["iterations"]) == 4
        assert csr_bytes(pooled.plan) == csr_bytes(solve("serial").plan)
        if POOLED:
            shared = pool.shared_pool()
            assert shared.submit(pool_inside_worker).result(timeout=60) == (None, None)


def test_pickled_objective_drops_memo():
    graph = sbm_graph()
    pair = make_semi_synthetic_pair(graph, seed=3)
    problem = AlignmentEngine(CFG, cache=None).plan(pair.source, pair.target)
    objective = JointObjective(*problem.bases)
    rng = np.random.default_rng(0)
    plan = rng.random((objective.n, objective.m))
    plan /= plan.sum()
    beta = np.array([0.3, 0.7])
    objective.value(plan, beta, beta)
    objective.alpha_gradient(plan, beta, beta)
    assert objective._product_cache and objective._combined_cache
    copy = pickle.loads(pickle.dumps(objective))
    assert copy._product_cache == {} and copy._combined_cache == {}
    for ours, theirs in zip(copy.source_bases, objective.source_bases):
        assert ours.tobytes() == theirs.tobytes()
    assert copy.fused == objective.fused
    assert copy.value(plan, beta, beta) == objective.value(plan, beta, beta)
    for name in ("plan_gradient", "alpha_gradient"):
        ours = getattr(copy, name)(plan, beta, beta)
        assert ours.tobytes() == getattr(objective, name)(plan, beta, beta).tobytes()


def test_threaded_solves_under_fast_switching(pooled_runs):
    """Four client threads, more than the pool's workers, solve at once
    while the interpreter switches threads every 10 µs."""
    pairs = [bijective_pair(seed=seed) for seed in range(4)]
    cfg = replace(CFG, max_outer_iter=30, track_history=False)

    def solve(pair):
        return AlignmentEngine(cfg, cache=None).align(pair.source, pair.target)

    references = serial(lambda: [solve(pair) for pair in pairs])
    plans: dict[int, bytes] = {}
    errors: list[BaseException] = []

    def client(index):
        try:
            plans[index] = solve(pairs[index]).plan.tobytes()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 180
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert_pool_ran(pooled_runs, "_advanced")
    for index, reference in enumerate(references):
        assert plans[index] == reference.plan.tobytes()


class TestNonFiniteInitPlan:
    """A NaN or infinite ``init_plan`` fails in the caller, typed,
    before any run is shipped."""

    @staticmethod
    def plan(kind, n, m):
        if kind == "all-nan":
            return np.full((n, m), np.nan)
        plan = np.ones((n, m))
        plan[0, 0] = np.nan if kind == "one-nan" else np.inf
        return plan

    @staticmethod
    def cora_pair():
        return make_semi_synthetic_pair(load_cora(scale=0.02), edge_noise=0.1, seed=0)

    @pytest.mark.parametrize("kind", ["all-nan", "one-nan", "one-inf"])
    @pytest.mark.parametrize(
        "backend", ["fused-dense", "partial-dummy", "partial-unbalanced"]
    )
    def test_engine_refuses(self, pooled_runs, backend, kind):
        pair = self.cora_pair()
        n, m = pair.source.n_nodes, pair.target.n_nodes
        cfg = CFG if backend == "fused-dense" else replace(CFG, partial_mass=0.9)
        engine = AlignmentEngine(cfg, backend=backend, cache=None)
        with pytest.raises(GraphError, match="init_plan must be finite"):
            engine.align(pair.source, pair.target, init_plan=self.plan(kind, n, m))
        assert pooled_runs == []


#: Run in a fresh interpreter: one multi-start solve, then print the
#: pool's worker PIDs and exit normally.
CHILD = """
from repro.core import SLOTAlignConfig
from repro.datasets import load_cora, make_semi_synthetic_pair
from repro.engine import AlignmentEngine, pool

pair = make_semi_synthetic_pair(load_cora(scale=0.02), edge_noise=0.1, seed=0)
result = AlignmentEngine(SLOTAlignConfig(max_outer_iter=5), cache=None).align(
    pair.source, pair.target
)
assert len(result.extras["portfolio"]["iterations"]) > 1
print(" ".join(str(pid) for pid in pool._pool._processes))
"""


@pytest.mark.skipif(not POOLED, reason="one CPU: no pool to outlive")
def test_no_worker_outlives_its_process():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == pool.available_cpus()
    deadline = time.monotonic() + 30
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"worker {pid} outlived its parent"
            time.sleep(0.05)


#: Run in a fresh interpreter: fork the pool, print its worker PIDs,
#: then die by SIGKILL, so no exit hook of the parent runs.
KILLED_CHILD = """
import os, signal
from repro.engine import pool

shared = pool.shared_pool()
shared.submit(int).result(timeout=60)
print(" ".join(str(pid) for pid in shared._processes), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def running(pid: int) -> bool:
    """Whether ``pid`` runs: a zombie has exited and only awaits its reaper."""
    try:
        with open(f"/proc/{pid}/status") as status:
            return not any(
                line.startswith("State:") and "Z" in line.split()[1]
                for line in status
            )
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not POOLED or not os.path.isdir("/proc/self"),
    reason="needs a pool and /proc",
)
def test_workers_exit_when_their_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an orphaned worker keeps the output pipes open, so a regression
    # shows as this call timing out
    done = subprocess.run(
        [sys.executable, "-c", KILLED_CHILD], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == -9, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == pool.available_cpus()
    deadline = time.monotonic() + 30
    while any(running(pid) for pid in pids):
        assert time.monotonic() < deadline, f"workers {pids} outlived a killed parent"
        time.sleep(0.05)
