"""Unit tests for the bench-regression gate (``benchmarks/compare_bench.py``).

The gate is what stands between a noisy re-recorded artefact and a
silently regressed baseline, so its checks get pinned here: the
``check_scale`` gate added after a loaded-machine re-record documented
the parallel partition path as slower than serial (block_speedup
1.04 -> 0.75) without any CI step noticing.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _scale_payload(
    *,
    block_speedup: float = 1.04,
    bitwise_equal: bool = True,
    recovery_rate: float = 1.0,
    cpu_count: int = 1,
) -> dict:
    return {
        "cpu_count": cpu_count,
        "four_block": {
            "bitwise_equal": bitwise_equal,
            "block_speedup": block_speedup,
            "injected_recovery": {
                "lost_links": 12,
                "recovered_links": int(round(12 * recovery_rate)),
                "recovery_rate": recovery_rate,
            },
        },
    }


def _write(directory: Path, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_scale.json").write_text(json.dumps(payload))
    return directory


def _failures(baseline_dir: Path, current_dir: Path, max_slowdown: float = 0.20):
    return list(
        compare_bench.check_scale(baseline_dir, current_dir, max_slowdown)
    )


class TestCheckScale:
    def test_missing_fresh_file_fails(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload())
        failures = _failures(baseline, tmp_path / "empty")
        assert failures and "missing" in failures[0]

    def test_missing_baseline_is_skipped(self, tmp_path):
        fresh = _write(tmp_path / "fresh", _scale_payload())
        assert _failures(tmp_path / "nobase", fresh) == []

    def test_clean_run_passes(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.94))
        assert _failures(baseline, fresh) == []

    def test_bitwise_divergence_fails_unconditionally(self, tmp_path):
        fresh = _write(
            tmp_path / "fresh", _scale_payload(bitwise_equal=False)
        )
        failures = _failures(tmp_path / "nobase", fresh)
        assert any("bitwise" in f for f in failures)

    def test_partial_recovery_fails_unconditionally(self, tmp_path):
        fresh = _write(
            tmp_path / "fresh", _scale_payload(recovery_rate=0.5)
        )
        failures = _failures(tmp_path / "nobase", fresh)
        assert any("recovered only" in f for f in failures)

    def test_block_speedup_regression_fails(self, tmp_path):
        # the loaded-machine re-record this gate exists to catch:
        # 1.04 -> 0.75 is a 28% drop, past the 20% budget
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.75))
        failures = _failures(baseline, fresh)
        assert len(failures) == 1
        assert "block_speedup 0.75x" in failures[0]

    def test_within_budget_drop_passes(self, tmp_path):
        baseline = _write(tmp_path / "base", _scale_payload(block_speedup=1.04))
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.90))
        assert _failures(baseline, fresh) == []

    def test_fewer_cpus_skips_speedup_gate(self, tmp_path):
        baseline = _write(
            tmp_path / "base", _scale_payload(block_speedup=2.5, cpu_count=4)
        )
        fresh = _write(
            tmp_path / "fresh", _scale_payload(block_speedup=0.9, cpu_count=1)
        )
        assert _failures(baseline, fresh) == []

    def test_more_cpus_still_gates(self, tmp_path):
        baseline = _write(
            tmp_path / "base", _scale_payload(block_speedup=1.04, cpu_count=1)
        )
        fresh = _write(
            tmp_path / "fresh", _scale_payload(block_speedup=0.5, cpu_count=4)
        )
        assert len(_failures(baseline, fresh)) == 1

    def test_absent_speedup_field_is_skipped(self, tmp_path):
        base_payload = _scale_payload()
        del base_payload["four_block"]["block_speedup"]
        baseline = _write(tmp_path / "base", base_payload)
        fresh = _write(tmp_path / "fresh", _scale_payload(block_speedup=0.1))
        assert _failures(baseline, fresh) == []


def _partial_failures(tmp_path, mutate=None):
    """check_partial of the committed cohort against a mutated copy."""
    committed = json.loads((REPO_ROOT / "BENCH_fidelity.json").read_text())
    baseline = tmp_path / "base"
    baseline.mkdir()
    (baseline / "BENCH_fidelity.json").write_text(json.dumps(committed))
    if mutate is not None:
        mutate(
            [
                p for p in committed["partial"]["points"]
                if p["backend"] == "partial-unbalanced"
            ]
        )
    current = tmp_path / "current"
    current.mkdir()
    (current / "BENCH_fidelity.json").write_text(json.dumps(committed))
    return list(compare_bench.check_partial(baseline, current))


class TestCheckPartialUnbalanced:
    """The partial-unbalanced points are the fidelity evidence for the
    KL-relaxed projection kernel: a fresh cohort must keep each
    committed point's accuracy and its matched mass."""

    def test_committed_cohort_passes_against_itself(self, tmp_path):
        assert _partial_failures(tmp_path) == []

    def test_one_point_hit1_drop_fails(self, tmp_path):
        def drop(points):
            points[2]["hits@1"] -= 1.0

        failures = _partial_failures(tmp_path, drop)
        assert len(failures) == 1
        assert "partial-unbalanced" in failures[0] and "hits@1" in failures[0]

    def test_matched_mass_shift_fails(self, tmp_path):
        def shift(points):
            points[0]["matched_mass"] += 1e-6

        failures = _partial_failures(tmp_path, shift)
        assert len(failures) == 1
        assert "matched_mass" in failures[0]


class TestGateWiring:
    def test_check_scale_wired_into_main(self, tmp_path, capsys):
        """main() must actually call check_scale — a regression that
        lands only when the committed artefacts trip it."""
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            src = REPO_ROOT / name
            if not src.exists():
                pytest.skip(f"{name} not present in the tree")
        baseline = tmp_path / "base"
        baseline.mkdir()
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            (baseline / name).write_text((REPO_ROOT / name).read_text())
        _write(baseline, _scale_payload(block_speedup=1.04))
        current = tmp_path / "current"
        current.mkdir()
        for name in (
            "BENCH_solver.json",
            "BENCH_serve.json",
            "BENCH_fidelity.json",
        ):
            (current / name).write_text((REPO_ROOT / name).read_text())
        _write(current, _scale_payload(block_speedup=0.75))
        rc = compare_bench.main(
            [str(baseline), "--current-dir", str(current)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "block_speedup" in captured.err
