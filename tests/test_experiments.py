"""Smoke/integration tests for the experiment harness (tiny scales)."""

import pytest

from repro.experiments import (
    ExperimentScale,
    ablation_aligners,
    default_aligners,
    run_experiment,
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table2,
    run_table3,
)

TINY = ExperimentScale(dataset_scale=0.02, fast=True, seed=0)


def shrink(scale: ExperimentScale) -> ExperimentScale:
    return scale


class TestConfigHelpers:
    def test_default_aligners_complete(self):
        methods = default_aligners(TINY)
        assert set(methods) == {
            "SLOTAlign",
            "KNN",
            "REGAL",
            "GCNAlign",
            "GATAlign",
            "WAlign",
            "GWD",
            "FusedGW",
        }

    def test_include_filter(self):
        methods = default_aligners(TINY, include=("KNN", "GWD"))
        assert set(methods) == {"KNN", "GWD"}

    def test_ablation_set(self):
        ablations = ablation_aligners(TINY)
        assert set(ablations) == {
            "SLOT-w/o-edge",
            "SLOT-w/o-node",
            "SLOT-w/o-subgraph",
            "SLOT-fixed-beta",
            "SLOT-param-GNN",
        }


class TestFig3:
    def test_structure_and_feature_panels(self):
        out = run_fig3(TINY)
        assert set(out) == {"structure", "feature"}
        for panel in out.values():
            assert {r.method for r in panel} == {"WAlign", "GWD", "KNN"}


class TestFig6:
    def test_single_dataset_subset(self):
        out = run_fig6(
            TINY, datasets=("cora",), methods=("KNN", "GWD"), levels=(0.0, 0.4)
        )
        assert set(out) == {"cora"}
        sweep = {r.method: r for r in out["cora"]}
        assert sweep["KNN"].hits[0] == sweep["KNN"].hits[1]


class TestFig7:
    def test_transform_subset(self):
        out = run_fig7(
            TINY,
            datasets=("cora",),
            transforms=("permutation",),
            methods=("KNN",),
            levels=(0.0, 0.6),
        )
        sweep = out["cora"]["permutation"][0]
        assert sweep.method == "KNN"
        assert len(sweep.hits) == 2


class TestTable2:
    def test_rows_and_metrics(self):
        out = run_table2(
            TINY, datasets=("douban",), methods=("KNN", "GWD"), with_ablations=False
        )
        table = out["douban"]
        assert set(table) == {"KNN", "GWD"}
        for row in table.values():
            assert {"hits@1", "hits@5", "hits@10", "hits@30", "time"} <= set(row)


class TestTable3:
    def test_subset_and_methods(self):
        out = run_table3(TINY, subsets=("fr_en",), methods=("MultiKE", "LIME"))
        table = out["fr_en"]
        assert set(table) == {"MultiKE", "LIME"}
        for row in table.values():
            assert "hits@1" in row and "hits@10" in row


class TestFig8:
    def test_sensitivity_grid(self):
        out = run_fig8(TINY, datasets=("cora",), parameters=("k",))
        curve = out["k"]["cora"]
        assert [v for v, _ in curve] == [3, 4, 5, 6, 7]


class TestRunner:
    def test_renders_fig6_report(self):
        # run through the textual runner at reduced scope via direct calls
        out = run_fig6(TINY, datasets=("cora",), methods=("KNN",), levels=(0.0,))
        assert out["cora"][0].method == "KNN"

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99", TINY)

    def test_sparse_backend_rejected_for_dense_methods(self, monkeypatch):
        """Every experiment solves whole pairs densely, so ``--backend
        sparse`` exits naming the dense choices before any runs."""
        from repro.experiments import runner

        def forbidden(*args, **kwargs):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(runner, "run_experiment", forbidden)
        with pytest.raises(
            SystemExit, match="requires a dense solver backend.*fused-dense"
        ):
            runner.main(["fig7", "--backend", "sparse"])
