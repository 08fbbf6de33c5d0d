"""Tests for the command-line interface (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "cora"])
        assert args.method == "slotalign"
        assert args.scale == 0.05


class TestCommands:
    def test_datasets_lists_catalogue(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "douban" in out

    def test_stats_prints_summary(self, capsys):
        assert main(["stats", "cora", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "average_degree" in out

    def test_align_knn(self, capsys):
        code = main(
            [
                "align",
                "cora",
                "--method",
                "knn",
                "--scale",
                "0.02",
                "--edge-noise",
                "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hits@1" in out

    def test_align_slotalign_small(self, capsys):
        code = main(
            [
                "align",
                "cora",
                "--scale",
                "0.02",
                "--iters",
                "30",
                "--truncate-columns",
                "100",
            ]
        )
        assert code == 0
        assert "runtime" in capsys.readouterr().out

    def test_unknown_dataset_errors(self):
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError):
            main(["stats", "imdb"])


class TestEntryPoint:
    """``python -m repro`` turns a library error into one line, status 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["align", "cora", "--iters", "0"], "max_outer_iter must be >= 1, got 0"),
            (["align", "cora", "--scale", "-1"], "scale must be in (0, 1], got -1.0"),
            (
                ["align", "cora", "--edge-noise", "1.5"],
                "ratio must be in [0, 1], got 1.5",
            ),
            (["align", "cora", "--tau", "nan"], "structure_lr must be finite, got nan"),
            (
                ["engine", "cora", "--backend", "tpu"],
                "unknown solver backend 'tpu'; valid backends: fused-dense, "
                "partial-dummy, partial-unbalanced, sparse",
            ),
            (
                ["serve", "cora", "--scale", "0.02", "--workers", "0"],
                "workers must be >= 1, got 0",
            ),
            (
                ["serve", "cora", "--scale", "0.02", "--max-batch", "0"],
                "max_batch must be >= 1, got 0",
            ),
            (
                ["serve", "cora", "--scale", "0.02", "--n-jobs", "0"],
                "n_jobs and n_distinct must be >= 1, got 0 and 4",
            ),
            (
                ["serve", "cora", "--scale", "0.02", "--n-distinct", "0"],
                "n_jobs and n_distinct must be >= 1, got 24 and 0",
            ),
            (
                [
                    "serve", "cora", "--scale", "0.02", "--iters", "2001",
                    "--n-jobs", "2", "--n-distinct", "1",
                ],
                "job 0 ended rejected: iteration budget exceeded: requested "
                "2001 outer iterations (max_outer_iter=2000)",
            ),
        ],
        ids=[
            "ConfigError", "DatasetError", "GraphError", "non-finite",
            "engine-backend", "serve-workers", "serve-max-batch", "serve-n-jobs",
            "serve-n-distinct", "serve-rejected-job",
        ],
    )
    def test_typed_error_is_one_line(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"repro: error: {message}\n"


class TestEngineCommand:
    def test_list_backends(self, capsys):
        assert main(["engine", "--list-backends"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()]
        assert names == [
            "fused-dense", "partial-dummy", "partial-unbalanced", "sparse",
        ]

    def test_engine_requires_dataset_without_list(self):
        with pytest.raises(ConfigError, match="dataset"):
            main(["engine"])

    def test_engine_run_prints_stages_and_metrics(self, capsys):
        code = main(
            [
                "engine", "cora",
                "--scale", "0.02", "--iters", "20",
                "--precision", "float32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend  fused-dense" in out
        assert "precision float32" in out
        for stage in ("plan", "solve", "evaluate"):
            assert stage in out
        assert "hits@1" in out

    def test_engine_sparse_backend(self, capsys):
        code = main(
            [
                "engine", "cora",
                "--scale", "0.05", "--iters", "15",
                "--backend", "sparse", "--n-parts", "2",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parts    2" in out

    def test_engine_sparse_backend_derives_part_count(self, capsys):
        """Without --n-parts the 135-node source is cut into the
        smallest power-of-two number of parts that fit under
        --max-block-size."""
        code = main(
            [
                "engine", "cora",
                "--scale", "0.05", "--iters", "15",
                "--backend", "sparse", "--max-block-size", "100",
                "--executor", "serial",
            ]
        )
        assert code == 0
        assert "parts    2" in capsys.readouterr().out

    def test_unknown_backend_names_choices(self):
        with pytest.raises(ConfigError, match="valid backends.*fused-dense"):
            main(["engine", "cora", "--backend", "tpu"])

    def test_float32_on_a_backend_without_it_names_fused_dense(self):
        with pytest.raises(ConfigError, match="no float32 variant.*fused-dense"):
            main(["engine", "cora", "--backend", "sparse", "--precision", "float32"])

    def test_unknown_method_names_choices(self):
        with pytest.raises(ConfigError, match="valid methods.*slotalign"):
            main(["align", "cora", "--method", "does-not-exist"])

    def test_partitioned_method_is_engine_only(self):
        """The partitioned pipeline runs through ``engine --backend
        sparse``; ``align`` names its valid methods instead."""
        with pytest.raises(ConfigError, match="valid methods.*slotalign"):
            main(["align", "cora", "--method", "partitioned"])
        with pytest.raises(SystemExit):
            main(["align", "cora", "--n-parts", "2"])

    def test_backend_rejected_for_non_engine_methods(self, capsys):
        """``--backend`` and ``--precision`` are ``engine`` flags;
        ``align`` runs fused-dense at float64 and refuses both."""
        for flags in (["--backend", "partial-dummy"], ["--precision", "float32"]):
            with pytest.raises(SystemExit) as info:
                main(["align", "cora", "--method", "knn", *flags])
            assert info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in (
                capsys.readouterr().err
            )


class TestDecoderCLI:
    def test_list_decoders(self, capsys):
        assert main(["engine", "--list-decoders"]) == 0
        out = capsys.readouterr().out
        for name in ("row-argmax", "mutual-argmax", "hungarian", "mea"):
            assert name in out

    def test_engine_decoder_flag_prints_the_decode_stage(self, capsys):
        code = main(
            [
                "engine", "cora",
                "--scale", "0.02", "--iters", "20",
                "--decoder", "mea",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decoder  mea" in out
        assert "decode" in out
        assert "hits@1" in out

    def test_unknown_decoder_names_choices(self):
        with pytest.raises(ConfigError, match="valid decoders.*hungarian"):
            main(["engine", "cora", "--decoder", "viterbi"])
