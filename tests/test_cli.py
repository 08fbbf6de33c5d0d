"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


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


class TestEngineCommand:
    def test_list_backends(self, capsys):
        assert main(["engine", "--list-backends"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()]
        assert names == [
            "fused-dense", "partial-dummy", "partial-unbalanced", "sparse",
        ]

    def test_engine_requires_dataset_without_list(self):
        with pytest.raises(SystemExit, match="dataset"):
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

    def test_unknown_backend_names_choices(self):
        with pytest.raises(SystemExit, match="valid backends.*fused-dense"):
            main(["engine", "cora", "--backend", "tpu"])

    def test_float32_on_a_backend_without_it_names_fused_dense(self):
        with pytest.raises(SystemExit, match="no float32 variant.*fused-dense"):
            main(["engine", "cora", "--backend", "sparse", "--precision", "float32"])

    def test_unknown_method_names_choices(self):
        with pytest.raises(SystemExit, match="valid methods.*slotalign"):
            main(["align", "cora", "--method", "does-not-exist"])

    def test_align_accepts_backend_flag(self, capsys):
        code = main(
            [
                "align", "cora",
                "--scale", "0.02", "--iters", "20",
                "--backend", "partial-dummy",
            ]
        )
        assert code == 0
        assert "hits@1" in capsys.readouterr().out

    def test_sparse_backend_rejected_for_dense_methods(self):
        with pytest.raises(SystemExit, match="dense"):
            main(["align", "cora", "--backend", "sparse"])
        with pytest.raises(SystemExit, match="dense"):
            main(
                ["align", "cora", "--method", "partitioned",
                 "--backend", "sparse"]
            )

    def test_backend_rejected_for_non_engine_methods(self):
        with pytest.raises(SystemExit, match="only applies"):
            main(
                ["align", "cora", "--method", "knn",
                 "--backend", "partial-dummy"]
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
        with pytest.raises(SystemExit, match="valid decoders.*hungarian"):
            main(["engine", "cora", "--decoder", "viterbi"])
