import json

import numpy as np
import pytest

from scrollbin import binet
from scrollbin.cli import main
from scrollbin.imagecore import BinaryMask, GrayImage, RgbImage, read_pnm, write_pnm


def write_gray(path, arr):
    write_pnm(GrayImage(np.asarray(arr, dtype=np.uint8)), path)
    return str(path)


def write_mask(path, arr):
    write_pnm(BinaryMask(np.asarray(arr, dtype=bool)), path)
    return str(path)


@pytest.fixture
def tiny_weights(tmp_path):
    model = binet.build_model(
        1, 5, encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1), dropout_stages=()
    )
    path = tmp_path / "tiny.bnet"
    binet.save_weights(model, path)
    return str(path)


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["evaluate", "--pred", "x.pbm"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        gt = write_mask(tmp_path / "a.pbm", np.zeros((4, 4)))
        assert main(["evaluate", "--pred", str(tmp_path / "nope.pbm"), "--gt", gt]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(b"P5 trash")
        gt = write_mask(tmp_path / "a.pbm", np.zeros((4, 4)))
        assert main(["evaluate", "--pred", str(bad), "--gt", gt]) == 2


class TestEvaluate:
    def test_self_comparison_json(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = write_mask(tmp_path / "a.pbm", rng.random((12, 12)) < 0.4)
        assert main(["evaluate", "--pred", path, "--gt", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"f": 1.0, "pf": 1.0, "psnr": "inf", "drd": 0.0}
        assert list(payload.keys()) == ["f", "pf", "psnr", "drd"]

    def test_text_output_order(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        pred = write_mask(tmp_path / "p.pbm", rng.random((10, 10)) < 0.5)
        gt = write_mask(tmp_path / "g.pbm", rng.random((10, 10)) < 0.5)
        assert main(["evaluate", "--pred", pred, "--gt", gt]) == 0
        keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["f", "pf", "psnr", "drd"]

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        pred = write_mask(tmp_path / "p.pbm", np.zeros((4, 4)))
        gt = write_mask(tmp_path / "g.pbm", np.zeros((5, 4)))
        assert main(["evaluate", "--pred", pred, "--gt", gt]) == 2


class TestEvaluateSet:
    def test_manifest_aggregation(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        lines = []
        for i in range(3):
            gt_arr = rng.random((9, 9)) < 0.4
            pred_arr = gt_arr ^ (rng.random((9, 9)) < 0.1)
            pred = write_mask(tmp_path / f"p{i}.pbm", pred_arr)
            gt = write_mask(tmp_path / f"g{i}.pbm", gt_arr)
            lines.append(f"{pred}\t{gt}")
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["images"]) == 3
        assert list(payload["mean"].keys()) == ["f", "pf", "psnr", "drd"]
        assert payload["psnr_inf_count"] == 0

    def test_threads_identical_output(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        lines = []
        for i in range(4):
            gt_arr = rng.random((8, 8)) < 0.5
            pred = write_mask(tmp_path / f"p{i}.pbm", gt_arr ^ (rng.random((8, 8)) < 0.2))
            gt = write_mask(tmp_path / f"g{i}.pbm", gt_arr)
            lines.append(f"{pred}\t{gt}")
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 0
        single = capsys.readouterr().out
        assert main(["evaluate-set", "--pairs", str(manifest), "--json", "--threads", "4"]) == 0
        assert capsys.readouterr().out == single

    def test_bad_manifest_line(self, tmp_path):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("only-one-column\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 2

    def test_manifest_not_utf8(self, tmp_path, capsys):
        path = write_mask(tmp_path / "m.pbm", np.eye(8))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_bytes(f"{path}\t{path}\n".encode() + b"\xff\xfe\tgt.pbm\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:2: not valid UTF-8")
        assert "Traceback" not in err

    def test_text_report(self, tmp_path, capsys):
        path = write_mask(tmp_path / "m.pbm", np.eye(8))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{path}\t{path}\n")
        assert main(["evaluate-set", "--pairs", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("f 1.000000")
        assert "psnr_inf_count 1" in out
        assert "psnr n/a" in out  # the only PSNR was infinite


class TestImageCommands:
    def test_fuse_channels(self, tmp_path):
        rng = np.random.default_rng(4)
        bands = [rng.integers(0, 256, (6, 5), dtype=np.uint8) for _ in range(3)]
        paths = [write_gray(tmp_path / f"b{i}.pgm", band) for i, band in enumerate(bands)]
        out = tmp_path / "fused.ppm"
        code = main(["fuse", "--r", paths[0], "--g", paths[1], "--b", paths[2], "--out", str(out)])
        assert code == 0
        fused = read_pnm(out)
        for c in range(3):
            assert np.array_equal(fused.pixels[:, :, c], bands[c])

    def test_fuse_dimension_mismatch(self, tmp_path):
        a = write_gray(tmp_path / "a.pgm", np.zeros((4, 4)))
        b = write_gray(tmp_path / "b.pgm", np.zeros((4, 5)))
        assert main(["fuse", "--r", a, "--g", b, "--b", a, "--out", str(tmp_path / "f.ppm")]) == 2

    def test_tile_untile_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 256, (37, 53), dtype=np.uint8)
        src = write_gray(tmp_path / "img.pgm", arr)
        patches = tmp_path / "patches"
        assert main(["tile", "--input", src, "--patch", "16", "--outdir", str(patches)]) == 0
        assert (patches / "r0_c0.pnm").exists()
        assert (patches / "r2_c3.pnm").exists()
        out = tmp_path / "back.pgm"
        code = main(
            ["untile", "--indir", str(patches), "--width", "53", "--height", "37", "--out", str(out)]
        )
        assert code == 0
        assert np.array_equal(read_pnm(out).pixels, arr)

    def test_baseline_methods(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.integers(0, 256, (20, 20), dtype=np.uint8)
        src = write_gray(tmp_path / "img.pgm", arr)
        for method in ("otsu", "otsu-local", "niblack", "sauvola"):
            out = tmp_path / f"{method}.pbm"
            args = ["baseline", "--method", method, "--input", src, "--out", str(out)]
            if method != "otsu":
                args += ["--window", "7"]
            assert main(args) == 0
            assert isinstance(read_pnm(out), BinaryMask)

    def test_baseline_accepts_color_input(self, tmp_path):
        rng = np.random.default_rng(7)
        img = RgbImage(rng.integers(0, 256, (12, 12, 3), dtype=np.uint8))
        src = tmp_path / "img.ppm"
        write_pnm(img, src)
        out = tmp_path / "mask.pbm"
        assert main(["baseline", "--method", "otsu", "--input", str(src), "--out", str(out)]) == 0

    def test_make_gt(self, tmp_path):
        canvas = np.full((8, 8, 3), 255, dtype=np.uint8)
        canvas[2, 3] = (255, 0, 0)
        canvas[5, 5] = (210, 40, 40)
        src = tmp_path / "marked.ppm"
        write_pnm(RgbImage(canvas), src)
        out = tmp_path / "gt.pbm"
        assert main(["make-gt", "--marked", str(src), "--out", str(out)]) == 0
        mask = read_pnm(out)
        assert int(mask.ink.sum()) == 2
        assert mask.ink[2, 3] and mask.ink[5, 5]


class TestModelCommands:
    def test_binarize_with_gray_model(self, tmp_path, tiny_weights):
        rng = np.random.default_rng(8)
        src = write_gray(tmp_path / "img.pgm", rng.integers(0, 256, (20, 30)))
        out = tmp_path / "out.pbm"
        code = main(["binarize", "--model", tiny_weights, "--input", src, "--out", str(out)])
        assert code == 0
        mask = read_pnm(out)
        assert (mask.width, mask.height) == (30, 20)

    def test_binarize_converts_color_for_gray_model(self, tmp_path, tiny_weights):
        rng = np.random.default_rng(9)
        img = RgbImage(rng.integers(0, 256, (18, 22, 3), dtype=np.uint8))
        src = tmp_path / "img.ppm"
        write_pnm(img, src)
        out = tmp_path / "out.pbm"
        assert main(["binarize", "--model", tiny_weights, "--input", str(src), "--out", str(out)]) == 0

    def test_binarize_threads_equivalent(self, tmp_path, tiny_weights):
        rng = np.random.default_rng(10)
        src = write_gray(tmp_path / "img.pgm", rng.integers(0, 256, (40, 40)))
        out1, out4 = tmp_path / "o1.pbm", tmp_path / "o4.pbm"
        assert main(["binarize", "--model", tiny_weights, "--input", src, "--out", str(out1)]) == 0
        code = main(
            ["binarize", "--model", tiny_weights, "--input", src, "--out", str(out4), "--threads", "4"]
        )
        assert code == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_threads_env_var(self, tmp_path, tiny_weights, monkeypatch):
        monkeypatch.setenv("SCROLLBIN_THREADS", "3")
        rng = np.random.default_rng(11)
        src = write_gray(tmp_path / "img.pgm", rng.integers(0, 256, (16, 16)))
        out = tmp_path / "out.pbm"
        assert main(["binarize", "--model", tiny_weights, "--input", src, "--out", str(out)]) == 0

    def test_non_integer_threads_env_var_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCROLLBIN_THREADS", "abc")
        gt = write_mask(tmp_path / "gt.pbm", np.eye(8, dtype=bool))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{gt}\t{gt}\n")
        assert main(["evaluate-set", "--pairs", str(manifest)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "SCROLLBIN_THREADS" in errors[0]

    def test_train_requires_matching_gt(self, tmp_path):
        write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        code = main(
            ["train", "--data", str(tmp_path), "--mode", "gray", "--epochs", "1", "--out", str(tmp_path / "m.bnet")]
        )
        assert code == 2

    def test_full_pipeline_smoke(self, tmp_path, capsys):
        # fuse -> train (2 epochs, tiny fixtures) -> binarize -> evaluate
        rng = np.random.default_rng(99)
        size = (40, 48)
        ink = np.zeros(size, dtype=bool)
        ink[10:14, 5:40] = True
        ink[20:34, 22:26] = True
        band_paths = []
        for i in range(3):
            band = np.clip(rng.normal(190 + 15 * i, 6, size), 0, 255)
            band[ink] = rng.normal(40, 5)
            band_paths.append(write_gray(tmp_path / f"band{i}.pgm", band))
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        fused = data_dir / "sample.ppm"
        assert (
            main(
                ["fuse", "--r", band_paths[0], "--g", band_paths[1], "--b", band_paths[2], "--out", str(fused)]
            )
            == 0
        )
        write_mask(data_dir / "sample.gt.pbm", ink)

        model_path = tmp_path / "model.bnet"
        code = main(
            [
                "train", "--data", str(data_dir), "--mode", "fused", "--epochs", "2",
                "--seed", "7", "--out", str(model_path),
            ]
        )
        assert code == 0

        pred_path = tmp_path / "pred.pbm"
        assert main(["binarize", "--model", str(model_path), "--input", str(fused), "--out", str(pred_path)]) == 0
        pred = read_pnm(pred_path)
        assert (pred.width, pred.height) == (48, 40)

        assert main(["evaluate", "--pred", str(pred_path), "--gt", str(data_dir / "sample.gt.pbm"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"f", "pf", "psnr", "drd"}

    @pytest.mark.parametrize(
        "lr, epochs, reason",
        [("nan", 1, "lr must be positive and finite"), ("1e30", 3, "loss is nan at step 2"),
         ("1e39", 1, "not finite after step 1")],
    )
    def test_diverging_training_writes_no_model(self, tmp_path, tiny_weights, capsys, lr, epochs, reason):
        # the tiny model takes 16x16 patches: one training step per epoch
        data = tmp_path / "data"
        data.mkdir()
        write_gray(data / "a.pgm", np.random.default_rng(12).integers(0, 256, (16, 16)))
        write_mask(data / "a.gt.pbm", np.eye(16, dtype=bool))
        out = tmp_path / "m.bnet"
        code = main(
            ["train", "--data", str(data), "--mode", "gray", "--init", tiny_weights,
             "--epochs", str(epochs), "--lr", lr, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]

    def test_bad_holdout_rejected(self, tmp_path):
        write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        write_mask(tmp_path / "a.gt.pbm", np.zeros((16, 16)))
        code = main(
            [
                "train", "--data", str(tmp_path), "--mode", "gray", "--epochs", "1",
                "--holdout", "1.5", "--out", str(tmp_path / "m.bnet"),
            ]
        )
        assert code == 2

    def test_holdout_reports_loss(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        for i in range(2):
            write_gray(tmp_path / f"img{i}.pgm", rng.integers(0, 256, (20, 20)))
            write_mask(tmp_path / f"img{i}.gt.pbm", rng.random((20, 20)) < 0.2)
        code = main(
            [
                "train", "--data", str(tmp_path), "--mode", "gray", "--epochs", "1",
                "--holdout", "0.5", "--seed", "3", "--out", str(tmp_path / "m.bnet"),
            ]
        )
        assert code == 0
        assert "holdout loss over 1 patches" in capsys.readouterr().err

    def test_color_mode_rejects_gray_input(self, tmp_path):
        write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        write_mask(tmp_path / "a.gt.pbm", np.zeros((16, 16)))
        code = main(
            ["train", "--data", str(tmp_path), "--mode", "color", "--epochs", "1", "--out", str(tmp_path / "m.bnet")]
        )
        assert code == 2
