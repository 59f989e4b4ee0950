import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import stroke_ink

from scrollbin import binet, cli
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
    model = binet.build_model(1, 5, encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1))
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
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: the following arguments are required: command"]
        assert captured.err.startswith(errors[0] + "\nusage: scrollbin ")
        assert captured.out == ""

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

    def test_ground_truth_too_wide_to_weigh_is_data_error(self, tmp_path, capsys):
        # The pseudo-F search packs each squared distance, up to the squared
        # diagonal, with a column offset into one int64: a one-row strip fits
        # up to 1,321,123 pixels wide.
        for width, code in ((1_321_123, 0), (1_321_124, 2)):
            ink = np.zeros((1, width), dtype=bool)
            ink[0, ::10] = True
            path = write_mask(tmp_path / f"strip{width}.pbm", ink)
            assert main(["evaluate", "--pred", path, "--gt", path, "--json"]) == code
            out, err = capsys.readouterr()
            if code == 0:
                assert json.loads(out)["pf"] == 1.0 and err == ""
            else:
                assert out == ""
                assert err == f"error: a {width}x1 ground truth is too large to weigh\n"


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

    def test_threads_identical_output(self, tmp_path, capsys, monkeypatch):
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

        # A thread count above the CPU count starts only as many workers as CPUs.
        asked = []

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))  # never more threads than the cap

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert main(["evaluate-set", "--pairs", str(manifest), "--json", "--threads", "64"]) == 0
        assert asked == [2]
        assert capsys.readouterr().out == single

    @staticmethod
    def method_major(tmp_path, rng):
        """Three methods' preds over two ground truths, one method after another."""
        gts = [rng.random((14, 18)) < 0.35 for _ in range(2)]
        gt_paths = [write_mask(tmp_path / f"g{k}.pbm", g) for k, g in enumerate(gts)]
        lines = []
        for m in range(3):
            for k, g in enumerate(gts):
                pred = write_mask(tmp_path / f"m{m}_{k}.pbm", g ^ (rng.random(g.shape) < 0.1 * m))
                lines.append((pred, gt_paths[k]))
        return lines

    def test_method_major_manifest_matches_evaluate(self, tmp_path, capsys):
        lines = self.method_major(tmp_path, np.random.default_rng(12))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(f"{pred}\t{gt}\n" for pred, gt in lines))
        expected = []
        for pred, gt in lines:
            assert main(["evaluate", "--pred", pred, "--gt", gt, "--json"]) == 0
            expected.append({"pred": pred, "gt": gt, **json.loads(capsys.readouterr().out)})
        assert main(["evaluate-set", "--pairs", str(manifest), "--json", "--threads", "1"]) == 0
        single = capsys.readouterr().out
        assert json.loads(single)["images"] == expected
        assert main(["evaluate-set", "--pairs", str(manifest), "--json", "--threads", "4"]) == 0
        assert capsys.readouterr().out == single

    def test_each_ground_truth_read_once(self, tmp_path, capsys, monkeypatch):
        lines = self.method_major(tmp_path, np.random.default_rng(13))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(f"{pred}\t{gt}\n" for pred, gt in lines))
        reads = []
        read = cli._read

        def counting(path, kind):
            reads.append(path)
            return read(path, kind)

        monkeypatch.setattr(cli, "_read", counting)
        for threads in ("1", "4"):
            reads.clear()
            assert main(["evaluate-set", "--pairs", str(manifest), "--threads", threads]) == 0
            assert sorted(reads) == sorted({gt for _, gt in lines} | {pred for pred, _ in lines})
        capsys.readouterr()

    def test_one_ground_truth_alive_at_a_time(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        lines = []
        for k in range(3):
            gt = stroke_ink(rng, 400, 900, 300)
            pred = write_mask(tmp_path / f"p{k}.pbm", gt ^ (rng.random(gt.shape) < 0.02))
            lines.append(f"{pred}\t{write_mask(tmp_path / f'g{k}.pbm', gt)}\n")
        peaks = []
        for manifest_lines in (lines[:1], lines):
            manifest = tmp_path / "pairs.tsv"
            manifest.write_text("".join(manifest_lines))
            tracemalloc.start()
            try:
                assert main(["evaluate-set", "--pairs", str(manifest), "--threads", "1"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] <= 1.10 * peaks[0]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_first_bad_line_reported_across_groups(self, tmp_path, capsys, threads):
        good = write_mask(tmp_path / "good.pbm", np.eye(8, dtype=bool))
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(b"P4 8 8\n\x00")
        missing = str(tmp_path / "missing.pbm")
        manifest = tmp_path / "pairs.tsv"
        # Line 2's ground truth is bad, line 4's pred is missing, and they are in different groups.
        manifest.write_text(f"{good}\t{good}\n{good}\t{bad}\n{good}\t{good}\n{missing}\t{good}\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(cli.ScrollbinError) as line_two:
            cli._read(bad, BinaryMask)
        assert captured.err == f"error: {line_two.value}\n"

        # Within one line a pred that fails to read wins over a bad ground truth.
        manifest.write_text(f"{good}\t{good}\n{missing}\t{bad}\n")
        assert main(["evaluate-set", "--pairs", str(manifest), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.pbm" in err and err.count("\n") == 1

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

    def test_infinite_drd_reports_null_std(self, tmp_path, capsys):
        # A ground truth with no ink has no non-uniform block, so one wrong
        # pixel gives DRD inf; the report must stay strict JSON.
        blank = np.zeros((16, 16), dtype=bool)
        speck = blank.copy()
        speck[5, 7] = True
        rng = np.random.default_rng(11)
        gt_arr = rng.random((16, 16)) < 0.4
        lines = [
            f"{write_mask(tmp_path / 'p0.pbm', speck)}\t{write_mask(tmp_path / 'g0.pbm', blank)}",
            f"{write_mask(tmp_path / 'p1.pbm', gt_arr ^ (rng.random((16, 16)) < 0.1))}"
            f"\t{write_mask(tmp_path / 'g1.pbm', gt_arr)}",
        ]
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("\n".join(lines) + "\n")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out, parse_constant=reject)
        assert payload["images"][0]["drd"] == "inf"
        assert payload["mean"]["drd"] == "inf"
        assert payload["std"]["drd"] is None
        assert isinstance(payload["std"]["f"], float)
        assert captured.err == ""
        assert main(["evaluate-set", "--pairs", str(manifest)]) == 0
        assert "drd inf +- n/a" in capsys.readouterr().out.splitlines()


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

    @pytest.mark.parametrize("flag,value", [("--width", "0"), ("--width", "-5"), ("--height", "0")])
    def test_untile_size_below_one(self, tmp_path, capsys, flag, value):
        src = write_gray(tmp_path / "img.pgm", np.zeros((37, 53), dtype=np.uint8))
        patches = tmp_path / "patches"
        assert main(["tile", "--input", src, "--patch", "16", "--outdir", str(patches)]) == 0
        capsys.readouterr()
        out = tmp_path / "u.pgm"
        size = {"--width": "53", "--height": "40", flag: value}
        argv = ["untile", "--indir", str(patches), "--out", str(out)]
        assert main(argv + [arg for item in size.items() for arg in item]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not out.exists()

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

    @pytest.mark.parametrize("method", ["otsu-local", "niblack", "sauvola"])
    def test_baseline_window_beyond_int64(self, tmp_path, capsys, method):
        rng = np.random.default_rng(6)
        src = write_gray(tmp_path / "img.pgm", rng.integers(0, 256, (9, 13), dtype=np.uint8))
        out, full = tmp_path / "huge.pbm", tmp_path / "full.pbm"
        base = ["baseline", "--method", method, "--input", src]
        assert main(base + ["--out", str(out), "--window", "99999999999999999999"]) == 0
        assert main(base + ["--out", str(full), "--window", str(2 * 13 + 1)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize(
        "method, flag, value",
        [("sauvola", "--bigr", "nan"), ("sauvola", "--bigr", "inf"), ("sauvola", "--k", "nan"),
         ("niblack", "--k", "inf"), ("niblack", "--k", "nan")],
    )
    def test_baseline_rejects_non_finite_parameters(self, tmp_path, capsys, method, flag, value):
        src = write_gray(tmp_path / "img.pgm", np.arange(64).reshape(8, 8))
        out = tmp_path / "mask.pbm"
        argv = ["baseline", "--method", method, "--input", src, "--out", str(out), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "must be finite" in captured.err
        assert captured.out == "" and not out.exists()

    def test_tile_rejects_patch_beyond_the_image(self, tmp_path, capsys):
        src = write_gray(tmp_path / "img.pgm", np.zeros((48, 64)))
        outdir = tmp_path / "patches"
        argv = ["tile", "--input", src, "--patch", "99999999999999999999", "--outdir", str(outdir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "would pad" in err
        assert not outdir.exists()

    def test_tile_pad_flag_is_usage_error(self, tmp_path, capsys):
        # edge replication is the only padding, so tile takes no --pad
        src = write_gray(tmp_path / "img.pgm", np.zeros((37, 53)))
        outdir = tmp_path / "patches"
        argv = ["tile", "--input", src, "--patch", "16", "--pad", "zero", "--outdir", str(outdir)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: unrecognized arguments: --pad zero"]
        assert captured.err.startswith(errors[0] + "\nusage: scrollbin ")
        assert captured.out == "" and not outdir.exists()

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


@pytest.fixture
def tiny_color_weights(tmp_path):
    model = binet.build_model(3, 6, encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1))
    path = tmp_path / "tiny3.bnet"
    binet.save_weights(model, path)
    return str(path)


def one_error_line(capsys, path) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0], err
    return err[0]


class TestInputReader:
    """baseline, binarize and train read their pages through one reader."""

    def test_bitmask_rejected_by_every_reader(self, tmp_path, capsys, tiny_weights):
        mask = write_mask(tmp_path / "ink.pbm", np.eye(16, dtype=bool))
        assert main(["baseline", "--method", "otsu", "--input", mask, "--out", str(tmp_path / "o.pbm")]) == 2
        first = one_error_line(capsys, mask)
        assert main(["binarize", "--model", tiny_weights, "--input", mask, "--out", str(tmp_path / "o.pbm")]) == 2
        assert one_error_line(capsys, mask) == first
        data = tmp_path / "data"
        data.mkdir()
        page = write_mask(data / "a.pgm", np.eye(16, dtype=bool))  # a bitmask under a page's name
        write_mask(data / "a.gt.pbm", np.eye(16, dtype=bool))
        argv = ["train", "--data", str(data), "--mode", "gray", "--epochs", "1", "--out", str(tmp_path / "m.bnet")]
        assert main(argv) == 2
        assert "bitmask" in one_error_line(capsys, page)
        assert not (tmp_path / "o.pbm").exists() and not (tmp_path / "m.bnet").exists()

    def test_gray_page_rejected_where_color_is_needed(self, tmp_path, capsys, tiny_color_weights):
        page = write_gray(tmp_path / "page.pgm", np.zeros((16, 16)))
        out = tmp_path / "o.pbm"
        assert main(["binarize", "--model", tiny_color_weights, "--input", page, "--out", str(out)]) == 2
        first = one_error_line(capsys, page)
        data = tmp_path / "data"
        data.mkdir()
        page = write_gray(data / "a.pgm", np.zeros((16, 16)))
        write_mask(data / "a.gt.pbm", np.zeros((16, 16)))
        argv = ["train", "--data", str(data), "--mode", "color", "--epochs", "1", "--out", str(tmp_path / "m.bnet")]
        assert main(argv) == 2
        assert one_error_line(capsys, page).split(": ", 2)[2] == first.split(": ", 2)[2]
        assert not out.exists() and not (tmp_path / "m.bnet").exists()

    @pytest.mark.parametrize("command", ["fuse", "make-gt", "evaluate", "evaluate-set", "train"])
    def test_wrong_kind_named_by_every_typed_reader(self, tmp_path, capsys, command):
        rng = np.random.default_rng(16)
        gray = write_gray(tmp_path / "gray.pgm", rng.integers(0, 256, (16, 16)))
        mask = write_mask(tmp_path / "mask.pbm", rng.random((16, 16)) < 0.3)
        color = tmp_path / "color.ppm"
        write_pnm(RgbImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)), color)
        out = tmp_path / "out.pnm"
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{mask}\t{mask}\n{mask}\t{color}\n")
        data = tmp_path / "data"
        data.mkdir()
        write_gray(data / "a.pgm", rng.integers(0, 256, (16, 16)))
        page_gt = write_gray(data / "a.gt.pbm", rng.integers(0, 256, (16, 16)))  # a gray page under a mask's name
        argv, bad, need, got = {
            "fuse": (["fuse", "--r", gray, "--g", str(color), "--b", gray, "--out", str(out)],
                     color, "a grayscale image", "a color image"),
            "make-gt": (["make-gt", "--marked", gray, "--out", str(out)], gray, "a color image", "a grayscale image"),
            "evaluate": (["evaluate", "--pred", gray, "--gt", mask], gray, "a bitmask", "a grayscale image"),
            "evaluate-set": (["evaluate-set", "--pairs", str(manifest)], color, "a bitmask", "a color image"),
            "train": (["train", "--data", str(data), "--mode", "gray", "--epochs", "1", "--out", str(out)],
                      page_gt, "a bitmask", "a grayscale image"),
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: expected {need}, got {got}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("suffix, mode, channels", [("pgm", "gray", 1), ("ppm", "color", 3), ("ppm", "gray", 1)])
    def test_fresh_model_takes_its_channels_from_the_data(self, tmp_path, monkeypatch, suffix, mode, channels):
        # A 4-stage model takes 16x16 patches; the full one would build 54M weights.
        built, real_build = [], binet.build_model

        def tiny_build(in_channels, seed):
            built.append(in_channels)
            return real_build(in_channels, seed, encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1))

        monkeypatch.setattr(binet, "build_model", tiny_build)
        monkeypatch.setattr(binet, "PATCH", 16)
        rng = np.random.default_rng(13)
        pixels = rng.integers(0, 256, (16, 16) if suffix == "pgm" else (16, 16, 3), dtype=np.uint8)
        write_pnm(GrayImage(pixels) if suffix == "pgm" else RgbImage(pixels), tmp_path / f"a.{suffix}")
        write_mask(tmp_path / "a.gt.pbm", rng.random((16, 16)) < 0.3)
        out = tmp_path / "m.bnet"
        assert main(["train", "--data", str(tmp_path), "--mode", mode, "--epochs", "1", "--out", str(out)]) == 0
        assert built == [channels]
        assert binet.load_weights(out).in_channels == channels


class TestTrainErrors:
    """Each train data error exits 2 with one line naming the file at fault, and writes no model."""

    @pytest.mark.parametrize("mode, weights", [("gray", "tiny_color_weights"), ("color", "tiny_weights")])
    def test_mode_checked_against_init_before_reading_pages(self, tmp_path, capsys, request, mode, weights):
        init = request.getfixturevalue(weights)
        out = tmp_path / "m.bnet"
        argv = ["train", "--data", str(tmp_path / "no-such-dir"), "--mode", mode, "--init", init,
                "--epochs", "1", "--out", str(out)]
        assert main(argv) == 2
        assert f"--mode {mode}" in one_error_line(capsys, init)
        assert not out.exists()

    def test_missing_ground_truth_names_full_paths(self, tmp_path, capsys):
        page = write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        out = tmp_path / "m.bnet"
        assert main(["train", "--data", str(tmp_path), "--mode", "gray", "--epochs", "1", "--out", str(out)]) == 2
        assert str(tmp_path / "a.gt.pbm") in one_error_line(capsys, page)
        assert not out.exists()

    def test_ground_truth_size_mismatch_names_full_paths(self, tmp_path, capsys):
        page = write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        gt = write_mask(tmp_path / "a.gt.pbm", np.zeros((16, 20)))
        out = tmp_path / "m.bnet"
        assert main(["train", "--data", str(tmp_path), "--mode", "gray", "--epochs", "1", "--out", str(out)]) == 2
        line = one_error_line(capsys, page)
        assert gt in line and "20x16" in line
        assert not out.exists()


NO_SCIPY_SCRIPT = """
import json, sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import scrollbin.cli

codes = [scrollbin.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def child_env() -> dict:
    """The environment for a child Python that imports this scrollbin."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_no_command_loads_scipy(tmp_path, tiny_weights, capsys):
    """A fresh interpreter in which scipy cannot be imported runs every
    subcommand, scoring included, and prints what an in-process call prints."""
    rng = np.random.default_rng(15)
    page = write_gray(tmp_path / "page.pgm", rng.integers(0, 256, (20, 30)))
    gt = write_mask(tmp_path / "gt.pbm", stroke_ink(rng, 20, 30, 4))
    data = tmp_path / "data"
    data.mkdir()
    write_gray(data / "a.pgm", rng.integers(0, 256, (16, 16)))
    write_mask(data / "a.gt.pbm", rng.random((16, 16)) < 0.3)
    marked = rng.integers(0, 256, (20, 30, 3)).astype(np.uint8)
    marked[5:9, 4:20] = (255, 0, 0)
    write_pnm(RgbImage(marked), tmp_path / "marked.ppm")
    pred, sauvola = str(tmp_path / "pred.pbm"), str(tmp_path / "s.pbm")
    (tmp_path / "pairs.tsv").write_text(f"{pred}\t{gt}\n{sauvola}\t{gt}\n")
    runs = [
        ["binarize", "--model", tiny_weights, "--input", page, "--out", pred],
        ["baseline", "--method", "sauvola", "--input", page, "--out", sauvola],
        ["fuse", "--r", page, "--g", page, "--b", page, "--out", str(tmp_path / "f.ppm")],
        ["tile", "--input", page, "--patch", "16", "--outdir", str(tmp_path / "tiles")],
        ["untile", "--indir", str(tmp_path / "tiles"), "--width", "30", "--height", "20",
         "--out", str(tmp_path / "u.pgm")],
        ["make-gt", "--marked", str(tmp_path / "marked.ppm"), "--out", str(tmp_path / "made.pbm")],
        ["train", "--data", str(data), "--mode", "gray", "--init", tiny_weights, "--epochs", "1",
         "--out", str(tmp_path / "m.bnet")],
        ["evaluate", "--pred", pred, "--gt", gt, "--json"],
        ["evaluate", "--pred", sauvola, "--gt", gt],
        ["evaluate-set", "--pairs", str(tmp_path / "pairs.tsv"), "--json", "--threads", "2"],
    ]
    assert {argv[0] for argv in runs} == set(cli.build_parser()._subparsers._group_actions[0].choices)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(runs)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    *printed, codes = proc.stdout.splitlines()
    assert json.loads(codes) == [0] * len(runs)
    assert [main(argv) for argv in runs] == [0] * len(runs)
    assert printed == capsys.readouterr().out.splitlines()


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

    def test_environment_sets_no_thread_count(self, tmp_path, tiny_weights, monkeypatch, capsys):
        # the thread count comes from --threads alone; the environment names none
        rng = np.random.default_rng(11)
        src = write_gray(tmp_path / "img.pgm", rng.integers(0, 256, (16, 16)))
        gt = write_mask(tmp_path / "gt.pbm", rng.random((16, 16)) < 0.3)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{gt}\t{gt}\n")
        runs = []
        for env in (None, "abc"):
            if env is not None:
                monkeypatch.setenv("SCROLLBIN_THREADS", env)
            out = tmp_path / f"out-{env}.pbm"
            assert main(["binarize", "--model", tiny_weights, "--input", src, "--out", str(out)]) == 0
            assert main(["evaluate-set", "--pairs", str(manifest), "--json"]) == 0
            runs.append((out.read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flag, env", [("0", None), ("-2", None), ("0", "3")])
    def test_threads_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:  # a count in the environment does not stand in for a bad flag
            monkeypatch.setenv("SCROLLBIN_THREADS", env)
        gt = write_mask(tmp_path / "gt.pbm", np.eye(8, dtype=bool))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{gt}\t{gt}\n")
        argv = ["evaluate-set", "--pairs", str(manifest), "--threads", flag]
        assert main(argv) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "at least 1" in errors[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["binarize", "evaluate-set"])
    def test_non_integer_threads_is_usage_error(self, tmp_path, capsys, command):
        argv = {
            "binarize": ["binarize", "--model", "m.bnet", "--input", "a.pgm", "--out", str(tmp_path / "o.pbm")],
            "evaluate-set": ["evaluate-set", "--pairs", "pairs.tsv"],
        }[command]
        assert main(argv + ["--threads", "abc"]) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: argument --threads: invalid int value: 'abc'"]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["binarize", "train"])
    def test_fifo_model_refused_without_blocking(self, tmp_path, command):
        # opening a FIFO that nothing writes to can block, so the command runs in a child with a timeout
        fifo = tmp_path / "model.bnet"
        os.mkfifo(fifo)
        page = write_gray(tmp_path / "a.pgm", np.zeros((16, 16)))
        write_mask(tmp_path / "a.gt.pbm", np.zeros((16, 16)))
        out = tmp_path / "out"
        argv = {
            "binarize": ["binarize", "--model", str(fifo), "--input", page, "--out", str(out)],
            "train": ["train", "--data", str(tmp_path), "--mode", "gray", "--init", str(fifo), "--epochs", "1",
                      "--out", str(out)],
        }[command]
        proc = subprocess.run([sys.executable, "-m", "scrollbin.cli", *argv],
                              capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {fifo}: not a regular file\n"
        assert proc.stdout == ""
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag, value, reason",
        [("--holdout", "2", "--holdout must be in [0, 1)"), ("--holdout", "nan", "--holdout must be in [0, 1)"),
         ("--epochs", "0", "epochs must be >= 1"), ("--lr", "-1", "lr must be positive and finite"),
         ("--batch", "0", "batch_size must be >= 1"), ("--seed", "-1", "seed must be >= 0")],
    )
    @pytest.mark.parametrize("init", ["missing", "corrupt"])
    def test_bad_flag_value_rejected_before_loading(self, tmp_path, capsys, flag, value, reason, init):
        init_path = tmp_path / "init.bnet"
        if init == "corrupt":
            init_path.write_bytes(b"XNET" + bytes(60))
        code = main(
            ["train", "--data", str(tmp_path / "no-such-dir"), "--mode", "gray", "--init", str(init_path),
             flag, value, "--out", str(tmp_path / "m.bnet")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]

    @pytest.mark.parametrize("step, code", [(2**64 - 2, 0), (2**64 - 1, 2)])
    def test_step_count_kept_below_u64_limit(self, tmp_path, capsys, step, code):
        # the tiny model takes 16x16 patches: one training step per epoch
        model = binet.build_model(1, 5, encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1))
        model.step = step
        init, out, data = tmp_path / "init.bnet", tmp_path / "m.bnet", tmp_path / "data"
        binet.save_weights(model, init)
        data.mkdir()
        write_gray(data / "a.pgm", np.random.default_rng(12).integers(0, 256, (16, 16)))
        write_mask(data / "a.gt.pbm", np.eye(16, dtype=bool))
        argv = ["train", "--data", str(data), "--mode", "gray", "--init", str(init), "--epochs", "1", "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert binet.load_weights(out).step == 2**64 - 1
        else:
            assert err == [f"error: step count {step} + 1 planned reaches 2**64, past a weights file's u64"]
            assert not out.exists()

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
