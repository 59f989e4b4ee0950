"""Self-tests for the benchmark's output checks.

Each test feeds a check a corrupted output and asserts that the check fails
and that the run's failed-operation fraction rises. Run with:

    python3 -m pytest bench/test_checks.py -q
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pnm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from scrollbin import binet, cli  # noqa: E402


def _op(label, path=None, stdout="", outputs=None):
    if outputs is None:
        outputs = {str(path): workloads.digest(path)} if path else {}
    return workloads.Op(label, [], 1.0, 0, stdout, "", outputs)


def _failed_frac(ops):
    return run._summary(ops)["ops_failed_frac"]


# ---------------------------------------------------------------------------
# page-binarize
# ---------------------------------------------------------------------------


@pytest.fixture
def binarize_dir(tmp_path):
    rng = np.random.default_rng(0)
    ref_out = rng.uniform(-0.03, 0.03, (20, 30))
    ref_out[3, 4] = 0.5 * workloads.BAND_TOL  # one pixel inside the tolerance band
    np.save(tmp_path / "ref_out.npy", ref_out)
    (tmp_path / "ref.json").write_text(json.dumps({"height": 20, "width": 30}))
    return tmp_path, ref_out < 0


def _mask(d, name, ink):
    pnm.write_p4(d / name, ink)
    return d / name


def test_mask_flipped_outside_band_fails(binarize_dir):
    d, good = binarize_dir
    work = workloads.PageBinarize(d, threads2=2)
    ops = [_op("binarize-t1", _mask(d, "a.pbm", good))]
    work.check(ops)
    assert _failed_frac(ops) == 0

    bad = good.copy()
    bad[10, 10] = ~bad[10, 10]
    ops.append(_op("binarize-t1", _mask(d, "b.pbm", bad)))
    work.check(ops[-1:])
    assert not ops[-1].ok and "float64 reference" in ops[-1].reason
    assert _failed_frac(ops) == 0.5


def test_mask_flipped_inside_band_passes(binarize_dir):
    d, good = binarize_dir
    inside = good.copy()
    inside[3, 4] = ~inside[3, 4]
    ops = [_op("binarize-t1", _mask(d, "a.pbm", inside))]
    workloads.PageBinarize(d, threads2=2).check(ops)
    assert ops[0].ok


def test_masks_differing_between_thread_counts_fail(binarize_dir):
    d, good = binarize_dir
    other = good.copy()
    other[3, 4] = ~other[3, 4]  # still within tolerance of the reference
    ops = [_op("binarize-t1", _mask(d, "t1.pbm", good)), _op("binarize-t2", _mask(d, "t2.pbm", other))]
    workloads.PageBinarize(d, threads2=2).check(ops)
    assert ops[0].ok
    assert not ops[1].ok and "differs from the first binarize-t1" in ops[1].reason
    assert _failed_frac(ops) == 0.5


# ---------------------------------------------------------------------------
# train-warm
# ---------------------------------------------------------------------------


@pytest.fixture
def train_dir(tmp_path):
    init = binet.build_model(3, 1, encoder_channels=(4, 2), decoder_channels=(4, 1), dropout_stages=())
    (tmp_path / "ref.json").write_text(json.dumps({
        "init_step": 10,
        "steps": 4,
        "init_digests": {n: hashlib.sha256(a.tobytes()).hexdigest() for n, a in init.named_tensors()},
    }))
    trained = binet.build_model(3, 2, encoder_channels=(4, 2), decoder_channels=(4, 1), dropout_stages=())
    trained.step = 14
    binet.save_weights(trained, tmp_path / "trained.bnet")
    return tmp_path


def _train_op(d, losses, name):
    history = d / name
    history.write_text(json.dumps(losses))
    return _op("train", outputs={str(d / "trained.bnet"): workloads.digest(d / "trained.bnet"),
                                 str(history): workloads.digest(history)})


def test_nan_loss_fails(train_dir):
    work = workloads.TrainWarm(train_dir, seed=0)
    ops = [_train_op(train_dir, [0.5], "h1.json")]
    work.check(ops)
    assert ops[0].ok, ops[0].reason

    ops.append(_train_op(train_dir, [math.nan], "h2.json"))
    work.check(ops[-1:])
    assert not ops[-1].ok and "non-finite loss" in ops[-1].reason
    assert _failed_frac(ops) == 0.5


def test_wrong_step_counter_fails(train_dir):
    work = workloads.TrainWarm(train_dir, seed=0)
    work.ref["steps"] = 5
    ops = [_train_op(train_dir, [0.5], "h.json")]
    work.check(ops)
    assert not ops[0].ok and "step counter" in ops[0].reason


# ---------------------------------------------------------------------------
# classical-eval
# ---------------------------------------------------------------------------


@pytest.fixture
def classical_dir(tmp_path):
    rng = np.random.default_rng(3)
    page = rng.integers(0, 256, (16, 18)).astype(np.uint8)
    np.save(tmp_path / "page.npy", page)
    gt = rng.random(page.shape) < 0.3
    pnm.write_p4(tmp_path / "gt.pbm", gt)
    for m in workloads.METHODS:
        pnm.write_p4(tmp_path / f"{m}.pbm", gt ^ (rng.random(page.shape) < 0.1))
    (tmp_path / "ref.json").write_text(json.dumps({"otsu_threshold": None, "otsu_local_samples": []}))
    return tmp_path


def test_wrong_f_measure_fails(classical_dir):
    work = workloads.ClassicalEval(classical_dir)
    good = workloads.Runner(cli).call("evaluate-set", ["evaluate-set", "--pairs", work.manifest, "--json"],
                                      list(work.masks.values()))
    ops = [good]
    work.check(ops)
    assert good.ok, good.reason

    report = json.loads(good.stdout)
    report["images"][1]["f"] += 1e-3
    ops.append(_op("evaluate-set", stdout=json.dumps(report), outputs=good.outputs))
    work.check(ops[-1:])
    assert not ops[-1].ok and "naive oracle" in ops[-1].reason
    assert _failed_frac(ops) == 0.5


def test_otsu_mask_off_oracle_fails(classical_dir):
    work = workloads.ClassicalEval(classical_dir)
    work.ref["otsu_threshold"] = 100
    pnm.write_p4(classical_dir / "otsu.pbm", work.page <= 101)
    ops = [_op("baseline-otsu", classical_dir / "otsu.pbm")]
    work.check(ops)
    assert not ops[0].ok and "exact oracle" in ops[0].reason


# ---------------------------------------------------------------------------
# Tracing and the declared metrics
# ---------------------------------------------------------------------------


def test_self_time_subtracts_overlapping_children_once():
    parent = spans.Span(1, "binet.binarize_image", 0.0, 10.0, None, "r", "op")
    kids = [spans.Span(2, "binet.forward", 1.0, 5.0, 1, "r", "op"),
            spans.Span(3, "binet.forward", 3.0, 7.0, 1, "r", "op")]  # two threads overlap on [3, 5]
    assert spans.self_times([parent, *kids])[1] == pytest.approx(4.0)


def test_layer_map_covers_every_declared_per_layer_metric():
    declared = [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    mapped = json.loads((BENCH / "layers.json").read_text())
    assert sorted(declared) == sorted(mapped)
