"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The paired-run criteria use small calibrated configs so the
whole suite stays desk-scale.
"""

import json
import time

import numpy as np
import pytest

from hardet.cli import main
from hardet.geom import Box, iou
from hardet.losses import (
    SURFACE_LOC_GRID,
    SURFACE_P_GRID,
    HyperParams,
    NegativeSample,
    batch_objective,
    gradient_surface,
    harmonic_cls_grad,
    harmonic_loss,
    standard_det_loss,
)
from hardet.gate import BATCH_DRAWS, GRADCHECK_TOLERANCE, random_positive_sample, run_gradcheck
from hardet.harness import (
    OptimizerConfig,
    SceneConfig,
    ToyModel,
    generate_scenes,
    refinement_experiment,
    train_toy,
)
from hardet.geom import encode
from hardet.losses import PositiveSample
from hardet.metrics import (
    DetectionArrays,
    GroundTruthArrays,
    average_precision,
    nms,
    refinement_gain,
)


def make_sample(probs, gt_class=1, anchor=(0, 0, 2, 2), gt=(0.5, 0.5, 2.5, 2.5)):
    anchor = Box.from_array(anchor)
    gt_box = Box.from_array(gt)
    return PositiveSample(
        probs=np.asarray(probs, dtype=float),
        gt_class=gt_class,
        d=encode(gt_box, anchor),
        anchor=anchor,
        gt_box=gt_box,
    )


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_gradient_oracle():
    # the gate's contract: every entry within 1e-5, the training kernel over 4 batch draws
    assert GRADCHECK_TOLERANCE == 1e-5
    assert BATCH_DRAWS == 4
    hp = HyperParams()
    start = time.perf_counter()
    result = run_gradcheck(hp, 5, num_samples=500, seed=0)
    elapsed = time.perf_counter() - start
    for entry in result.entries:
        assert entry.max_err <= 1e-5, f"{entry.op}: {entry.max_err:.3e}"
    for op in ("harmonic_cls_grad", "harmonic_reg_grad", "full_loc_loss", "tc_loss", "batch_objective"):
        assert any(e.op == op for e in result.entries)
    assert elapsed < 10.0, f"oracle took {elapsed:.1f}s"
    report(1, "gradient oracle (500 samples, 1e-5, <10s)")


def test_criterion_02_beta_c_identity():
    hp = HyperParams()
    rng = np.random.default_rng(123)
    anchor = Box(0, 0, 2, 2)
    gt_box = Box(0.4, 0.3, 2.3, 2.4)
    worst = 0.0
    for _ in range(10_000):
        probs = rng.dirichlet(np.ones(5))
        sample = make_sample(probs, gt_class=int(rng.integers(0, 5)),
                             anchor=anchor.as_array(), gt=gt_box.as_array())
        _, _, beta_c = harmonic_loss(sample, hp, loc=float(rng.uniform(0, 3)))
        worst = max(worst, abs(beta_c - float(probs[sample.gt_class])))
    assert worst <= 1e-9, f"max |beta_c - p| = {worst:.3e}"
    report(2, "beta_c == p_gt on 10,000 samples (1e-9)")


def test_criterion_03_closed_form_spot_values():
    s_half = make_sample([0.5, 0.5], gt_class=1)
    assert harmonic_cls_grad(s_half, 0.0) == pytest.approx(-4.0, abs=1e-6)
    s_seven = make_sample([0.3, 0.7], gt_class=1)
    assert harmonic_cls_grad(s_seven, 0.5) == pytest.approx(-1.795044, abs=1e-6)
    report(3, "gradient spot values -4.0 and -1.795044 (1e-6)")


def test_criterion_04_hiou_monotonicity():
    grid = np.linspace(0.0, 1.0, 10_001)
    for gamma in (0.0, 0.5, 0.8, 1.0):
        values = (1.0 + grid) ** gamma * (1.0 - grid)
        assert np.all(np.diff(values) <= 1e-12), f"gamma={gamma} not monotone"
    bad = (1.0 + grid) ** 1.5 * (1.0 - grid)
    assert np.any(np.diff(bad) > 1e-12), "gamma=1.5 should violate monotonicity"
    report(4, "HIoU monotone for gamma<=1, violated at 1.5 (10,001-point grid)")


def test_criterion_05_compatibility_reduction():
    hp = HyperParams()
    compat = hp.compat_standard()
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(25):
        positives = [random_positive_sample(rng, hp, 5) for _ in range(int(rng.integers(1, 6)))]
        negatives = [
            NegativeSample(probs=rng.dirichlet(np.ones(5)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        got = batch_objective(positives, negatives, compat).value
        want = standard_det_loss(positives, negatives)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12, f"max |compat - standard| = {worst:.3e}"
    report(5, "compatibility mode == standard loss (1e-12)")


def _paired_run(seed: int) -> tuple[bool, bool, float]:
    scene_cfg = SceneConfig(seed=seed, anchor_spacing=3.0, jitter=0.12)
    scene_set = generate_scenes(scene_cfg)
    hp = HyperParams()
    logs = {}
    slowest = 0.0
    for mode in ("harmonic_det", "standard"):
        opt = OptimizerConfig(
            loss_mode=mode, learning_rate=0.2, steps=500, log_every=50, gradcheck_samples=10
        )
        model = ToyModel.zeros(scene_set.total_anchors, scene_cfg.num_classes)
        start = time.perf_counter()
        _, log = train_toy(scene_set, model, opt, hp)
        slowest = max(slowest, time.perf_counter() - start)
        logs[mode] = log.records
    first, last = logs["harmonic_det"][0], logs["harmonic_det"][-1]
    aic_ok = last.aic < logs["standard"][-1].aic
    gap_ok = abs(last.mean_factor_r - last.mean_factor_c) < abs(
        first.mean_factor_r - first.mean_factor_c
    )
    return aic_ok, gap_ok, slowest


def test_criterion_06_paired_training_direction():
    aic_wins = gap_wins = 0
    for seed in range(10):
        aic_ok, gap_ok, slowest = _paired_run(seed)
        assert slowest < 60.0, f"seed {seed}: run took {slowest:.1f}s"
        aic_wins += aic_ok
        gap_wins += gap_ok
    assert aic_wins >= 9, f"final AIC lower under harmonic mode at only {aic_wins}/10 seeds"
    assert gap_wins >= 9, f"factor gap shrank at only {gap_wins}/10 seeds"
    report(6, f"paired runs: AIC direction {aic_wins}/10, gap shrink {gap_wins}/10 (need 9)")


def test_criterion_07_refinement_gain_direction():
    bin_low = 8  # [0.8, 0.9)
    for seed in range(5):
        scene_cfg = SceneConfig(
            seed=seed, num_scenes=60, objects_per_scene=(3, 5), jitter=0.18
        )
        scene_set = generate_scenes(scene_cfg)
        hp = HyperParams()
        opt = OptimizerConfig(learning_rate=0.002, steps=20, gradcheck_samples=0)
        result = refinement_experiment(scene_set, opt, hp)
        plain = refinement_gain(result.iou_before, result.iou_plain)
        weighted = refinement_gain(result.iou_before, result.iou_weighted)
        assert plain.counts[bin_low] > 0, f"seed {seed}: empty [0.8, 0.9) bin"
        assert weighted.means[bin_low] >= plain.means[bin_low], (
            f"seed {seed}: weighted {weighted.means[bin_low]:.4f} "
            f"< plain {plain.means[bin_low]:.4f}"
        )
    report(7, "high-IoU refinement gain: weighted >= plain at 5/5 seeds")


def test_criterion_08_gradient_surface_structure():
    np.testing.assert_array_equal(SURFACE_P_GRID, np.linspace(0.05, 1.0, 20))
    np.testing.assert_array_equal(SURFACE_LOC_GRID, np.linspace(0.0, 1.2, 13))
    standard = gradient_surface("standard")
    for row in standard:
        np.testing.assert_array_equal(row, standard[0])
    harmonic = gradient_surface("harmonic")
    assert np.all(harmonic < 0)
    magnitudes = np.abs(harmonic)
    assert np.all(np.diff(magnitudes, axis=0) < 0)
    report(8, "surface: standard flat in loc, harmonic |grad| strictly decreasing")


def test_criterion_09_metrics_sanity():
    rng = np.random.default_rng(5)
    boxes, classes = [], []
    for k in range(12):
        x, y = rng.uniform(0, 20, size=2)
        w, h = rng.uniform(1, 4, size=2)
        boxes.append([x, y, x + w, y + h])
        classes.append(int(rng.integers(1, 4)))
    scenes = [0] * 12
    gts = GroundTruthArrays(boxes, classes, scenes)
    dets = DetectionArrays(boxes, classes, [(k + 1) / 13.0 for k in range(12)], scenes)
    result = average_precision(dets, gts)
    assert list(result.per_threshold) == [0.5, 0.6, 0.7, 0.8, 0.9]
    for threshold, value in result.per_threshold.items():
        assert value == pytest.approx(1.0), f"AP@{threshold} = {value}"

    for trial in range(1000):
        n = int(rng.integers(0, 12))
        boxes, classes, scores = [], [], []
        for _ in range(n):
            x, y = rng.uniform(0, 8, size=2)
            w, h = rng.uniform(0.5, 4, size=2)
            boxes.append([x, y, x + w, y + h])
            classes.append(int(rng.integers(1, 4)))
            scores.append(float(rng.uniform(0, 1)))
        threshold = float(rng.uniform(0.2, 0.9))
        sample = DetectionArrays(np.reshape(boxes, (n, 4)), classes, scores, [0] * n)
        kept = nms(sample, threshold).tolist()
        assert len(set(kept)) == len(kept), "a row kept twice"
        assert all(0 <= k < n for k in kept), "output not a subset"
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if classes[a] == classes[b]:
                    assert iou(Box(*boxes[a]), Box(*boxes[b])) < threshold
        again = nms(sample.take(np.array(kept, dtype=int)), threshold)
        assert again.tolist() == list(range(len(kept))), "not idempotent"
    report(9, "perfect-detector AP 1.0 at all thresholds; NMS invariants on 1000 sets")


def test_criterion_10_train_determinism(tmp_path):
    config = {
        "scene": {"num_scenes": 2, "objects_per_scene": [2, 3], "anchor_spacing": 4.0},
        "optimizer": {"steps": 40, "log_every": 10, "gradcheck_samples": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--seed", "11", "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--seed", "11", "--out", str(out_b)]) == 0
    for name in ("trainlog.csv", "scatter.csv", "detections.jsonl", "aic_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(10, "repeated cmd_train is byte-identical")
