"""Scene generation, anchor matching, toy training, and the FD oracle."""

import math
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hardet.harness as harness
import hardet.losses as losses
from hardet import cli
from hardet.cli import main
from hardet.geom import (
    AnchorTargets,
    Box,
    Offsets,
    corners,
    decode,
    decode_arrays,
    decode_jacobian,
    iou,
    iou_arrays,
    iou_grad,
)
from hardet.losses import HyperParams, NegativeSample, PositiveSample, batch_objective, hiou_slope
from hardet.harness import (
    MAX_MATCH_PAIRS,
    MAX_SCENE_ANCHORS,
    PROB_DRAW_FLOOR,
    DivergenceError,
    GradientCheckError,
    NumericalError,
    OptimizerConfig,
    Scene,
    SceneConfig,
    ToyModel,
    finite_diff_grad,
    generate_scenes,
    match_anchors,
    model_detections,
    random_positive_sample,
    refinement_experiment,
    run_gradcheck,
    train_toy,
)
from hardet.metrics import aic, iou_histogram

import gate_reference
import match_reference
import scene_reference
import train_reference


class TestSceneConfig:
    def test_zero_scenes_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(num_scenes=0)

    def test_oversized_objects_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(canvas=(4.0, 4.0), anchor_scales=(5.0,))

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(positive_iou_threshold=1.0)

    def test_anchor_count_bounded_before_generation(self):
        # the default grid has 8 x 8 cells of one scale
        per_scene = 64
        SceneConfig(num_scenes=MAX_SCENE_ANCHORS // per_scene)
        with pytest.raises(ValueError, match="exceed the limit"):
            SceneConfig(num_scenes=MAX_SCENE_ANCHORS // per_scene + 1)
        with pytest.raises(ValueError, match="inf anchors"):
            SceneConfig(anchor_spacing=5e-324)

    def test_objects_bounded_before_generation(self):
        # 4 anchors per scene: every object must be able to claim one
        small = {"canvas": (16.0, 16.0), "anchor_spacing": 8.0}
        SceneConfig(objects_per_scene=(4, 4), **small)
        with pytest.raises(ValueError, match="upper bound 5 exceeds the 4 anchors per scene"):
            SceneConfig(objects_per_scene=(5, 5), **small)
        # 250 x 250 anchors: the IoU matrix of one scene is bounded
        big = {"num_scenes": 1, "canvas": (250.0, 250.0), "anchor_spacing": 1.0}
        SceneConfig(objects_per_scene=(1, MAX_MATCH_PAIRS // 62500), **big)
        with pytest.raises(ValueError, match="exceed the matching limit"):
            SceneConfig(objects_per_scene=(1, MAX_MATCH_PAIRS // 62500 + 1), **big)

    @pytest.mark.parametrize("key", ["anchor_spacing", "jitter"])
    def test_nan_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            SceneConfig(**{key: float("nan")})


def scene_bytes(ss):
    """The bytes of a scene set's arrays, anchors first."""
    gt = ss.ground_truth
    return [a.tobytes() for a in (ss.anchors, gt.boxes, gt.class_id, gt.scene)]


class TestGenerateScenes:
    def test_same_seed_is_identical(self):
        a = generate_scenes(SceneConfig(seed=5))
        b = generate_scenes(SceneConfig(seed=5))
        assert scene_bytes(a) == scene_bytes(b)

    def test_different_seeds_differ(self):
        a = generate_scenes(SceneConfig(seed=5))
        b = generate_scenes(SceneConfig(seed=6))
        assert scene_bytes(a) != scene_bytes(b)

    def test_boxes_inside_canvas(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=10))
        w, h = ss.config.canvas
        for scene in ss.scenes:
            for b in map(Box.from_array, scene.gt_boxes):
                assert 0.0 <= b.x1 <= b.x2 <= w
                assert 0.0 <= b.y1 <= b.y2 <= h

    def test_object_clipped_off_the_canvas_is_named(self):
        # at seed 0 an object's center lands left of the canvas: clipped, its
        # right edge falls left of its left edge
        message = (
            "object 2 of scene 0 has no area on the canvas: "
            "(0.0, 13.16210436977832, -0.5373522292928783, 16.0)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_scenes(SceneConfig(seed=0, anchor_spacing=3.0, jitter=0.9))

    def test_object_collapsed_by_rounding_is_named(self):
        # a 1e-17 anchor adds nothing to its center: every object has zero width
        with pytest.raises(
            ValueError,
            match=r"^object 0 of scene 0 has no area on the canvas: \(1\.0, 11\.0, 1\.0, 11\.0\)$",
        ):
            generate_scenes(SceneConfig(seed=0, anchor_scales=(1e-17,)))

    def test_arrays_are_read_only_views(self):
        ss = generate_scenes(SceneConfig(seed=1))
        assert ss.anchors.shape == (ss.anchors_per_scene, 4)
        assert ss.scenes is ss.scenes
        for a in (ss.anchors, ss.scenes[0].gt_boxes, ss.scenes[0].gt_classes):
            assert not a.flags.writeable
        assert [len(scene.gt_boxes) for scene in ss.scenes] == np.bincount(
            ss.ground_truth.scene
        ).tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_scenes=st.integers(1, 8),
        objects=st.tuples(st.integers(1, 4), st.integers(0, 3)),
        canvas=st.tuples(st.floats(4.0, 24.0), st.floats(4.0, 24.0)),
        spacing=st.floats(0.5, 4.0),
        scales=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
        # a wide jitter clips some objects off the canvas
        jitter=st.one_of(st.floats(0.0, 0.6), st.floats(0.8, 1.5)),
    )
    # objects clipped off the canvas, and collapsed by rounding: in x and y,
    # then in y alone
    @example(0, 4, (2, 2), (16.0, 16.0), 3.0, [3.0], 0.9)
    @example(126, 4, (2, 2), (16.0, 16.0), 3.0, [3.0], 0.9)
    @example(0, 4, (2, 2), (16.0, 16.0), 2.0, [1e-17], 0.35)
    @example(0, 4, (2, 2), (16.0, 16.0), 2.0, [1e-15], 0.35)
    def test_equals_the_box_reference(
        self, seed, num_scenes, objects, canvas, spacing, scales, jitter
    ):
        """The anchor grid and every scene's boxes and classes equal the
        per-``Box`` loops' bit for bit; a clipped object fails both alike."""
        try:
            cfg = SceneConfig(
                seed=seed, num_scenes=num_scenes, objects_per_scene=(objects[0], sum(objects)),
                canvas=canvas, anchor_spacing=spacing, anchor_scales=tuple(scales), jitter=jitter,
            )
        except ValueError:
            assume(False)
        grid = corners(scene_reference.anchor_grid(cfg))
        assert harness._anchor_grid(cfg).tobytes() == grid.tobytes()
        try:
            anchors, scenes = scene_reference.generate_scenes(cfg)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                generate_scenes(cfg)
            assert str(got.value) == str(exc)
            return
        ss = generate_scenes(cfg)
        assert ss.anchors.tobytes() == corners(anchors).tobytes()
        assert len(ss.scenes) == len(scenes)
        for scene, (boxes, classes) in zip(ss.scenes, scenes):
            assert scene.gt_boxes.tobytes() == corners(boxes).tobytes()
            assert scene.gt_classes.tolist() == list(classes)

    def test_classes_are_foreground(self):
        ss = generate_scenes(SceneConfig(seed=3, num_scenes=10))
        for scene in ss.scenes:
            for c in scene.gt_classes:
                assert 1 <= c < ss.config.num_classes

    def test_matched_iou_histogram_decays_above_half(self):
        ss = generate_scenes(SceneConfig(seed=0, num_scenes=200))
        values = []
        for scene in ss.scenes:
            m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
            values.extend(
                iou(Box.from_array(ss.anchors[a]), Box.from_array(scene.gt_boxes[g]))
                for a, g in zip(m.pos_anchor, m.pos_gt)
            )
        counts = iou_histogram(values)
        assert counts[0] > 0
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


class TestMatchAnchors:
    def test_anchor_equal_to_gt_is_positive_with_zero_target(self):
        ss = generate_scenes(SceneConfig(seed=1))
        scene = Scene(gt_boxes=ss.anchors[10:11], gt_classes=np.array([2]))
        m = match_anchors(scene, ss.anchors, 0.5)
        assert 10 in m.pos_anchor
        g = m.pos_gt[m.pos_anchor.index(10)]
        matched = PositiveSample(
            probs=np.full(5, 0.2),
            gt_class=int(scene.gt_classes[g]),
            d=Offsets(0.0, 0.0, 0.0, 0.0),
            anchor=Box.from_array(ss.anchors[10]),
            gt_box=Box.from_array(scene.gt_boxes[g]),
        )
        np.testing.assert_allclose(matched.d_hat.as_array(), np.zeros(4), atol=1e-12)

    def test_every_gt_claims_an_anchor(self):
        anchors = corners([Box(0, 0, 1, 1), Box(4, 4, 5, 5)])
        far = Scene(corners([Box(8, 8, 9, 9), Box(10, 10, 11, 11)]), np.array([1, 1]))
        m = match_anchors(far, anchors, 0.5)
        assert len(m.pos_anchor) == len(far.gt_boxes)

    def test_partition_covers_all_anchors(self):
        ss = generate_scenes(SceneConfig(seed=4, num_scenes=5))
        for scene in ss.scenes:
            m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
            assert len(m.pos_anchor) + len(m.neg_anchor) == len(ss.anchors)
            assert set(m.pos_anchor).isdisjoint(m.neg_anchor)

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            match_anchors(Scene(np.zeros((0, 4)), np.zeros(0, dtype=int)), np.zeros((0, 4)), 0.5)

    def test_equals_scalar_reference(self):
        anchors = corners([Box(0, 0, 1, 1), Box(4, 4, 5, 5)])
        far = Scene(corners([Box(8, 8, 9, 9), Box(10, 10, 11, 11), Box(12, 12, 13, 13)]),
                    np.array([1, 1, 2]))
        scenes = [(far, anchors)]  # all-zero IoU ties, more GT than anchors
        for seed in range(3):
            ss = generate_scenes(SceneConfig(seed=seed, num_scenes=5, objects_per_scene=(1, 6)))
            scenes.extend((scene, ss.anchors) for scene in ss.scenes)
        for scene, anchors in scenes:
            m = match_anchors(scene, anchors, 0.5)
            assert (m.pos_anchor, m.pos_gt, m.neg_anchor) == scalar_match(scene, anchors, 0.5)


def scalar_match(scene, anchors, threshold):
    """Max-IoU assignment written with per-pair scalar IoU calls."""
    n, g = len(anchors), len(scene.gt_boxes)
    gt_boxes = [Box.from_array(b) for b in scene.gt_boxes]
    mat = [[iou(Box.from_array(a), b) for b in gt_boxes] for a in anchors]
    assigned = {}
    for i in range(n):
        if g and max(mat[i]) >= threshold:
            assigned[i] = mat[i].index(max(mat[i]))
    forced = set()
    for j in range(g):
        for i in sorted(range(n), key=lambda i: (-mat[i][j], i)):
            if i not in forced:
                forced.add(i)
                assigned[i] = j
                break
    pos = sorted(assigned)
    return tuple(pos), tuple(assigned[i] for i in pos), tuple(i for i in range(n) if i not in assigned)


class TestMatching:
    def test_computed_once_per_scene_set(self, monkeypatch):
        ss = generate_scenes(SceneConfig(seed=3))
        calls = []
        real = harness._match_scene_set
        monkeypatch.setattr(harness, "_match_scene_set", lambda *a: calls.append(a) or real(*a))
        first = ss.matching
        assert ss.matching is first
        assert calls == [(ss,)]

    def test_train_command_matches_each_scene_once(self, monkeypatch, tmp_path):
        calls = []
        real = harness._match_scene_set
        monkeypatch.setattr(harness, "_match_scene_set", lambda *a: calls.append(a[0]) or real(*a))
        cfg = tmp_path / "config.json"
        cfg.write_text('{"optimizer": {"steps": 3, "gradcheck_samples": 0}}')
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # the whole scene set (4 scenes by default) at once, shared by
        # training and evaluation
        assert len(calls) == 1
        assert len(calls[0].scenes) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_scenes=st.integers(1, 9),
        objects=st.tuples(st.integers(1, 5), st.integers(0, 4)),
        canvas=st.tuples(st.floats(4.0, 24.0), st.floats(4.0, 24.0)),
        spacing=st.floats(0.5, 4.0),
        scales=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
        jitter=st.floats(0.0, 0.6),
        threshold=st.floats(0.05, 0.95),
        max_pairs=st.one_of(st.integers(1, 600), st.just(MAX_MATCH_PAIRS)),
    )
    def test_scene_set_equals_per_scene_reference(
        self, seed, num_scenes, objects, canvas, spacing, scales, jitter, threshold, max_pairs
    ):
        try:
            ss = generate_scenes(SceneConfig(
                seed=seed, num_scenes=num_scenes, objects_per_scene=(objects[0], sum(objects)),
                canvas=canvas, anchor_spacing=spacing, anchor_scales=tuple(scales),
                jitter=jitter, positive_iou_threshold=threshold,
            ))
        except ValueError:
            assume(False)
        want = match_reference.match_scene_set(ss)
        # a small limit splits the scene set into blocks of one or more scenes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "MAX_MATCH_PAIRS", max_pairs)
            got = harness._match_scene_set(ss)
            per_scene = [
                match_anchors(scene, ss.anchors, threshold) for scene in ss.scenes
            ]
        for name in ("pos_flat", "neg_flat", "anchors", "gt", "gt_class", "d_hat"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert per_scene == [
            match_reference.match_anchors(scene, ss.anchors, threshold) for scene in ss.scenes
        ]

    @pytest.mark.parametrize("scenes_per_block, blocks", [(1, 7), (2, 4), (7, 1)])
    def test_blocks_hold_at_most_the_pair_limit(self, monkeypatch, scenes_per_block, blocks):
        ss = generate_scenes(SceneConfig(seed=5, num_scenes=7, objects_per_scene=(1, 6)))
        widest = max(len(scene.gt_boxes) for scene in ss.scenes)
        limit = ss.anchors_per_scene * widest * scenes_per_block
        matrices = []
        real = harness.iou_matrix
        monkeypatch.setattr(harness, "iou_matrix", lambda a, b: matrices.append(len(a) * len(b)) or real(a, b))
        monkeypatch.setattr(harness, "MAX_MATCH_PAIRS", limit)
        got = harness._match_scene_set(ss)
        assert len(matrices) == blocks
        assert max(matrices) <= limit
        assert np.array_equal(got.pos_flat, match_reference.match_scene_set(ss).pos_flat)

    def test_peak_at_the_pair_limit_is_no_higher_than_per_scene_matching(self):
        # one 10^4-anchor scene of 100 objects: anchors x objects = MAX_MATCH_PAIRS
        cfg = SceneConfig(
            num_scenes=1, canvas=(100.0, 100.0), anchor_spacing=1.0, objects_per_scene=(100, 100)
        )
        ss = generate_scenes(cfg)
        assert ss.anchors_per_scene * len(ss.scenes[0].gt_boxes) == MAX_MATCH_PAIRS

        def peak(match) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                match(ss)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        for match in (harness._match_scene_set, match_reference.match_scene_set):
            match(ss)  # warm-up
        # both hold the anchor and GT corners and one 10^4 x 100 IoU matrix at
        # their peak (about 24 MB); the allowance covers the few hundred bytes
        # of Python objects by which the two drift from run to run, and is
        # smaller than any array over the anchors (10^4 bytes at least)
        assert peak(harness._match_scene_set) <= peak(match_reference.match_scene_set) + 4096

    def test_arrays_follow_the_scene_matches(self):
        ss = generate_scenes(SceneConfig(seed=4, num_scenes=3))
        m = ss.matching
        k = 0
        for s_idx, scene in enumerate(ss.scenes):
            match = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
            for a, g in zip(match.pos_anchor, match.pos_gt):
                assert m.pos_flat[k] == s_idx * ss.anchors_per_scene + a
                assert np.array_equal(m.anchors[k], Box.from_array(ss.anchors[a]).as_array())
                assert np.array_equal(m.gt[k], Box.from_array(scene.gt_boxes[g]).as_array())
                assert m.gt_class[k] == scene.gt_classes[g]
                k += 1
        assert k == m.pos_flat.size
        assert m.pos_flat.size + m.neg_flat.size == ss.total_anchors
        with pytest.raises(ValueError):
            m.d_hat[0, 0] = 1.0


class TestOptimizerConfig:
    def test_zero_learning_rate_allowed(self):
        assert OptimizerConfig(learning_rate=0.0).learning_rate == 0.0

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=-0.1)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(steps=0)

    def test_zero_log_every_rejected(self):
        with pytest.raises(ValueError, match="log_every must be >= 1, got 0"):
            OptimizerConfig(log_every=0)

    def test_negative_gradcheck_samples_rejected(self):
        with pytest.raises(ValueError, match="gradcheck_samples must be >= 0"):
            OptimizerConfig(gradcheck_samples=-1)

    @pytest.mark.parametrize(
        "field, message", [("learning_rate", "learning_rate must be >= 0, got nan")]
    )
    def test_nan_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(**{field: math.nan})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(loss_mode="sgd")


def small_setup(seed=0, **scene_kw):
    cfg = SceneConfig(seed=seed, num_scenes=2, anchor_spacing=4.0, **scene_kw)
    ss = generate_scenes(cfg)
    hp = HyperParams()
    model = ToyModel.zeros(ss.total_anchors, cfg.num_classes)
    return ss, hp, model


class TestTrainToy:
    def test_model_shape_is_checked_before_the_gate(self, monkeypatch):
        # the CLI's train scene set: 4 scenes of 25 anchors; a failing gate
        # must not hide the shape error, nor a passing one delay it
        ss = generate_scenes(SceneConfig(anchor_spacing=3.0))

        def gate(*args, **kwargs):
            raise AssertionError("the gradient gate ran before the model shape check")

        monkeypatch.setattr(harness, "run_gradcheck", gate)
        opt = OptimizerConfig()
        message = r"^model shaped \(3, 5\)/\(3, 4\) does not fit 100 anchors and 5 classes$"
        with pytest.raises(ValueError, match=message):
            train_toy(ss, ToyModel.zeros(3, 5), opt, HyperParams())

    @pytest.mark.parametrize("field, dtype", [("logits", np.int64), ("offsets", np.float32)])
    def test_model_dtype_is_checked_before_the_gate(self, monkeypatch, field, dtype):
        # int logits once failed mid-descent, and float32 offsets descended
        # in float32 without an error
        ss = generate_scenes(SceneConfig(anchor_spacing=3.0))

        def gate(*args, **kwargs):
            raise AssertionError("the gradient gate ran before the model dtype check")

        monkeypatch.setattr(harness, "run_gradcheck", gate)
        model = ToyModel.zeros(ss.total_anchors, 5)
        setattr(model, field, getattr(model, field).astype(dtype))
        message = rf"^model {field} are {np.dtype(dtype)}, not float64$"
        with pytest.raises(ValueError, match=message):
            train_toy(ss, model, OptimizerConfig(), HyperParams())
        with pytest.raises(ValueError, match=message):
            model_detections(ss, model)

    def test_kernel_runs_on_the_positives_and_one_row_per_distinct_negative(self, monkeypatch):
        # the dense workload's zero model: every negative row is the same
        ss, hp, opt = cli_setup("train", TRAIN_CONFIGS["train_dense"])
        real = harness.batch_objective_arrays
        rows = []

        def counted(*args):
            rows.append((len(args[0]), len(args[3])))
            return real(*args)

        monkeypatch.setattr(harness, "batch_objective_arrays", counted)
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        train_toy(ss, model, replace(opt, gradcheck_samples=0), hp)
        p = ss.matching.pos_flat.size
        assert ss.total_anchors == 4096
        assert rows == [(p + 1, p)] * (opt.steps + 1)

    def test_kernel_takes_the_positives_as_leading_rows_without_index_arrays(self, monkeypatch):
        ss, hp, model = small_setup()
        model.logits[:] = np.random.default_rng(0).normal(size=model.logits.shape)
        real = harness.batch_objective_arrays
        calls = []

        def kept(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "batch_objective_arrays", kept)
        train_toy(ss, model, OptimizerConfig(steps=2, gradcheck_samples=0), hp)
        m = ss.matching
        assert len(calls) == 3
        for args, kwargs in calls:
            probs, offsets, targets, gt_class, d_hat, kernel_hp = args
            assert not kwargs and kernel_hp is hp
            assert (targets, gt_class, d_hat) == (m.targets, m.gt_class, m.d_hat)
            # the positives' classes are the only integer array
            integers = [a for a in args if isinstance(a, np.ndarray) and a.dtype.kind in "iub"]
            assert len(integers) == 1 and integers[0] is gt_class
        # the first step's leading rows are the positives' own, in matching order
        probs = calls[0][0][0]
        assert probs[: m.pos_flat.size].tobytes() == model.probs()[m.pos_flat].tobytes()

    def test_zero_learning_rate_changes_nothing(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(learning_rate=0.0, steps=5, log_every=1, gradcheck_samples=0)
        trained, log = train_toy(ss, model, opt, hp)
        np.testing.assert_array_equal(trained.logits, model.logits)
        np.testing.assert_array_equal(trained.offsets, model.offsets)
        objectives = {r.objective for r in log.records}
        assert len(objectives) == 1

    def test_objective_decreases_over_first_100_steps(self):
        ss = generate_scenes(SceneConfig(seed=0))
        hp = HyperParams()
        model = ToyModel.zeros(ss.total_anchors, 5)
        opt = OptimizerConfig(steps=100, log_every=10, gradcheck_samples=0)
        _, log = train_toy(ss, model, opt, hp)
        assert log.records[-1].objective < log.records[0].objective

    def test_log_steps_are_monotone_and_cover_ends(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=7, log_every=3, gradcheck_samples=0)
        _, log = train_toy(ss, model, opt, hp)
        steps = [r.step for r in log.records]
        assert steps == sorted(steps)
        assert steps[0] == 0
        assert steps[-1] == 7

    def test_mean_factors_in_range_for_harmonic_runs(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=40, log_every=10, gradcheck_samples=0)
        _, log = train_toy(ss, model, opt, hp)
        for r in log.records:
            assert 1.0 < r.mean_factor_r <= 2.0
            assert 1.0 < r.mean_factor_c <= 2.0

    def test_divergence_raises(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(learning_rate=1e9, steps=50, gradcheck_samples=0)
        with pytest.raises(DivergenceError):
            train_toy(ss, model, opt, hp)

    def test_divergence_names_check_and_step(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(learning_rate=1e9, steps=50, gradcheck_samples=0)
        with pytest.raises(DivergenceError, match="step 1: size offsets past the decode log cap"):
            train_toy(ss, model, opt, hp)
        model.logits[3, 1] = math.nan
        with pytest.raises(DivergenceError, match="step 0: non-finite probabilities"):
            train_toy(ss, model, opt, hp)

    def test_divergence_names_the_first_offending_model_row(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=3, gradcheck_samples=0)
        bad = model.copy()
        bad.logits[[7, 3], 1] = math.nan
        with pytest.raises(DivergenceError, match=r"non-finite probabilities \(model row 3\)$") as exc:
            train_toy(ss, bad, opt, hp)
        assert (exc.value.step, exc.value.row) == (0, 3)
        # the decode-cap check names the model row, not the positive's index
        rows = ss.matching.pos_flat
        bad = model.copy()
        bad.offsets[[rows[4], rows[2]], 3] = 100.0
        with pytest.raises(DivergenceError, match=rf"decode log cap \d+ \(model row {rows[2]}\)$") as exc:
            train_toy(ss, bad, opt, hp)
        assert exc.value.row == rows[2] != 2
        with pytest.raises(DivergenceError) as exc:
            refinement_experiment(ss, replace(opt, learning_rate=1e9), hp)
        assert exc.value.row in rows

    def test_non_finite_objective_names_no_row(self, monkeypatch):
        ss, hp, model = small_setup()
        real = harness.batch_objective_arrays
        monkeypatch.setattr(
            harness,
            "batch_objective_arrays",
            lambda *a: replace(real(*a), pos_loss=np.full_like(real(*a).pos_loss, math.nan)),
        )
        with pytest.raises(DivergenceError, match=r"non-finite objective \(nan\)$") as exc:
            train_toy(ss, model, OptimizerConfig(steps=3, gradcheck_samples=0), hp)
        assert exc.value.row is None

    def test_non_finite_objective_diverges(self, monkeypatch):
        ss, hp, model = small_setup()
        real = harness.batch_objective_arrays

        def poisoned(*args):
            batch = real(*args)
            return replace(batch, pos_loss=np.full_like(batch.pos_loss, math.inf))

        monkeypatch.setattr(harness, "batch_objective_arrays", poisoned)
        opt = OptimizerConfig(steps=3, gradcheck_samples=0)
        with pytest.raises(DivergenceError, match="step 0: non-finite objective"):
            train_toy(ss, model, opt, hp)

    def test_unrelated_value_error_propagates(self, monkeypatch):
        ss, hp, model = small_setup()

        def broken(*args):
            raise ValueError("a programming error")

        monkeypatch.setattr(harness, "batch_objective_arrays", broken)
        opt = OptimizerConfig(steps=3, gradcheck_samples=0)
        with pytest.raises(ValueError, match="a programming error"):
            train_toy(ss, model, opt, hp)

    @pytest.mark.parametrize("loss_mode", ["harmonic_det", "standard"])
    def test_steps_match_scalar_reference(self, loss_mode):
        ss, hp, model = small_setup(seed=5)
        rng = np.random.default_rng(5)
        model.logits[:] = rng.normal(size=model.logits.shape)
        model.offsets[:] = rng.uniform(-0.3, 0.3, size=model.offsets.shape)
        opt = OptimizerConfig(steps=1, log_every=1, loss_mode=loss_mode, gradcheck_samples=0)
        want, batch = scalar_step(ss, model, opt, hp)
        got, log = train_toy(ss, model, opt, hp)
        close(got.logits, want.logits)
        close(got.offsets, want.offsets)
        first = log.records[0]
        assert first.objective == pytest.approx(batch.value, rel=1e-12)
        assert first.mean_factor_r == pytest.approx(
            np.mean([1.0 + b.beta_r for b in batch.breakdowns]), rel=1e-12
        )
        # and over several steps, where any difference would grow
        for _ in range(9):
            want, _ = scalar_step(ss, want, opt, hp)
        got, _ = train_toy(ss, model, replace(opt, steps=10), hp)
        close(got.logits, want.logits)
        close(got.offsets, want.offsets)

    @pytest.mark.parametrize("loss_mode", ["harmonic_det", "standard"])
    def test_final_pairs_equal_a_fresh_decode_of_the_trained_model(self, loss_mode):
        ss, hp, model = small_setup(seed=3)
        opt = OptimizerConfig(steps=30, log_every=10, loss_mode=loss_mode, gradcheck_samples=0)
        trained, log = train_toy(ss, model, opt, hp)
        p_gt, iou_gt = fresh_consistency_arrays(ss, trained)
        assert log.final_p_gt.tobytes() == p_gt.tobytes()
        assert log.final_iou.tobytes() == iou_gt.tobytes()
        assert aic(log.final_p_gt, log.final_iou) == log.records[-1].aic
        assert not log.final_p_gt.flags.writeable and not log.final_iou.flags.writeable

    def test_gradient_gate_blocks_on_impossible_tolerance(self, monkeypatch):
        monkeypatch.setattr(harness, "GRADCHECK_TOLERANCE", 0.0)
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=5, gradcheck_samples=5)
        with pytest.raises(GradientCheckError):
            train_toy(ss, model, opt, hp)

    def test_gradient_gate_error_names_the_failing_operations(self, monkeypatch):
        monkeypatch.setattr(harness, "GRADCHECK_TOLERANCE", 0.0)
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=5, gradcheck_samples=5)
        report = run_gradcheck(hp, 5, num_samples=5, seed=ss.config.seed)
        failed = [e for e in report.entries if not e.passed]
        worst = max(failed, key=lambda e: e.max_err)
        with pytest.raises(GradientCheckError) as exc:
            train_toy(ss, model, opt, hp)
        err = exc.value
        assert (err.op, err.max_err) == (worst.op, worst.max_err)
        assert str(err).startswith("gradcheck failed for ")
        for e in failed:
            assert (
                f"{e.op}: max error {e.max_err:.3e} > tolerance 0.000e+00 at draw {e.worst_draw}"
                in str(err)
            )

    def test_standard_mode_runs(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=30, loss_mode="standard", gradcheck_samples=0)
        _, log = train_toy(ss, model, opt, hp)
        assert log.records[-1].objective < log.records[0].objective

    def test_model_shape_checked(self):
        ss, hp, _ = small_setup()
        bad = ToyModel.zeros(3, 5)
        opt = OptimizerConfig(steps=2, gradcheck_samples=0)
        with pytest.raises(ValueError):
            train_toy(ss, bad, opt, hp)

    def test_deterministic_repeat(self):
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=25, gradcheck_samples=0)
        m1, l1 = train_toy(ss, model, opt, hp)
        m2, l2 = train_toy(ss, model, opt, hp)
        np.testing.assert_array_equal(m1.logits, m2.logits)
        np.testing.assert_array_equal(m1.offsets, m2.offsets)
        assert l1.records == l2.records
        assert l1.final_p_gt.tobytes() == l2.final_p_gt.tobytes()
        assert l1.final_iou.tobytes() == l2.final_iou.tobytes()


# the benchmark's train workloads: CLI defaults, and 4096 anchors
TRAIN_CONFIGS = {
    "train_default": {},
    "train_dense": {
        "scene": {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
        "optimizer": {"steps": 20, "log_every": 5},
    },
}


def cli_setup(command, cfg, seed=0):
    """The scene set, hyperparameters and optimizer settings that ``hardet
    <command>`` builds from config ``cfg``."""
    scene_defaults, opt_defaults = {
        "train": (cli._TRAIN_SCENE_DEFAULTS, None),
        "refine": (cli._REFINE_SCENE_DEFAULTS, cli._REFINE_OPT_DEFAULTS),
    }[command]
    eff = cli.effective_config(
        cfg, seed_override=seed, scene_defaults=scene_defaults, opt_defaults=opt_defaults
    )
    scene = cli._build(SceneConfig, eff, "scene", seed=eff["seed"])
    hp = cli._build(HyperParams, eff, "hyperparams")
    return generate_scenes(scene), hp, cli._build(OptimizerConfig, eff, "optimizer")


def repeated_negatives_model(ss):
    """Distinct random positives; negatives drawn from three logit rows and,
    independently, two offset rows, with one ``-0.0`` logit beside the
    ``0.0`` of an earlier row that is otherwise its byte twin."""
    rng = np.random.default_rng(0)
    m = ss.matching
    model = ToyModel(
        rng.normal(size=(ss.total_anchors, ss.config.num_classes)),
        rng.uniform(-0.3, 0.3, size=(ss.total_anchors, 4)),
    )
    logits = rng.normal(size=(3, ss.config.num_classes))
    logits[0] = 0.0
    pick = rng.integers(3, size=m.neg_flat.size)
    model.logits[m.neg_flat] = logits[pick]
    model.offsets[m.neg_flat] = rng.uniform(-0.3, 0.3, size=(2, 4))[rng.integers(2, size=pick.size)]
    zero_rows = m.neg_flat[pick == 0]
    model.logits[zero_rows[-1], 1] = -0.0
    assert zero_rows.size > 2
    return model


def assert_trained_alike(got, log, want, want_log):
    """Both models and logs are equal bit for bit."""
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.offsets.tobytes() == want.offsets.tobytes()
    # repr tells every float bit, -0.0 from 0.0 included; numpy's repr
    # rounds, so the arrays compare by their bytes
    assert len(log.records) > 2
    assert repr(log.records) == repr(want_log.records)
    assert log.final_p_gt.tobytes() == want_log.final_p_gt.tobytes()
    assert log.final_iou.tobytes() == want_log.final_iou.tobytes()


def divergence(run):
    """What ``run()`` raised, its overflow warnings silenced."""
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        run()
    return exc.value


class TestTrainReference:
    """``train_toy``, the training kernel and refine's descent against
    ``train_reference``, bit for bit."""

    @pytest.mark.parametrize("loss_mode", ["harmonic_det", "standard"])
    @pytest.mark.parametrize("config", sorted(TRAIN_CONFIGS))
    def test_trained_model_and_records_equal_the_reference(self, config, loss_mode):
        cfg = TRAIN_CONFIGS[config]
        cfg = {**cfg, "optimizer": {**cfg.get("optimizer", {}), "loss_mode": loss_mode}}
        ss, hp, opt = cli_setup("train", cfg)
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        got, log = train_toy(ss, model, opt, hp)
        want, want_log = train_reference.train_toy(ss, model, opt, hp)
        assert_trained_alike(got, log, want, want_log)

    @pytest.mark.parametrize("loss_mode", ["harmonic_det", "standard"])
    @pytest.mark.parametrize("learning_rate", [0.0, 0.2])
    def test_repeated_negative_rows_train_as_the_reference(self, learning_rate, loss_mode):
        # at learning rate 0 the -0.0 logit stays -0.0, so merging it with
        # its 0.0 twin would show
        ss, hp, _ = cli_setup("train", {})
        model = repeated_negatives_model(ss)
        opt = OptimizerConfig(
            learning_rate=learning_rate, steps=30, log_every=10, loss_mode=loss_mode,
            gradcheck_samples=0,
        )
        got, log = train_toy(ss, model, opt, hp)
        want, want_log = train_reference.train_toy(ss, model, opt, hp)
        assert_trained_alike(got, log, want, want_log)

    def test_nan_in_repeated_negative_rows_names_the_lowest(self):
        ss, hp, _ = cli_setup("train", {})
        neg, pos = ss.matching.neg_flat, ss.matching.pos_flat
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        # three byte twins, a NaN row of another kind above their first, and
        # a NaN positive above both
        model.logits[neg[[9, 3, 6]], 2] = math.nan
        model.logits[neg[5], 0] = math.nan
        model.logits[pos[-1], 1] = math.nan
        assert neg[3] < neg[5] < pos[-1]
        opt = OptimizerConfig(steps=3, gradcheck_samples=0)
        got = divergence(lambda: train_toy(ss, model, opt, hp))
        want = divergence(lambda: train_reference.train_toy(ss, model, opt, hp))
        assert (got.step, got.row, str(got)) == (want.step, want.row, str(want))
        assert (got.check, got.row) == ("non-finite probabilities", neg[3])

    @pytest.mark.parametrize("steps", [20, 100])
    def test_refine_descent_equals_the_reference(self, steps):
        ss, hp, opt = cli_setup("refine", {"optimizer": {"steps": steps}})
        runs = {"plain": 0.0, "weighted": hp.gamma}
        got = harness._train_offsets_only(ss.matching, runs, opt)
        want = train_reference.train_offsets_only(ss.matching, runs, opt)
        assert got.tobytes() == want.tobytes()
        runaway = replace(opt, learning_rate=1e9)
        got = divergence(lambda: harness._train_offsets_only(ss.matching, runs, runaway))
        want = divergence(lambda: train_reference.train_offsets_only(ss.matching, runs, runaway))
        assert (got.step, got.row, str(got)) == (want.step, want.row, str(want))

    @pytest.mark.parametrize(
        "check, learning_rate, alpha, margin",
        [
            ("non-finite probabilities", math.inf, 1.5, 0.2),
            ("size offsets past the decode log cap 16", 1e3, 1.5, 0.2),
            # no IoU term, a TC hinge that stays off, and size offsets on
            # target: only the centre offsets run away, and the positives'
            # summed loss overflows at an unlogged step
            ("non-finite objective (inf)", 1e308, 0.0, 0.9),
        ],
    )
    def test_divergence_fires_at_the_reference_step(self, check, learning_rate, alpha, margin):
        ss, _, _ = cli_setup("train", {})
        hp = HyperParams(alpha=alpha, margin=margin)
        m = ss.matching
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        model.offsets[m.pos_flat, 2:] = m.d_hat[:, 2:]
        opt = OptimizerConfig(
            learning_rate=learning_rate, steps=50, log_every=100, gradcheck_samples=0
        )
        got = divergence(lambda: train_toy(ss, model, opt, hp))
        want = divergence(lambda: train_reference.train_toy(ss, model, opt, hp))
        assert (got.step, got.row, str(got)) == (want.step, want.row, str(want))
        assert got.check == check
        if check.startswith("non-finite objective"):
            assert got.step % opt.log_every != 0

    @pytest.mark.parametrize("loss_mode", ["harmonic_det", "standard"])
    def test_kernel_on_the_gate_row_stacks_equals_the_reference(self, monkeypatch, loss_mode):
        hp = HyperParams()
        if loss_mode == "standard":
            hp = hp.compat_standard()
        real = harness.batch_objective_arrays
        calls = []

        def kept(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "batch_objective_arrays", kept)
        samples = 3
        harness.run_gradcheck(hp, 5, samples, seed=0)
        # the gate's draws, in its order, give the stack's anchors and boxes
        rng = np.random.default_rng(0)
        draws = [
            (random_positive_sample(rng, hp, 5), harness._random_box_pair(rng))
            for _ in range(samples)
        ]
        batches = [harness._random_batch(rng, hp, 5) for _ in range(harness.BATCH_DRAWS)]
        positives = [s for s, _ in draws] + [s for pos, _ in batches for s in pos]
        anchors = np.array([s.anchor.as_array() for s in positives])
        gt = np.array([s.gt_box.as_array() for s in positives])
        rows = len(positives) + harness.BATCH_DRAWS * harness.BATCH_NEGATIVES
        assert len(calls) > 1
        for probs, offsets, _, gt_class, d_hat, kernel_hp in calls:
            # a call stacks copies of the rows, each with the draws' boxes:
            # every copy's positives, then every copy's negatives
            copies = len(probs) // rows
            tiled = np.tile(anchors, (copies, 1)), np.tile(gt, (copies, 1))
            got = real(probs, offsets, AnchorTargets(*tiled), gt_class, d_hat, kernel_hp)
            # the objective and the negatives' losses wait for their first read
            assert "value" not in vars(got) and "neg_loss" not in vars(got)
            n = len(gt_class)
            want = train_reference.batch_objective_arrays(
                probs, offsets, *tiled, gt_class, d_hat, np.arange(n), np.arange(n, len(probs)),
                kernel_hp,
            )
            for field in fields(want):
                got_value, want_value = getattr(got, field.name), getattr(want, field.name)
                if isinstance(want_value, float):
                    assert got_value.hex() == want_value.hex()
                else:
                    assert got_value.tobytes() == want_value.tobytes(), field.name
            assert vars(got)["value"] == want.value


def fresh_consistency_arrays(scene_set, model):
    """p_gt and IoU of the decoded box per positive, in matching order,
    decoded anew from a trained model: the formula aic_summary.json used
    before the training step's own arrays replaced it."""
    m = scene_set.matching
    p = model.probs()[m.pos_flat, m.gt_class]
    return p, iou_arrays(decode_arrays(model.offsets[m.pos_flat], m.anchors), m.gt)


def close(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def scalar_step(ss, model, opt, hp):
    """One gradient step through per-sample objects and the scalar objective."""
    hp_eff = hp.compat_standard() if opt.loss_mode == "standard" else hp
    probs = model.probs()
    a = ss.anchors_per_scene
    positives, negatives, pos_rows, neg_rows = [], [], [], []
    for s_idx, scene in enumerate(ss.scenes):
        m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
        base = s_idx * a
        for i, g in zip(m.pos_anchor, m.pos_gt):
            positives.append(
                PositiveSample(
                    probs=probs[base + i],
                    gt_class=int(scene.gt_classes[g]),
                    d=Offsets.from_array(model.offsets[base + i]),
                    anchor=Box.from_array(ss.anchors[i]),
                    gt_box=Box.from_array(scene.gt_boxes[g]),
                )
            )
            pos_rows.append(base + i)
        for i in m.neg_anchor:
            negatives.append(NegativeSample(probs=probs[base + i]))
            neg_rows.append(base + i)
    batch = batch_objective(positives, negatives, hp_eff)
    grad_logits = np.zeros_like(model.logits)
    grad_offsets = np.zeros_like(model.offsets)
    for fa, b in zip(pos_rows, batch.breakdowns):
        grad_logits[fa] = probs[fa] * (b.grad_probs - float(b.grad_probs @ probs[fa]))
        grad_offsets[fa] = b.grad_d
    for fa, g in zip(neg_rows, batch.negative_grad_probs):
        grad_logits[fa] = probs[fa] * (g - float(g @ probs[fa]))
    scale = opt.learning_rate / batch.num_positives
    return ToyModel(model.logits - scale * grad_logits, model.offsets - scale * grad_offsets), batch


class TestToyModel:
    def test_probs_rows_sum_to_one(self):
        m = ToyModel(logits=np.random.default_rng(1).normal(size=(6, 4)), offsets=np.zeros((6, 4)))
        np.testing.assert_allclose(m.probs().sum(axis=1), np.ones(6), atol=1e-12)

    def test_detections_cover_all_anchors(self):
        ss, hp, model = small_setup()
        dets = model_detections(ss, model)
        a = ss.anchors_per_scene
        assert len(dets) == ss.total_anchors == len(ss.scenes) * a
        assert [set(dets.scene[s * a : (s + 1) * a].tolist()) for s in range(len(ss.scenes))] == [{0}, {1}]

    def test_detections_match_scalar_decode(self):
        ss, hp, model = small_setup()
        rng = np.random.default_rng(3)
        model = ToyModel(rng.normal(size=model.logits.shape), rng.normal(size=model.offsets.shape))
        dets = model_detections(ss, model)
        probs = model.probs()
        rows = zip(dets.boxes.tolist(), dets.class_id.tolist(), dets.score.tolist())
        for row, (box, cls, score) in enumerate(rows):
            i = row % ss.anchors_per_scene
            anchor = Box.from_array(ss.anchors[i])
            assert Box(*box) == decode(Offsets.from_array(model.offsets[row]), anchor)
            assert cls == int(np.argmax(probs[row, 1:])) + 1
            assert score == probs[row, cls]

    @pytest.mark.parametrize(
        "logits, offsets",
        [((3, 5), (3, 4)), ((99, 5), (99, 4)), ((1, 5), (1, 4)), ((100, 3), (100, 4)),
         ((100, 5), (100, 2))],
    )
    def test_detections_check_the_model_against_the_scene_set(self, logits, offsets):
        ss = generate_scenes(SceneConfig(anchor_spacing=3.0))
        model = ToyModel(np.zeros(logits), np.zeros(offsets))
        message = f"model shaped {logits}/{offsets} does not fit 100 anchors and 5 classes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_detections(ss, model)

    def test_detections_check_the_decode_cap(self):
        ss, hp, model = small_setup()
        model.offsets[5, 3] = 17.0
        with pytest.raises(ValueError, match="model row 5 exceed the exp cap"):
            model_detections(ss, model)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda xs: xs[:, 0] ** 2, np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda xs: np.ones(len(xs)), np.array([0.5, -2.0]))
        np.testing.assert_array_equal(g, np.zeros(2))

    @pytest.mark.parametrize("h", [0.0, -1e-6, math.nan, [1e-6, 0.0]])
    def test_bad_step_rejected(self, h):
        with pytest.raises(ValueError, match="finite-difference step must be positive"):
            finite_diff_grad(lambda xs: np.zeros(len(xs)), np.zeros(2), h=h)

    def test_non_finite_evaluation_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda xs: np.full(len(xs), math.inf), np.zeros(1))

    def test_one_call_on_every_step_up_then_every_step_down(self):
        stacks = []

        def fn(xs):
            stacks.append(xs.copy())
            return xs.sum(axis=1)

        params, h = np.array([2.0, -1.0, 0.5]), np.array([1e-6, 5e-7, 1e-6])
        finite_diff_grad(fn, params, h)
        assert len(stacks) == 1
        steps = np.diag(h)
        assert stacks[0].tobytes() == np.concatenate([params + steps, params - steps]).tobytes()

    def test_vector_function_gives_its_jacobian(self):
        def fn(xs):
            return np.stack([xs[:, 0] * xs[:, 1], xs[:, 1] ** 2, np.full(len(xs), 3.0)], axis=1)

        jac = finite_diff_grad(fn, np.array([2.0, -1.0]))
        assert jac.shape == (3, 2)
        np.testing.assert_allclose(jac, [[-1.0, 2.0], [0.0, -2.0], [0.0, 0.0]], atol=1e-8)
        # each column is the scalar difference of that output, bit for bit
        for r in range(3):
            assert np.array_equal(jac[r], finite_diff_grad(lambda xs, r=r: fn(xs)[:, r], [2.0, -1.0]))

    @pytest.mark.parametrize("h", [1e-6, np.array([5e-7, 1e-6, 2e-6])])
    def test_equals_the_per_vector_reference_bit_for_bit(self, h):
        # one call per step, the form the gate's reference differences with
        def fn(x):
            return np.array([math.exp(x[0]) * x[1], math.sin(x[2]) / (1.0 + x[0] ** 2)])

        params = np.array([0.3, -1.2, 2.5])
        stacked = finite_diff_grad(lambda xs: [fn(x) for x in xs], params, h)
        if np.ndim(h):
            # the reference takes one step for every axis: one axis at a time
            for k in range(3):
                column = gate_reference.finite_diff_grad(
                    lambda v, k=k: fn(np.concatenate([params[:k], v, params[k + 1 :]])),
                    params[k : k + 1],
                    h[k],
                )
                assert stacked[:, k].tobytes() == column[:, 0].tobytes()
        else:
            assert stacked.tobytes() == gate_reference.finite_diff_grad(fn, params, h).tobytes()

    def test_any_non_finite_output_rejected(self):
        def fn(xs):
            return np.stack([np.ones(len(xs)), np.where(xs[:, 1] > 0, math.inf, 0.0)], axis=1)

        with pytest.raises(ValueError, match=r"loss not finite near params\[1\]"):
            finite_diff_grad(fn, np.zeros(2))


# the gate's hyperparameter variants: both loss modes (standard trains on
# compat_standard), the differentiable entropy weight, harmonic factors from
# smooth L1 alone, the HIoU exponent at its bound and at 0, and three classes
GATE_CASES = {
    "default": (HyperParams(), 5),
    "compat_standard": (HyperParams().compat_standard(), 5),
    "beta_e_not_stopped": (HyperParams(beta_e_stop_grad=False), 5),
    "hiou_off": (HyperParams(alpha=0.0), 5),
    "gamma_at_one": (HyperParams(gamma=1.0), 5),
    "gamma_zero": (HyperParams(gamma=0.0), 5),
    "three_classes": (HyperParams(), 3),
}


class TestGradCheck:
    def test_non_finite_loss_names_the_operation(self):
        # the largest finite alpha
        hp = HyperParams(alpha=sys.float_info.max)
        with pytest.raises(NumericalError, match="gradcheck harmonic_cls_grad: loss not finite"):
            run_gradcheck(hp, 5, num_samples=2)

    @pytest.mark.parametrize("field", ["pos_loss", "neg_p"])
    def test_non_finite_batch_row_fails_the_batch_entry_only(self, monkeypatch, field):
        # each copy of the stack ends its positives and its negatives with a
        # batch draw's row; the sample entries read the same evaluations but
        # not those rows
        real = harness.batch_objective_arrays
        rows = 2 + 4 * (harness.BATCH_POSITIVES + harness.BATCH_NEGATIVES)

        def poisoned(row):
            def kernel(*args):
                batch = real(*args)
                # every copy's positives, then every copy's negatives
                values = getattr(batch, field).copy()
                values.reshape(len(args[0]) // rows, -1)[:, row] = math.inf
                return replace(batch, **{field: values})

            return kernel

        monkeypatch.setattr(harness, "batch_objective_arrays", poisoned(-1))
        hp = HyperParams()
        with pytest.raises(NumericalError, match=r"^gradcheck batch_objective: loss not finite near params\[0\]$"):
            run_gradcheck(hp, 5, num_samples=2, seed=0)
        # a copy's second positive is the last sample draw's
        if field == "pos_loss":
            monkeypatch.setattr(harness, "batch_objective_arrays", poisoned(1))
            with pytest.raises(NumericalError, match="^gradcheck harmonic_det_loss: loss not finite"):
                run_gradcheck(hp, 5, num_samples=2, seed=0)

    def test_report_covers_every_operation_once(self):
        hp = HyperParams()
        report = run_gradcheck(hp, 5, num_samples=10, seed=0)
        ops = [e.op for e in report.entries]
        assert len(ops) == len(set(ops))
        assert set(ops) == {
            "iou_grad",
            "decode_jacobian",
            "harmonic_cls_grad",
            "harmonic_reg_grad",
            "full_loc_loss",
            "tc_loss",
            "harmonic_det_loss",
            "batch_objective",
        }
        # each entry counts the draws of its kind: the batch entry checks the
        # default 4 batch draws, not the 10 samples
        assert [e.samples for e in report.entries] == [10] * 7 + [4]
        assert report.passed

    def test_zero_tolerance_fails(self, monkeypatch):
        hp = HyperParams()
        report = run_gradcheck(hp, 5, num_samples=5, seed=0)
        assert report.passed
        # the tolerance is read when an entry is judged
        monkeypatch.setattr(harness, "GRADCHECK_TOLERANCE", 0.0)
        assert not report.passed

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="^gradcheck needs at least one sample, got 0$"):
            run_gradcheck(HyperParams(), 5, num_samples=0)

    def test_draws_stay_above_probability_floor(self):
        rng = np.random.default_rng(0)
        hp = HyperParams()
        for _ in range(300):
            assert random_positive_sample(rng, hp, 5).probs.min() >= PROB_DRAW_FLOOR

    def test_offset_noise_stays_clear_of_the_smooth_l1_kinks(self):
        # |d - d_hat| never comes near the curvature breaks at 1, which the
        # sampler therefore does not test for
        rng = np.random.default_rng(0)
        hp = HyperParams()
        noise = [
            np.abs(s.d.as_array() - s.d_hat.as_array()).max()
            for s in (random_positive_sample(rng, hp, 5) for _ in range(500))
        ]
        assert max(noise) <= 0.5

    def test_unreachable_draw_floor_cannot_draw(self):
        # 200 probabilities of at least 1e-3 each: a rare draw, and one does
        # not come within the rejection sampler's tries
        with pytest.raises(NumericalError, match="gradcheck could not draw"):
            run_gradcheck(HyperParams(), 200, num_samples=1)

    @pytest.mark.parametrize("num_classes", [1000, 5000])
    def test_draw_floor_out_of_reach_is_rejected_before_drawing(self, num_classes):
        # num_classes probabilities of at least 1e-3 cannot sum to 1
        message = f"^{num_classes} class probabilities summing to 1 cannot all reach the gradient gate's draw floor 0.001$"
        with pytest.raises(ValueError, match=message):
            harness.check_draw_floor(num_classes)
        with pytest.raises(ValueError, match=message):
            run_gradcheck(HyperParams(), num_classes, num_samples=1)
        # a floor within reach, however rarely drawn, is left to the sampler
        harness.check_draw_floor(999)

    def test_exhausted_draws_name_the_draw_floor_and_class_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalError, match=r"num_classes 200 probabilities at or above the draw floor 0\.001$"):
            random_positive_sample(rng, HyperParams(), 200)

    # seeds where draws with class probabilities near 1e-5 made the 5e-7
    # probability FD step too coarse for the 1e-5 tolerance
    @pytest.mark.parametrize("seed", [14, 32, 51, 53])
    def test_default_sweep_passes_at_former_failing_seeds(self, seed):
        report = run_gradcheck(HyperParams(), 5, num_samples=500, seed=seed)
        assert report.passed, report.entries

    @pytest.mark.parametrize("seed", [134, 193, 267, 751])
    def test_training_gate_passes_at_former_failing_seeds(self, seed):
        hp = HyperParams()
        for gate_hp in (hp, hp.compat_standard()):
            report = run_gradcheck(gate_hp, 5, num_samples=20, seed=seed)
            assert report.passed, report.entries

    def test_batch_entry_checks_the_training_kernel(self, monkeypatch):
        real = harness.batch_objective_arrays
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "batch_objective_arrays", counted)
        # every call runs on copies of one stack: the two sample draws, then
        # every batch draw's positives, then its negatives
        rows, negatives = 2 + 4 * (harness.BATCH_POSITIVES + harness.BATCH_NEGATIVES), 4 * 3
        hp = HyperParams()
        for num_classes in (3, 5):
            copies = 2 * (num_classes + 4)
            # one call on every stepped copy per set of hyperparameters the
            # entries difference, then the batch draws' analytic call: in
            # harmonic mode the entries share one set; compat_standard frees
            # the factors for some entries only
            for gate_hp, sets in ((hp, 1), (hp.compat_standard(), 2)):
                calls.clear()
                report = run_gradcheck(gate_hp, num_classes, num_samples=2, seed=0)
                assert report.passed
                assert [len(args[0]) for args in calls] == [copies * rows] * sets + [rows]
                assert [len(args[0]) - len(args[3]) for args in calls] == [copies * negatives] * sets + [negatives]

    @pytest.mark.parametrize("num_samples", [20, 500])
    def test_stacked_calls_stay_within_the_row_cap(self, monkeypatch, num_samples):
        real = harness.batch_objective_arrays
        calls = []
        monkeypatch.setattr(harness, "batch_objective_arrays", lambda *a: calls.append(len(a[0])) or real(*a))
        run_gradcheck(HyperParams(), 5, num_samples, seed=0)
        rows = num_samples + 4 * (harness.BATCH_POSITIVES + harness.BATCH_NEGATIVES)
        per_call = max(1, harness.MAX_GATE_ROWS // rows)
        # the stepped copies, in calls of as many copies as the cap holds,
        # then the analytic call
        copies = [min(per_call, 18 - k) for k in range(0, 18, per_call)]
        assert calls == [c * rows for c in copies] + [rows]
        assert len(calls) == (2 if num_samples == 20 else 7)

    @pytest.mark.parametrize(
        "hp", [HyperParams(), HyperParams().compat_standard(), HyperParams(beta_e_stop_grad=False)]
    )
    def test_one_localization_pass_per_draw(self, monkeypatch, hp):
        real = losses._loc_parts
        calls = []
        monkeypatch.setattr(losses, "_loc_parts", lambda *a: calls.append(a[0]) or real(*a))
        run_gradcheck(hp, 5, num_samples=20, seed=0)
        assert len(calls) == len({id(s) for s in calls}) == 20

    @pytest.mark.parametrize(
        "mutant",
        [
            # a gradient off by 0.1%
            lambda real, *a: replace(real(*a), grad_d=real(*a).grad_d * 1.001),
            # the TC term's gradient through the entropy weight dropped
            lambda real, *a: real(*a[:-1], replace(a[-1], beta_e_stop_grad=True)),
        ],
        ids=["grad_d_scaled", "tc_entropy_term_dropped"],
    )
    def test_mutant_kernel_fails_the_gate(self, monkeypatch, mutant):
        real = harness.batch_objective_arrays
        monkeypatch.setattr(harness, "batch_objective_arrays", lambda *a: mutant(real, *a))
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=0)
        assert [e.op for e in report.entries if not e.passed] == ["batch_objective"]

    @pytest.mark.parametrize("seed", [0, 14])
    def test_worst_draw_replays_from_seed_and_index(self, seed):
        hp = HyperParams()
        samples = 6
        report = run_gradcheck(hp, 5, samples, seed=seed)
        for e in report.entries:
            rng = np.random.default_rng(seed)
            draws = [
                (random_positive_sample(rng, hp, 5), harness._random_box_pair(rng))
                for _ in range(samples)
            ]
            batches = [harness._random_batch(rng, hp, 5) for _ in range(harness.BATCH_DRAWS)]
            if e.op == "batch_objective":
                replayed = harness._gate_errors([], [batches[e.worst_draw]], hp)[e.op]()[0]
            else:
                replayed = harness._gate_errors([draws[e.worst_draw]], [], hp)[e.op]()[0]
            assert 0 <= e.worst_draw < (harness.BATCH_DRAWS if e.op == "batch_objective" else samples)
            assert replayed == e.max_err > 0.0, e.op

    @pytest.mark.parametrize("seed", [0, 7, 14])
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_stacked_errors_equal_the_per_draw_reference(self, case, seed):
        hp, num_classes = GATE_CASES[case]
        rng = np.random.default_rng(seed)
        draws = [
            (random_positive_sample(rng, hp, num_classes), harness._random_box_pair(rng))
            for _ in range(20)
        ]
        batches = [harness._random_batch(rng, hp, num_classes) for _ in range(3)]
        stacked = {op: err() for op, err in harness._gate_errors(draws, batches, hp).items()}
        assert list(stacked) == list(harness.GRADCHECK_OPS)
        for op in harness.GRADCHECK_OPS[:-1]:
            want = [gate_reference._check_one(sample, pair, hp)[op]() for sample, pair in draws]
            assert stacked[op].tolist() == want, op
        # the batch draws' errors do not depend on the rows stacked with them
        alone = [harness._gate_errors([], [batch], hp)["batch_objective"]()[0] for batch in batches]
        assert stacked["batch_objective"].tolist() == alone

    @pytest.mark.parametrize("seed", [0, 7, 14, 32])
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_gate_equals_the_per_copy_reference_bit_for_bit(self, case, seed):
        # the gate before its stepped copies shared one kernel call
        hp, num_classes = GATE_CASES[case]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, ref_draws = [], []
        for _ in range(20):
            draws.append((random_positive_sample(rng, hp, num_classes), harness._random_box_pair(rng)))
            ref_draws.append((
                gate_reference.random_positive_sample(ref_rng, hp, num_classes),
                gate_reference._random_box_pair(ref_rng),
            ))
        for (s, (a, b)), (ref, (ref_a, ref_b)) in zip(draws, ref_draws):
            assert s.probs.tobytes() == ref.probs.tobytes() and s.gt_class == ref.gt_class
            for got, want in [
                (s.d, ref.d), (s.d_hat, ref.d_hat), (s.anchor, ref.anchor), (s.gt_box, ref.gt_box),
                (a, ref_a), (b, ref_b),
            ]:
                assert got.as_array().tobytes() == want.as_array().tobytes()
        # the samplers leave the generator where the reference leaves it
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        batches = [harness._random_batch(rng, hp, num_classes) for _ in range(4)]
        got = {op: err() for op, err in harness._gate_errors(draws, batches, hp).items()}
        want = {op: err() for op, err in gate_reference._gate_errors(draws, batches, hp).items()}
        assert list(got) == list(want)
        for op in want:
            assert got[op].tobytes() == want[op].tobytes(), op

    # the stepped copies of a 500-draw stack are evaluated a few at a time
    # (MAX_GATE_ROWS), so the gate's traced peak stays near the per-copy
    # reference's, which holds every copy's evaluation but runs one at a time
    @pytest.mark.parametrize("num_samples, allowance", [(20, 1 << 20), (500, 2 << 20)])
    @pytest.mark.parametrize("case", ["default", "compat_standard"])
    def test_gate_memory_stays_near_the_per_copy_reference(self, num_samples, allowance, case):
        hp, num_classes = GATE_CASES[case]

        def peak(module) -> int:
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                draws = [
                    (module.random_positive_sample(rng, hp, num_classes), module._random_box_pair(rng))
                    for _ in range(num_samples)
                ]
                batches = [harness._random_batch(rng, hp, num_classes) for _ in range(4)]
                for err in module._gate_errors(draws, batches, hp).values():
                    err()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(harness) <= peak(gate_reference) + allowance

    @pytest.mark.parametrize("sampler", ["random_positive_sample", "_random_box_pair"])
    def test_samplers_equal_the_reference_over_many_draws(self, sampler):
        # enough tries that every rejection branch fires
        hp = HyperParams(margin=0.05)
        draws = {}
        for module in (harness, gate_reference):
            rng = np.random.default_rng(3)
            if sampler == "_random_box_pair":
                drawn = [module._random_box_pair(rng) for _ in range(3000)]
            else:
                drawn = [module.random_positive_sample(rng, hp, 4) for _ in range(500)]
                drawn = [(s.probs, s.gt_class, s.d, s.anchor, s.gt_box) for s in drawn]
            as_bytes = [
                tuple(v.as_array().tobytes() if hasattr(v, "as_array") else np.asarray(v).tobytes() for v in d)
                for d in drawn
            ]
            draws[module] = as_bytes, rng.bit_generator.state
        assert draws[harness] == draws[gate_reference]

    @pytest.mark.parametrize(
        "b, accepted",
        [
            (Box(1.0, 1.0, 5.0, 5.0), True),
            # a corner coordinate within KINK_MARGIN of a's
            (Box(0.0005, 1.0, 5.0, 5.0), False),
            (Box(1.0, -0.0005, 5.0, 5.0), False),
            (Box(1.0, 1.0, 3.9995, 5.0), False),
            (Box(1.0, 1.0, 5.0, 4.0005), False),
            # touching edges, and no overlap at all
            (Box(4.0, 1.0, 6.0, 5.0), False),
            (Box(1.0, 4.0, 5.0, 6.0), False),
            (Box(5.0, 1.0, 7.0, 5.0), False),
            # an overlap narrower, or lower, than KINK_MARGIN
            (Box(3.9995, 1.0, 6.0, 5.0), False),
            (Box(1.0, 3.9995, 5.0, 6.0), False),
        ],
    )
    def test_kink_predicate_hand_cases(self, b, accepted):
        # no drawn seed fires the touching-edge branch, so only these cases
        # hold each branch of the samplers' shared kink test
        a = Box(0.0, 0.0, 4.0, 4.0)
        assert harness._kink_free_overlap(a, b) is accepted
        assert harness._kink_free_overlap(b, a) is accepted

    def test_exhausted_draws_match_the_reference(self):
        hp = HyperParams()
        raised = []
        for sampler in (random_positive_sample, gate_reference.random_positive_sample):
            rng = np.random.default_rng(0)
            with pytest.raises(NumericalError) as exc:
                sampler(rng, hp, 200)
            raised.append((str(exc.value), rng.bit_generator.state))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("op", harness.GRADCHECK_OPS[:-1])
    def test_mutant_scalar_gradient_fails_its_operation(self, monkeypatch, op):
        real = getattr(harness, op)
        # each operation's analytic gradient off by 0.1%
        scaled = {
            "full_loc_loss": lambda *a: (real(*a)[0], real(*a)[1] * 1.001),
            "tc_loss": lambda *a: (*real(*a)[:2], real(*a)[2] * 1.001, real(*a)[3]),
            "harmonic_det_loss": lambda *a: replace(real(*a), grad_d=real(*a).grad_d * 1.001),
        }
        monkeypatch.setattr(harness, op, scaled.get(op, lambda *a: real(*a) * 1.001))
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=0)
        assert [e.op for e in report.entries if not e.passed] == [op]

    def test_nan_error_fails_the_entry(self, monkeypatch):
        real = harness.batch_objective_arrays
        monkeypatch.setattr(
            harness,
            "batch_objective_arrays",
            lambda *a: replace(real(*a), grad_probs=np.where(real(*a).grad_probs < 0, np.nan, 0)),
        )
        report = run_gradcheck(HyperParams(), 5, num_samples=2, seed=0)
        assert math.isnan(report.entries[-1].max_err)
        assert not report.passed

    # max_err of every op at the commit before the central differences were
    # folded into finite_diff_grad; the fold must not move a single bit. The
    # last, batch_objective, is pinned since the entry checks the row-wise
    # differences of batch_objective_arrays instead of the scalar objective.
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, ["0x1.59d9f80000000p-33", "0x1.3a9e7aaef0314p-31", "0x1.4404a00000000p-31",
                 "0x1.48c96e1800000p-31", "0x1.2130600000000p-32", "0x1.4025a80000000p-35",
                 "0x1.9b216a0000000p-31", "0x1.1cf207cad6409p-24"]),
            (14, ["0x1.5290100000000p-33", "0x1.20f774f8c0864p-31", "0x1.5ee80f8a8b9edp-32",
                  "0x1.93db200000000p-31", "0x1.2d9cd3d397618p-32", "0x1.dbdcc00000000p-35",
                  "0x1.93db200000000p-31", "0x1.3b08550315a61p-25"]),
        ],
    )
    def test_max_errors_are_pinned_bit_for_bit(self, seed, expected):
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=seed)
        assert [e.max_err.hex() for e in report.entries] == expected

    # max_err of every op at seed 0 under compat_standard, the hyperparameters
    # standard-mode training gates, before the entries shared one stack
    def test_standard_mode_max_errors_are_pinned_bit_for_bit(self):
        hp = HyperParams().compat_standard()
        report = run_gradcheck(hp, 5, num_samples=20, seed=0)
        assert [e.max_err.hex() for e in report.entries] == [
            "0x1.59d9f80000000p-33", "0x1.3a9e7aaef0314p-31", "0x1.7791dc3762e26p-33",
            "0x1.51bb0f0000000p-31", "0x1.8ebc800000000p-36", "0x1.4025a80000000p-35",
            "0x1.d877c00000000p-32", "0x1.1cf207cad6409p-24",
        ]


class TestRefinementExperiment:
    def test_zero_learning_rate_keeps_anchors(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=3))
        hp = HyperParams()
        opt = OptimizerConfig(learning_rate=0.0, steps=3, gradcheck_samples=0)
        res = refinement_experiment(ss, opt, hp)
        for after in (res.iou_plain, res.iou_weighted):
            assert np.all(np.abs(after - res.iou_before) <= 1e-12)

    def test_stream_length_equals_positive_count(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=3))
        hp = HyperParams()
        opt = OptimizerConfig(learning_rate=0.002, steps=5, gradcheck_samples=0)
        res = refinement_experiment(ss, opt, hp)
        total_pos = 0
        for scene in ss.scenes:
            m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
            total_pos += len(m.pos_anchor)
        for values in (res.iou_before, res.iou_plain, res.iou_weighted):
            assert values.shape == (total_pos,)
            assert not values.flags.writeable

    def test_pairs_equal_scalar_reference(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=3))
        hp = HyperParams()
        opt = OptimizerConfig(learning_rate=0.05, steps=6, gradcheck_samples=0)
        res = refinement_experiment(ss, opt, hp)
        before, plain = scalar_refine_ious(ss, 0.0, opt)
        _, weighted = scalar_refine_ious(ss, hp.gamma, opt)
        assert res.iou_before.tobytes() == before.tobytes()
        assert res.iou_plain.tobytes() == plain.tobytes()
        assert res.iou_weighted.tobytes() == weighted.tobytes()

    def test_runaway_offsets_diverge(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=2))
        opt = OptimizerConfig(learning_rate=1e9, steps=3, gradcheck_samples=0)
        with pytest.raises(DivergenceError, match="decode log cap"):
            refinement_experiment(ss, opt, HyperParams())

    def test_divergence_names_the_run_and_the_model_row(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=2))
        m = ss.matching
        opt = OptimizerConfig(learning_rate=44.0, steps=20, gradcheck_samples=0)
        # a negative focusing exponent takes its largest steps at low IoU
        hp = HyperParams(gamma=-20.0)
        # only the weighted run leaves the cap; the plain run alone completes
        harness._train_offsets_only(m, {"plain": 0.0}, opt)
        with pytest.raises(DivergenceError) as alone:
            harness._train_offsets_only(m, {"weighted": hp.gamma}, opt)
        with pytest.raises(DivergenceError, match=r"size offsets of the weighted run \(gamma -20\) past the decode log cap 16 \(model row \d+\)$") as exc:
            refinement_experiment(ss, opt, hp)
        assert (exc.value.step, exc.value.row) == (alone.value.step, alone.value.row)
        assert exc.value.row in m.pos_flat

    def test_gammas_recorded(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=2))
        hp = HyperParams(gamma=0.8)
        opt = OptimizerConfig(learning_rate=0.001, steps=2, gradcheck_samples=0)
        res = refinement_experiment(ss, opt, hp)
        assert res.gamma_weighted == 0.8


def scalar_refine_ious(ss, gamma, opt):
    """Per-positive scalar descent on the focused IoU loss: the IoUs before
    and after it, as arrays."""
    pairs = []
    for scene in ss.scenes:
        m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
        for a, g in zip(m.pos_anchor, m.pos_gt):
            anchor, gt = Box.from_array(ss.anchors[a]), Box.from_array(scene.gt_boxes[g])
            d = Offsets(0.0, 0.0, 0.0, 0.0)
            for _ in range(opt.steps):
                decoded = decode(d, anchor)
                du_dd = decode_jacobian(d, anchor).T @ iou_grad(decoded, gt)
                step = opt.learning_rate * hiou_slope(iou(decoded, gt), gamma) * du_dd
                d = Offsets.from_array(d.as_array() - step)
            pairs.append((iou(anchor, gt), iou(decode(d, anchor), gt)))
    return np.array(pairs).T
