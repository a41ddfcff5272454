"""Scene generation, anchor matching, toy training, and the refinement experiment."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hardet.gate as gate
import hardet.harness as harness
from hardet import cli
from hardet.cli import main
from hardet.geom import (
    AnchorTargets,
    Box,
    Offsets,
    corners,
    decode,
    decode_arrays,
    iou,
    iou_arrays,
    iou_grad,
)
from hardet.gate import GradientCheckError, random_positive_sample, run_gradcheck
from hardet.losses import HyperParams, KernelPlan, NegativeSample, PositiveSample, batch_objective
from hardet.harness import (
    MAX_MATCH_PAIRS,
    MAX_SCENE_ANCHORS,
    DivergenceError,
    OptimizerConfig,
    Scene,
    SceneConfig,
    ToyModel,
    generate_scenes,
    match_anchors,
    model_detections,
    refinement_experiment,
    train_toy,
)
from hardet.metrics import aic, iou_histogram

import geom_reference
import match_reference
import scene_reference
import train_reference


class TestSceneConfig:
    def test_zero_scenes_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(num_scenes=0)

    def test_oversized_objects_rejected(self):
        # objects span 3 * e^jitter: 1.67 fits the 16-unit canvas, 1.68 does not
        SceneConfig(jitter=1.67)
        with pytest.raises(ValueError, match=r"^objects up to 16\.10 cannot fit the 16 x 16 canvas$"):
            SceneConfig(jitter=1.68)

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
        small = {"anchor_spacing": 8.0}
        SceneConfig(objects_per_scene=(4, 4), **small)
        with pytest.raises(ValueError, match="upper bound 5 exceeds the 4 anchors per scene"):
            SceneConfig(objects_per_scene=(5, 5), **small)
        # 250 x 250 anchors: the IoU matrix of one scene is bounded
        big = {"num_scenes": 1, "anchor_spacing": 0.064}
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


def assert_boxes_on_canvas(ss):
    """Every ground-truth box lies inside the canvas with positive area."""
    x1, y1, x2, y2 = ss.ground_truth.boxes.T
    assert (x1 >= 0.0).all() and (y1 >= 0.0).all()
    assert (x2 <= harness.CANVAS).all() and (y2 <= harness.CANVAS).all()
    assert (x2 > x1).all() and (y2 > y1).all()


@st.composite
def scene_configs(draw):
    """Scene configs over the whole range ``SceneConfig`` accepts: any
    spacing from 0.5, objects up to the per-scene cap (the anchors and the
    matching limit over them) and jitter up to the widest the canvas fits;
    a few scenes each."""
    spacing = draw(st.floats(0.5, harness.CANVAS), label="spacing")
    per_scene = int(harness.CANVAS / spacing) ** 2
    hi = draw(st.integers(1, min(per_scene, MAX_MATCH_PAIRS // per_scene)), label="hi")
    return SceneConfig(
        seed=draw(st.integers(0, 2**16), label="seed"),
        num_scenes=draw(st.integers(1, 4), label="num_scenes"),
        objects_per_scene=(draw(st.integers(1, hi), label="lo"), hi),
        anchor_spacing=spacing,
        jitter=draw(st.floats(0.0, math.log(harness.CANVAS / harness.ANCHOR_SCALE)), label="jitter"),
    )


# scenes whose ground truth the digests below pin
PINNED_SCENES = {
    **{f"train_default-{seed}": {"seed": seed, "anchor_spacing": 3.0, "jitter": 0.12} for seed in range(5)},
    "train_dense-0": {"seed": 0, "num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
    "refine_default-0": {"seed": 0, "num_scenes": 60, "objects_per_scene": (3, 5), "jitter": 0.18},
    "widest_jitter-3": {
        "seed": 3, "num_scenes": 4, "objects_per_scene": (2, 4), "anchor_spacing": 0.5, "jitter": 1.67,
    },
}
# sha256 of each one's ground-truth boxes, class ids and scene ids, in that
# order, computed before clipped objects were drawn again: a draw whose every
# object lands on the canvas at its first try keeps these bytes
GROUND_TRUTH_SHA256 = {
    "train_default-0": "e81ca1598a200347c30bee5ca3b04b1de03e321ea945515abebfa50f2b19045a",
    "train_default-1": "654446d67f7c1187ab3d6889a14e0675c61ef5a2f7dc950233774ffea21952ab",
    "train_default-2": "1e6f67943d3523b3f2ba61b7b437ceb54d0e75b936c07df3703aeba91098213f",
    "train_default-3": "06a7a7121387fd40e52ff542761869b22797766e06bc88b15794217e3c45b6e2",
    "train_default-4": "238d579ada68a4afebc427a8259f61395adfdb48b9c047311cf79fa08a9bcc4f",
    "train_dense-0": "de0b23ee99973fb8eec3811128f20e75ebaf4e0adcf710dc4d4c23e973740161",
    "refine_default-0": "b20763866d148224fc7353edb62f017286cc74cb0f66f8325fcfc53d4595a025",
    "widest_jitter-3": "02dcec34a898ca2c2f262b5f9be9329bbb1c577191aae0cd9e91cb8705262b19",
}


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
        assert_boxes_on_canvas(generate_scenes(SceneConfig(seed=2, num_scenes=10)))

    def test_object_clipped_off_the_canvas_is_drawn_again(self):
        # at seed 0 object 2 of scene 0 first lands left of the canvas, which
        # clips it to nothing
        assert_boxes_on_canvas(generate_scenes(SceneConfig(seed=0, anchor_spacing=3.0, jitter=0.9)))

    @pytest.mark.parametrize("name", list(PINNED_SCENES))
    def test_ground_truth_bytes_are_pinned(self, name):
        gt = generate_scenes(SceneConfig(**PINNED_SCENES[name])).ground_truth
        h = hashlib.sha256()
        for a in (gt.boxes, gt.class_id, gt.scene):
            h.update(a.tobytes())
        assert h.hexdigest() == GROUND_TRUTH_SHA256[name]

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
    @given(cfg=scene_configs())
    # objects clipped off the canvas and drawn again
    @example(SceneConfig(seed=0, num_scenes=4, objects_per_scene=(2, 4), anchor_spacing=3.0, jitter=0.9))
    @example(SceneConfig(seed=126, num_scenes=4, objects_per_scene=(2, 4), anchor_spacing=3.0, jitter=0.9))
    def test_equals_the_box_reference(self, cfg):
        """Every scene config draws, with every box on the canvas, and the
        anchor grid and every scene's boxes and classes equal the per-``Box``
        loops' bit for bit, redrawn objects included."""
        grid = corners(scene_reference.anchor_grid(cfg))
        assert harness._anchor_grid(cfg).tobytes() == grid.tobytes()
        anchors, scenes = scene_reference.generate_scenes(cfg)
        ss = generate_scenes(cfg)
        assert_boxes_on_canvas(ss)
        assert ss.anchors.tobytes() == corners(anchors).tobytes()
        assert len(ss.scenes) == len(scenes)
        lo, hi = cfg.objects_per_scene
        for scene, (boxes, classes) in zip(ss.scenes, scenes):
            assert lo <= len(scene.gt_boxes) <= hi
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
        spacing=st.floats(0.5, 4.0),
        jitter=st.floats(0.0, 0.6),
        threshold=st.floats(0.05, 0.95),
        max_pairs=st.one_of(st.integers(1, 600), st.just(MAX_MATCH_PAIRS)),
    )
    def test_scene_set_equals_per_scene_reference(
        self, seed, num_scenes, objects, spacing, jitter, threshold, max_pairs
    ):
        try:
            ss = generate_scenes(SceneConfig(
                seed=seed, num_scenes=num_scenes, objects_per_scene=(objects[0], sum(objects)),
                anchor_spacing=spacing, jitter=jitter, positive_iou_threshold=threshold,
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
        cfg = SceneConfig(num_scenes=1, anchor_spacing=0.16, objects_per_scene=(100, 100))
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

    def test_gradcheck_samples_bounded_by_the_gate(self):
        limit = gate.MAX_GATE_SAMPLES
        assert OptimizerConfig(gradcheck_samples=limit).gradcheck_samples == limit
        with pytest.raises(ValueError, match=f"^gradcheck_samples must be <= {limit}, got {limit + 1}$"):
            OptimizerConfig(gradcheck_samples=limit + 1)

    @pytest.mark.parametrize(
        "field, message", [("learning_rate", "learning_rate must be >= 0, got nan")]
    )
    def test_nan_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(**{field: math.nan})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(loss_mode="sgd")


# negative rows as train_toy groups them, before the uint64 view
IDENTICAL_ROW_CASES = {
    "all-identical": np.zeros((40, 9)),
    "all-distinct": np.random.default_rng(0).normal(size=(40, 9)),
    "tied": np.random.default_rng(1).integers(0, 2, size=(40, 3)).astype(float),
    "signed-zeros": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 1.0], [0.0, 1.0]]),
    "no-rows": np.zeros((0, 9)),
}


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

        def gate_ran(*args, **kwargs):
            raise AssertionError("the gradient gate ran before the model shape check")

        monkeypatch.setattr(harness, "run_gradcheck", gate_ran)
        opt = OptimizerConfig()
        message = r"^model shaped \(3, 5\)/\(3, 4\) does not fit 100 anchors and 5 classes$"
        with pytest.raises(ValueError, match=message):
            train_toy(ss, ToyModel.zeros(3, 5), opt, HyperParams())

    @pytest.mark.parametrize("field, dtype", [("logits", np.int64), ("offsets", np.float32)])
    def test_model_dtype_is_checked_before_the_gate(self, monkeypatch, field, dtype):
        # int logits once failed mid-descent, and float32 offsets descended
        # in float32 without an error
        ss = generate_scenes(SceneConfig(anchor_spacing=3.0))

        def gate_ran(*args, **kwargs):
            raise AssertionError("the gradient gate ran before the model dtype check")

        monkeypatch.setattr(harness, "run_gradcheck", gate_ran)
        model = ToyModel.zeros(ss.total_anchors, 5)
        setattr(model, field, getattr(model, field).astype(dtype))
        message = rf"^model {field} are {np.dtype(dtype)}, not float64$"
        with pytest.raises(ValueError, match=message):
            train_toy(ss, model, OptimizerConfig(), HyperParams())
        with pytest.raises(ValueError, match=message):
            model_detections(ss, model)

    @pytest.mark.parametrize(
        "config, anchors, distinct",
        # the dense workload's zero model: every negative row is the same;
        # one anchor per scene leaves no negative at all
        [("train_dense", 4096, 1), ("one_anchor_per_scene", 4, 0)],
    )
    def test_kernel_runs_on_the_positives_and_one_row_per_distinct_negative(
        self, monkeypatch, config, anchors, distinct
    ):
        ss, hp, opt = cli_setup("train", TRAIN_CONFIGS[config])
        real = harness.batch_objective_arrays
        rows = []

        def counted(*args):
            rows.append((len(args[0]), len(args[2].gt_class)))
            return real(*args)

        monkeypatch.setattr(harness, "batch_objective_arrays", counted)
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        train_toy(ss, model, replace(opt, gradcheck_samples=0), hp)
        p = ss.matching.pos_flat.size
        assert ss.total_anchors == anchors
        assert rows == [(p + distinct, p)] * (opt.steps + 1)

    @pytest.mark.parametrize("case", sorted(IDENTICAL_ROW_CASES))
    def test_identical_row_groups_equal_numpy_unique(self, case):
        rows = IDENTICAL_ROW_CASES[case].view(np.uint64)
        first, inverse = harness._identical_rows(rows)
        _, want_first, want_inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        assert first.tolist() == want_first.tolist()
        assert inverse.tolist() == want_inverse.ravel().tolist()
        # one group per distinct byte pattern: -0.0 and 0.0 stay apart
        assert first.size == len({row.tobytes() for row in rows})

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
        # one plan for the run, built from its matching
        plan = calls[0][0][2]
        assert (plan.targets, plan.gt_class, plan.d_hat) == (m.targets, m.gt_class, m.d_hat)
        assert plan.hp is hp
        # the matching's targets, which every user of the scene set shares,
        # stay read-only: the run's workspace is the plan's own copy
        assert not m.targets.jacobian.flags.writeable
        assert plan.jacobian.flags.writeable and not np.shares_memory(plan.jacobian, m.targets.jacobian)
        for args, kwargs in calls:
            assert not kwargs and len(args) == 3 and args[2] is plan
        # the plan's only integer arrays are the positives' classes and their
        # entries in the leading rows: no row index array
        integers = [a for a in vars(plan).values() if isinstance(a, np.ndarray) and a.dtype.kind in "iub"]
        assert len(integers) == 2 and integers[0] is m.gt_class
        c = ss.config.num_classes
        assert plan.gt_entry.tolist() == (np.arange(m.pos_flat.size) * c + m.gt_class).tolist()
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
        monkeypatch.setattr(gate, "GRADCHECK_TOLERANCE", 0.0)
        ss, hp, model = small_setup()
        opt = OptimizerConfig(steps=5, gradcheck_samples=5)
        with pytest.raises(GradientCheckError):
            train_toy(ss, model, opt, hp)

    def test_gradient_gate_error_names_the_failing_operations(self, monkeypatch):
        monkeypatch.setattr(gate, "GRADCHECK_TOLERANCE", 0.0)
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
    # one anchor per scene, which its one object claims: no negatives
    "one_anchor_per_scene": {"scene": {"anchor_spacing": 16.0, "objects_per_scene": [1, 1]}},
}


def cli_setup(command, cfg, seed=0):
    """The scene set, hyperparameters and optimizer settings that ``hardet
    <command>`` builds from config ``cfg``."""
    _, scene, hp, opt = cli.command_setup(command, cfg, seed)
    return generate_scenes(scene), hp, opt


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
        real = gate.batch_objective_arrays
        calls = []

        def kept(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gate, "batch_objective_arrays", kept)
        samples = 3
        run_gradcheck(hp, 5, samples, seed=0)
        # the gate's draws, in its order, give the stack's anchors and boxes
        rng = np.random.default_rng(0)
        draws = [
            (random_positive_sample(rng, hp, 5), gate._random_box_pair(rng))
            for _ in range(samples)
        ]
        batches = [gate._random_batch(rng, hp, 5) for _ in range(gate.BATCH_DRAWS)]
        positives = [s for s, _ in draws] + [s for pos, _ in batches for s in pos]
        anchors = np.array([s.anchor.as_array() for s in positives])
        gt = np.array([s.gt_box.as_array() for s in positives])
        rows = len(positives) + gate.BATCH_DRAWS * gate.BATCH_NEGATIVES
        assert len(calls) > 1
        # one plan per call
        assert len({id(plan) for _, _, plan in calls}) == len(calls)
        for probs, offsets, plan in calls:
            gt_class, d_hat, kernel_hp = plan.gt_class, plan.d_hat, plan.hp
            # a call stacks copies of the rows, each with the draws' boxes:
            # every copy's positives, then every copy's negatives
            copies = len(probs) // rows
            tiled = np.tile(anchors, (copies, 1)), np.tile(gt, (copies, 1))
            fresh = KernelPlan(AnchorTargets(*tiled), gt_class, d_hat, kernel_hp, probs.shape[1])
            got = real(probs, offsets, fresh)
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

    @pytest.mark.parametrize("steps", [20, 100])
    def test_refine_stays_within_64_ulp_of_the_libm_descent(self, steps):
        # the descent takes numpy's exp and power, which can differ from
        # libm's in the last bit; at refine's step the refined IoUs stay
        # within 64 units of 2^-52, the ulp of IoU 1 (at most 7 at 20 steps
        # and 17 at 100 over seeds 0-20, under numpy 2.4's AVX-512 exp and
        # power)
        for seed in range(10):
            ss, hp, opt = cli_setup("refine", {"optimizer": {"steps": steps}}, seed)
            m = ss.matching
            res = refinement_experiment(ss, opt, hp)
            libm = train_reference.train_offsets_only(
                m,
                {"plain": 0.0, "weighted": hp.gamma},
                opt,
                geom_reference.libm_exp,
                train_reference.libm_power,
            )
            for got, d in zip((res.iou_plain, res.iou_weighted), libm):
                want = iou_arrays(decode_arrays(d, m.anchors), m.gt)
                assert np.abs(got - want).max() <= 64 * np.finfo(float).eps, seed

    def test_a_refine_row_does_not_depend_on_the_rows_beside_it(self):
        # numpy's vectorized exp and power give an entry the same value at
        # any position in the array, SIMD tail included: each run alone, and
        # the positives in reverse order, descend as in the stacked runs
        ss, hp, opt = cli_setup("refine", {})
        m = ss.matching
        runs = {"plain": 0.0, "weighted": hp.gamma}
        both = harness._train_offsets_only(m, runs, opt)
        for k, (name, gamma) in enumerate(runs.items()):
            alone = harness._train_offsets_only(m, {name: gamma}, opt)
            assert alone[0].tobytes() == both[k].tobytes()
        flipped = replace(m, pos_flat=m.pos_flat[::-1], anchors=m.anchors[::-1], gt=m.gt[::-1])
        backwards = harness._train_offsets_only(flipped, runs, opt)
        assert backwards[:, ::-1].tobytes() == both.tobytes()

    def test_gammas_recorded(self):
        ss = generate_scenes(SceneConfig(seed=2, num_scenes=2))
        hp = HyperParams(gamma=0.8)
        opt = OptimizerConfig(learning_rate=0.001, steps=2, gradcheck_samples=0)
        res = refinement_experiment(ss, opt, hp)
        assert res.gamma_weighted == 0.8


def numpy_exp_decode(d, anchor):
    """``decode(d, anchor)`` and ``decode_jacobian(d, anchor)``, their e^tw
    and e^th taken from ``np.exp`` on an array, as refine's descent takes
    them."""
    ew, eh = np.exp(np.array([d.tw, d.th])).tolist()
    wa, ha = anchor.width, anchor.height
    acx, acy = anchor.center
    cx = d.tx * wa + acx
    cy = d.ty * ha + acy
    w = wa * ew
    h = ha * eh
    box = Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
    half_w = 0.5 * wa * ew
    half_h = 0.5 * ha * eh
    jacobian = np.array(
        [
            [wa, 0.0, -half_w, 0.0],
            [0.0, ha, 0.0, -half_h],
            [wa, 0.0, half_w, 0.0],
            [0.0, ha, 0.0, half_h],
        ]
    )
    return box, jacobian


def numpy_power_slope(u, gamma):
    """``hiou_slope(u, gamma)``, its (1 + u)^(gamma - 1) taken from
    ``np.power`` on 1-element arrays, as refine's descent takes it (on numpy
    scalars it can differ from the array path in the last bit)."""
    power = np.power(np.array([1.0 + u]), np.array([gamma - 1.0])).item()
    return power * (gamma * (1.0 - u) - (1.0 + u))


def scalar_refine_ious(ss, gamma, opt):
    """Per-positive scalar descent on the focused IoU loss, on numpy's exp
    and power: the IoUs before and after it, as arrays, the final IoUs of
    boxes decoded by the scalar ``decode``."""
    pairs = []
    for scene in ss.scenes:
        m = match_anchors(scene, ss.anchors, ss.config.positive_iou_threshold)
        for a, g in zip(m.pos_anchor, m.pos_gt):
            anchor, gt = Box.from_array(ss.anchors[a]), Box.from_array(scene.gt_boxes[g])
            d = Offsets(0.0, 0.0, 0.0, 0.0)
            for _ in range(opt.steps):
                decoded, jacobian = numpy_exp_decode(d, anchor)
                du_dd = jacobian.T @ iou_grad(decoded, gt)
                step = opt.learning_rate * numpy_power_slope(iou(decoded, gt), gamma) * du_dd
                d = Offsets.from_array(d.as_array() - step)
            pairs.append((iou(anchor, gt), iou(decode(d, anchor), gt)))
    return np.array(pairs).T
