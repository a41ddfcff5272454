"""NMS, average precision, AIC, histograms, refinement gains, scatter."""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardet.geom import Box, iou
from hardet.metrics import (
    APResult,
    DetectionArrays,
    GroundTruthArrays,
    aic,
    average_precision,
    consistency_scatter,
    iou_histogram,
    nms,
    refinement_gain,
)
from hardet import metrics
from hardet.metrics import AP_THRESHOLDS, GAIN_BIN_EDGES, IOU_BIN_EDGES, _ap_at

import eval_reference
from eval_reference import Detection, GroundTruth, detection_arrays, ground_truth_arrays


def det(x1, y1, x2, y2, cls=1, score=0.5):
    return Detection(box=Box(x1, y1, x2, y2), class_id=cls, score=score)


def gt(x1, y1, x2, y2, cls=1):
    return GroundTruth(box=Box(x1, y1, x2, y2), class_id=cls)


def random_detections(rng, n, num_classes=3):
    dets = []
    for _ in range(n):
        x, y = rng.uniform(0, 8, size=2)
        w, h = rng.uniform(0.5, 4, size=2)
        dets.append(
            Detection(
                box=Box(x, y, x + w, y + h),
                class_id=int(rng.integers(1, num_classes + 1)),
                score=float(rng.uniform(0, 1)),
            )
        )
    return dets


def kept_rows(dets, iou_threshold):
    """The list rows :func:`nms` keeps, in its order."""
    return nms(detection_arrays(dets), iou_threshold).tolist()


def ap(dets, gts):
    return average_precision(detection_arrays(dets), ground_truth_arrays(gts))


def best_ious(dets, gts):
    return consistency_scatter(detection_arrays(dets), ground_truth_arrays(gts)).tolist()


class TestNms:
    def test_single_detection(self):
        assert kept_rows([det(0, 0, 1, 1)], 0.5) == [0]

    def test_identical_boxes_keep_highest(self):
        lo = det(0, 0, 1, 1, score=0.8)
        hi = det(0, 0, 1, 1, score=0.9)
        assert kept_rows([lo, hi], 0.5) == [1]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            kept_rows([det(0, 0, 1, 1)], 0.0)

    @pytest.mark.parametrize("threshold", [-0.5, 1.5, np.nan, np.inf, -np.inf])
    def test_out_of_range_threshold_rejected(self, threshold):
        message = rf"^IoU threshold must lie in \(0, 1\], got {float(threshold)}$"
        with pytest.raises(ValueError, match=message):
            kept_rows([det(0, 0, 1, 1)], threshold)

    def test_threshold_one_suppresses_only_identical_boxes(self):
        dets = [det(0, 0, 1, 1, score=0.9), det(0, 0, 1, 1, score=0.8), det(0, 0, 1, 1.1, score=0.7)]
        assert kept_rows(dets, 1.0) == [0, 2]

    def test_different_classes_do_not_suppress(self):
        a = det(0, 0, 1, 1, cls=1, score=0.9)
        b = det(0, 0, 1, 1, cls=2, score=0.8)
        assert kept_rows([a, b], 0.5) == [0, 1]

    def test_high_score_low_iou_box_survives(self):
        # the better-localized but lower-scored candidate gets suppressed
        target = gt(0, 0, 2, 2)
        accurate = det(0.0, 0.0, 2.0, 2.2, score=0.6)
        sloppy = det(0.3, 0.0, 2.3, 2.0, score=0.9)
        assert iou(accurate.box, target.box) > iou(sloppy.box, target.box)
        assert iou(accurate.box, sloppy.box) >= 0.5
        assert kept_rows([accurate, sloppy], 0.5) == [1]

    def test_tie_breaks_by_input_index(self):
        a = det(0, 0, 1, 1, score=0.5)
        b = det(0, 0, 1, 1, score=0.5)
        assert kept_rows([a, b], 0.5) == [0]

    def test_random_set_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            dets = random_detections(rng, int(rng.integers(0, 15)))
            thr = float(rng.uniform(0.2, 0.9))
            arrays = detection_arrays(dets)
            rows = nms(arrays, thr)
            kept = [dets[k] for k in rows.tolist()]
            # distinct input rows
            assert len(set(rows.tolist())) == rows.size
            assert all(0 <= k < len(dets) for k in rows.tolist())
            by_class: dict[int, list[float]] = {}
            for i, a in enumerate(kept):
                by_class.setdefault(a.class_id, []).append(a.score)
                for b in kept[i + 1 :]:
                    if a.class_id == b.class_id:
                        assert iou(a.box, b.box) < thr
            for scores in by_class.values():
                assert scores == sorted(scores, reverse=True)
            # idempotent
            assert nms(arrays.take(rows), thr).tolist() == list(range(rows.size))


class TestAveragePrecision:
    def test_perfect_detector(self):
        gts = [gt(0, 0, 2, 2, cls=1), gt(4, 4, 6, 6, cls=2)]
        dets = [det(0, 0, 2, 2, cls=1, score=0.9), det(4, 4, 6, 6, cls=2, score=0.8)]
        result = ap(dets, gts)
        for t in (0.5, 0.6, 0.7, 0.8, 0.9):
            assert result.per_threshold[t] == pytest.approx(1.0)
        assert result.mean == pytest.approx(1.0)

    def test_no_detections(self):
        result = ap([], [gt(0, 0, 2, 2)])
        assert result.mean == 0.0

    def test_ranked_pair_gives_half(self):
        # high-scored disjoint box outranks the correct one:
        # flags (FP, TP) -> precision envelope area 0.5
        gts = [gt(0, 0, 2, 2)]
        dets = [det(0, 0, 2, 2, score=0.6), det(5, 5, 6, 6, score=0.9)]
        result = ap(dets, gts)
        assert result.per_threshold[0.5] == pytest.approx(0.5)

    def test_score_rescaling_invariance(self):
        rng = np.random.default_rng(23)
        gts = [gt(0, 0, 2, 2), gt(3, 3, 5, 5), gt(6, 0, 7.5, 2, cls=2)]
        dets = random_detections(rng, 12)
        base = ap(dets, gts)
        scaled = [Detection(box=d.box, class_id=d.class_id, score=d.score * 0.5) for d in dets]
        rescored = ap(scaled, gts)
        assert rescored.per_threshold == base.per_threshold

    def test_gt_matched_at_most_once(self):
        gts = [gt(0, 0, 2, 2)]
        dets = [det(0, 0, 2, 2, score=0.9), det(0, 0, 2, 2, score=0.8)]
        result = ap(dets, gts)
        # second duplicate is a false positive: envelope gives 1.0 up to recall 1
        assert result.per_threshold[0.5] == pytest.approx(1.0)

    def test_class_without_gt_is_absent(self):
        gts = [gt(0, 0, 2, 2, cls=1)]
        dets = [det(0, 0, 2, 2, cls=1, score=0.9), det(4, 4, 5, 5, cls=7, score=0.8)]
        result = ap(dets, gts)
        assert (0, 7) not in result.per_class
        assert result.per_threshold[0.5] == pytest.approx(1.0)

    def test_ap_in_unit_interval(self):
        rng = np.random.default_rng(29)
        gts = [gt(0, 0, 2, 2), gt(3, 3, 5, 5, cls=2)]
        for _ in range(50):
            result = ap(random_detections(rng, 10), gts)
            for v in result.per_threshold.values():
                assert 0.0 <= v <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(flags=st.lists(st.booleans(), max_size=40), extra_gt=st.integers(0, 5))
    def test_ap_walk_over_true_positives_equals_the_full_walk(self, flags, extra_gt):
        num_gt = max(1, sum(flags) + extra_gt)
        walked = _ap_at(np.flatnonzero(flags), num_gt)
        assert repr(walked) == repr(eval_reference.ap_from_matches(flags, num_gt))


class TestDetectionArrays:
    def test_rows_are_checked_as_detection_and_box_check_them(self):
        ok = np.array([[0.0, 0.0, 1.0, 1.0]] * 2)
        cases = [
            (ok, [0.5, 1.5], "row 1: score must lie in \\[0, 1\\], got 1.5"),
            (ok, [np.nan, 0.5], "row 0: score must lie in \\[0, 1\\], got nan"),
            (ok + [[0, 0, 0, np.inf], [0, 0, 0, 0]], [0.5, 0.5], "row 0: box coordinate y2 is not finite"),
            (ok[:, [2, 1, 0, 3]], [0.5, 0.5], "row 0: box corners out of order"),
            (ok[:1], [0.5, 0.5], "must hold one entry per box"),
            (ok.ravel(), [0.5, 0.5], "boxes must be shaped"),
        ]
        for boxes, score, message in cases:
            with pytest.raises(ValueError, match=message):
                DetectionArrays(boxes, [1, 1], score, [0, 0])
        with pytest.raises(ValueError, match="row 1: box corners out of order"):
            GroundTruthArrays([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]], [1, 1], [0, 0])

    @pytest.mark.parametrize(
        "class_id, scene, message",
        [
            ([1, 2.5], [0, 0], "row 1: class_id must be an integer, got 2.5"),
            ([1, 2], [0, -0.5], "row 1: scene must be an integer, got -0.5"),
            ([np.nan, 2], [0, 0], "row 0: class_id must be an integer, got nan"),
            ([1, 2], [np.inf, 0], "row 0: scene must be an integer, got inf"),
        ],
    )
    def test_integer_fields_are_not_truncated(self, class_id, scene, message):
        boxes = [[0.0, 0.0, 1.0, 1.0]] * 2
        with pytest.raises(ValueError, match=message):
            GroundTruthArrays(boxes, class_id, scene)
        with pytest.raises(ValueError, match=message):
            DetectionArrays(boxes, class_id, [0.5, 0.5], scene)
        # integral floats are the integers they hold
        gts = GroundTruthArrays(boxes, [1.0, 2.0], [0.0, 3.0])
        assert (gts.class_id.tolist(), gts.scene.tolist()) == ([1, 2], [0, 3])

    def test_arrays_are_read_only_copies(self):
        boxes = np.array([[0.0, 0.0, 1.0, 1.0]])
        dets = DetectionArrays(boxes, [1], [0.5], [0])
        boxes[0, 0] = 0.5
        assert dets.boxes[0, 0] == 0.0
        for values in (dets.boxes, dets.class_id, dets.score, dets.scene):
            assert not values.flags.writeable


class TestAic:
    def test_perfect_consistency(self):
        assert aic(np.array([0.5, 0.9]), np.array([0.5, 0.9])) == 0.0

    def test_hand_values(self):
        scores, ious = np.array([0.9, 0.3]), np.array([0.5, 0.6])
        assert aic(scores, ious) == pytest.approx(0.35, abs=1e-12)
        assert aic(scores, ious, mode="sum") == pytest.approx(0.7, abs=1e-12)

    def test_reorder_invariance(self):
        scores, ious = np.array([0.9, 0.3, 0.2]), np.array([0.5, 0.6, 0.8])
        assert aic(scores, ious) == pytest.approx(aic(scores[::-1], ious[::-1]), abs=1e-15)

    def test_mean_in_unit_interval(self):
        rng = np.random.default_rng(5)
        scores, ious = rng.uniform(0, 1, size=(2, 100))
        assert 0.0 <= aic(scores, ious) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aic(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize(
        "scores, ious, message",
        [
            ([1.2], [0.5], "row 0: scores must lie in"),
            ([0.5, 0.5], [0.5, np.nan], "row 1: ious must lie in"),
            ([0.5], [0.5, 0.5], "1-D arrays of one length"),
            ([[0.5]], [[0.5]], "1-D arrays of one length"),
        ],
    )
    def test_rows_checked(self, scores, ious, message):
        with pytest.raises(ValueError, match=message):
            aic(scores, ious)


class TestIouHistogram:
    def test_all_ones_land_in_last_bin(self):
        counts = iou_histogram(np.ones(3))
        np.testing.assert_array_equal(counts, [0, 0, 0, 0, 3])

    def test_hand_binning_with_prefilter(self):
        values = 0.05 + 0.1 * np.arange(10)  # 0.05 .. 0.95
        counts = iou_histogram(values)
        np.testing.assert_array_equal(counts, [1, 1, 1, 1, 1])
        assert counts.sum() == np.count_nonzero(values >= 0.5)

    def test_full_cover_edges_partition_input(self):
        # the bins cover [0.5, 1]
        rng = np.random.default_rng(37)
        values = rng.uniform(0.5, 1, size=500)
        assert iou_histogram(values).sum() == 500

    @pytest.mark.parametrize("value", [1.2, -0.1, np.nan])
    def test_out_of_range_value_rejected(self, value):
        with pytest.raises(ValueError, match="row 1: ious must lie in"):
            iou_histogram(np.array([0.5, value]))

    @pytest.mark.parametrize("k", range(len(IOU_BIN_EDGES)))
    def test_an_edge_value_opens_its_bin(self, k):
        # [e_k, e_k+1) bins with the last one closed at 1.0
        expected = np.zeros(len(IOU_BIN_EDGES) - 1, dtype=int)
        expected[min(k, expected.size - 1)] = 1
        np.testing.assert_array_equal(iou_histogram(np.array([IOU_BIN_EDGES[k]])), expected)


class TestRefinementGain:
    def test_identity_refinement(self):
        before = np.array([0.55, 0.72])
        result = refinement_gain(before, before)
        for m, c in zip(result.means, result.counts):
            if c > 0:
                assert m == 0.0

    def test_constant_shift(self):
        result = refinement_gain(np.array([0.55, 0.72, 0.31]), np.array([0.65, 0.82, 0.41]))
        for m, c in zip(result.means, result.counts):
            if c > 0:
                assert m == pytest.approx(0.1, abs=1e-12)

    def test_empty_bins_absent(self):
        result = refinement_gain(np.array([0.55]), np.array([0.6]))
        assert result.means[5] is not None
        assert result.means[0] is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            refinement_gain(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize(
        "before, after, message",
        [
            ([0.5, 1.5], [0.5, 0.5], "row 1: before must lie in"),
            ([0.5], [np.nan], "row 0: after must lie in"),
            ([0.5, 0.5], [0.5], "1-D arrays of one length"),
        ],
    )
    def test_rows_checked(self, before, after, message):
        with pytest.raises(ValueError, match=message):
            refinement_gain(before, after)


class TestConstants:
    """The fixed evaluation instruments meet the checks their callers no
    longer run."""

    def test_ap_thresholds_increase_within_the_nms_range(self):
        assert AP_THRESHOLDS == (0.5, 0.6, 0.7, 0.8, 0.9)
        assert all(0.0 < a < b <= 1.0 for a, b in zip(AP_THRESHOLDS, AP_THRESHOLDS[1:]))

    @pytest.mark.parametrize("edges", [IOU_BIN_EDGES, GAIN_BIN_EDGES], ids=["iou", "gain"])
    def test_bin_edges_increase_within_the_unit_interval(self, edges):
        assert isinstance(edges, tuple) and len(edges) >= 2
        assert all(isinstance(e, float) and math.isfinite(e) for e in edges)
        assert 0.0 <= edges[0] and edges[-1] == 1.0
        assert all(a < b for a, b in zip(edges, edges[1:]))


class TestConsistencyScatter:
    def test_perfect_detector(self):
        gts = [gt(0, 0, 2, 2)]
        dets = [det(0, 0, 2, 2, score=1.0)]
        assert best_ious(dets, gts) == [1.0]

    def test_row_per_detection(self):
        rng = np.random.default_rng(41)
        gts = [gt(0, 0, 2, 2), gt(3, 3, 5, 5, cls=2)]
        dets = random_detections(rng, 9)
        assert len(best_ious(dets, gts)) == 9

    def test_no_same_class_gt_gives_zero(self):
        assert best_ious([det(0, 0, 2, 2, cls=3)], [gt(0, 0, 2, 2, cls=1)]) == [0.0]


# --- scalar oracle -------------------------------------------------------------
#
# The class-wise scalar loops that NMS, AP and the scatter ran on before they
# grouped by (scene, class): one scalar iou per pair. Scenes reach them as
# classes remapped to scene * 10_000 + class_id, as the train command did.


def oracle_nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy class-wise suppression; keeps score order, ties by input index."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept: list[int] = []
    for i in order:
        suppressed = False
        for j in kept:
            if dets[j].class_id != dets[i].class_id:
                continue
            if iou(dets[i].box, dets[j].box) >= iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return [dets[i] for i in kept]


def oracle_match_class(
    dets: list[tuple[int, Detection]],
    gts: list[GroundTruth],
    threshold: float,
) -> list[bool]:
    """Greedy TP/FP flags for one class at one IoU threshold."""
    taken = [False] * len(gts)
    flags: list[bool] = []
    for _, det in sorted(dets, key=lambda pair: (-pair[1].score, pair[0])):
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            v = iou(det.box, gt.box)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0 and best_iou >= threshold:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def oracle_average_precision(dets: Sequence[Detection], gts: Sequence[GroundTruth]) -> APResult:
    """COCO-style AP at each of AP_THRESHOLDS: greedy score-ordered matching,
    all-point envelope.

    Classes without ground truth are absent from the report; detections for
    such classes do not enter any other class's precision.
    """
    classes = sorted({gt.class_id for gt in gts})
    per_class: dict[int, dict[float, float]] = {}
    for cls in classes:
        cls_dets = [(i, d) for i, d in enumerate(dets) if d.class_id == cls]
        cls_gts = [g for g in gts if g.class_id == cls]
        per_class[cls] = {
            t: _ap_at(np.flatnonzero(oracle_match_class(cls_dets, cls_gts, t)), len(cls_gts))
            for t in AP_THRESHOLDS
        }
    per_threshold = {
        t: (sum(per_class[c][t] for c in classes) / len(classes)) if classes else 0.0
        for t in AP_THRESHOLDS
    }
    mean = sum(per_threshold.values()) / len(AP_THRESHOLDS)
    return APResult(per_threshold=per_threshold, mean=mean, per_class=per_class)


def oracle_consistency_scatter(
    dets: Sequence[Detection], gts: Sequence[GroundTruth]
) -> list[tuple[float, float]]:
    """(score, best same-class IoU) row per detection; 0 IoU when no GT."""
    rows: list[tuple[float, float]] = []
    for det in dets:
        best = 0.0
        for gt in gts:
            if gt.class_id != det.class_id:
                continue
            best = max(best, iou(det.box, gt.box))
        rows.append((det.score, best))
    return rows


def oracle_aic(pairs: Sequence[tuple[float, float]], mode: str = "mean") -> float:
    """|score - IoU| summed one (score, IoU) pair at a time."""
    total = 0.0
    for score, iou_value in pairs:
        total += abs(score - iou_value)
    return total / len(pairs) if mode == "mean" else total


def oracle_bin(value: float, edges: Sequence[float]) -> int:
    """[e_k, e_k+1) bin of one value, the last bin closed; -1 below."""
    if value < edges[0]:
        return -1
    if value >= edges[-1]:
        return len(edges) - 2
    return int(np.searchsorted(edges, value, side="right")) - 1


def oracle_iou_histogram(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    counts = [0] * (len(edges) - 1)
    for v in values:
        k = oracle_bin(v, edges)
        if k >= 0:
            counts[k] += 1
    return counts


def oracle_refinement_gain(
    pairs: Sequence[tuple[float, float]], edges: Sequence[float]
) -> tuple[list[int], list[float | None]]:
    """Counts and mean ``after - before`` per ``before`` bin, summed pair by pair."""
    counts = [0] * (len(edges) - 1)
    sums = [0.0] * (len(edges) - 1)
    for before, after in pairs:
        k = oracle_bin(before, edges)
        if k >= 0:
            counts[k] += 1
            sums[k] += after - before
    return counts, [s / c if c else None for s, c in zip(sums, counts)]


def remapped(items):
    """Scene folded into the class id, scene 0 everywhere."""
    return [type(x)(**{**vars(x), "class_id": x.scene * 10_000 + x.class_id, "scene": 0}) for x in items]


# half-unit grid: identical, nested, touching and degenerate boxes are common
_BOX = st.tuples(*[st.integers(0, 6)] * 2, *[st.integers(0, 3)] * 2).map(
    lambda b: Box(b[0] / 2, b[1] / 2, (b[0] + b[2]) / 2, (b[1] + b[3]) / 2)
)
# few distinct scores: ties are common
_SCORE = st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _dets_and_gts(draw):
    """Detections and ground truths drawing boxes from one small pool, so
    that exact matches (IoU 1) are common. Ground truths take classes 1 and
    2 only: class 3 detections never have ground truth."""
    pool = draw(st.lists(_BOX, min_size=1, max_size=4))
    box = st.sampled_from(pool) | _BOX
    scene = st.integers(0, 1)
    dets = draw(st.lists(
        st.builds(Detection, box=box, class_id=st.integers(1, 3), score=_SCORE, scene=scene),
        max_size=24,
    ))
    gts = draw(st.lists(
        st.builds(GroundTruth, box=box, class_id=st.integers(1, 2), scene=scene), max_size=8
    ))
    return dets, gts


_THRESHOLD = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 1.0)


class TestMatchesScalarOracle:
    """Grouped array paths against the scalar loops, floats equal bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sets=_dets_and_gts(), threshold=_THRESHOLD)
    # the same box in two scenes: neither suppresses the other
    @example(
        sets=([det(0, 0, 1, 1, score=0.9), Detection(Box(0, 0, 1, 1), 1, 0.8, scene=1)], []),
        threshold=0.5,
    )
    def test_nms(self, sets, threshold):
        dets, _ = sets
        flat = remapped(dets)
        flat_index = {id(d): i for i, d in enumerate(flat)}
        assert kept_rows(dets, threshold) == [flat_index[id(d)] for d in oracle_nms(flat, threshold)]

    @settings(max_examples=300, deadline=None)
    @given(sets=_dets_and_gts())
    # the first detection overlaps both ground truths at IoU 0.5 and must take
    # the lower index, leaving the second detection nothing to match
    @example(
        sets=(
            [det(0, 0, 2, 1, score=0.9), det(0, 0, 1, 1, score=0.8)],
            [gt(0, 0, 1, 1), gt(1, 0, 2, 1)],
        ),
    )
    # tied scores rank by input index: the matching detection comes first
    @example(sets=([det(0, 0, 1, 1, score=0.5), det(2, 2, 3, 3, score=0.5)], [gt(0, 0, 1, 1)]))
    # the first group's detection (IoU 0.75) reaches 0.7 but not 0.8, and the
    # second group's reaches no threshold at all: an empty walk
    @example(
        sets=(
            [det(0, 0, 2, 1.5, score=0.9), Detection(Box(5, 5, 6, 6), 1, 0.8, scene=1)],
            [gt(0, 0, 2, 2), GroundTruth(Box(0, 0, 1, 1), 1, scene=1)],
        ),
    )
    def test_average_precision(self, sets):
        dets, gts = sets
        new = ap(dets, gts)
        old = oracle_average_precision(remapped(dets), remapped(gts))
        assert repr(new.per_threshold) == repr(old.per_threshold)
        assert repr(new.mean) == repr(old.mean)
        assert repr({s * 10_000 + c: v for (s, c), v in new.per_class.items()}) == repr(old.per_class)

    @settings(max_examples=300, deadline=None)
    @given(sets=_dets_and_gts())
    def test_consistency_scatter(self, sets):
        dets, gts = sets
        want = repr(oracle_consistency_scatter(remapped(dets), remapped(gts)))
        new = list(zip([d.score for d in dets], best_ious(dets, gts)))
        assert repr(new) == want
        # the scatter average_precision reads from its own IoU matrices
        from_ap = list(zip([d.score for d in dets], ap(dets, gts).best_iou.tolist()))
        assert repr(from_ap) == want


# few distinct values, the bin edges among them: ties and edge hits are common
_UNIT = st.sampled_from([0.0, 0.1, 0.5, 0.7, 0.8999999999999999, 1.0]) | st.floats(0.0, 1.0)


class TestSummariesMatchPairLoops:
    """AIC, the histogram and the gains against their one-pair-at-a-time
    loops, floats equal bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=40))
    def test_aic(self, pairs):
        scores, ious = np.array(pairs).T
        for mode in ("mean", "sum"):
            assert aic(scores, ious, mode).hex() == oracle_aic(pairs, mode).hex()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_UNIT, max_size=40))
    def test_iou_histogram(self, values):
        counts = iou_histogram(np.array(values, dtype=float))
        assert counts.tolist() == oracle_iou_histogram(values, IOU_BIN_EDGES)

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=40))
    def test_refinement_gain(self, pairs):
        before, after = np.array(pairs).T
        result = refinement_gain(before, after)
        counts, means = oracle_refinement_gain(pairs, GAIN_BIN_EDGES)
        assert result.counts.tolist() == counts
        assert [m if m is None else m.hex() for m in result.means] == [
            m if m is None else m.hex() for m in means
        ]


def _dense_group(rng):
    """320 detections of scene 0, class 1 on a coarse grid (repeated boxes
    and tied scores are common), then 14 in four other groups, two of them
    repeating its boxes and scores."""
    def draw(n, cls, scene):
        xy = rng.integers(0, 12, size=(n, 2)) / 2
        wh = rng.integers(2, 6, size=(n, 2)) / 2
        scores = rng.integers(0, 5, size=n) / 4
        return [
            Detection(Box(*xy[k], *(xy[k] + wh[k])), cls, float(scores[k]), scene=scene)
            for k in range(n)
        ]

    dense = draw(320, 1, 0)
    others = draw(4, 2, 0) + draw(4, 1, 1) + draw(4, 3, 1)
    copies = [Detection(dense[k].box, 2, dense[k].score, scene=s) for k, s in ((5, 0), (40, 1))]
    return dense + others[:6] + copies + others[6:]


@pytest.mark.parametrize("block_rows", [metrics.NMS_BLOCK_ROWS, 1, 7])
@pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
def test_nms_across_block_seams_matches_the_oracle(monkeypatch, block_rows, threshold):
    """A group far larger than one NMS block keeps exactly what the scalar
    loop keeps, at any block size."""
    monkeypatch.setattr(metrics, "NMS_BLOCK_ROWS", block_rows)
    dets = _dense_group(np.random.default_rng(5))
    flat = remapped(dets)
    flat_index = {id(d): i for i, d in enumerate(flat)}
    kept = kept_rows(dets, threshold)
    assert kept == [flat_index[id(d)] for d in oracle_nms(flat, threshold)]
    assert 1 < sum(k < 320 for k in kept) < 320


# one group in score order: row 0's box suppresses rows 1 and 9, the latter
# blocks later at 1-3 rows per block; row 6 overlaps only row 1, so it is
# kept because a suppressed row suppresses nothing, even one suppressed
# inside row 0's block; rows 2, 3 and 8 have no area (IoU 0 with every box,
# themselves too) and sit on block seams
_SEAM_BOXES = [
    (0, 0, 2, 2),
    (0, 0.6, 2, 2.6),
    (1, 1, 1, 1.5),
    (1, 1, 1, 1.5),
    (10, 0, 11, 1),
    (20, 0, 21, 1),
    (0, 1.2, 2, 3.2),
    (30, 0, 31, 1),
    (0.5, 0.5, 1.5, 0.5),
    (0, 0, 2, 2),
]


@pytest.mark.parametrize("block_rows", [metrics.NMS_BLOCK_ROWS, 1, 2, 3])
def test_nms_kept_rows_suppress_rows_blocks_later(monkeypatch, block_rows):
    monkeypatch.setattr(metrics, "NMS_BLOCK_ROWS", block_rows)
    dets = [det(*box, score=1.0 - k / 16) for k, box in enumerate(_SEAM_BOXES)]
    assert kept_rows(dets, 0.5) == [0, 2, 3, 4, 5, 6, 7, 8]
    assert [dets.index(d) for d in oracle_nms(dets, 0.5)] == [0, 2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("threshold", [0.3, 0.5])
def test_nms_on_a_thousand_row_group_matches_the_oracle(threshold):
    """One (scene, class) group of 1 200 boxes, about ten blocks, the
    boxes' corners continuous so that overlaps take every value."""
    rng = np.random.default_rng(11)
    xy = rng.uniform(0, 12, size=(1200, 2))
    wh = rng.uniform(0.5, 3, size=(1200, 2))
    dets = [det(*xy[k], *(xy[k] + wh[k]), score=float(rng.uniform())) for k in range(1200)]
    kept = kept_rows(dets, threshold)
    index = {id(d): i for i, d in enumerate(dets)}
    assert kept == [index[id(d)] for d in oracle_nms(dets, threshold)]
    assert 2 * metrics.NMS_BLOCK_ROWS < len(kept) < 1000
