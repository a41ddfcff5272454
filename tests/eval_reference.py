"""The evaluation's object reference: a validated ``Box`` and ``Detection``
per model row, then NMS scene by scene, AP and the scatter over
``Detection``/``GroundTruth`` lists, each call rebuilding the corner arrays
of its groups, and AP walking every detection of a group at every
threshold.

``cli._evaluate_trained`` evaluates on ``DetectionArrays`` from the decode to
the scatter; the tests hold its kept rows, AP payload and scatter rows to
``evaluate``'s bit for bit. The tests also build their metric inputs as
these records and pass them to ``hardet.metrics`` through
``detection_arrays`` and ``ground_truth_arrays``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hardet.geom import DECODE_LOG_CAP, Box, corners, decode_arrays, iou_matrix
from hardet.harness import SceneSet, ToyModel
from hardet.metrics import (
    APResult,
    DetectionArrays,
    GroundTruthArrays,
    Key,
    _greedy_keep,
    check_iou_thresholds,
)


@dataclass(frozen=True)
class Detection:
    """A decoded box with class id and confidence score, in one scene."""

    box: Box
    class_id: int
    score: float
    scene: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class GroundTruth:
    """An annotated box with class id, in one scene."""

    box: Box
    class_id: int
    scene: int = 0


def detection_arrays(dets: Sequence[Detection]) -> DetectionArrays:
    """The detections as rows, in list order."""
    return DetectionArrays(
        corners([d.box for d in dets]),
        [d.class_id for d in dets],
        [d.score for d in dets],
        [d.scene for d in dets],
    )


def ground_truth_arrays(gts: Sequence[GroundTruth]) -> GroundTruthArrays:
    """The ground truths as rows, in list order."""
    return GroundTruthArrays(
        corners([g.box for g in gts]), [g.class_id for g in gts], [g.scene for g in gts]
    )


def model_detections(scene_set: SceneSet, model: ToyModel) -> list[list[Detection]]:
    """Per-scene detections tagged with their scene: argmax foreground class,
    decoded box."""
    over = np.flatnonzero(~np.all(np.abs(model.offsets[:, 2:]) <= DECODE_LOG_CAP, axis=1))
    if over.size:
        raise ValueError(f"size offsets of model row {over[0]} exceed the exp cap {DECODE_LOG_CAP}")
    probs = model.probs()
    cls = np.argmax(probs[:, 1:], axis=1) + 1
    scores = probs[np.arange(cls.size), cls]
    anchors = np.tile(scene_set.anchors, (len(scene_set.scenes), 1))
    boxes = decode_arrays(model.offsets, anchors).tolist()
    a = scene_set.anchors_per_scene
    rows = enumerate(zip(boxes, cls.tolist(), scores.tolist()))
    dets = [Detection(Box(*box), c, p, scene=k // a) for k, (box, c, p) in rows]
    return [dets[s * a : (s + 1) * a] for s in range(len(scene_set.scenes))]


def _groups(items: Sequence[Detection | GroundTruth]) -> dict[Key, list[int]]:
    """Input indices per (scene, class_id) group, in input order."""
    groups: dict[Key, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault((item.scene, item.class_id), []).append(i)
    return groups


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy suppression within each (scene, class) group; keeps score
    order, ties by input index."""
    check_iou_thresholds([iou_threshold])
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    ranked = [dets[i] for i in order]
    boxes = corners([d.box for d in ranked])
    keep = np.zeros(len(ranked), dtype=bool)
    for rows in _groups(ranked).values():
        keep[rows] = _greedy_keep(boxes[rows], iou_threshold)
    return [ranked[k] for k in np.flatnonzero(keep)]


def ap_from_matches(tp_flags: Sequence[bool], num_gt: int) -> float:
    """Area under the running-max precision envelope (all-point AP), every
    rank walked."""
    if num_gt == 0:
        raise ValueError("AP undefined without ground truths")
    if not tp_flags:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in tp_flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in tp_flags])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    # envelope: precision at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def _match_group(ious: list[list[float]], threshold: float) -> list[bool]:
    """Greedy TP/FP flags at one IoU threshold; ``ious`` rows are the
    group's detections in score order, columns its ground truths."""
    taken: set[int] = set()
    flags: list[bool] = []
    for row in ious:
        best, neg_j = max(((v, -j) for j, v in enumerate(row) if j not in taken), default=(0.0, 0))
        flags.append(best >= threshold)
        if flags[-1]:
            taken.add(-neg_j)
    return flags


def average_precision(
    dets: Sequence[Detection], gts: Sequence[GroundTruth], iou_thresholds: Sequence[float]
) -> APResult:
    """COCO-style AP per (scene, class) group, averaged over the groups with
    ground truth."""
    thresholds = check_iou_thresholds(iou_thresholds)
    det_groups, gt_groups = _groups(dets), _groups(gts)
    det_boxes, gt_boxes = corners([d.box for d in dets]), corners([g.box for g in gts])
    keys = sorted(gt_groups)
    per_class: dict[Key, dict[float, float]] = {}
    for key in keys:
        rows = sorted(det_groups.get(key, []), key=lambda i: (-dets[i].score, i))
        cols = gt_groups[key]
        ious = iou_matrix(det_boxes[rows], gt_boxes[cols]).tolist()
        per_class[key] = {t: ap_from_matches(_match_group(ious, t), len(cols)) for t in thresholds}
    per_threshold = {
        t: (sum(per_class[k][t] for k in keys) / len(keys)) if keys else 0.0 for t in thresholds
    }
    mean = sum(per_threshold.values()) / len(thresholds)
    return APResult(per_threshold=per_threshold, mean=mean, per_class=per_class)


def consistency_scatter(
    dets: Sequence[Detection], gts: Sequence[GroundTruth]
) -> list[tuple[float, float]]:
    """(score, best IoU with a ground truth of its scene and class) per
    detection; 0 IoU when there is none."""
    det_boxes, gt_boxes = corners([d.box for d in dets]), corners([g.box for g in gts])
    best = np.zeros(len(dets))
    gt_groups = _groups(gts)
    for key, rows in _groups(dets).items():
        if key in gt_groups:
            best[rows] = iou_matrix(det_boxes[rows], gt_boxes[gt_groups[key]]).max(axis=1)
    return [(d.score, b) for d, b in zip(dets, best.tolist())]


def evaluate(
    scene_set: SceneSet, model: ToyModel, nms_threshold: float, ap_thresholds: list[float]
) -> tuple[dict, list[Detection], list[tuple[float, float]]]:
    """AP payload, kept detections and scatter rows of a model on its scenes."""
    kept = [d for dets in model_detections(scene_set, model) for d in nms(dets, nms_threshold)]
    gts = [
        GroundTruth(box=Box.from_array(box), class_id=c, scene=s)
        for s, scene in enumerate(scene_set.scenes)
        for box, c in zip(scene.gt_boxes, scene.gt_classes.tolist())
    ]
    ap = average_precision(kept, gts, ap_thresholds)
    ap_payload = {
        "per_threshold": {str(k): v for k, v in ap.per_threshold.items()},
        "mean": ap.mean,
    }
    return ap_payload, kept, consistency_scatter(kept, gts)
