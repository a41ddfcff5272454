"""Detection-quality and consistency metrics.

Greedy NMS, averaged AP over IoU thresholds, the average inconsistency
coefficient (AIC) between scores and IoUs, IoU histograms, per-bin
refinement gains, and score-vs-IoU scatter rows. NMS, AP and the scatter
group boxes by (scene, class_id) and compare only within a group. All
functions are pure and deterministic; ties break by input index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geom import Box, corners, iou_matrix
from .geom import iou  # noqa: F401 - unused; perfbench's tracer test patches hardet.metrics.iou

DEFAULT_AP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_IOU_BIN_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_GAIN_BIN_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# box pairs one block of an NMS suppression matrix holds: bounds its float
# temporaries to 32 KB each, so a dense group costs no more memory than a small one
NMS_BLOCK_PAIRS = 4096


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


def _check_record(obj: object, required: set[str], kind: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} record must be an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise ValueError(f"{kind} record missing fields: {sorted(missing)}")


def detection_from_json(obj: object) -> Detection:
    """Build a detection from the JSONL record format of this package."""
    _check_record(obj, {"box", "class_id", "score"}, "detection")
    box, scene = Box.from_array(obj["box"]), int(obj.get("scene", 0))
    return Detection(box, int(obj["class_id"]), float(obj["score"]), scene)


def ground_truth_from_json(obj: object) -> GroundTruth:
    """Build a ground truth from the JSONL record format of this package."""
    _check_record(obj, {"box", "class_id"}, "ground-truth")
    return GroundTruth(Box.from_array(obj["box"]), int(obj["class_id"]), int(obj.get("scene", 0)))


def check_iou_thresholds(thresholds: Sequence[float]) -> list[float]:
    """The NMS/AP thresholds as floats, duplicates dropped in order; at least
    one, each in (0, 1]."""
    out = list(dict.fromkeys(float(t) for t in thresholds))
    if not out:
        raise ValueError("need at least one IoU threshold")
    for t in out:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"IoU threshold must lie in (0, 1], got {t}")
    return out


Key = tuple[int, int]


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


def _greedy_keep(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Kept flags of one group's boxes in score order: a box is kept unless
    a kept box before it overlaps it at the threshold.

    Works through the undecided boxes a block of rows at a time, each block
    an ``iou_matrix`` of at most NMS_BLOCK_PAIRS pairs (at least one row)
    against every undecided box; a box leaves as soon as it is kept or
    suppressed, so later blocks are narrower.
    """
    keep = np.zeros(len(boxes), dtype=bool)
    live = np.arange(len(boxes))
    while live.size:
        block = live[: max(1, NMS_BLOCK_PAIRS // live.size)]
        hits = iou_matrix(boxes[block], boxes[live]) >= iou_threshold
        decided = np.zeros(live.size, dtype=bool)
        for r, i in enumerate(block.tolist()):
            if not decided[r]:
                keep[i] = True
                decided |= hits[r]
        # walked rows are decided, zero-area boxes too (their self-IoU is 0)
        decided[: block.size] = True
        live = live[~decided]
    return keep


def _ap_from_matches(tp_flags: Sequence[bool], num_gt: int) -> float:
    """Area under the running-max precision envelope (all-point AP)."""
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
    group's detections in score order, columns its ground truths. Each
    detection takes the free ground truth of highest IoU (ties to the lowest
    index) and is a TP if that IoU reaches the threshold."""
    taken: set[int] = set()
    flags: list[bool] = []
    for row in ious:
        best, neg_j = max(((v, -j) for j, v in enumerate(row) if j not in taken), default=(0.0, 0))
        flags.append(best >= threshold)
        if flags[-1]:
            taken.add(-neg_j)
    return flags


@dataclass(frozen=True)
class APResult:
    """Per-threshold AP averaged over (scene, class) groups with ground
    truth, plus the per-group detail."""

    per_threshold: dict[float, float]
    mean: float
    per_class: dict[Key, dict[float, float]] = field(default_factory=dict)


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
) -> APResult:
    """COCO-style AP: greedy score-ordered matching, all-point envelope.

    Matching and averaging run per (scene, class) group. Groups without
    ground truth are absent from the report; their detections do not enter
    any other group's precision.
    """
    thresholds = check_iou_thresholds(iou_thresholds)
    det_groups, gt_groups = _groups(dets), _groups(gts)
    det_boxes, gt_boxes = corners([d.box for d in dets]), corners([g.box for g in gts])
    keys = sorted(gt_groups)
    per_class: dict[Key, dict[float, float]] = {}
    for key in keys:
        rows = sorted(det_groups.get(key, []), key=lambda i: (-dets[i].score, i))
        cols = gt_groups[key]
        # one IoU matrix per group, shared by every threshold
        ious = iou_matrix(det_boxes[rows], gt_boxes[cols]).tolist()
        per_class[key] = {t: _ap_from_matches(_match_group(ious, t), len(cols)) for t in thresholds}
    per_threshold = {
        t: (sum(per_class[k][t] for k in keys) / len(keys)) if keys else 0.0 for t in thresholds
    }
    mean = sum(per_threshold.values()) / len(thresholds)
    return APResult(per_threshold=per_threshold, mean=mean, per_class=per_class)


def aic(pairs: Sequence[tuple[float, float]], mode: str = "mean") -> float:
    """Aggregate |score - IoU| over positives; ``mode`` is "mean" or "sum"."""
    if not pairs:
        raise ValueError("aic needs at least one (score, iou) pair")
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown aic mode: {mode!r}")
    total = 0.0
    for score, iou_value in pairs:
        if not 0.0 <= score <= 1.0 or not 0.0 <= iou_value <= 1.0:
            raise ValueError(f"aic entries must lie in [0, 1], got ({score}, {iou_value})")
        total += abs(score - iou_value)
    return total / len(pairs) if mode == "mean" else total


def _bin_index(value: float, edges: np.ndarray) -> int:
    """Bin index under [e_k, e_k+1) binning with a closed last bin; -1 below."""
    if value < edges[0]:
        return -1
    if value >= edges[-1]:
        return len(edges) - 2
    return int(np.searchsorted(edges, value, side="right")) - 1


def _check_edges(bin_edges: Sequence[float]) -> np.ndarray:
    edges = np.asarray(bin_edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    if edges[0] < 0.0 or edges[-1] > 1.0:
        raise ValueError("bin edges must lie within [0, 1]")
    return edges


def iou_histogram(
    ious: Iterable[float], bin_edges: Sequence[float] = DEFAULT_IOU_BIN_EDGES
) -> np.ndarray:
    """Counts per bin; values below the first edge are dropped.

    Bins are half-open [e_k, e_k+1) with the last bin closed at the top.
    """
    edges = _check_edges(bin_edges)
    counts = np.zeros(edges.size - 1, dtype=int)
    for v in ious:
        v = float(v)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"IoU value outside [0, 1]: {v}")
        k = _bin_index(v, edges)
        if k >= 0:
            counts[k] += 1
    return counts


@dataclass(frozen=True)
class BinnedGain:
    """Mean IoU change per iou_before bin; empty bins report None."""

    edges: np.ndarray
    counts: np.ndarray
    means: list[float | None]


def refinement_gain(
    pairs: Sequence[tuple[float, float]],
    bin_edges: Sequence[float] = DEFAULT_GAIN_BIN_EDGES,
) -> BinnedGain:
    """Bin (iou_before, iou_after) pairs by iou_before; mean delta per bin."""
    if not pairs:
        raise ValueError("refinement_gain needs at least one pair")
    edges = _check_edges(bin_edges)
    counts = np.zeros(edges.size - 1, dtype=int)
    sums = np.zeros(edges.size - 1, dtype=float)
    for before, after in pairs:
        before = float(before)
        after = float(after)
        if not 0.0 <= before <= 1.0 or not 0.0 <= after <= 1.0:
            raise ValueError(f"IoU values outside [0, 1]: ({before}, {after})")
        k = _bin_index(before, edges)
        if k >= 0:
            counts[k] += 1
            sums[k] += after - before
    means: list[float | None] = [
        (sums[k] / counts[k]) if counts[k] > 0 else None for k in range(counts.size)
    ]
    return BinnedGain(edges=edges, counts=counts, means=means)


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
            ious = iou_matrix(det_boxes[rows], gt_boxes[gt_groups[key]])
            best[rows] = ious.max(axis=1)
    return [(d.score, b) for d, b in zip(dets, best.tolist())]
