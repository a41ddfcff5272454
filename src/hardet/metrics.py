"""Detection-quality and consistency metrics.

Greedy class-wise NMS, averaged AP over IoU thresholds, the average
inconsistency coefficient (AIC) between scores and IoUs, IoU histograms,
per-bin refinement gains, and score-vs-IoU scatter rows. All functions are
pure and deterministic; ties break by input index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geom import Box, iou

DEFAULT_AP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_IOU_BIN_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_GAIN_BIN_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Detection:
    """A decoded box with class id and confidence score."""

    box: Box
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass
class GroundTruth:
    """An annotated box; ``matched`` is evaluation bookkeeping."""

    box: Box
    class_id: int
    matched: bool = False


def detection_from_json(obj: dict) -> Detection:
    """Build a detection from the JSONL record format of this package."""
    missing = {"box", "class_id", "score"} - obj.keys()
    if missing:
        raise ValueError(f"detection record missing fields: {sorted(missing)}")
    return Detection(
        box=Box.from_array(obj["box"]), class_id=int(obj["class_id"]), score=float(obj["score"])
    )


def ground_truth_from_json(obj: dict) -> GroundTruth:
    """Build a ground truth from the JSONL record format of this package."""
    missing = {"box", "class_id"} - obj.keys()
    if missing:
        raise ValueError(f"ground-truth record missing fields: {sorted(missing)}")
    return GroundTruth(box=Box.from_array(obj["box"]), class_id=int(obj["class_id"]))


def check_iou_thresholds(thresholds: Sequence[float]) -> list[float]:
    """The NMS/AP thresholds as floats; at least one, each in (0, 1]."""
    out = [float(t) for t in thresholds]
    if not out:
        raise ValueError("need at least one IoU threshold")
    for t in out:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"IoU threshold must lie in (0, 1], got {t}")
    return out


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy class-wise suppression; keeps score order, ties by input index."""
    check_iou_thresholds([iou_threshold])
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


def _match_class(
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


@dataclass(frozen=True)
class APResult:
    """Per-threshold AP averaged over classes with ground truth, plus detail."""

    per_threshold: dict[float, float]
    mean: float
    per_class: dict[int, dict[float, float]] = field(default_factory=dict)


def average_precision(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_thresholds: Sequence[float] = DEFAULT_AP_THRESHOLDS,
) -> APResult:
    """COCO-style AP: greedy score-ordered matching, all-point envelope.

    Classes without ground truth are absent from the report; detections for
    such classes do not enter any other class's precision.
    """
    thresholds = check_iou_thresholds(iou_thresholds)
    classes = sorted({gt.class_id for gt in gts})
    per_class: dict[int, dict[float, float]] = {}
    for cls in classes:
        cls_dets = [(i, d) for i, d in enumerate(dets) if d.class_id == cls]
        cls_gts = [g for g in gts if g.class_id == cls]
        per_class[cls] = {
            t: _ap_from_matches(_match_class(cls_dets, cls_gts, t), len(cls_gts))
            for t in thresholds
        }
    per_threshold = {
        t: (sum(per_class[c][t] for c in classes) / len(classes)) if classes else 0.0
        for t in thresholds
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
