"""Detection-quality and consistency metrics.

Greedy NMS, averaged AP over IoU thresholds, the average inconsistency
coefficient (AIC) between scores and IoUs, IoU histograms, per-bin
refinement gains, and score-vs-IoU scatter rows. NMS, AP and the scatter
run on :class:`DetectionArrays` and :class:`GroundTruthArrays`; they group
boxes by (scene, class_id) and compare only within a group. All functions
are pure and deterministic; ties break by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geom import iou_matrix
from .geom import iou  # noqa: F401 - unused; perfbench's tracer test patches hardet.metrics.iou

# the IoU thresholds AP averages over, the bins of the IoU histogram and
# the iou_before bins of the refinement gains
AP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
IOU_BIN_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
GAIN_BIN_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# rows of one NMS block, which is decided among itself; every iou_matrix call
# of the walk holds at most NMS_BLOCK_ROWS**2 pairs, so its float temporaries
# stay at 128 KB each and a dense group costs no more memory than a small one
NMS_BLOCK_ROWS = 128


Key = tuple[int, int]


def _own_arrays(item: object, **dtypes: type) -> None:
    """Set the ``boxes`` field and the named fields of a frozen dataclass to
    read-only copies of the given dtypes, and check them: (N, 4) corners
    that pass :class:`Box`'s checks row by row, and one entry per box in
    every other field, integral in an integer field."""
    given = {}
    for name, dtype in {"boxes": float, **dtypes}.items():
        given[name] = np.asarray(getattr(item, name))
        # a float that is no integer fails the check below
        with np.errstate(invalid="ignore"):
            values = given[name].astype(dtype)
        values.flags.writeable = False
        object.__setattr__(item, name, values)
    boxes = item.boxes
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must be shaped (N, 4), got {boxes.shape}")
    for name, dtype in dtypes.items():
        values = getattr(item, name)
        if values.shape != boxes.shape[:1]:
            raise ValueError(f"{name} must hold one entry per box, got {values.shape}")
        if dtype is int and given[name].dtype.kind == "f":
            # written so that NaN fails it too
            exact = values == given[name]
            if not exact.all():
                k = int(np.argmin(exact))
                got = given[name][k].item()
                raise ValueError(f"row {k}: {name} must be an integer, got {got}")
    finite = np.isfinite(boxes)
    if not finite.all():
        k, c = np.argwhere(~finite)[0].tolist()
        name = ("x1", "y1", "x2", "y2")[c]
        raise ValueError(f"row {k}: box coordinate {name} is not finite: {boxes[k, c].item()!r}")
    ordered = np.all(boxes[:, :2] <= boxes[:, 2:], axis=1)
    if not ordered.all():
        k = int(np.argmin(ordered))
        raise ValueError(f"row {k}: box corners out of order: {tuple(boxes[k].tolist())}")


@dataclass(frozen=True, eq=False)
class DetectionArrays:
    """Detections as arrays: row ``k`` is box ``boxes[k]`` (corners) of class
    ``class_id[k]`` with score ``score[k]`` in scene ``scene[k]``.

    Every row is checked: a score in [0, 1] and a box that passes
    :class:`Box`'s checks. The arrays are read-only copies of the ones given.
    """

    boxes: np.ndarray
    class_id: np.ndarray
    score: np.ndarray
    scene: np.ndarray

    def __post_init__(self) -> None:
        _own_arrays(self, class_id=int, score=float, scene=int)
        # written so that NaN fails it too
        valid = (self.score >= 0.0) & (self.score <= 1.0)
        if not valid.all():
            k = int(np.argmin(valid))
            raise ValueError(f"row {k}: score must lie in [0, 1], got {self.score[k].item()}")

    def __len__(self) -> int:
        return len(self.boxes)

    def take(self, rows: np.ndarray) -> "DetectionArrays":
        """The detections at ``rows``, in that order."""
        return DetectionArrays(
            self.boxes[rows], self.class_id[rows], self.score[rows], self.scene[rows]
        )


@dataclass(frozen=True, eq=False)
class GroundTruthArrays:
    """Ground truths as arrays: row ``k`` is box ``boxes[k]`` of class
    ``class_id[k]`` in scene ``scene[k]``; validated and read-only as
    :class:`DetectionArrays`."""

    boxes: np.ndarray
    class_id: np.ndarray
    scene: np.ndarray

    def __post_init__(self) -> None:
        _own_arrays(self, class_id=int, scene=int)

    def __len__(self) -> int:
        return len(self.boxes)


def _by_score(dets: DetectionArrays) -> np.ndarray:
    """Rows in score order, ties by row."""
    return np.argsort(-dets.score, kind="stable")


def _group_rows(
    items: DetectionArrays | GroundTruthArrays, order: np.ndarray
) -> dict[Key, np.ndarray]:
    """The rows of ``order`` per (scene, class_id) group, each in ``order``'s
    order, the groups in ascending key order: one stable sort on the key."""
    if not order.size:
        return {}
    scene, cls = items.scene[order], items.class_id[order]
    by_key = np.lexsort((cls, scene))
    scene, cls, order = scene[by_key], cls[by_key], order[by_key]
    starts = np.flatnonzero(np.r_[True, (scene[1:] != scene[:-1]) | (cls[1:] != cls[:-1])])
    keys = zip(scene[starts].tolist(), cls[starts].tolist())
    return dict(zip(keys, np.split(order, starts[1:])))


def nms(dets: DetectionArrays, iou_threshold: float) -> np.ndarray:
    """Greedy suppression within each (scene, class) group: the rows kept,
    in score order, ties by row."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must lie in (0, 1], got {float(iou_threshold)}")
    order = _by_score(dets)
    keep = np.zeros(len(dets), dtype=bool)
    for rows in _group_rows(dets, order).values():
        keep[rows] = _greedy_keep(dets.boxes[rows], iou_threshold)
    return order[keep[order]]


def _greedy_keep(boxes: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Kept flags of one group's boxes in score order: a box is kept unless
    a kept box before it overlaps it at the threshold.

    Works through the live (undecided) boxes a block of NMS_BLOCK_ROWS at a
    time: the block is decided greedily on its own ``iou_matrix``, then every
    later live box that one of the block's kept boxes overlaps is dropped,
    the kept x rest matrix taken in column chunks of at most
    NMS_BLOCK_ROWS**2 pairs. This keeps what the one-box-at-a-time walk
    keeps, since a suppressed box suppresses nothing.
    """
    keep = np.zeros(len(boxes), dtype=bool)
    live = np.arange(len(boxes))
    while live.size:
        block, live = live[:NMS_BLOCK_ROWS], live[NMS_BLOCK_ROWS:]
        hits = iou_matrix(boxes[block], boxes[block]) >= iou_threshold
        decided = np.zeros(block.size, dtype=bool)
        kept = []
        for r, i in enumerate(block.tolist()):
            if not decided[r]:
                kept.append(i)
                decided |= hits[r]
        keep[kept] = True
        kept_boxes = boxes[kept]
        chunk = NMS_BLOCK_ROWS**2 // len(kept)
        suppressed = np.zeros(live.size, dtype=bool)
        for k in range(0, live.size, chunk):
            hits = iou_matrix(kept_boxes, boxes[live[k : k + chunk]]) >= iou_threshold
            suppressed[k : k + chunk] = hits.any(axis=0)
        live = live[~suppressed]
    return keep


def _ap_at(tp_rank: Sequence[int], num_gt: int) -> float:
    """All-point AP of a ranked list whose true positives sit at the
    ascending ranks ``tp_rank``, on Python floats.

    Recall rises only at a true positive, so the sum runs over those alone.
    There, the envelope (the best precision at this rank or later) is the
    best precision at a true positive at or after it: between two true
    positives precision only falls.
    """
    if num_gt == 0:
        raise ValueError("AP undefined without ground truths")
    # the rank's TP + FP count; int() keeps numpy integers out of the floats
    env = [tp / (int(rank) + 1.0) for tp, rank in enumerate(tp_rank, start=1)]
    for k in range(len(env) - 2, -1, -1):
        env[k] = max(env[k], env[k + 1])
    ap = prev = 0.0
    for tp, p in enumerate(env, start=1):
        r = tp / num_gt
        ap += (r - prev) * p
        prev = r
    return ap


def _true_positives(walked: list[tuple[int, float, list[float]]], threshold: float) -> list[int]:
    """Ranks of the true positives at one IoU threshold; ``walked`` holds a
    group's detections in score order as (rank, best IoU, IoU row against
    the group's ground truths). Each detection takes the free ground truth
    of highest IoU (ties to the lowest index) and is a TP if that IoU
    reaches the threshold.

    A detection whose best IoU over every ground truth misses the threshold
    is a FP that takes nothing, so it is skipped.
    """
    taken: set[int] = set()
    tps = []
    for r, row_best, row in walked:
        if row_best < threshold:
            continue
        best, neg_j = max(((v, -j) for j, v in enumerate(row) if j not in taken), default=(0.0, 0))
        if best >= threshold:
            tps.append(r)
            taken.add(-neg_j)
    return tps


def _group_ap(ious: np.ndarray, row_best: np.ndarray) -> dict[float, float]:
    """AP of one group at each of AP_THRESHOLDS, from its IoU matrix
    (detections in score order x ground truths) and the matrix's row maxima.
    The rows that reach the lowest threshold become Python lists once, for
    every threshold's walk."""
    walked = np.flatnonzero(row_best >= min(AP_THRESHOLDS))
    rows = list(zip(walked.tolist(), row_best[walked].tolist(), ious[walked].tolist()))
    return {t: _ap_at(_true_positives(rows, t), ious.shape[1]) for t in AP_THRESHOLDS}


@dataclass(frozen=True)
class APResult:
    """Per-threshold AP averaged over (scene, class) groups with ground
    truth, plus the per-group detail, and the read-only IoU column of the
    score-vs-IoU scatter (:func:`consistency_scatter`), one entry per
    detection in row order. Equality compares the AP figures only."""

    per_threshold: dict[float, float]
    mean: float
    per_class: dict[Key, dict[float, float]] = field(default_factory=dict)
    best_iou: np.ndarray = field(default_factory=lambda: np.zeros(0), compare=False)


def _ground_truth_groups(
    dets: DetectionArrays, gts: GroundTruthArrays
) -> tuple[dict[Key, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The IoU pass that AP and the scatter share. Per (scene, class) group
    with ground truth, in ascending key order, the IoU matrix of its
    detections in score order (ties by row) against its ground truths, and
    the matrix's row maxima; and each detection's best IoU with a ground
    truth of its group, 0 when the group has none, read-only."""
    det_groups = _group_rows(dets, _by_score(dets))
    none = np.zeros(0, dtype=int)
    groups = {}
    best = np.zeros(len(dets))
    for key, cols in _group_rows(gts, np.arange(len(gts))).items():
        rows = det_groups.get(key, none)
        ious = iou_matrix(dets.boxes[rows], gts.boxes[cols])
        row_best = ious.max(axis=1)
        best[rows] = row_best
        groups[key] = ious, row_best
    best.flags.writeable = False
    return groups, best


def average_precision(dets: DetectionArrays, gts: GroundTruthArrays) -> APResult:
    """COCO-style AP at each of AP_THRESHOLDS: greedy score-ordered matching,
    all-point envelope; ties in score rank by row.

    Matching and averaging run per (scene, class) group. Groups without
    ground truth are absent from the report; their detections do not enter
    any other group's precision. The result carries the scatter's IoU
    column, read from the same IoU matrices.
    """
    groups, best = _ground_truth_groups(dets, gts)
    # one IoU matrix and its row maxima per group, shared by every threshold
    per_class = {key: _group_ap(ious, row_best) for key, (ious, row_best) in groups.items()}
    keys = list(per_class)
    per_threshold = {
        t: (sum(per_class[k][t] for k in keys) / len(keys)) if keys else 0.0
        for t in AP_THRESHOLDS
    }
    mean = sum(per_threshold.values()) / len(AP_THRESHOLDS)
    return APResult(per_threshold=per_threshold, mean=mean, per_class=per_class, best_iou=best)


def _unit_arrays(caller: str, **values: object) -> list[np.ndarray]:
    """The named ``values`` as 1-D float arrays of one length, every entry in [0, 1]."""
    arrays = [np.asarray(v, dtype=float) for v in values.values()]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        shapes = [a.shape for a in arrays]
        raise ValueError(f"{caller} needs 1-D arrays of one length, got shapes {shapes}")
    for name, a in zip(values, arrays):
        valid = (a >= 0.0) & (a <= 1.0)  # written so that NaN fails it too
        if not valid.all():
            k = int(np.argmin(valid))
            raise ValueError(f"{caller}: row {k}: {name} must lie in [0, 1], got {a[k].item()}")
    return arrays


def aic(scores: np.ndarray, ious: np.ndarray, mode: str = "mean") -> float:
    """Aggregate |score - IoU| over positives, row ``k`` pairing ``scores[k]``
    with ``ious[k]``; ``mode`` is "mean" or "sum". The sum runs in row order."""
    if mode not in ("mean", "sum"):
        raise ValueError(f"unknown aic mode: {mode!r}")
    scores, ious = _unit_arrays("aic", scores=scores, ious=ious)
    if not scores.size:
        raise ValueError("aic needs at least one (score, iou) row")
    total = float(np.abs(scores - ious).cumsum()[-1])
    return total / scores.size if mode == "mean" else total


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each value's bin under [e_k, e_k+1) binning with a closed last bin;
    -1 below the first edge."""
    return np.minimum(np.searchsorted(edges, values, side="right") - 1, edges.size - 2)


def iou_histogram(ious: np.ndarray) -> np.ndarray:
    """Counts per bin of IOU_BIN_EDGES; values below the first edge are
    dropped.

    Bins are half-open [e_k, e_k+1) with the last bin closed at the top.
    """
    edges = np.array(IOU_BIN_EDGES)
    (ious,) = _unit_arrays("iou_histogram", ious=ious)
    bins = _bin_indices(ious, edges)
    return np.bincount(bins[bins >= 0], minlength=edges.size - 1)


@dataclass(frozen=True)
class BinnedGain:
    """Mean IoU change per iou_before bin; empty bins report None."""

    edges: np.ndarray
    counts: np.ndarray
    means: list[float | None]


def refinement_gain(before: np.ndarray, after: np.ndarray) -> BinnedGain:
    """Bin rows by ``before`` at GAIN_BIN_EDGES; mean ``after - before`` per
    bin, summed in row order."""
    edges = np.array(GAIN_BIN_EDGES)
    before, after = _unit_arrays("refinement_gain", before=before, after=after)
    if not before.size:
        raise ValueError("refinement_gain needs at least one row")
    bins = _bin_indices(before, edges)
    binned = bins >= 0
    counts = np.bincount(bins[binned], minlength=edges.size - 1)
    sums = np.bincount(bins[binned], weights=(after - before)[binned], minlength=edges.size - 1)
    means: list[float | None] = [
        (sums[k] / counts[k]) if counts[k] > 0 else None for k in range(counts.size)
    ]
    return BinnedGain(edges=edges, counts=counts, means=means)


def consistency_scatter(dets: DetectionArrays, gts: GroundTruthArrays) -> np.ndarray:
    """Each detection's best IoU with a ground truth of its scene and class,
    0 when there is none: the IoU column of the score-vs-IoU scatter, read
    only. :func:`average_precision` returns it too, as ``best_iou``."""
    return _ground_truth_groups(dets, gts)[1]
