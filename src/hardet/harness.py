"""Desk-scale training rig: synthetic scenes, anchor matching, a toy
detector head, gradient descent under the standard or harmonic objective,
and the paired refinement experiment.

The toy model holds free per-anchor parameters (class logits plus offsets)
so the losses, not a network, drive the dynamics. Every training run first
passes the gradient gate of :mod:`hardet.gate`. Everything is a pure
function of (inputs, seed); repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .gate import MAX_GATE_SAMPLES, GradientCheckError, NumericalError, run_gradcheck
# unused here: perfbench traces, and its tracer test patches, these hardet.harness names
from .gate import finite_diff_grad, random_positive_sample  # noqa: F401
from .geom import iou  # noqa: F401
from .geom import (
    DECODE_LOG_CAP,
    AnchorTargets,
    _jittered_box,
    decode_arrays,
    encode_arrays,
    iou_arrays,
    iou_matrix,
    offset_iou_and_grad_rows,
)
from .losses import BatchArrays, HyperParams, KernelPlan, batch_objective_arrays
from .metrics import DetectionArrays, GroundTruthArrays, aic

# largest scene set generate_scenes builds, 100x the desk-scale 10^4-anchor target
MAX_SCENE_ANCHORS = 1_000_000
# largest anchors x objects IoU matrix matching builds at once, over one block
# of scenes; a 10^4-anchor scene may hold 100 objects, and matching it peaks
# at 24 MB of traced allocations (tracemalloc), the 8 MB matrix included
MAX_MATCH_PAIRS = 1_000_000
# the scene geometry: the side of the square canvas, and of every square anchor
CANVAS = 16.0
ANCHOR_SCALE = 3.0


class DivergenceError(NumericalError):
    """Raised when a per-step check of a training loop fails.

    ``check`` names it: non-finite probabilities, size offsets past the
    decode log cap, or a non-finite objective. ``row`` is the first model row
    that failed a per-row check, None for the objective.
    """

    def __init__(self, step: int, check: str, row: int | None = None):
        where = "" if row is None else f" (model row {row})"
        super().__init__(f"training diverged at step {step}: {check}{where}")
        self.step = step
        self.check = check
        self.row = row


def _check_decode_cap(
    step: int, offsets: np.ndarray, rows: np.ndarray, runs: Sequence[str] = ("",)
) -> None:
    """``offsets`` stacks one block of ``len(rows)`` rows per run: its row
    ``k`` belongs to model row ``rows[k % len(rows)]`` of the run that
    ``runs[k // len(rows)]`` names in the check text."""
    # written so that NaN offsets fail it too
    ok = np.abs(offsets[:, 2:]) <= DECODE_LOG_CAP
    if not np.logical_and.reduce(ok, axis=None):
        run, k = divmod(int(np.argmin(ok.all(axis=1))), len(rows))
        check = f"size offsets{runs[run]} past the decode log cap {DECODE_LOG_CAP:g}"
        raise DivergenceError(step, check, int(rows[k]))


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene and anchor-grid settings. Scenes are ``CANVAS``-sided
    squares under a grid of ``ANCHOR_SCALE``-sided anchors.

    Ground-truth boxes are jittered copies of randomly chosen anchors:
    centers shift by up to ``jitter`` times the anchor size and log-sizes by
    up to ``jitter`` (at most ln(CANVAS / ANCHOR_SCALE), so that objects fit),
    which controls how the matched-IoU distribution decays. Class 0 is background.
    """

    seed: int = 0
    num_scenes: int = 4
    objects_per_scene: tuple[int, int] = (2, 4)
    anchor_spacing: float = 2.0
    jitter: float = 0.35
    num_classes: int = 5
    positive_iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.num_scenes < 1:
            raise ValueError(f"num_scenes must be >= 1, got {self.num_scenes}")
        if len(self.objects_per_scene) != 2:
            raise ValueError(f"objects_per_scene must have 2 entries, got {self.objects_per_scene}")
        lo, hi = self.objects_per_scene
        if lo < 1 or hi < lo:
            raise ValueError(f"objects_per_scene range invalid: ({lo}, {hi})")
        # written so that NaN fails these checks too
        if not self.anchor_spacing > 0.0:
            raise ValueError(f"anchor_spacing must be positive, got {self.anchor_spacing}")
        if not self.jitter >= 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 < self.positive_iou_threshold < 1.0:
            raise ValueError(
                f"positive_iou_threshold must lie in (0, 1), got {self.positive_iou_threshold}"
            )
        max_size = ANCHOR_SCALE * math.exp(self.jitter)
        if max_size > CANVAS:
            raise ValueError(
                f"objects up to {max_size:.2f} cannot fit the {CANVAS:g} x {CANVAS:g} canvas"
            )
        if CANVAS < self.anchor_spacing:
            raise ValueError("canvas too small for even one anchor cell")
        # counted in floats before any grid exists: a tiny spacing gives inf
        # cells, not an int overflow or a grid that never ends
        with np.errstate(over="ignore"):
            per_scene = float(np.floor(np.divide(CANVAS, self.anchor_spacing)) ** 2)
        n = self.num_scenes
        if n > MAX_SCENE_ANCHORS or not n * per_scene <= MAX_SCENE_ANCHORS:
            raise ValueError(
                f"{n} scenes of {per_scene:g} anchors exceed the limit {MAX_SCENE_ANCHORS}"
            )
        # every object claims an anchor of its own in matching's forced pass
        if hi > per_scene:
            raise ValueError(
                f"objects_per_scene upper bound {hi} exceeds the {per_scene:g} anchors per scene"
            )
        if per_scene * hi > MAX_MATCH_PAIRS:
            raise ValueError(
                f"{per_scene:g} anchors x {hi} objects per scene exceed the matching limit "
                f"{MAX_MATCH_PAIRS}"
            )


@dataclass(frozen=True, eq=False)
class Scene:
    """One scene's ground truths: (G, 4) corners and (G,) classes."""

    gt_boxes: np.ndarray
    gt_classes: np.ndarray


@dataclass(frozen=True, eq=False)
class SceneSet:
    """Generated scenes plus the anchor grid they share: (A, 4) read-only
    anchor corners, and every scene's ground truths, scene by scene."""

    config: SceneConfig
    anchors: np.ndarray
    ground_truth: GroundTruthArrays

    def __post_init__(self) -> None:
        self.anchors.flags.writeable = False

    @property
    def anchors_per_scene(self) -> int:
        return len(self.anchors)

    @property
    def total_anchors(self) -> int:
        return len(self.anchors) * self.config.num_scenes

    @cached_property
    def scenes(self) -> tuple[Scene, ...]:
        """Per-scene views of ``ground_truth``, built once per scene set."""
        gt = self.ground_truth
        bounds = np.searchsorted(gt.scene, np.arange(1, self.config.num_scenes))
        return tuple(map(Scene, np.split(gt.boxes, bounds), np.split(gt.class_id, bounds)))

    @cached_property
    def matching(self) -> "Matching":
        """Every scene's anchor matching, computed once per scene set."""
        return _match_scene_set(self)


def _anchor_grid(cfg: SceneConfig) -> np.ndarray:
    """(A, 4) anchor corners, one row per (iy, ix) in that order."""
    centers = (np.arange(int(CANVAS / cfg.anchor_spacing)) + 0.5) * cfg.anchor_spacing
    cy, cx = np.meshgrid(centers, centers, indexing="ij")
    half = ANCHOR_SCALE / 2
    return np.stack([cx - half, cy - half, cx + half, cy + half], axis=-1).reshape(-1, 4)


def generate_scenes(cfg: SceneConfig) -> SceneSet:
    """Deterministic scenes: per object, a random anchor jittered in place.
    An object that the canvas clips to nothing draws its anchor and jitters
    again, before its class; every anchor's center lies on the canvas."""
    rng = np.random.default_rng(cfg.seed)
    anchors = _anchor_grid(cfg)
    boxes, classes, scene = [], [], []
    for s in range(cfg.num_scenes):
        count = int(rng.integers(cfg.objects_per_scene[0], cfg.objects_per_scene[1] + 1))
        for _ in range(count):
            while True:
                ax1, ay1, ax2, ay2 = anchors[int(rng.integers(len(anchors)))].tolist()
                # center shifts, then log-size changes: one draw, the same
                # values and stream state as four scalar draws
                jitters = rng.uniform(-cfg.jitter, cfg.jitter, size=4).tolist()
                x1, y1, x2, y2 = _jittered_box(
                    0.5 * (ax1 + ax2), 0.5 * (ay1 + ay2), ax2 - ax1, ay2 - ay1, jitters
                )
                box = (max(0.0, x1), max(0.0, y1), min(CANVAS, x2), min(CANVAS, y2))
                if box[2] > box[0] and box[3] > box[1]:
                    break
            boxes.append(box)
            classes.append(int(rng.integers(1, cfg.num_classes)))
            scene.append(s)
    return SceneSet(cfg, anchors, GroundTruthArrays(boxes, classes, scene))


@dataclass(frozen=True)
class MatchResult:
    """Max-IoU anchor assignment for one scene.

    ``pos_anchor[i]`` is matched to ground truth ``pos_gt[i]``; every other
    anchor index appears in ``neg_anchor``. Each ground truth always claims
    its best anchor even below the threshold.
    """

    pos_anchor: tuple[int, ...]
    pos_gt: tuple[int, ...]
    neg_anchor: tuple[int, ...]


def _assign(
    anchors: np.ndarray, gt: np.ndarray, counts: np.ndarray, threshold: float
) -> np.ndarray:
    """Max-IoU assignment of every scene to (N, 4) anchor corners, as an
    (S, N) array of matched ground-truth indices, -1 for a negative; ``gt``
    holds the scenes' ground-truth corners in turn, ``counts[s]`` for scene s.

    An anchor takes its best ground truth (the lowest index among ties) when
    their IoU reaches ``threshold``. Then, in a forced pass, ground truth j of
    every scene at once claims its best still-unforced anchor (ties to the
    lowest index), for j < min(g, N), so the positive count never drops below
    the GT count. Scenes run in blocks whose padded IoU matrices hold at most
    ``MAX_MATCH_PAIRS`` anchor x GT pairs (at least one scene per block).
    """
    per_block = max(1, MAX_MATCH_PAIRS // (len(anchors) * max(1, int(counts.max(initial=0)))))
    cuts = np.arange(per_block, len(counts), per_block)
    return np.concatenate([
        _assign_block(anchors, rows, block, threshold)
        for rows, block in zip(np.split(gt, np.cumsum(counts)[cuts - 1]), np.split(counts, cuts))
    ])


def _assign_block(
    anchors: np.ndarray, gt: np.ndarray, counts: np.ndarray, threshold: float
) -> np.ndarray:
    """:func:`_assign` of one block of scenes, through one IoU matrix of the
    anchors against every scene's ground truths, padded to the widest."""
    n = len(anchors)
    width = int(counts.max())
    if width == 0:
        return np.full((len(counts), n), -1)
    if counts.min() < width:  # else every slot holds a ground truth already
        padded = np.zeros((len(counts) * width, 4))
        padded[(np.arange(width) < counts[:, None]).ravel()] = gt
        gt = padded
    # (anchors, scenes, GT slots); a padding slot can never win
    mat = iou_matrix(anchors, gt).reshape(n, len(counts), width)
    mat[:, np.arange(width) >= counts[:, None]] = -np.inf
    best_gt = np.argmax(mat, axis=2)
    best_iou = np.take_along_axis(mat, best_gt[:, :, None], axis=2)[:, :, 0]
    match = np.where(best_iou >= threshold, best_gt, -1)
    unforced = np.ones(match.shape, dtype=bool)
    for j in range(min(width, n)):
        cols = np.flatnonzero(counts > j)
        rows = np.argmax(np.where(unforced[:, cols], mat[:, cols, j], -np.inf), axis=0)
        unforced[rows, cols] = False
        match[rows, cols] = j
    return match.T


def match_anchors(scene: Scene, anchors: np.ndarray, threshold: float) -> MatchResult:
    """Max-IoU assignment of one scene to (N, 4) anchor corners, with a
    forced best anchor per ground truth."""
    if not len(anchors):
        raise ValueError("match_anchors needs a non-empty anchor set")
    assigned = _assign(anchors, scene.gt_boxes, np.array([len(scene.gt_boxes)]), threshold)[0]
    pos = np.flatnonzero(assigned >= 0)
    return MatchResult(
        pos_anchor=tuple(pos.tolist()),
        pos_gt=tuple(assigned[pos].tolist()),
        neg_anchor=tuple(np.flatnonzero(assigned < 0).tolist()),
    )


@dataclass(eq=False)
class ToyModel:
    """Free per-anchor parameters: class logits and offsets, no backbone."""

    logits: np.ndarray
    offsets: np.ndarray

    @classmethod
    def zeros(cls, num_anchors: int, num_classes: int) -> "ToyModel":
        return cls(
            logits=np.zeros((num_anchors, num_classes)),
            offsets=np.zeros((num_anchors, 4)),
        )

    def probs(self) -> np.ndarray:
        # the ufuncs' reductions, which the ndarray methods call through Python
        z = self.logits - np.maximum.reduce(self.logits, axis=1, keepdims=True)
        e = np.exp(z)
        return e / np.add.reduce(e, axis=1, keepdims=True)

    def copy(self) -> "ToyModel":
        return ToyModel(self.logits.copy(), self.offsets.copy())


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain gradient-descent schedule.

    ``learning_rate`` may be 0 for null-update diagnostics. A short
    finite-difference check gates every run unless ``gradcheck_samples`` is 0;
    it takes at most ``MAX_GATE_SAMPLES``.
    """

    learning_rate: float = 0.2
    steps: int = 500
    log_every: int = 25
    loss_mode: str = "harmonic_det"
    gradcheck_samples: int = 20

    def __post_init__(self) -> None:
        if not self.learning_rate >= 0.0:  # written so that NaN fails it too
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.loss_mode not in ("standard", "harmonic_det"):
            raise ValueError(f"unknown loss_mode: {self.loss_mode!r}")
        if self.gradcheck_samples < 0:
            raise ValueError("gradcheck_samples must be >= 0")
        if self.gradcheck_samples > MAX_GATE_SAMPLES:
            raise ValueError(
                f"gradcheck_samples must be <= {MAX_GATE_SAMPLES}, got {self.gradcheck_samples}"
            )


@dataclass(frozen=True)
class TrainRecord:
    step: int
    objective: float
    mean_factor_r: float
    mean_factor_c: float
    aic: float


@dataclass(frozen=True, eq=False)
class TrainLog:
    """Logged records, and the trained model's p_gt and IoU of the decoded
    box per positive, in matching order: the rows the last record's AIC
    averages. The arrays are read-only."""

    records: tuple[TrainRecord, ...]
    final_p_gt: np.ndarray
    final_iou: np.ndarray

    def __post_init__(self) -> None:
        self.final_p_gt.flags.writeable = False
        self.final_iou.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Matching:
    """Scene matchings flattened onto the model's global anchor axis.

    Positive ``k`` is model row ``pos_flat[k]``: anchor ``anchors[k]`` matched
    to box ``gt[k]`` of class ``gt_class[k]``, with regression target
    ``d_hat[k] = encode(gt[k], anchors[k])``. Negatives are rows ``neg_flat``.
    Positives run scene by scene in anchor order. The arrays are read-only.
    ``targets`` pairs the anchors with their boxes for the training kernel.
    """

    pos_flat: np.ndarray
    neg_flat: np.ndarray
    anchors: np.ndarray
    gt: np.ndarray
    gt_class: np.ndarray
    d_hat: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pos_flat", "neg_flat", "anchors", "gt", "gt_class", "d_hat"):
            getattr(self, name).flags.writeable = False

    @cached_property
    def targets(self) -> AnchorTargets:
        return AnchorTargets(self.anchors, self.gt)


def _match_scene_set(scene_set: SceneSet) -> Matching:
    """Every scene's :func:`_assign` result at once, as a :class:`Matching`."""
    anchors, truth, cfg = scene_set.anchors, scene_set.ground_truth, scene_set.config
    counts = np.bincount(truth.scene, minlength=cfg.num_scenes)
    assigned = _assign(anchors, truth.boxes, counts, cfg.positive_iou_threshold).ravel()
    pos_flat = np.flatnonzero(assigned >= 0)
    scene, anchor = np.divmod(pos_flat, len(anchors))
    # row of each scene's first ground truth in the scene set's GT rows
    gt_row = (np.cumsum(counts) - counts)[scene] + assigned[pos_flat]
    pos_anchors = anchors[anchor]
    gt = truth.boxes[gt_row]
    # encode's checks, once, for every loop that uses the positives
    if not np.all(pos_anchors[:, 2:] - pos_anchors[:, :2] > 0.0):
        raise ValueError("cannot encode against a degenerate anchor")
    if not np.all(gt[:, 2:] - gt[:, :2] > 0.0):
        raise ValueError("cannot encode a degenerate ground-truth box")
    d_hat = encode_arrays(gt, pos_anchors)
    if not np.all(np.isfinite(d_hat)):
        raise ValueError("encoded regression targets are not finite")
    return Matching(
        pos_flat=pos_flat,
        neg_flat=np.flatnonzero(assigned < 0),
        anchors=pos_anchors,
        gt=gt,
        gt_class=truth.class_id[gt_row],
        d_hat=d_hat,
    )


def _check_model(scene_set: SceneSet, model: ToyModel) -> None:
    """Raise ``ValueError`` unless the model has a float64 row per anchor and logit per class."""
    n, c = scene_set.total_anchors, scene_set.config.num_classes
    if model.logits.shape != (n, c) or model.offsets.shape != (n, 4):
        shapes = f"{model.logits.shape}/{model.offsets.shape}"
        raise ValueError(f"model shaped {shapes} does not fit {n} anchors and {c} classes")
    for name, values in (("logits", model.logits), ("offsets", model.offsets)):
        if values.dtype != np.float64:
            raise ValueError(f"model {name} are {values.dtype}, not float64")


def _identical_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of a 2-D array, by one stable sort on its
    columns: the index of each group's first row, the groups in ascending
    order of their rows (first column first), and each row's group. The
    partition, first rows and group order of ``np.unique(rows, axis=0,
    return_index=True, return_inverse=True)``."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def train_toy(
    scene_set: SceneSet,
    model: ToyModel,
    opt: OptimizerConfig,
    hp: HyperParams,
) -> tuple[ToyModel, TrainLog]:
    """Gradient descent on the batch objective; logs factors and AIC, and
    keeps the trained model's p_gt and IoU arrays in the :class:`TrainLog`.

    Standard mode optimizes the compatibility reduction (frozen factors,
    alpha = 0), which equals the classic CE + smooth L1 objective. The run
    builds one :class:`KernelPlan` from the matching, with the kernel's
    constants and the decode Jacobian that each step fills in place, and
    each step runs :func:`batch_objective_arrays` on it and raises
    :class:`DivergenceError` when the probabilities stop being finite, a
    positive's size offset leaves the decode log cap, or the objective stops
    being finite.
    """
    _check_model(scene_set, model)
    hp_eff = hp.compat_standard() if opt.loss_mode == "standard" else hp
    if opt.gradcheck_samples > 0:
        report = run_gradcheck(
            hp_eff, scene_set.config.num_classes, opt.gradcheck_samples, scene_set.config.seed
        )
        if not report.passed:
            raise GradientCheckError([e for e in report.entries if not e.passed])
    m = scene_set.matching
    n = m.pos_flat.size
    # a row's step reads that row only, so byte-identical rows stay identical:
    # the loop runs on the positives, the kernel's leading rows, plus the first
    # row of each group of identical negatives, and every model row takes its
    # group's result
    rows = np.hstack([model.logits, model.offsets])[m.neg_flat].view(np.uint64)
    first, inverse = _identical_rows(rows)
    # the model row of each compact row: a positive's own, a group's first
    source = np.concatenate([m.pos_flat, m.neg_flat[first]])
    member = np.empty(scene_set.total_anchors, dtype=np.intp)
    member[m.pos_flat] = np.arange(n)
    member[m.neg_flat] = n + inverse
    model = ToyModel(model.logits[source], model.offsets[source])
    plan = KernelPlan(m.targets, m.gt_class, m.d_hat, hp_eff, scene_set.config.num_classes)

    records: list[TrainRecord] = []
    scale = opt.learning_rate / n

    def log_state(step: int, batch: BatchArrays, value: float) -> None:
        records.append(
            TrainRecord(
                step=step,
                objective=value,
                mean_factor_r=float(np.mean(1.0 + batch.beta_r)),
                mean_factor_c=float(np.mean(1.0 + batch.beta_c)),
                aic=aic(batch.p_gt, batch.iou),
            )
        )

    def objective(step: int, logged: bool) -> tuple[np.ndarray, BatchArrays, float | None]:
        probs = model.probs()
        finite = np.isfinite(probs)
        if not np.logical_and.reduce(finite, axis=None):
            row = int(source[~finite.all(axis=1)].min())
            raise DivergenceError(step, "non-finite probabilities", row)
        _check_decode_cap(step, model.offsets[:n], m.pos_flat)
        batch = batch_objective_arrays(probs, model.offsets, plan)
        # every negative's loss is finite and at most -log(PROB_FLOOR), so
        # the objective is finite exactly when the positives' in-order sum is;
        # it is read, over every negative in model order but with each
        # distinct one's log taken once, only when logged or to word the failure
        value = None
        if logged or not math.isfinite(batch.pos_loss.cumsum()[-1]):
            value = batch.objective(batch.neg_loss[inverse])
            if not math.isfinite(value):
                raise DivergenceError(step, f"non-finite objective ({value!r})")
        return probs, batch, value

    # an overflow shows as a failed per-step check, not as a warning
    with np.errstate(all="ignore"):
        for step in range(opt.steps):
            logged = step % opt.log_every == 0
            probs, batch, value = objective(step, logged)
            if logged:
                log_state(step, batch, value)
            # softmax chain back to the logits; the row-wise dot runs as a stacked
            # matmul, the same dot product per row as the per-sample reference
            g = batch.grad_probs
            dots = np.matmul(g[:, None, :], probs[:, :, None])[:, :, 0]
            grad_logits = probs * (g - dots)
            model.logits -= scale * grad_logits
            model.offsets -= scale * batch.grad_d
        _, batch, value = objective(opt.steps, True)
    log_state(opt.steps, batch, value)
    trained = ToyModel(model.logits[member], model.offsets[member])
    return trained, TrainLog(tuple(records), batch.p_gt, batch.iou)


def model_detections(scene_set: SceneSet, model: ToyModel) -> DetectionArrays:
    """One detection per model row, scene by scene and tagged with its
    scene: argmax foreground class and its probability, decoded box. Raises
    ``ValueError`` if the model does not fit the scene set or a size offset
    exceeds the decode log cap."""
    _check_model(scene_set, model)
    over = np.flatnonzero(~np.all(np.abs(model.offsets[:, 2:]) <= DECODE_LOG_CAP, axis=1))
    if over.size:
        raise ValueError(f"size offsets of model row {over[0]} exceed the exp cap {DECODE_LOG_CAP}")
    probs = model.probs()
    cls = np.argmax(probs[:, 1:], axis=1) + 1
    num_scenes = scene_set.config.num_scenes
    return DetectionArrays(
        boxes=decode_arrays(model.offsets, np.tile(scene_set.anchors, (num_scenes, 1))),
        class_id=cls,
        score=probs[np.arange(cls.size), cls],
        scene=np.repeat(np.arange(num_scenes), scene_set.anchors_per_scene),
    )


# --- refinement experiment ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class RefinementResult:
    """Per positive, in matching order, the IoU before refinement and after
    it under plain IoU loss (gamma 0) and under the weighted variant
    (``gamma_weighted``). The arrays are read-only."""

    gamma_weighted: float
    iou_before: np.ndarray
    iou_plain: np.ndarray
    iou_weighted: np.ndarray

    def __post_init__(self) -> None:
        for name in ("iou_before", "iou_plain", "iou_weighted"):
            getattr(self, name).flags.writeable = False


def _train_offsets_only(
    m: Matching, runs: dict[str, float], opt: OptimizerConfig
) -> np.ndarray:
    """Descend the IoU-based loss alone, once per named run's focusing
    exponent; returns the positives' offsets, shaped (runs, positives, 4).

    Each positive of each run updates independently, so one step runs on all
    of them at once, the runs stacked as blocks of rows. The offsets are
    held axis-major, as (4, rows), and chained to the IoU by the decode
    Jacobian's closed form (:func:`offset_iou_and_grad_rows`). Raises
    :class:`DivergenceError` at the earliest step at which an offset of any
    run leaves the decode cap, naming the run and the model row.

    Each step takes the decode's (e^tw, e^th) and the HIoU slope's (1 +
    IoU)^(gamma - 1) from numpy's vectorized ``exp`` and ``power``, not from
    libm like the scalar forms and the training kernel, and its chain sums
    before it multiplies, where the training kernel's BLAS product fuses
    them. numpy's results can differ from libm's in the last bit. numpy
    gives an entry the same value wherever it sits in the array, so a row
    does not depend on the rows beside it, and no step depends on the BLAS
    build.
    """
    n_runs = len(runs)
    targets = AnchorTargets(np.tile(m.anchors, (n_runs, 1)), np.tile(m.gt, (n_runs, 1)))
    gamma = np.repeat(list(runs.values()), m.pos_flat.size)
    exponent = gamma - 1.0
    names = [f" of the {name} run (gamma {g:g})" for name, g in runs.items()]
    d = np.zeros((4, n_runs * m.pos_flat.size))
    grad = np.empty_like(d)
    # an overflow shows as an offset past the decode cap, not as a warning
    with np.errstate(all="ignore"):
        for step in range(opt.steps):
            _check_decode_cap(step, d.T, m.pos_flat, names)
            u = offset_iou_and_grad_rows(d, targets, np.exp(d[2:]), grad)
            # hiou_slope: (1 + u)^(gamma - 1) * (gamma * (1 - u) - (1 + u))
            one_plus_u = 1.0 + u
            slope = np.power(one_plus_u, exponent) * (gamma * (1.0 - u) - one_plus_u)
            d -= (opt.learning_rate * slope) * grad
    _check_decode_cap(opt.steps, d.T, m.pos_flat, names)
    return d.T.reshape(n_runs, -1, 4)


def refinement_experiment(
    scene_set: SceneSet, opt: OptimizerConfig, hp: HyperParams
) -> RefinementResult:
    """Train offsets under plain IoU loss (gamma 0) vs the weighted variant.

    Both runs share the schedule and matching, and descend together; only
    the focusing exponent differs. IoU before is anchor-vs-GT, after is
    decoded-vs-GT.
    """
    m = scene_set.matching
    plain, weighted = _train_offsets_only(m, {"plain": 0.0, "weighted": hp.gamma}, opt)
    return RefinementResult(
        gamma_weighted=hp.gamma,
        iou_before=iou_arrays(m.anchors, m.gt),
        iou_plain=iou_arrays(decode_arrays(plain, m.anchors), m.gt),
        iou_weighted=iou_arrays(decode_arrays(weighted, m.anchors), m.gt),
    )
