"""Desk-scale training rig: synthetic scenes, a toy detector head, gradient
descent under the standard or harmonic objective, and the finite-difference
oracle that gates every run.

The toy model holds free per-anchor parameters (class logits plus offsets)
so the losses, not a network, drive the dynamics. Everything is a pure
function of (inputs, seed); repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .geom import (
    DECODE_LOG_CAP,
    Box,
    Offsets,
    decode,
    decode_arrays,
    decode_jacobian,
    decode_vjp_arrays,
    encode,
    iou,
    iou_and_grad_arrays,
    iou_arrays,
    iou_grad,
)
from .losses import (
    BatchArrays,
    HyperParams,
    NegativeSample,
    PositiveSample,
    batch_objective,
    batch_objective_arrays,
    full_loc_loss,
    harmonic_cls_grad,
    harmonic_det_loss,
    harmonic_loss,
    harmonic_reg_grad,
    hiou_slope_arrays,
    smooth_l1,
    tc_loss,
)
from .metrics import Detection, aic

BACKGROUND_CLASS = 0


class NumericalError(RuntimeError):
    """A computation failed numerically (divergence, failed gradient gate)."""


class DivergenceError(NumericalError):
    """Raised when a per-step check of a training loop fails.

    ``check`` names it: non-finite probabilities, size offsets past the
    decode log cap, or a non-finite objective.
    """

    def __init__(self, step: int, check: str):
        super().__init__(f"training diverged at step {step}: {check}")
        self.step = step
        self.check = check


def _check_decode_cap(step: int, offsets: np.ndarray) -> None:
    # written so that NaN offsets fail it too
    if not np.all(np.abs(offsets[:, 2:]) <= DECODE_LOG_CAP):
        raise DivergenceError(step, f"size offsets past the decode log cap {DECODE_LOG_CAP:g}")


class GradientCheckError(NumericalError):
    """Raised when the pre-training finite-difference gate fails."""

    def __init__(self, max_err: float, tolerance: float):
        super().__init__(
            f"analytic gradients disagree with finite differences "
            f"(max error {max_err:.3e} > tolerance {tolerance:.3e})"
        )
        self.max_err = max_err
        self.tolerance = tolerance


def worker_count() -> int:
    """Parallelism cap from HARDET_THREADS; defaults to the machine's cores."""
    raw = os.environ.get("HARDET_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"HARDET_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"HARDET_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene and anchor-grid settings.

    Ground-truth boxes are jittered copies of randomly chosen anchors:
    centers shift by up to ``jitter`` times the anchor size and log-sizes by
    up to ``jitter``, which controls how the matched-IoU distribution decays.
    Class 0 is background; objects draw classes from 1..num_classes-1.
    """

    seed: int = 0
    num_scenes: int = 4
    objects_per_scene: tuple[int, int] = (2, 4)
    canvas: tuple[float, float] = (16.0, 16.0)
    anchor_spacing: float = 2.0
    anchor_scales: tuple[float, ...] = (3.0,)
    jitter: float = 0.35
    num_classes: int = 5
    positive_iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.num_scenes < 1:
            raise ValueError(f"num_scenes must be >= 1, got {self.num_scenes}")
        lo, hi = self.objects_per_scene
        if lo < 1 or hi < lo:
            raise ValueError(f"objects_per_scene range invalid: ({lo}, {hi})")
        if self.canvas[0] <= 0.0 or self.canvas[1] <= 0.0:
            raise ValueError(f"canvas extents must be positive, got {self.canvas}")
        if self.anchor_spacing <= 0.0:
            raise ValueError(f"anchor_spacing must be positive, got {self.anchor_spacing}")
        if not self.anchor_scales or any(s <= 0.0 for s in self.anchor_scales):
            raise ValueError(f"anchor_scales must be positive, got {self.anchor_scales}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 < self.positive_iou_threshold < 1.0:
            raise ValueError(
                f"positive_iou_threshold must lie in (0, 1), got {self.positive_iou_threshold}"
            )
        max_size = max(self.anchor_scales) * math.exp(self.jitter)
        if max_size > min(self.canvas):
            raise ValueError(
                f"objects up to {max_size:.2f} cannot fit the canvas {self.canvas}"
            )
        if min(self.canvas) < self.anchor_spacing:
            raise ValueError("canvas too small for even one anchor cell")


@dataclass(frozen=True)
class Scene:
    gt_boxes: tuple[Box, ...]
    gt_classes: tuple[int, ...]


@dataclass(frozen=True)
class SceneSet:
    """Generated scenes plus the anchor grid they share."""

    config: SceneConfig
    anchors: tuple[Box, ...]
    scenes: tuple[Scene, ...]

    @property
    def anchors_per_scene(self) -> int:
        return len(self.anchors)

    @property
    def total_anchors(self) -> int:
        return len(self.anchors) * len(self.scenes)

    @cached_property
    def matching(self) -> "Matching":
        """Every scene's anchor matching, computed once per scene set."""
        return _match_scene_set(self)


def _anchor_grid(cfg: SceneConfig) -> tuple[Box, ...]:
    w, h = cfg.canvas
    nx = int(w / cfg.anchor_spacing)
    ny = int(h / cfg.anchor_spacing)
    anchors = []
    for iy in range(ny):
        cy = (iy + 0.5) * cfg.anchor_spacing
        for ix in range(nx):
            cx = (ix + 0.5) * cfg.anchor_spacing
            for s in cfg.anchor_scales:
                anchors.append(Box(cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    return tuple(anchors)


def generate_scenes(cfg: SceneConfig) -> SceneSet:
    """Deterministic scenes: per object, a random anchor jittered in place."""
    rng = np.random.default_rng(cfg.seed)
    anchors = _anchor_grid(cfg)
    w, h = cfg.canvas
    scenes = []
    for _ in range(cfg.num_scenes):
        count = int(rng.integers(cfg.objects_per_scene[0], cfg.objects_per_scene[1] + 1))
        boxes = []
        classes = []
        for _ in range(count):
            base = anchors[int(rng.integers(len(anchors)))]
            cx, cy = base.center
            cx += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.width
            cy += float(rng.uniform(-cfg.jitter, cfg.jitter)) * base.height
            bw = base.width * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
            bh = base.height * math.exp(float(rng.uniform(-cfg.jitter, cfg.jitter)))
            box = Box(
                max(0.0, cx - bw / 2),
                max(0.0, cy - bh / 2),
                min(w, cx + bw / 2),
                min(h, cy + bh / 2),
            )
            if box.width <= 0.0 or box.height <= 0.0:
                raise ValueError("generated object fell outside the canvas")
            boxes.append(box)
            classes.append(int(rng.integers(1, cfg.num_classes)))
        scenes.append(Scene(tuple(boxes), tuple(classes)))
    return SceneSet(config=cfg, anchors=anchors, scenes=tuple(scenes))


@dataclass(frozen=True)
class MatchResult:
    """Max-IoU anchor assignment for one scene.

    ``pos_anchor[i]`` is matched to ground truth ``pos_gt[i]``; every other
    anchor index appears in ``neg_anchor``. Each ground truth always claims
    its best anchor even below the threshold.
    """

    scene: Scene
    anchors: tuple[Box, ...]
    pos_anchor: tuple[int, ...]
    pos_gt: tuple[int, ...]
    neg_anchor: tuple[int, ...]

    def build_samples(
        self,
        probs: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        num_classes: int = 2,
    ) -> tuple[list[PositiveSample], list[NegativeSample]]:
        """Materialize samples from per-anchor predictions.

        ``probs`` is (num_anchors, C) and ``offsets`` (num_anchors, 4); both
        default to an untrained model (uniform probabilities, zero offsets).
        """
        n = len(self.anchors)
        if probs is None:
            c = num_classes
            probs = np.full((n, c), 1.0 / c)
        if offsets is None:
            offsets = np.zeros((n, 4))
        positives = [
            PositiveSample(
                probs=probs[a],
                gt_class=self.scene.gt_classes[g],
                d=Offsets.from_array(offsets[a]),
                anchor=self.anchors[a],
                gt_box=self.scene.gt_boxes[g],
            )
            for a, g in zip(self.pos_anchor, self.pos_gt)
        ]
        negatives = [
            NegativeSample(probs=probs[a], gt_class=BACKGROUND_CLASS)
            for a in self.neg_anchor
        ]
        return positives, negatives


def _corners(boxes: Sequence[Box]) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def match_anchors(scene: Scene, anchors: Sequence[Box], threshold: float) -> MatchResult:
    """Max-IoU assignment with a forced best anchor per ground truth."""
    if not anchors:
        raise ValueError("match_anchors needs a non-empty anchor set")
    n, g = len(anchors), len(scene.gt_boxes)
    assigned: dict[int, int] = {}
    if g > 0:
        mat = iou_arrays(_corners(anchors)[:, None, :], _corners(scene.gt_boxes)[None, :, :])
        best_gt = np.argmax(mat, axis=1)
        best_iou = mat[np.arange(n), best_gt]
        for i in np.flatnonzero(best_iou >= threshold):
            assigned[int(i)] = int(best_gt[i])
        # forced pass: every GT claims its best still-unforced anchor (ties to
        # the lowest index), so the positive count never drops below the GT count
        unforced = np.ones(n, dtype=bool)
        for j in range(min(g, n)):
            i = int(np.argmax(np.where(unforced, mat[:, j], -np.inf)))
            unforced[i] = False
            assigned[i] = j
    pos = sorted(assigned)
    neg = [i for i in range(n) if i not in assigned]
    return MatchResult(
        scene=scene,
        anchors=tuple(anchors),
        pos_anchor=tuple(pos),
        pos_gt=tuple(assigned[i] for i in pos),
        neg_anchor=tuple(neg),
    )


@dataclass
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

    @property
    def param_count(self) -> int:
        return self.logits.size + self.offsets.size

    def probs(self) -> np.ndarray:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def copy(self) -> "ToyModel":
        return ToyModel(self.logits.copy(), self.offsets.copy())


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain gradient-descent schedule.

    ``learning_rate`` may be 0 for null-update diagnostics. A short
    finite-difference check gates every run unless ``gradcheck_samples`` is 0.
    """

    learning_rate: float = 0.2
    steps: int = 500
    log_every: int = 25
    loss_mode: str = "harmonic_det"
    gradcheck_samples: int = 20
    gradcheck_tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.loss_mode not in ("standard", "harmonic_det"):
            raise ValueError(f"unknown loss_mode: {self.loss_mode!r}")
        if self.gradcheck_samples < 0:
            raise ValueError("gradcheck_samples must be >= 0")


@dataclass(frozen=True)
class TrainRecord:
    step: int
    objective: float
    mean_factor_r: float
    mean_factor_c: float
    aic: float


@dataclass(frozen=True)
class TrainLog:
    records: tuple[TrainRecord, ...]

    def csv_rows(self) -> list[tuple]:
        return [
            (r.step, r.objective, r.mean_factor_r, r.mean_factor_c, r.aic)
            for r in self.records
        ]


@dataclass(frozen=True, eq=False)
class Matching:
    """Scene matchings flattened onto the model's global anchor axis.

    Positive ``k`` is model row ``pos_flat[k]``: anchor ``anchors[k]`` matched
    to box ``gt[k]`` of class ``gt_class[k]``, with regression target
    ``d_hat[k] = encode(gt[k], anchors[k])``. Negatives are rows ``neg_flat``.
    Positives run scene by scene in anchor order. The arrays are read-only.
    """

    matches: tuple[MatchResult, ...]
    pos_flat: np.ndarray
    neg_flat: np.ndarray
    anchors: np.ndarray
    gt: np.ndarray
    gt_class: np.ndarray
    d_hat: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pos_flat", "neg_flat", "anchors", "gt", "gt_class", "d_hat"):
            getattr(self, name).flags.writeable = False


def _match_scene_set(scene_set: SceneSet) -> Matching:
    matches = []
    pos_flat: list[int] = []
    neg_flat: list[int] = []
    pairs: list[tuple[Box, Box, int]] = []
    a = scene_set.anchors_per_scene
    for s_idx, scene in enumerate(scene_set.scenes):
        m = match_anchors(scene, scene_set.anchors, scene_set.config.positive_iou_threshold)
        matches.append(m)
        pos_flat.extend(s_idx * a + i for i in m.pos_anchor)
        neg_flat.extend(s_idx * a + i for i in m.neg_anchor)
        pairs.extend(
            (scene_set.anchors[i], scene.gt_boxes[g], scene.gt_classes[g])
            for i, g in zip(m.pos_anchor, m.pos_gt)
        )
    return Matching(
        matches=tuple(matches),
        pos_flat=np.array(pos_flat, dtype=int),
        neg_flat=np.array(neg_flat, dtype=int),
        anchors=_corners([anchor for anchor, _, _ in pairs]),
        gt=_corners([box for _, box, _ in pairs]),
        gt_class=np.array([c for _, _, c in pairs], dtype=int),
        # encode validates both boxes, once, for every loop that uses them
        d_hat=np.array([encode(box, anchor).as_array() for anchor, box, _ in pairs]).reshape(-1, 4),
    )


def consistency_pairs(scene_set: SceneSet, model: ToyModel) -> list[tuple[float, float]]:
    """(p_gt, IoU of the decoded box) per positive, in matching order.

    These are the pairs AIC averages; offsets must lie within the decode log
    cap, as :func:`train_toy` leaves them.
    """
    m = scene_set.matching
    p = model.probs()[m.pos_flat, m.gt_class]
    u = iou_arrays(decode_arrays(model.offsets[m.pos_flat], m.anchors), m.gt)
    return list(zip(p.tolist(), u.tolist()))


def train_toy(
    scene_set: SceneSet,
    model: ToyModel,
    opt: OptimizerConfig,
    hp: HyperParams,
) -> tuple[ToyModel, TrainLog]:
    """Gradient descent on the batch objective; logs factors and AIC.

    Standard mode optimizes the compatibility reduction (frozen factors,
    alpha = 0), which equals the classic CE + smooth L1 objective. Each step
    runs :func:`batch_objective_arrays` and raises :class:`DivergenceError`
    when the probabilities stop being finite, a positive's size offset leaves
    the decode log cap, or the objective stops being finite.
    """
    if hp.num_classes != scene_set.config.num_classes:
        raise ValueError("hyperparams and scene config disagree on num_classes")
    hp_eff = hp.compat_standard() if opt.loss_mode == "standard" else hp
    if opt.gradcheck_samples > 0:
        report = run_gradcheck(
            hp_eff,
            num_samples=opt.gradcheck_samples,
            tolerance=opt.gradcheck_tolerance,
            seed=scene_set.config.seed,
        )
        if not report.passed:
            raise GradientCheckError(report.max_err, opt.gradcheck_tolerance)
    model = model.copy()
    m = scene_set.matching
    n_total = scene_set.total_anchors
    if model.logits.shape != (n_total, hp.num_classes) or model.offsets.shape != (n_total, 4):
        raise ValueError(
            f"model shaped {model.logits.shape}/{model.offsets.shape} does not fit "
            f"{n_total} anchors and {hp.num_classes} classes"
        )

    records: list[TrainRecord] = []

    def log_state(step: int, batch: BatchArrays) -> None:
        records.append(
            TrainRecord(
                step=step,
                objective=batch.value,
                mean_factor_r=float(np.mean(1.0 + batch.beta_r)),
                mean_factor_c=float(np.mean(1.0 + batch.beta_c)),
                aic=aic(list(zip(batch.p_gt.tolist(), batch.iou.tolist()))),
            )
        )

    def objective(step: int) -> tuple[np.ndarray, BatchArrays]:
        probs = model.probs()
        if not np.all(np.isfinite(probs)):
            raise DivergenceError(step, "non-finite probabilities")
        _check_decode_cap(step, model.offsets[m.pos_flat])
        batch = batch_objective_arrays(
            probs, model.offsets, m.anchors, m.gt, m.gt_class, m.d_hat, m.pos_flat, m.neg_flat,
            hp_eff,
        )
        if not math.isfinite(batch.value):
            raise DivergenceError(step, f"non-finite objective ({batch.value!r})")
        return probs, batch

    for step in range(opt.steps):
        probs, batch = objective(step)
        if step % opt.log_every == 0:
            log_state(step, batch)
        # softmax chain back to the logits; the row-wise dot runs as a stacked
        # matmul, the same dot product per row as the per-sample reference
        g = batch.grad_probs
        dots = np.matmul(g[:, None, :], probs[:, :, None])[:, :, 0]
        grad_logits = probs * (g - dots)
        scale = opt.learning_rate / batch.num_positives
        model.logits -= scale * grad_logits
        model.offsets -= scale * batch.grad_d

    _, batch = objective(opt.steps)
    log_state(opt.steps, batch)
    return model, TrainLog(tuple(records))


def sample_records(scene_set: SceneSet, model: ToyModel | None = None) -> list[dict]:
    """Positives in the JSONL record format the loss evaluator ingests.

    With no model, records carry the untrained predictions (uniform
    probabilities, zero offsets).
    """
    if model is None:
        model = ToyModel.zeros(scene_set.total_anchors, scene_set.config.num_classes)
    probs = model.probs()
    a = scene_set.anchors_per_scene
    records = []
    for s_idx, m in enumerate(scene_set.matching.matches):
        scene = m.scene
        for local_a, g in zip(m.pos_anchor, m.pos_gt):
            fa = s_idx * a + local_a
            records.append(
                {
                    "probs": [float(p) for p in probs[fa]],
                    "gt_class": int(scene.gt_classes[g]),
                    "anchor": [float(v) for v in scene_set.anchors[local_a].as_array()],
                    "gt_box": [float(v) for v in scene.gt_boxes[g].as_array()],
                    "d": [float(x) for x in model.offsets[fa]],
                }
            )
    return records


def model_detections(scene_set: SceneSet, model: ToyModel) -> list[list[Detection]]:
    """Per-scene detections: argmax foreground class, decoded box."""
    probs = model.probs()
    a = scene_set.anchors_per_scene
    out: list[list[Detection]] = []
    for s_idx in range(len(scene_set.scenes)):
        dets = []
        for i, anchor in enumerate(scene_set.anchors):
            row = probs[s_idx * a + i]
            cls = int(np.argmax(row[1:])) + 1
            box = decode(Offsets.from_array(model.offsets[s_idx * a + i]), anchor)
            dets.append(Detection(box=box, class_id=cls, score=float(row[cls])))
        out.append(dets)
    return out


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one step per axis."""
    if h <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        hi = float(loss_fn(params + step))
        lo = float(loss_fn(params - step))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"loss not finite near params[{k}]")
        grad[k] = (hi - lo) / (2.0 * h)
    return grad


# --- finite-difference gate -------------------------------------------------

PROB_FD_STEP = 5e-7  # keeps perturbed vectors inside the sum-to-one tolerance
# smallest class probability an oracle draw may hold: near 1e-5 the truncation
# error of the PROB_FD_STEP central difference alone exceeds the 1e-5 tolerance
PROB_DRAW_FLOOR = 1e-3
KINK_MARGIN = 1e-3


def _grad_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=float))
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_positive_sample(
    rng: np.random.Generator, hp: HyperParams, kink_margin: float = KINK_MARGIN
) -> PositiveSample:
    """Rejection-sample a valid sample away from every loss breakpoint.

    Avoided kinks: decoded-vs-gt corner ties and touching edges, smooth-L1
    curvature breaks at |x| = 1, the TC hinge boundary and the |p - IoU|
    crease, and the probability floor.
    """
    for _ in range(10_000):
        cx, cy = rng.uniform(5.0, 11.0, size=2)
        w, h = rng.uniform(2.0, 4.0, size=2)
        anchor = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        gx = cx + rng.uniform(-0.3, 0.3) * w
        gy = cy + rng.uniform(-0.3, 0.3) * h
        gw = w * math.exp(rng.uniform(-0.3, 0.3))
        gh = h * math.exp(rng.uniform(-0.3, 0.3))
        gt = Box(gx - gw / 2, gy - gh / 2, gx + gw / 2, gy + gh / 2)
        d_hat = encode(gt, anchor)
        d = Offsets.from_array(d_hat.as_array() + rng.uniform(-0.5, 0.5, size=4))
        diffs = np.abs(d.as_array() - d_hat.as_array())
        if np.any(np.abs(diffs - 1.0) < kink_margin):
            continue
        decoded = decode(d, anchor)
        da, ga = decoded.as_array(), gt.as_array()
        if np.any(np.abs(da - ga) < kink_margin):
            continue
        iw = min(decoded.x2, gt.x2) - max(decoded.x1, gt.x1)
        ih = min(decoded.y2, gt.y2) - max(decoded.y1, gt.y1)
        if iw < kink_margin or ih < kink_margin:
            continue
        u = iou(decoded, gt)
        probs = rng.dirichlet(np.ones(hp.num_classes))
        gt_class = int(rng.integers(1, hp.num_classes))
        p = float(probs[gt_class])
        if p < 0.02 or p > 0.98 or np.any(probs < PROB_DRAW_FLOOR):
            continue
        if abs(p - u) < kink_margin or abs(abs(p - u) - hp.margin) < kink_margin:
            continue
        return PositiveSample(probs=probs, gt_class=gt_class, d=d, anchor=anchor, gt_box=gt)
    raise RuntimeError("could not sample a kink-free configuration")


def _random_box_pair(rng: np.random.Generator) -> tuple[Box, Box]:
    """Overlapping box pair with no coincident or touching edges."""
    while True:
        cx, cy = rng.uniform(4.0, 12.0, size=2)
        w, h = rng.uniform(2.0, 5.0, size=2)
        a = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        bx = cx + rng.uniform(-0.6, 0.6) * w
        by = cy + rng.uniform(-0.6, 0.6) * h
        bw = w * math.exp(rng.uniform(-0.4, 0.4))
        bh = h * math.exp(rng.uniform(-0.4, 0.4))
        b = Box(bx - bw / 2, by - bh / 2, bx + bw / 2, by + bh / 2)
        if np.any(np.abs(a.as_array() - b.as_array()) < KINK_MARGIN):
            continue
        iw = min(a.x2, b.x2) - max(a.x1, b.x1)
        ih = min(a.y2, b.y2) - max(a.y1, b.y1)
        if iw < KINK_MARGIN or ih < KINK_MARGIN:
            continue
        return a, b


def _fd_probs(sample: PositiveSample, value_fn: Callable[[PositiveSample], float]) -> np.ndarray:
    grad = np.zeros(sample.num_classes)
    for k in range(sample.num_classes):
        step = np.zeros(sample.num_classes)
        step[k] = PROB_FD_STEP
        hi = value_fn(sample.with_probs(sample.probs + step))
        lo = value_fn(sample.with_probs(sample.probs - step))
        grad[k] = (hi - lo) / (2.0 * PROB_FD_STEP)
    return grad


def _fd_offsets(
    sample: PositiveSample, value_fn: Callable[[PositiveSample], float], h: float = 1e-6
) -> np.ndarray:
    def fn(vec: np.ndarray) -> float:
        return value_fn(sample.with_d(Offsets.from_array(vec)))

    return finite_diff_grad(fn, sample.d.as_array(), h)


@dataclass(frozen=True)
class GradCheckEntry:
    op: str
    samples: int
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tolerance


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple[GradCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_err(self) -> float:
        return max(e.max_err for e in self.entries)


def _check_one(sample: PositiveSample, pair: tuple[Box, Box], hp: HyperParams) -> dict[str, float]:
    """Max normalized analytic-vs-FD error per operation, for one draw."""
    # probability directions need the differentiable entropy weight
    hp_diff = replace(hp, beta_e_stop_grad=False)
    errs: dict[str, float] = {}

    a, b = pair
    fd = finite_diff_grad(lambda v: iou(Box.from_array(v), b), a.as_array())
    errs["iou_grad"] = _grad_err(iou_grad(a, b), fd)

    anchor = sample.anchor

    def corners(vec: np.ndarray) -> np.ndarray:
        return decode(Offsets.from_array(vec), anchor).as_array()

    jac = decode_jacobian(sample.d, anchor)
    fd_jac = np.zeros((4, 4))
    for col in range(4):
        step = np.zeros(4)
        step[col] = 1e-6
        fd_jac[:, col] = (corners(sample.d.as_array() + step) - corners(sample.d.as_array() - step)) / 2e-6
    errs["decode_jacobian"] = _grad_err(jac.ravel(), fd_jac.ravel())

    loc, _ = full_loc_loss(sample, hp)
    loc_mode = smooth_l1(sample.d, sample.d_hat) if hp.harmonic_mode == "smooth_l1" else loc
    fd = _fd_probs(sample, lambda s: harmonic_loss(s, hp, loc_mode)[0])
    errs["harmonic_cls_grad"] = _grad_err(
        harmonic_cls_grad(sample, loc_mode), fd[sample.gt_class]
    )

    fd = _fd_offsets(sample, lambda s: harmonic_loss(s, hp)[0])
    errs["harmonic_reg_grad"] = _grad_err(harmonic_reg_grad(sample, hp), fd)

    fd = _fd_offsets(sample, lambda s: full_loc_loss(s, hp)[0])
    errs["full_loc_loss"] = _grad_err(full_loc_loss(sample, hp)[1], fd)

    _, _, tc_gp, tc_gd = tc_loss(sample, hp_diff)
    err_p = _grad_err(tc_gp, _fd_probs(sample, lambda s: tc_loss(s, hp_diff)[0]))
    err_d = _grad_err(tc_gd, _fd_offsets(sample, lambda s: tc_loss(s, hp_diff)[0]))
    errs["tc_loss"] = max(err_p, err_d)

    bd = harmonic_det_loss(sample, hp_diff)
    err_p = _grad_err(
        bd.grad_probs, _fd_probs(sample, lambda s: harmonic_det_loss(s, hp_diff).total)
    )
    err_d = _grad_err(
        bd.grad_d, _fd_offsets(sample, lambda s: harmonic_det_loss(s, hp_diff).total)
    )
    errs["harmonic_det_loss"] = max(err_p, err_d)
    return errs


def _check_batch(rng: np.random.Generator, hp: HyperParams) -> float:
    """FD of the scalar batch objective over every sample parameter."""
    hp_diff = replace(hp, beta_e_stop_grad=False)
    positives = [random_positive_sample(rng, hp) for _ in range(4)]
    negatives = []
    for _ in range(3):
        probs = rng.dirichlet(np.ones(hp.num_classes))
        if np.any(probs < PROB_DRAW_FLOOR):
            probs = (probs + 1e-3) / (1.0 + hp.num_classes * 1e-3)
        negatives.append(NegativeSample(probs=probs, gt_class=BACKGROUND_CLASS))
    batch = batch_objective(positives, negatives, hp_diff)
    n = len(positives)
    worst = 0.0
    for i, s in enumerate(positives):
        def pos_value(sample: PositiveSample, i=i) -> float:
            swapped = list(positives)
            swapped[i] = sample
            return batch_objective(swapped, negatives, hp_diff).value

        fd_p = _fd_probs(s, pos_value)
        fd_d = _fd_offsets(s, pos_value)
        worst = max(worst, _grad_err(batch.breakdowns[i].grad_probs / n, fd_p))
        worst = max(worst, _grad_err(batch.breakdowns[i].grad_d / n, fd_d))
    for j, neg in enumerate(negatives):
        def neg_value(probs: np.ndarray, j=j) -> float:
            swapped = list(negatives)
            swapped[j] = NegativeSample(probs=probs, gt_class=neg.gt_class)
            return batch_objective(positives, swapped, hp_diff).value

        fd = np.zeros(hp.num_classes)
        for k in range(hp.num_classes):
            step = np.zeros(hp.num_classes)
            step[k] = PROB_FD_STEP
            fd[k] = (neg_value(neg.probs + step) - neg_value(neg.probs - step)) / (
                2.0 * PROB_FD_STEP
            )
        worst = max(worst, _grad_err(batch.negative_grad_probs[j] / n, fd))
    return worst


GRADCHECK_OPS = (
    "iou_grad",
    "decode_jacobian",
    "harmonic_cls_grad",
    "harmonic_reg_grad",
    "full_loc_loss",
    "tc_loss",
    "harmonic_det_loss",
    "batch_objective",
)


def run_gradcheck(
    hp: HyperParams,
    num_samples: int = 500,
    tolerance: float = 1e-5,
    seed: int = 0,
    batch_draws: int = 4,
) -> GradCheckReport:
    """Analytic-vs-FD sweep over every differentiated operation.

    Errors are normalized by max(1, |gradient|). Sample checks fan out over
    at most ``worker_count()`` threads and reduce by max, so the report does
    not depend on scheduling. At least one sample is required, so that a
    report never passes without checking anything.
    """
    if num_samples < 1:
        raise ValueError(f"gradcheck needs at least one sample, got {num_samples}")
    if batch_draws < 0:
        raise ValueError(f"batch_draws must be >= 0, got {batch_draws}")
    rng = np.random.default_rng(seed)
    draws = [
        (random_positive_sample(rng, hp), _random_box_pair(rng)) for _ in range(num_samples)
    ]
    worst = {op: 0.0 for op in GRADCHECK_OPS}
    workers = min(worker_count(), max(1, len(draws)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda sp: _check_one(sp[0], sp[1], hp), draws))
    else:
        results = [_check_one(s, p, hp) for s, p in draws]
    for errs in results:
        for op, e in errs.items():
            worst[op] = max(worst[op], e)
    for _ in range(batch_draws):
        worst["batch_objective"] = max(worst["batch_objective"], _check_batch(rng, hp))
    entries = tuple(
        GradCheckEntry(op=op, samples=num_samples, max_err=worst[op], tolerance=tolerance)
        for op in GRADCHECK_OPS
    )
    return GradCheckReport(entries)


# --- refinement experiment ---------------------------------------------------


@dataclass(frozen=True)
class RefinementResult:
    """Paired (iou_before, iou_after) streams for two localization losses."""

    gamma_plain: float
    gamma_weighted: float
    pairs_plain: tuple[tuple[float, float], ...]
    pairs_weighted: tuple[tuple[float, float], ...]


def _train_offsets_only(m: Matching, gamma: float, opt: OptimizerConfig) -> np.ndarray:
    """Descend the IoU-based loss alone; returns the positives' offsets.

    Each positive updates independently, so the step runs on all of them at
    once. Raises :class:`DivergenceError` if an offset leaves the decode cap.
    """
    d = np.zeros_like(m.anchors)
    for step in range(opt.steps):
        _check_decode_cap(step, d)
        u, du_dcorners = iou_and_grad_arrays(decode_arrays(d, m.anchors), m.gt)
        du_dd = decode_vjp_arrays(d, m.anchors, du_dcorners)
        d -= (opt.learning_rate * hiou_slope_arrays(u, gamma))[:, None] * du_dd
    _check_decode_cap(opt.steps, d)
    return d


def refinement_experiment(
    scene_set: SceneSet, opt: OptimizerConfig, hp: HyperParams
) -> RefinementResult:
    """Train offsets under plain IoU loss (gamma 0) vs the weighted variant.

    Both runs share the schedule and matching; only the focusing exponent
    differs. IoU before is anchor-vs-GT, after is decoded-vs-GT.
    """
    m = scene_set.matching
    before = iou_arrays(m.anchors, m.gt).tolist()

    def pairs_for(d: np.ndarray) -> tuple[tuple[float, float], ...]:
        after = iou_arrays(decode_arrays(d, m.anchors), m.gt).tolist()
        return tuple(zip(before, after))

    plain = _train_offsets_only(m, 0.0, opt)
    weighted = _train_offsets_only(m, hp.gamma, opt)
    return RefinementResult(
        gamma_plain=0.0,
        gamma_weighted=hp.gamma,
        pairs_plain=pairs_for(plain),
        pairs_weighted=pairs_for(weighted),
    )
