"""Detection loss family: standard, harmonic, task-contrastive, IoU and HIoU.

Every operation works on one sample at a time and returns plain floats and
small numpy vectors, so each analytic gradient can be checked against finite
differences without an autodiff framework. These per-sample functions are the
reference; :func:`batch_objective_arrays` is the same batch objective over
arrays, which the training loop runs and the tests hold to the reference.
Batch reductions sum in sample index order for bit-reproducible objectives.

Probability vectors are softmax outputs over ``num_classes`` entries
(background included). Entries may be exactly 0 or 1; logs and divisions are
floored at ``HyperParams.prob_floor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .geom import (
    Box,
    Offsets,
    decode,
    decode_arrays,
    decode_jacobian,
    decode_vjp_arrays,
    elementwise,
    encode,
    iou,
    iou_and_grad_arrays,
    iou_grad,
)

PROB_SUM_TOL = 1e-6
DHAT_TOL = 1e-9


@dataclass(frozen=True)
class HyperParams:
    """Tunables of the loss family.

    ``gamma`` must stay <= 1 (HIoU monotonicity) unless
    ``allow_gamma_above_one`` is set. ``freeze_factors`` pins the harmonic
    factors to 0 and disables the task-contrastive term, which together with
    ``alpha=0`` reproduces the standard detection loss exactly.
    ``harmonic_mode`` selects what feeds the regression-side harmonic factor:
    the full localization loss ("full_loc", default) or plain smooth L1
    ("smooth_l1").
    """

    alpha: float = 1.5
    gamma: float = 0.8
    margin: float = 0.2
    num_classes: int = 2
    prob_floor: float = 1e-12
    beta_e_stop_grad: bool = True
    harmonic_mode: str = "full_loc"
    tc_through_iou: bool = True
    freeze_factors: bool = False
    allow_gamma_above_one: bool = False

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.gamma > 1.0 and not self.allow_gamma_above_one:
            raise ValueError(
                f"gamma={self.gamma} breaks HIoU monotonicity; values above 1 "
                "need allow_gamma_above_one=True"
            )
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must lie in [0, 1), got {self.margin}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.prob_floor <= 0.0:
            raise ValueError(f"prob_floor must be positive, got {self.prob_floor}")
        if self.harmonic_mode not in ("full_loc", "smooth_l1"):
            raise ValueError(f"unknown harmonic_mode: {self.harmonic_mode!r}")

    def compat_standard(self) -> "HyperParams":
        """Variant that makes the batch objective equal the standard loss."""
        return replace(self, alpha=0.0, freeze_factors=True)


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError(f"probs must be a vector of at least 2 entries, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probs contains non-finite entries")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probs entries must lie in [0, 1]")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probs must sum to 1 within {PROB_SUM_TOL}, got {probs.sum()!r}")
    return probs


@dataclass(frozen=True)
class PositiveSample:
    """One matched anchor/ground-truth pair with the model's predictions.

    ``d_hat`` is derived from (gt_box, anchor) when omitted; when given it is
    checked against the encoding to 1e-9.
    """

    probs: np.ndarray
    gt_class: int
    d: Offsets
    anchor: Box
    gt_box: Box
    d_hat: Offsets | None = None

    def __post_init__(self) -> None:
        probs = _validate_probs(self.probs)
        object.__setattr__(self, "probs", probs)
        if not 0 <= self.gt_class < probs.size:
            raise ValueError(f"gt_class {self.gt_class} out of range for {probs.size} classes")
        expected = encode(self.gt_box, self.anchor)
        if self.d_hat is None:
            object.__setattr__(self, "d_hat", expected)
        else:
            err = float(np.max(np.abs(self.d_hat.as_array() - expected.as_array())))
            if err > DHAT_TOL:
                raise ValueError(
                    f"d_hat disagrees with encode(gt_box, anchor) by {err:.3e} (> {DHAT_TOL})"
                )

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)

    def with_probs(self, probs: np.ndarray) -> "PositiveSample":
        return PositiveSample(probs, self.gt_class, self.d, self.anchor, self.gt_box)

    def with_d(self, d: Offsets) -> "PositiveSample":
        return PositiveSample(self.probs, self.gt_class, d, self.anchor, self.gt_box)


@dataclass(frozen=True)
class NegativeSample:
    """An anchor assigned to background."""

    probs: np.ndarray
    gt_class: int = 0

    def __post_init__(self) -> None:
        probs = _validate_probs(self.probs)
        object.__setattr__(self, "probs", probs)
        if not 0 <= self.gt_class < probs.size:
            raise ValueError(f"gt_class {self.gt_class} out of range for {probs.size} classes")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-sample loss terms, harmonic factors, and assembled gradients."""

    ce: float
    smooth_l1: float
    iou_value: float
    hiou: float
    loc_full: float
    tc: float
    beta_r: float
    beta_c: float
    beta_e: float
    total: float
    grad_probs: np.ndarray
    grad_d: np.ndarray

    def to_json(self) -> dict:
        return {
            "ce": self.ce,
            "smooth_l1": self.smooth_l1,
            "iou_value": self.iou_value,
            "hiou": self.hiou,
            "loc_full": self.loc_full,
            "tc": self.tc,
            "beta_r": self.beta_r,
            "beta_c": self.beta_c,
            "beta_e": self.beta_e,
            "total": self.total,
            "grad_probs": [float(g) for g in self.grad_probs],
            "grad_d": [float(g) for g in self.grad_d],
        }


def positive_sample_from_json(obj: dict) -> PositiveSample:
    """Build a sample from the JSONL record format of this package."""
    missing = {"probs", "gt_class", "anchor", "gt_box", "d"} - obj.keys()
    if missing:
        raise ValueError(f"sample record missing fields: {sorted(missing)}")
    unknown = obj.keys() - {"probs", "gt_class", "anchor", "gt_box", "d"}
    if unknown:
        raise ValueError(f"sample record has unknown fields: {sorted(unknown)}")
    return PositiveSample(
        probs=np.asarray(obj["probs"], dtype=float),
        gt_class=int(obj["gt_class"]),
        d=Offsets.from_array(obj["d"]),
        anchor=Box.from_array(obj["anchor"]),
        gt_box=Box.from_array(obj["gt_box"]),
    )


def cross_entropy(probs: np.ndarray, gt_class: int, prob_floor: float = 1e-12) -> float:
    """-log of the ground-truth class probability, floored at ``prob_floor``."""
    probs = np.asarray(probs, dtype=float)
    if not 0 <= gt_class < probs.size:
        raise IndexError(f"gt_class {gt_class} out of range for {probs.size} classes")
    return -math.log(max(float(probs[gt_class]), prob_floor))


def smooth_l1(d: Offsets, d_hat: Offsets) -> float:
    """Summed smooth L1 over the four offset components."""
    x = np.abs(d.as_array() - d_hat.as_array())
    return float(np.sum(np.where(x < 1.0, 0.5 * x * x, x - 0.5)))


def smooth_l1_grad(d: Offsets, d_hat: Offsets) -> np.ndarray:
    """Gradient of :func:`smooth_l1` w.r.t. ``d``."""
    x = d.as_array() - d_hat.as_array()
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


def _check_unit(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def iou_loss(iou_value: float) -> float:
    """1 - IoU."""
    return 1.0 - _check_unit(iou_value, "iou_value")


def hiou_loss(iou_value: float, gamma: float) -> float:
    """(1 + IoU)^gamma * (1 - IoU); up-weights well-localized samples."""
    u = _check_unit(iou_value, "iou_value")
    return (1.0 + u) ** gamma * (1.0 - u)


def hiou_slope(iou_value: float, gamma: float) -> float:
    """d(hiou_loss)/d(IoU); non-positive on [0, 1] whenever gamma <= 1."""
    u = _check_unit(iou_value, "iou_value")
    return (1.0 + u) ** (gamma - 1.0) * (gamma * (1.0 - u) - (1.0 + u))


def hiou_loss_arrays(u: np.ndarray, gamma: float) -> np.ndarray:
    """Element-wise :func:`hiou_loss`; ``u`` is not range-checked."""
    return elementwise(lambda v: (1.0 + v) ** gamma, u) * (1.0 - u)


def hiou_slope_arrays(u: np.ndarray, gamma: float) -> np.ndarray:
    """Element-wise :func:`hiou_slope`; ``u`` is not range-checked."""
    return elementwise(lambda v: (1.0 + v) ** (gamma - 1.0), u) * (
        gamma * (1.0 - u) - (1.0 + u)
    )


@dataclass(frozen=True)
class _LocParts:
    """Localization terms shared by the harmonic and TC losses."""

    sl1: float
    sl1_grad: np.ndarray
    iou_value: float
    iou_grad_d: np.ndarray
    hiou: float
    value: float
    grad: np.ndarray


def _loc_parts(sample: PositiveSample, hp: HyperParams) -> _LocParts:
    decoded = decode(sample.d, sample.anchor)
    u = iou(decoded, sample.gt_box)
    # chain dIoU/dd = J^T @ dIoU/dcorners
    du_dcorners = iou_grad(decoded, sample.gt_box)
    jac = decode_jacobian(sample.d, sample.anchor)
    du_dd = jac.T @ du_dcorners
    sl1 = smooth_l1(sample.d, sample.d_hat)
    sl1_g = smooth_l1_grad(sample.d, sample.d_hat)
    h = hiou_loss(u, hp.gamma)
    value = sl1 + hp.alpha * h
    grad = sl1_g + hp.alpha * hiou_slope(u, hp.gamma) * du_dd
    return _LocParts(sl1, sl1_g, u, du_dd, h, value, grad)


def full_loc_loss(sample: PositiveSample, hp: HyperParams) -> tuple[float, np.ndarray]:
    """Smooth L1 plus alpha-weighted HIoU of the decoded box, with gradient."""
    parts = _loc_parts(sample, hp)
    return parts.value, parts.grad


def _loc_for_beta(parts: _LocParts, hp: HyperParams) -> tuple[float, np.ndarray]:
    if hp.harmonic_mode == "smooth_l1":
        return parts.sl1, parts.sl1_grad
    return parts.value, parts.grad


def harmonic_loss(
    sample: PositiveSample, hp: HyperParams, loc: float | None = None
) -> tuple[float, float, float]:
    """Cross-branch weighted sum (1+beta_r)*CE + (1+beta_c)*loc.

    ``loc`` defaults to the localization value selected by
    ``hp.harmonic_mode``. Returns (value, beta_r, beta_c).
    """
    if loc is None:
        loc, _ = _loc_for_beta(_loc_parts(sample, hp), hp)
    ce = cross_entropy(sample.probs, sample.gt_class, hp.prob_floor)
    beta_r = math.exp(-loc)
    beta_c = math.exp(-ce)
    return (1.0 + beta_r) * ce + (1.0 + beta_c) * loc, beta_r, beta_c


def harmonic_cls_grad(sample: PositiveSample, loc: float, prob_floor: float = 1e-12) -> float:
    """d(harmonic_loss)/d p_gt at fixed localization loss: loc - (1+e^-loc)/p."""
    p = max(float(sample.probs[sample.gt_class]), prob_floor)
    return loc - (1.0 + math.exp(-loc)) / p


def harmonic_reg_grad(sample: PositiveSample, hp: HyperParams) -> np.ndarray:
    """d(harmonic_loss)/d offsets: [(1+beta_c) - CE*e^-loc] * dloc/dd."""
    parts = _loc_parts(sample, hp)
    loc, loc_grad = _loc_for_beta(parts, hp)
    ce = cross_entropy(sample.probs, sample.gt_class, hp.prob_floor)
    beta_c = math.exp(-ce)
    return ((1.0 + beta_c) - ce * math.exp(-loc)) * loc_grad


def _entropy(probs: np.ndarray, prob_floor: float) -> float:
    logs = np.log(np.maximum(probs, prob_floor))
    return float(-np.sum(probs * logs))


def _tc_parts(
    sample: PositiveSample, hp: HyperParams, parts: _LocParts
) -> tuple[float, float, np.ndarray, np.ndarray]:
    p = max(float(sample.probs[sample.gt_class]), hp.prob_floor)
    u = parts.iou_value
    beta_e = math.exp(_entropy(sample.probs, hp.prob_floor))
    weight = 1.0 / (1.0 + beta_e)
    diff = p - u
    raw = abs(diff) - hp.margin
    grad_probs = np.zeros_like(sample.probs)
    grad_d = np.zeros(4)
    if raw <= 0.0:
        return 0.0, beta_e, grad_probs, grad_d
    s = math.copysign(1.0, diff)
    grad_probs[sample.gt_class] = weight * s
    if not hp.beta_e_stop_grad:
        dh_dp = -(1.0 + np.log(np.maximum(sample.probs, hp.prob_floor)))
        grad_probs += raw * (-beta_e / (1.0 + beta_e) ** 2) * dh_dp
    if hp.tc_through_iou:
        grad_d = -weight * s * parts.iou_grad_d
    return weight * raw, beta_e, grad_probs, grad_d


def tc_loss(
    sample: PositiveSample, hp: HyperParams
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Entropy-weighted hinge on |p_gt - IoU| beyond the margin.

    Returns (value, beta_e, grad_probs, grad_d). The entropy weight is held
    constant under the default ``beta_e_stop_grad``; gradients reach the
    offsets through the decoded box unless ``tc_through_iou`` is off.
    """
    return _tc_parts(sample, hp, _loc_parts(sample, hp))


def harmonic_det_loss(sample: PositiveSample, hp: HyperParams) -> LossBreakdown:
    """Full per-positive objective with factors and assembled gradients."""
    if sample.num_classes != hp.num_classes:
        raise ValueError(
            f"sample has {sample.num_classes} classes but hyperparams expect {hp.num_classes}"
        )
    parts = _loc_parts(sample, hp)
    ce = cross_entropy(sample.probs, sample.gt_class, hp.prob_floor)
    p = max(float(sample.probs[sample.gt_class]), hp.prob_floor)

    if hp.freeze_factors:
        total = ce + parts.value
        grad_probs = np.zeros_like(sample.probs)
        grad_probs[sample.gt_class] = -1.0 / p
        return LossBreakdown(
            ce=ce,
            smooth_l1=parts.sl1,
            iou_value=parts.iou_value,
            hiou=parts.hiou,
            loc_full=parts.value,
            tc=0.0,
            beta_r=0.0,
            beta_c=0.0,
            beta_e=math.exp(_entropy(sample.probs, hp.prob_floor)),
            total=total,
            grad_probs=grad_probs,
            grad_d=parts.grad.copy(),
        )

    loc_beta, loc_beta_grad = _loc_for_beta(parts, hp)
    beta_r = math.exp(-loc_beta)
    beta_c = math.exp(-ce)
    tc_value, beta_e, tc_grad_probs, tc_grad_d = _tc_parts(sample, hp, parts)
    total = (1.0 + beta_r) * ce + (1.0 + beta_c) * parts.value + tc_value

    grad_probs = tc_grad_probs.copy()
    # d/dp of (1+beta_r)*CE + (1+beta_c)*loc; beta_c = e^-CE so its chain is
    # beta_c/p, and the CE clamp kills both terms below the floor.
    if float(sample.probs[sample.gt_class]) > hp.prob_floor:
        grad_probs[sample.gt_class] += parts.value * (beta_c / p) - (1.0 + beta_r) / p
    grad_d = (
        (1.0 + beta_c) * parts.grad
        - ce * beta_r * loc_beta_grad
        + tc_grad_d
    )
    return LossBreakdown(
        ce=ce,
        smooth_l1=parts.sl1,
        iou_value=parts.iou_value,
        hiou=parts.hiou,
        loc_full=parts.value,
        tc=tc_value,
        beta_r=beta_r,
        beta_c=beta_c,
        beta_e=beta_e,
        total=total,
        grad_probs=grad_probs,
        grad_d=grad_d,
    )


def standard_det_loss(
    positives: Sequence[PositiveSample],
    negatives: Sequence[NegativeSample],
    prob_floor: float = 1e-12,
) -> float:
    """Mean over positives of CE + smooth L1, plus negatives' CE over N."""
    if not positives:
        raise ValueError("standard detection loss needs at least one positive sample")
    total = 0.0
    for s in positives:
        total += cross_entropy(s.probs, s.gt_class, prob_floor) + smooth_l1(s.d, s.d_hat)
    for n in negatives:
        total += cross_entropy(n.probs, n.gt_class, prob_floor)
    return total / len(positives)


@dataclass(frozen=True)
class BatchResult:
    """Batch objective value with per-sample introspection records.

    Gradients in ``breakdowns`` and ``negative_grad_probs`` are per-sample;
    the objective's gradient w.r.t. any one sample's inputs is the per-sample
    gradient divided by the positive count.
    """

    value: float
    breakdowns: list[LossBreakdown] = field(default_factory=list)
    negative_grad_probs: list[np.ndarray] = field(default_factory=list)

    @property
    def num_positives(self) -> int:
        return len(self.breakdowns)


def batch_objective(
    positives: Sequence[PositiveSample],
    negatives: Sequence[NegativeSample],
    hp: HyperParams,
) -> BatchResult:
    """(1/N) [sum of per-positive harmonic losses + sum of negatives' CE]."""
    if not positives:
        raise ValueError("batch objective needs at least one positive sample")
    breakdowns = [harmonic_det_loss(s, hp) for s in positives]
    total = 0.0
    for b in breakdowns:
        total += b.total
    neg_grads: list[np.ndarray] = []
    for n in negatives:
        total += cross_entropy(n.probs, n.gt_class, hp.prob_floor)
        g = np.zeros_like(n.probs)
        g[n.gt_class] = -1.0 / max(float(n.probs[n.gt_class]), hp.prob_floor)
        neg_grads.append(g)
    return BatchResult(total / len(positives), breakdowns, neg_grads)


@dataclass(frozen=True)
class BatchArrays:
    """:func:`batch_objective_arrays` output.

    ``grad_probs`` (N, C) and ``grad_d`` (N, 4) hold per-row gradients in the
    convention of :class:`BatchResult`: divide by ``num_positives`` for the
    objective's gradient. Rows that are neither positive nor negative stay 0.
    The per-positive vectors follow ``pos_idx`` order; ``p_gt`` is the
    unfloored ground-truth probability and ``iou`` the decoded-box IoU.
    """

    value: float
    grad_probs: np.ndarray
    grad_d: np.ndarray
    beta_r: np.ndarray
    beta_c: np.ndarray
    p_gt: np.ndarray
    iou: np.ndarray

    @property
    def num_positives(self) -> int:
        return int(self.p_gt.size)


def batch_objective_arrays(
    probs: np.ndarray,
    offsets: np.ndarray,
    anchors: np.ndarray,
    gt: np.ndarray,
    gt_class: np.ndarray,
    d_hat: np.ndarray,
    pos_idx: np.ndarray,
    neg_idx: np.ndarray,
    hp: HyperParams,
) -> BatchArrays:
    """:func:`batch_objective` over arrays, for the training loop.

    ``probs`` (N, C) and ``offsets`` (N, 4) are per-row predictions; the
    positives are rows ``pos_idx``, matched to ``anchors``, ``gt``,
    ``gt_class`` and ``d_hat = encode(gt, anchors)``, all in ``pos_idx``
    order. Negatives are rows ``neg_idx`` with the background class 0. The
    arithmetic mirrors :func:`harmonic_det_loss` branch for branch and sums
    in sample-index order; inputs are not validated (see the scalar form).
    """
    if pos_idx.size == 0:
        raise ValueError("batch objective needs at least one positive sample")
    pp = probs[pos_idx]
    d = offsets[pos_idx]
    p_raw = probs[pos_idx, gt_class]
    p = np.maximum(p_raw, hp.prob_floor)
    ce = -elementwise(math.log, p)
    grad_probs = np.zeros(probs.shape)
    grad_offsets = np.zeros(offsets.shape)

    # localization: smooth L1 plus alpha-weighted HIoU of the decoded box
    decoded = decode_arrays(d, anchors)
    u, du_dcorners = iou_and_grad_arrays(decoded, gt)
    du_dd = decode_vjp_arrays(d, anchors, du_dcorners)
    x = d - d_hat
    ax = np.abs(x)
    quadratic = ax < 1.0
    sl1 = np.where(quadratic, 0.5 * ax * ax, ax - 0.5).sum(axis=1)
    sl1_grad = np.where(quadratic, x, np.sign(x))
    loc = sl1 + hp.alpha * hiou_loss_arrays(u, hp.gamma)
    loc_grad = sl1_grad + (hp.alpha * hiou_slope_arrays(u, hp.gamma))[:, None] * du_dd

    if hp.freeze_factors:
        totals = ce + loc
        grad_probs[pos_idx, gt_class] = -1.0 / p
        grad_offsets[pos_idx] = loc_grad
        beta_r = beta_c = np.zeros_like(p)
    else:
        loc_beta, loc_beta_grad = (
            (sl1, sl1_grad) if hp.harmonic_mode == "smooth_l1" else (loc, loc_grad)
        )
        beta_r = elementwise(math.exp, -loc_beta)
        beta_c = elementwise(math.exp, -ce)

        # task-contrastive hinge on |p - IoU|, entropy-weighted
        logs = np.log(np.maximum(pp, hp.prob_floor))
        beta_e = elementwise(math.exp, -(pp * logs).sum(axis=1))
        weight = 1.0 / (1.0 + beta_e)
        diff = p - u
        raw = np.abs(diff) - hp.margin
        active = raw > 0.0
        signed = np.where(active, weight * np.copysign(1.0, diff), 0.0)
        tc = np.where(active, weight * raw, 0.0)
        grad_probs[pos_idx, gt_class] = signed
        if not hp.beta_e_stop_grad:
            squared = elementwise(lambda v: v**2, 1.0 + beta_e)
            coef = np.where(active, raw * (-beta_e / squared), 0.0)
            grad_probs[pos_idx] += coef[:, None] * -(1.0 + logs)
        tc_grad_d = (-signed)[:, None] * du_dd if hp.tc_through_iou else 0.0

        totals = (1.0 + beta_r) * ce + (1.0 + beta_c) * loc + tc
        # the CE clamp kills both probability terms below the floor
        dp = np.where(p_raw > hp.prob_floor, loc * (beta_c / p) - (1.0 + beta_r) / p, 0.0)
        grad_probs[pos_idx, gt_class] += dp
        grad_offsets[pos_idx] = (
            (1.0 + beta_c)[:, None] * loc_grad
            - (ce * beta_r)[:, None] * loc_beta_grad
            + tc_grad_d
        )

    neg_p = np.maximum(probs[neg_idx, 0], hp.prob_floor)
    grad_probs[neg_idx, 0] = -1.0 / neg_p
    # sequential sums in sample order, as the scalar batch objective adds
    total = float(np.concatenate([totals, -elementwise(math.log, neg_p)]).cumsum()[-1])
    return BatchArrays(
        value=total / pos_idx.size,
        grad_probs=grad_probs,
        grad_d=grad_offsets,
        beta_r=beta_r,
        beta_c=beta_c,
        p_gt=p_raw,
        iou=u,
    )


def gradient_surface(
    p_grid: Sequence[float], loc_grid: Sequence[float], mode: str
) -> np.ndarray:
    """Classification gradient tabulated over (loc, p); rows index loc.

    Standard mode returns -1/p in every row; harmonic mode applies the
    regression-supervised closed form loc - (1+e^-loc)/p.
    """
    p = np.asarray(p_grid, dtype=float)
    loc = np.asarray(loc_grid, dtype=float)
    if p.size == 0 or loc.size == 0:
        raise ValueError("p_grid and loc_grid must be non-empty")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("p_grid values must lie in (0, 1]")
    if np.any(loc < 0.0) or not np.all(np.isfinite(loc)):
        raise ValueError("loc_grid values must be finite and >= 0")
    if mode == "standard":
        return np.tile(-1.0 / p, (loc.size, 1))
    if mode == "harmonic":
        return loc[:, None] - (1.0 + np.exp(-loc))[:, None] / p[None, :]
    raise ValueError(f"unknown surface mode: {mode!r}")
