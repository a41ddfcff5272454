"""Detection loss family: standard, harmonic, task-contrastive, IoU and HIoU.

Every operation works on one sample at a time and returns Python floats and
small numpy vectors, so each analytic gradient can be checked against finite
differences without an autodiff framework. These per-sample functions are the
reference; :func:`batch_objective_arrays` is the same batch objective over
arrays, which the training loop runs and the tests hold to the reference.
Batch reductions sum in sample index order for bit-reproducible objectives.

Probability vectors are softmax outputs over ``num_classes`` entries
(background included). Entries may be exactly 0 or 1; logs and divisions are
floored at :data:`PROB_FLOOR`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Sequence, get_args, get_origin

import numpy as np

from .geom import (
    AnchorTargets,
    Box,
    Offsets,
    decode,
    decode_jacobian,
    elementwise,
    encode,
    iou,
    iou_grad,
    offset_iou_and_grad,
)

PROB_SUM_TOL = 1e-6
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class HyperParams:
    """Tunables of the loss family.

    ``gamma`` must stay <= 1 (HIoU monotonicity). ``freeze_factors`` pins
    the harmonic factors to 0 and disables the task-contrastive term, which
    together with ``alpha=0`` reproduces the standard detection loss exactly.
    """

    alpha: float = 1.5
    gamma: float = 0.8
    margin: float = 0.2
    beta_e_stop_grad: bool = True
    freeze_factors: bool = False

    def __post_init__(self) -> None:
        if not self.alpha >= 0.0:  # written so that NaN fails it too
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.gamma > 1.0:
            raise ValueError(f"gamma={self.gamma} breaks HIoU monotonicity; it must be <= 1")
        for name in ("alpha", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must lie in [0, 1), got {self.margin}")

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
    """One matched anchor/ground-truth pair with the model's predictions;
    the regression target ``d_hat`` is ``encode(gt_box, anchor)``."""

    probs: np.ndarray
    gt_class: int
    d: Offsets
    anchor: Box
    gt_box: Box
    d_hat: Offsets = field(init=False)

    def __post_init__(self) -> None:
        probs = _validate_probs(self.probs)
        object.__setattr__(self, "probs", probs)
        if not 0 <= self.gt_class < probs.size:
            raise ValueError(f"gt_class {self.gt_class} out of range for {probs.size} classes")
        object.__setattr__(self, "d_hat", encode(self.gt_box, self.anchor))
        # _loc_parts by (alpha, gamma), the only hyperparameters it reads: the
        # geometry it reads never changes
        object.__setattr__(self, "_loc_memo", {})

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)


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
        arrays = {"grad_probs": self.grad_probs.tolist(), "grad_d": self.grad_d.tolist()}
        return {**vars(self), **arrays}


def _check_json_value(value: Any, expected: Any, path: str) -> None:
    if get_origin(expected) is list:
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected list, got {type(value).__name__}")
        for k, item in enumerate(value):
            _check_json_value(item, get_args(expected)[0], f"{path}[{k}]")
    elif expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{path}: expected an integer, got {value!r}")
    elif expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: expected a number, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"{path}: integer out of the float range")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path}: expected a finite number, got {value!r}")
    elif not isinstance(value, expected):
        raise ValueError(f"{path}: expected {expected.__name__}, got {type(value).__name__}")


def check_json_block(block: Any, allowed: dict[str, Any], path: str) -> dict:
    """A copy of JSON object ``block`` whose keys are all in ``allowed`` and
    whose values have the JSON types it maps them to: ``int`` (not a bool),
    ``float`` (a finite number, not a bool), ``list[...]`` of one of these,
    or a Python type. Raises ``ValueError`` naming the first bad entry as
    ``<path>.<key>``, in the block's order."""
    if not isinstance(block, dict):
        raise ValueError(f"{path}: expected an object, got {type(block).__name__}")
    for key, value in block.items():
        if key not in allowed:
            raise ValueError(f"{path}.{key}: unknown key")
        _check_json_value(value, allowed[key], f"{path}.{key}")
    return dict(block)


# the JSONL record of one positive sample
_SAMPLE_KEYS = {
    "probs": list[float],
    "gt_class": int,
    "anchor": list[float],
    "gt_box": list[float],
    "d": list[float],
}


def positive_sample_from_json(obj: object) -> PositiveSample:
    """Build a sample from the JSONL record format of this package. A record
    that is not one raises ``ValueError``; a mistyped or unknown field is
    named as ``sample.<key>`` (see :func:`check_json_block`)."""
    record = check_json_block(obj, _SAMPLE_KEYS, "sample")
    missing = _SAMPLE_KEYS.keys() - record.keys()
    if missing:
        raise ValueError(f"sample record missing fields: {sorted(missing)}")
    return PositiveSample(
        probs=np.asarray(record["probs"], dtype=float),
        gt_class=record["gt_class"],
        d=Offsets.from_array(record["d"]),
        anchor=Box.from_array(record["anchor"]),
        gt_box=Box.from_array(record["gt_box"]),
    )


def cross_entropy(probs: np.ndarray, gt_class: int) -> float:
    """-log of the ground-truth class probability, floored at :data:`PROB_FLOOR`."""
    probs = np.asarray(probs, dtype=float)
    if not 0 <= gt_class < probs.size:
        raise IndexError(f"gt_class {gt_class} out of range for {probs.size} classes")
    return -math.log(max(float(probs[gt_class]), PROB_FLOOR))


def smooth_l1(d: Offsets, d_hat: Offsets) -> float:
    """Summed smooth L1 over the four offset components."""
    x = np.abs(d.as_array() - d_hat.as_array())
    # np.where evaluates both branches: squaring only the clipped value keeps
    # the discarded one from overflowing
    q = np.minimum(x, 1.0)
    return float(np.sum(np.where(x < 1.0, 0.5 * q * q, x - 0.5)))


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


def hiou_slope_arrays(u: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Element-wise :func:`hiou_slope` of 1-D ``u``; ``gamma`` is one value or
    one per element. ``u`` is not range-checked."""
    return elementwise(pow, 1.0 + u, gamma - 1.0) * (gamma * (1.0 - u) - (1.0 + u))


@dataclass(frozen=True)
class _LocParts:
    """Localization terms shared by the harmonic and TC losses."""

    sl1: float
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
    h = hiou_loss(u, hp.gamma)
    value = sl1 + hp.alpha * h
    grad = smooth_l1_grad(sample.d, sample.d_hat) + hp.alpha * hiou_slope(u, hp.gamma) * du_dd
    for array in (du_dd, grad):
        array.flags.writeable = False
    return _LocParts(sl1, u, du_dd, h, value, grad)


def _shared_loc_parts(sample: PositiveSample, hp: HyperParams) -> _LocParts:
    """:func:`_loc_parts`, computed once per sample and (alpha, gamma) and
    shared by every loss of that sample; its arrays are read-only."""
    # keyed by bits, so that alpha -0.0 does not share 0.0's entry
    key = (float(hp.alpha).hex(), float(hp.gamma).hex())
    memo = sample._loc_memo
    if key not in memo:
        memo[key] = _loc_parts(sample, hp)
    return memo[key]


def full_loc_loss(sample: PositiveSample, hp: HyperParams) -> tuple[float, np.ndarray]:
    """Smooth L1 plus alpha-weighted HIoU of the decoded box, with gradient.
    The gradient is read-only: the sample's other losses share it."""
    parts = _shared_loc_parts(sample, hp)
    return parts.value, parts.grad


def harmonic_loss(
    sample: PositiveSample, hp: HyperParams, loc: float | None = None
) -> tuple[float, float, float]:
    """Cross-branch weighted sum (1+beta_r)*CE + (1+beta_c)*loc.

    ``loc`` defaults to :func:`full_loc_loss`. Returns (value, beta_r, beta_c).
    """
    if loc is None:
        loc = _shared_loc_parts(sample, hp).value
    ce = cross_entropy(sample.probs, sample.gt_class)
    beta_r = math.exp(-loc)
    beta_c = math.exp(-ce)
    return (1.0 + beta_r) * ce + (1.0 + beta_c) * loc, beta_r, beta_c


def harmonic_cls_grad(sample: PositiveSample, loc: float) -> float:
    """d(harmonic_loss)/d p_gt at fixed localization loss: loc - (1+e^-loc)/p."""
    p = max(float(sample.probs[sample.gt_class]), PROB_FLOOR)
    return loc - (1.0 + math.exp(-loc)) / p


def harmonic_reg_grad(sample: PositiveSample, hp: HyperParams) -> np.ndarray:
    """d(harmonic_loss)/d offsets: [(1+beta_c) - CE*e^-loc] * dloc/dd."""
    parts = _shared_loc_parts(sample, hp)
    ce = cross_entropy(sample.probs, sample.gt_class)
    beta_c = math.exp(-ce)
    return ((1.0 + beta_c) - ce * math.exp(-parts.value)) * parts.grad


def _entropy(probs: np.ndarray) -> float:
    logs = np.log(np.maximum(probs, PROB_FLOOR))
    return float(-np.sum(probs * logs))


def _tc_parts(
    sample: PositiveSample, hp: HyperParams, parts: _LocParts
) -> tuple[float, float, np.ndarray, np.ndarray]:
    p = max(float(sample.probs[sample.gt_class]), PROB_FLOOR)
    u = parts.iou_value
    beta_e = math.exp(_entropy(sample.probs))
    weight = 1.0 / (1.0 + beta_e)
    diff = p - u
    raw = abs(diff) - hp.margin
    grad_probs = np.zeros_like(sample.probs)
    if raw <= 0.0:
        return 0.0, beta_e, grad_probs, np.zeros(4)
    s = math.copysign(1.0, diff)
    grad_probs[sample.gt_class] = weight * s
    if not hp.beta_e_stop_grad:
        dh_dp = -(1.0 + np.log(np.maximum(sample.probs, PROB_FLOOR)))
        grad_probs += raw * (-beta_e / (1.0 + beta_e) ** 2) * dh_dp
    return weight * raw, beta_e, grad_probs, -weight * s * parts.iou_grad_d


def tc_loss(
    sample: PositiveSample, hp: HyperParams
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Entropy-weighted hinge on |p_gt - IoU| beyond the margin.

    Returns (value, beta_e, grad_probs, grad_d). The entropy weight is held
    constant under the default ``beta_e_stop_grad``; gradients reach the
    offsets through the decoded box's IoU.
    """
    return _tc_parts(sample, hp, _shared_loc_parts(sample, hp))


def harmonic_det_loss(sample: PositiveSample, hp: HyperParams) -> LossBreakdown:
    """Full per-positive objective with factors and assembled gradients."""
    parts = _shared_loc_parts(sample, hp)
    ce = cross_entropy(sample.probs, sample.gt_class)
    p = max(float(sample.probs[sample.gt_class]), PROB_FLOOR)

    if hp.freeze_factors:
        tc_value = beta_r = beta_c = 0.0
        beta_e = math.exp(_entropy(sample.probs))
        total = ce + parts.value
        grad_probs = np.zeros_like(sample.probs)
        grad_probs[sample.gt_class] = -1.0 / p
        grad_d = parts.grad.copy()
    else:
        beta_r = math.exp(-parts.value)
        beta_c = math.exp(-ce)
        tc_value, beta_e, grad_probs, tc_grad_d = _tc_parts(sample, hp, parts)
        total = (1.0 + beta_r) * ce + (1.0 + beta_c) * parts.value + tc_value
        # d/dp of (1+beta_r)*CE + (1+beta_c)*loc; beta_c = e^-CE so its chain is
        # beta_c/p, and the CE clamp kills both terms below the floor.
        if float(sample.probs[sample.gt_class]) > PROB_FLOOR:
            grad_probs[sample.gt_class] += parts.value * (beta_c / p) - (1.0 + beta_r) / p
        grad_d = (1.0 + beta_c) * parts.grad - ce * beta_r * parts.grad + tc_grad_d
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
) -> float:
    """Mean over positives of CE + smooth L1, plus negatives' CE over N."""
    if not positives:
        raise ValueError("standard detection loss needs at least one positive sample")
    total = 0.0
    for s in positives:
        total += cross_entropy(s.probs, s.gt_class) + smooth_l1(s.d, s.d_hat)
    for n in negatives:
        total += cross_entropy(n.probs, n.gt_class)
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
        total += cross_entropy(n.probs, n.gt_class)
        g = np.zeros_like(n.probs)
        g[n.gt_class] = -1.0 / max(float(n.probs[n.gt_class]), PROB_FLOOR)
        neg_grads.append(g)
    return BatchResult(total / len(positives), breakdowns, neg_grads)


@dataclass(frozen=True)
class BatchArrays:
    """:func:`batch_objective_arrays` output.

    ``grad_probs`` (N, C) and ``grad_d`` (N, 4) hold per-row gradients in the
    convention of :class:`BatchResult`: divide by ``num_positives`` for the
    objective's gradient. The per-positive vectors follow the leading rows;
    ``p_gt`` is the unfloored ground-truth probability and ``iou`` the
    decoded-box IoU. ``pos_loss`` and ``neg_loss`` (the remaining rows) are
    the per-row losses: each depends on its own row's inputs only, and their
    in-order sum over the positive count is ``value``. ``ce``, ``sl1``,
    ``loc`` and ``tc`` are the per-positive values of :func:`cross_entropy`,
    :func:`smooth_l1`, :func:`full_loc_loss` and the task-contrastive term
    (0 under ``freeze_factors``). ``neg_loss`` and ``value`` are cached
    properties, computed on first read from ``neg_p``, the negatives'
    floored background probabilities: a training step needs neither.
    """

    grad_probs: np.ndarray
    grad_d: np.ndarray
    pos_loss: np.ndarray
    beta_r: np.ndarray
    beta_c: np.ndarray
    p_gt: np.ndarray
    iou: np.ndarray
    ce: np.ndarray
    sl1: np.ndarray
    loc: np.ndarray
    tc: np.ndarray
    neg_p: np.ndarray

    @cached_property
    def neg_loss(self) -> np.ndarray:
        return -elementwise(math.log, self.neg_p)

    @cached_property
    def value(self) -> float:
        return self.objective(self.neg_loss)

    def objective(self, neg_loss: np.ndarray) -> float:
        """The objective with negatives of losses ``neg_loss``; ``value`` takes its own."""
        # sequential sums in sample order, as the scalar batch objective adds
        total = np.concatenate([self.pos_loss, neg_loss]).cumsum()[-1]
        return float(total) / self.num_positives

    @property
    def num_positives(self) -> int:
        return int(self.p_gt.size)


def batch_objective_arrays(
    probs: np.ndarray,
    offsets: np.ndarray,
    targets: AnchorTargets,
    gt_class: np.ndarray,
    d_hat: np.ndarray,
    hp: HyperParams,
) -> BatchArrays:
    """:func:`batch_objective` over arrays, for the training loop.

    ``probs`` (N, C) and ``offsets`` (N, 4) are per-row predictions. Rows
    ``[0, n)``, with ``n = len(gt_class)``, are the positives, matched to the
    anchors and boxes of ``targets``, to ``gt_class`` and to ``d_hat =
    encode(gt, anchors)``, all in row order; the remaining rows are the
    negatives, with the background class 0. The arithmetic mirrors
    :func:`harmonic_det_loss` branch for branch and sums in sample-index
    order; inputs are not validated (see the scalar form).
    """
    n = gt_class.size
    if n == 0:
        raise ValueError("batch objective needs at least one positive sample")
    pp, d = probs[:n], offsets[:n]
    # the positives' (row, class) entries of the row-major (N, C) arrays
    gt_entry = np.arange(0, n * probs.shape[1], probs.shape[1]) + gt_class
    p_raw = probs.take(gt_entry)
    p = np.maximum(p_raw, PROB_FLOOR)
    log_p = elementwise(math.log, p)
    ce = -log_p
    grad_probs = np.zeros(probs.shape)
    grad_offsets = np.zeros(offsets.shape)
    size_offsets = d[:, 2:].ravel().tolist()
    if hp.freeze_factors:
        scale = elementwise(math.exp, size_offsets)
    else:
        logs = np.log(np.maximum(pp, PROB_FLOOR))
        entropy = -(pp * logs).sum(axis=1)
        # one libm pass: the decode's (e^tw, e^th), beta_c = e^-CE and the
        # entropy weight beta_e
        exps = elementwise(math.exp, size_offsets + log_p.tolist() + entropy.tolist())
        scale, beta_c, beta_e = exps[: 2 * n], exps[2 * n : 3 * n], exps[3 * n :]
        one_plus = 1.0 + exps[2 * n :]  # 1 + beta_c, then 1 + beta_e

    # localization: smooth L1 plus alpha-weighted HIoU of the decoded box
    u, du_dd = offset_iou_and_grad(d, targets, scale.reshape(-1, 2))
    x = d - d_hat
    ax = np.abs(x)
    q = np.minimum(ax, 1.0)
    # 0.5 q^2 below 1 (where ax - 0.5 ax is exact) and ax - 0.5 above; the
    # gradient is x below 1 and its sign above
    sl1 = (q * (ax - 0.5 * q)).sum(axis=1)
    sl1_grad = np.copysign(q, x)
    # both HIoU powers in one libm pass: (1 + IoU)^gamma and ^(gamma - 1)
    one_plus_u, one_minus_u = 1.0 + u, 1.0 - u
    bases = one_plus_u.tolist()
    powers = elementwise(pow, bases + bases, [hp.gamma] * n + [hp.gamma - 1.0] * n)
    loc = sl1 + hp.alpha * (powers[:n] * one_minus_u)
    slope = powers[n:] * (hp.gamma * one_minus_u - one_plus_u)
    # held in the positives' rows of grad_offsets, which the harmonic branch overwrites
    loc_grad = np.add(sl1_grad, (hp.alpha * slope)[:, None] * du_dd, out=grad_offsets[:n])

    if hp.freeze_factors:
        totals = ce + loc
        grad_probs.put(gt_entry, -1.0 / p)
        beta_r = beta_c = tc = np.zeros_like(p)
    else:
        beta_r = elementwise(math.exp, -loc)

        # task-contrastive hinge on |p - IoU|, entropy-weighted
        weight = 1.0 / one_plus[n:]
        diff = p - u
        raw = np.abs(diff) - hp.margin
        active = raw > 0.0
        # weight > 0, so this is weight times the sign of diff
        signed = np.where(active, np.copysign(weight, diff), 0.0)
        tc = np.where(active, weight * raw, 0.0)

        factor_r, factor_c = 1.0 + beta_r, one_plus[:n]
        totals = factor_r * ce + factor_c * loc + tc
        # the CE clamp kills both probability terms below the floor
        dp = np.where(p_raw > PROB_FLOOR, loc * (beta_c / p) - factor_r / p, 0.0)
        if hp.beta_e_stop_grad:
            grad_probs.put(gt_entry, signed + dp)
        else:
            grad_probs.put(gt_entry, signed)
            squared = elementwise(lambda v: v**2, one_plus[n:])
            coef = np.where(active, raw * (-beta_e / squared), 0.0)
            grad_probs[:n] += coef[:, None] * -(1.0 + logs)
            grad_probs.put(gt_entry, grad_probs.take(gt_entry) + dp)
        # subtracting s g is adding (-s) g, bit for bit
        grad_d = factor_c[:, None] * loc_grad - (ce * beta_r)[:, None] * loc_grad
        np.subtract(grad_d, signed[:, None] * du_dd, out=grad_offsets[:n])

    neg_p = np.maximum(probs[n:, 0], PROB_FLOOR)
    np.divide(-1.0, neg_p, out=grad_probs[n:, 0])
    return BatchArrays(
        grad_probs=grad_probs,
        grad_d=grad_offsets,
        pos_loss=totals,
        beta_r=beta_r,
        beta_c=beta_c,
        p_gt=p_raw,
        iou=u,
        ce=ce,
        sl1=sl1,
        loc=loc,
        tc=tc,
        neg_p=neg_p,
    )


def gradient_surface(
    p_grid: Sequence[float], loc_grid: Sequence[float], mode: str
) -> np.ndarray:
    """Classification gradient tabulated over (loc, p); rows index loc.

    Standard mode returns -1/p in every row; harmonic mode applies the
    regression-supervised closed form loc - (1+e^-loc)/p. Raises
    ``ValueError`` when a tabulated gradient overflows the float range, as
    it does at a p small enough.
    """
    p = np.asarray(p_grid, dtype=float)
    loc = np.asarray(loc_grid, dtype=float)
    if p.size == 0 or loc.size == 0:
        raise ValueError("p_grid and loc_grid must be non-empty")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("p_grid values must lie in (0, 1]")
    if np.any(loc < 0.0) or not np.all(np.isfinite(loc)):
        raise ValueError("loc_grid values must be finite and >= 0")
    if mode not in ("standard", "harmonic"):
        raise ValueError(f"unknown surface mode: {mode!r}")
    # an overflow is reported below, naming its p, not as a warning
    with np.errstate(all="ignore"):
        if mode == "standard":
            grid = np.tile(-1.0 / p, (loc.size, 1))
        else:
            grid = loc[:, None] - (1.0 + np.exp(-loc))[:, None] / p[None, :]
    finite = np.isfinite(grid).all(axis=0)
    if not finite.all():
        at = float(p[np.argmin(finite)])
        raise ValueError(f"the {mode} gradient at p={at!r} overflows the float range")
    return grid
