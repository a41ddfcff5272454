"""The training loop's reference: the kernel and step loops as they were
before the hoisted ``AnchorTargets``, the fused geometry call, the merged
libm passes and the lazily read objective.

``batch_objective_arrays`` computes every field eagerly and chains the four
geometry calls of ``geom_reference``; ``train_toy`` checks the objective's
value at every step and sums each record's AIC one (p_gt, IoU) pair at a
time; ``train_offsets_only`` is refine's descent over the same four calls,
on numpy's exp and power where the rest take libm's, and on the Jacobian's
closed form where the rest take the BLAS product. The tests hold
``losses.batch_objective_arrays``, ``harness.train_toy`` and
``harness._train_offsets_only`` to them bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from geom_reference import decode_vjp_closed_form, offset_iou_and_grad
from hardet.geom import elementwise
from hardet.harness import (
    DivergenceError,
    Matching,
    OptimizerConfig,
    SceneSet,
    ToyModel,
    TrainLog,
    TrainRecord,
    _check_decode_cap,
)
from hardet.losses import PROB_FLOOR, HyperParams


def libm_power(base: np.ndarray, exponent: float | np.ndarray) -> np.ndarray:
    """``math.pow`` of each entry of 1-D ``base``, one float at a time, to
    ``exponent``, one value or one per entry: the C library's pow."""
    return elementwise(math.pow, base, np.broadcast_to(exponent, base.shape))


def hiou_loss_arrays(u: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Element-wise ``hiou_loss`` of 1-D ``u``; ``gamma`` is one value or one
    per element. ``u`` is not range-checked."""
    return elementwise(pow, 1.0 + u, np.broadcast_to(gamma, u.shape)) * (1.0 - u)


def hiou_slope_arrays(
    u: np.ndarray, gamma: float | np.ndarray, power=libm_power
) -> np.ndarray:
    """Element-wise ``hiou_slope`` of 1-D ``u``, with ``gamma`` as in
    :func:`hiou_loss_arrays` and (1 + u)^(gamma - 1) from ``power``."""
    return power(1.0 + u, gamma - 1.0) * (gamma * (1.0 - u) - (1.0 + u))


@dataclass(frozen=True)
class BatchArrays:
    """The kernel's output, every field computed by the kernel."""

    value: float
    grad_probs: np.ndarray
    grad_d: np.ndarray
    pos_loss: np.ndarray
    neg_loss: np.ndarray
    beta_r: np.ndarray
    beta_c: np.ndarray
    p_gt: np.ndarray
    iou: np.ndarray
    ce: np.ndarray
    sl1: np.ndarray
    loc: np.ndarray
    tc: np.ndarray

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
    """The batch objective over arrays, positives matched to ``anchors`` and
    ``gt`` in ``pos_idx`` order; negatives are rows ``neg_idx``."""
    if pos_idx.size == 0:
        raise ValueError("batch objective needs at least one positive sample")
    pp = probs[pos_idx]
    d = offsets[pos_idx]
    p_raw = probs[pos_idx, gt_class]
    p = np.maximum(p_raw, PROB_FLOOR)
    ce = -elementwise(math.log, p)
    grad_probs = np.zeros(probs.shape)
    grad_offsets = np.zeros(offsets.shape)

    u, du_dd = offset_iou_and_grad(d, anchors, gt)
    x = d - d_hat
    ax = np.abs(x)
    quadratic = ax < 1.0
    q = np.minimum(ax, 1.0)
    sl1 = np.where(quadratic, 0.5 * q * q, ax - 0.5).sum(axis=1)
    sl1_grad = np.where(quadratic, x, np.sign(x))
    loc = sl1 + hp.alpha * hiou_loss_arrays(u, hp.gamma)
    loc_grad = sl1_grad + (hp.alpha * hiou_slope_arrays(u, hp.gamma))[:, None] * du_dd

    if hp.freeze_factors:
        totals = ce + loc
        grad_probs[pos_idx, gt_class] = -1.0 / p
        grad_offsets[pos_idx] = loc_grad
        beta_r = beta_c = tc = np.zeros_like(p)
    else:
        beta_r = elementwise(math.exp, -loc)
        beta_c = elementwise(math.exp, -ce)

        logs = np.log(np.maximum(pp, PROB_FLOOR))
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
        tc_grad_d = (-signed)[:, None] * du_dd

        totals = (1.0 + beta_r) * ce + (1.0 + beta_c) * loc + tc
        dp = np.where(p_raw > PROB_FLOOR, loc * (beta_c / p) - (1.0 + beta_r) / p, 0.0)
        grad_probs[pos_idx, gt_class] += dp
        grad_offsets[pos_idx] = (
            (1.0 + beta_c)[:, None] * loc_grad
            - (ce * beta_r)[:, None] * loc_grad
            + tc_grad_d
        )

    neg_p = np.maximum(probs[neg_idx, 0], PROB_FLOOR)
    grad_probs[neg_idx, 0] = -1.0 / neg_p
    neg_loss = -elementwise(math.log, neg_p)
    total = float(np.concatenate([totals, neg_loss]).cumsum()[-1])
    return BatchArrays(
        value=total / pos_idx.size,
        grad_probs=grad_probs,
        grad_d=grad_offsets,
        pos_loss=totals,
        neg_loss=neg_loss,
        beta_r=beta_r,
        beta_c=beta_c,
        p_gt=p_raw,
        iou=u,
        ce=ce,
        sl1=sl1,
        loc=loc,
        tc=tc,
    )


def train_toy(
    scene_set: SceneSet, model: ToyModel, opt: OptimizerConfig, hp: HyperParams
) -> tuple[ToyModel, TrainLog]:
    """``harness.train_toy``'s descent and checks without its gradient gate,
    which changes no parameter: every step reads the objective's value."""
    hp_eff = hp.compat_standard() if opt.loss_mode == "standard" else hp
    model = model.copy()
    m = scene_set.matching
    records: list[TrainRecord] = []

    def log_state(step: int, batch: BatchArrays) -> None:
        # AIC summed one (p_gt, IoU) pair at a time
        total = 0.0
        for p, u in zip(batch.p_gt.tolist(), batch.iou.tolist()):
            total += abs(p - u)
        records.append(
            TrainRecord(
                step=step,
                objective=batch.value,
                mean_factor_r=float(np.mean(1.0 + batch.beta_r)),
                mean_factor_c=float(np.mean(1.0 + batch.beta_c)),
                aic=total / batch.p_gt.size,
            )
        )

    def objective(step: int) -> tuple[np.ndarray, BatchArrays]:
        probs = model.probs()
        finite = np.isfinite(probs)
        if not np.all(finite):
            row = int(np.argmin(finite.all(axis=1)))
            raise DivergenceError(step, "non-finite probabilities", row)
        _check_decode_cap(step, model.offsets[m.pos_flat], m.pos_flat)
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
        g = batch.grad_probs
        dots = np.matmul(g[:, None, :], probs[:, :, None])[:, :, 0]
        grad_logits = probs * (g - dots)
        scale = opt.learning_rate / batch.num_positives
        model.logits -= scale * grad_logits
        model.offsets -= scale * batch.grad_d

    _, batch = objective(opt.steps)
    log_state(opt.steps, batch)
    return model, TrainLog(tuple(records), batch.p_gt, batch.iou)


def train_offsets_only(
    m: Matching,
    runs: dict[str, float],
    opt: OptimizerConfig,
    exp=np.exp,
    power=np.power,
    vjp=decode_vjp_closed_form,
) -> np.ndarray:
    """Refine's stacked descent of the IoU-based loss, shaped (runs,
    positives, 4), over the four geometry calls. Its exp, power and chain
    are numpy's and the closed form, as refine takes them; with
    ``geom_reference.libm_exp``, ``libm_power`` and
    ``geom_reference.decode_vjp_arrays`` it is the same descent on libm and
    the BLAS product, which the tests bound refine's drift from."""
    n_runs = len(runs)
    anchors = np.tile(m.anchors, (n_runs, 1))
    gt = np.tile(m.gt, (n_runs, 1))
    gamma = np.repeat(list(runs.values()), m.pos_flat.size)
    names = [f" of the {name} run (gamma {g:g})" for name, g in runs.items()]
    d = np.zeros_like(anchors)
    for step in range(opt.steps):
        _check_decode_cap(step, d, m.pos_flat, names)
        u, du_dd = offset_iou_and_grad(d, anchors, gt, exp, vjp)
        d -= (opt.learning_rate * hiou_slope_arrays(u, gamma, power))[:, None] * du_dd
    _check_decode_cap(opt.steps, d, m.pos_flat, names)
    return d.reshape(n_runs, -1, 4)
