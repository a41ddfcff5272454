"""The gradient gate's per-draw reference: one draw at a time, every central
difference through the per-sample scalar functions.

``harness._gate_errors`` checks all draws at once on the array value forms;
the tests hold its errors to ``_check_one``'s bit for bit.
"""

from dataclasses import replace
from typing import Callable

import numpy as np

from hardet.geom import Box, Offsets, decode, decode_jacobian, iou, iou_grad
from hardet.harness import PROB_FD_STEP, finite_diff_grad
from hardet.losses import (
    HyperParams,
    PositiveSample,
    full_loc_loss,
    harmonic_cls_grad,
    harmonic_det_loss,
    harmonic_loss,
    harmonic_reg_grad,
    smooth_l1,
    tc_loss,
)


def _grad_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=float))
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _fd_probs(sample: PositiveSample, value_fn: Callable[[PositiveSample], float]) -> np.ndarray:
    return finite_diff_grad(lambda v: value_fn(sample.with_probs(v)), sample.probs, PROB_FD_STEP)


def _fd_offsets(sample: PositiveSample, value_fn: Callable[[PositiveSample], float]) -> np.ndarray:
    def fn(vec: np.ndarray) -> float:
        return value_fn(sample.with_d(Offsets.from_array(vec)))

    return finite_diff_grad(fn, sample.d.as_array())


def _check_one(
    sample: PositiveSample, pair: tuple[Box, Box], hp: HyperParams
) -> dict[str, Callable[[], float]]:
    """Per operation, a thunk for its max normalized analytic-vs-FD error on
    one draw, so that a failure can be charged to its operation."""
    # probability directions need the differentiable entropy weight
    hp_diff = replace(hp, beta_e_stop_grad=False)
    a, b = pair

    def iou_grad_err() -> float:
        fd = finite_diff_grad(lambda v: iou(Box.from_array(v), b), a.as_array())
        return _grad_err(iou_grad(a, b), fd)

    def decode_jacobian_err() -> float:
        fd_jac = np.array([
            finite_diff_grad(
                lambda v, r=r: decode(Offsets.from_array(v), sample.anchor).as_array()[r],
                sample.d.as_array(),
            )
            for r in range(4)
        ])
        return _grad_err(decode_jacobian(sample.d, sample.anchor).ravel(), fd_jac.ravel())

    def harmonic_cls_grad_err() -> float:
        loc, _ = full_loc_loss(sample, hp)
        loc_mode = smooth_l1(sample.d, sample.d_hat) if hp.harmonic_mode == "smooth_l1" else loc
        fd = _fd_probs(sample, lambda s: harmonic_loss(s, hp, loc_mode)[0])
        return _grad_err(harmonic_cls_grad(sample, loc_mode), fd[sample.gt_class])

    def probs_and_offsets_err(
        value_fn: Callable[[PositiveSample], float], grad_probs: np.ndarray, grad_d: np.ndarray
    ) -> float:
        err_p = _grad_err(grad_probs, _fd_probs(sample, value_fn))
        err_d = _grad_err(grad_d, _fd_offsets(sample, value_fn))
        return max(err_p, err_d)

    def tc_loss_err() -> float:
        _, _, tc_gp, tc_gd = tc_loss(sample, hp_diff)
        return probs_and_offsets_err(lambda s: tc_loss(s, hp_diff)[0], tc_gp, tc_gd)

    def harmonic_det_loss_err() -> float:
        bd = harmonic_det_loss(sample, hp_diff)
        return probs_and_offsets_err(
            lambda s: harmonic_det_loss(s, hp_diff).total, bd.grad_probs, bd.grad_d
        )

    return {
        "iou_grad": iou_grad_err,
        "decode_jacobian": decode_jacobian_err,
        "harmonic_cls_grad": harmonic_cls_grad_err,
        "harmonic_reg_grad": lambda: _grad_err(
            harmonic_reg_grad(sample, hp), _fd_offsets(sample, lambda s: harmonic_loss(s, hp)[0])
        ),
        "full_loc_loss": lambda: _grad_err(
            full_loc_loss(sample, hp)[1], _fd_offsets(sample, lambda s: full_loc_loss(s, hp)[0])
        ),
        "tc_loss": tc_loss_err,
        "harmonic_det_loss": harmonic_det_loss_err,
    }
