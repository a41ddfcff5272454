"""The gradient gate's references.

``_check_one`` is the per-draw reference: one draw at a time, every central
difference through the per-sample scalar functions. ``gate._gate_errors``
checks all draws at once on the array value forms; the tests hold its errors
to ``_check_one``'s bit for bit.

Below it, verbatim but for the plan the kernel now takes, are the gate's
functions from before each stepped copy of the row stack stopped taking a
kernel call of its own: the per-vector
``finite_diff_grad``, one ``loss_fn`` call per step, and the ``_gate_errors``,
``random_positive_sample`` and ``_random_box_pair`` built on it and on
validated ``Box`` objects. The tests hold the gate's errors and draws to them
bit for bit.
"""

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from hardet.geom import (
    AnchorTargets,
    Box,
    Offsets,
    corners,
    decode,
    decode_arrays,
    decode_jacobian,
    encode,
    iou,
    iou_arrays,
    iou_grad,
)
from hardet.gate import (
    BATCH_NEGATIVES,
    BATCH_POSITIVES,
    KINK_MARGIN,
    PROB_DRAW_FLOOR,
    PROB_FD_STEP,
    NumericalError,
    _grad_err,
)
from hardet.losses import (
    BatchArrays,
    HyperParams,
    KernelPlan,
    PositiveSample,
    batch_objective_arrays,
    full_loc_loss,
    harmonic_cls_grad,
    harmonic_det_loss,
    harmonic_loss,
    harmonic_reg_grad,
    tc_loss,
)


def _draw_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=float))
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _fd_probs(sample: PositiveSample, value_fn: Callable[[PositiveSample], float]) -> np.ndarray:
    return finite_diff_grad(
        lambda v: value_fn(replace(sample, probs=v)), sample.probs, PROB_FD_STEP
    )


def _fd_offsets(sample: PositiveSample, value_fn: Callable[[PositiveSample], float]) -> np.ndarray:
    def fn(vec: np.ndarray) -> float:
        return value_fn(replace(sample, d=Offsets.from_array(vec)))

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
        return _draw_err(iou_grad(a, b), fd)

    def decode_jacobian_err() -> float:
        fd_jac = np.array([
            finite_diff_grad(
                lambda v, r=r: decode(Offsets.from_array(v), sample.anchor).as_array()[r],
                sample.d.as_array(),
            )
            for r in range(4)
        ])
        return _draw_err(decode_jacobian(sample.d, sample.anchor).ravel(), fd_jac.ravel())

    def harmonic_cls_grad_err() -> float:
        loc, _ = full_loc_loss(sample, hp)
        fd = _fd_probs(sample, lambda s: harmonic_loss(s, hp, loc)[0])
        return _draw_err(harmonic_cls_grad(sample, loc), fd[sample.gt_class])

    def probs_and_offsets_err(
        value_fn: Callable[[PositiveSample], float], grad_probs: np.ndarray, grad_d: np.ndarray
    ) -> float:
        err_p = _draw_err(grad_probs, _fd_probs(sample, value_fn))
        err_d = _draw_err(grad_d, _fd_offsets(sample, value_fn))
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
        "harmonic_reg_grad": lambda: _draw_err(
            harmonic_reg_grad(sample, hp), _fd_offsets(sample, lambda s: harmonic_loss(s, hp)[0])
        ),
        "full_loc_loss": lambda: _draw_err(
            full_loc_loss(sample, hp)[1], _fd_offsets(sample, lambda s: full_loc_loss(s, hp)[0])
        ),
        "tc_loss": tc_loss_err,
        "harmonic_det_loss": harmonic_det_loss_err,
    }


# --- the gate before one kernel call per set of hyperparameters ---------------


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], float | np.ndarray], params: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a function of a vector, one step per
    axis. A vector-valued ``loss_fn`` gives its Jacobian, one row per output."""
    if h <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    params = np.asarray(params, dtype=float)
    columns = []
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        hi = np.asarray(loss_fn(params + step), dtype=float)
        lo = np.asarray(loss_fn(params - step), dtype=float)
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise ValueError(f"loss not finite near params[{k}]")
        columns.append((hi - lo) / (2.0 * h))
    return np.array(columns).T


def random_positive_sample(
    rng: np.random.Generator, hp: HyperParams, num_classes: int
) -> PositiveSample:
    """Rejection-sample a valid sample of ``num_classes`` classes away from
    every loss breakpoint.

    Avoided kinks: decoded-vs-gt corner ties and touching edges, smooth-L1
    curvature breaks at |x| = 1, the TC hinge boundary and the |p - IoU|
    crease, each by ``KINK_MARGIN``, and class probabilities below the draw
    floor (:func:`check_draw_floor`). Raises :class:`NumericalError` when no
    draw qualifies, as with so many classes that the floor is out of reach.
    """
    floor = PROB_DRAW_FLOOR
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
        if np.any(np.abs(diffs - 1.0) < KINK_MARGIN):
            continue
        decoded = decode(d, anchor)
        da, ga = decoded.as_array(), gt.as_array()
        if np.any(np.abs(da - ga) < KINK_MARGIN):
            continue
        iw = min(decoded.x2, gt.x2) - max(decoded.x1, gt.x1)
        ih = min(decoded.y2, gt.y2) - max(decoded.y1, gt.y1)
        if iw < KINK_MARGIN or ih < KINK_MARGIN:
            continue
        u = iou(decoded, gt)
        probs = rng.dirichlet(np.ones(num_classes))
        gt_class = int(rng.integers(1, num_classes))
        p = float(probs[gt_class])
        if p < 0.02 or p > 0.98 or np.any(probs < floor):
            continue
        if abs(p - u) < KINK_MARGIN or abs(abs(p - u) - hp.margin) < KINK_MARGIN:
            continue
        return PositiveSample(probs=probs, gt_class=gt_class, d=d, anchor=anchor, gt_box=gt)
    raise NumericalError(
        "gradcheck could not draw a kink-free sample in 10000 tries with every one of "
        f"num_classes {num_classes} probabilities at or above the draw floor {floor:g}"
    )


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


def _gate_errors(
    draws: Sequence[tuple[PositiveSample, tuple[Box, Box]]],
    batches: Sequence[tuple[list[PositiveSample], list[np.ndarray]]],
    hp: HyperParams,
) -> dict[str, Callable[[], np.ndarray]]:
    """Per operation of :data:`GRADCHECK_OPS`, in order, a thunk for every
    draw's max normalized analytic-vs-FD error, so that a failure can be
    charged to its operation.

    The gradients under test come from the per-sample functions, one call
    per sample draw, and from one :func:`batch_objective_arrays` call for
    all batch draws. The central differences run on the array value forms
    over one row stack: the sample draws, then every batch draw's positives,
    then its negatives. A row's value depends on its own row's inputs only,
    so stepping one input column in every row at once differences every
    draw. The kernel is evaluated once per stepped column and read by every
    entry that differences it: 1 + 2 (C + 4) kernel calls when the entries
    share their hyperparameters, as in harmonic mode, 1 + 4 (C + 4) under
    frozen factors. A batch draw's errors are normalized as for its
    objective, whose gradient is the per-row gradient over its positive count.
    """
    samples = [s for s, _ in draws]
    n = len(samples)
    positives = samples + [s for pos, _ in batches for s in pos]
    negatives = [p for _, neg in batches for p in neg]
    n_pos, n_rows = len(positives), len(positives) + len(negatives)
    probs = np.array([s.probs for s in positives] + negatives)
    num_classes = probs.shape[1]
    offsets = np.zeros((n_rows, 4))
    offsets[:n_pos] = [s.d.as_array() for s in positives]
    anchors = corners([s.anchor for s in positives])
    gt_class = np.array([s.gt_class for s in positives])
    fixed = (
        AnchorTargets(anchors, corners([s.gt_box for s in positives])),
        gt_class,
        np.array([s.d_hat.as_array() for s in positives]),
    )
    # probability directions need the differentiable entropy weight; the
    # scalar harmonic_loss and tc_loss ignore freeze_factors (no value
    # depends on beta_e_stop_grad)
    hp_diff = replace(hp, beta_e_stop_grad=False)
    hp_free = replace(hp_diff, freeze_factors=False)
    evaluated: dict[tuple, BatchArrays] = {}

    def kernel(kernel_hp: HyperParams, p: np.ndarray, d: np.ndarray) -> BatchArrays:
        """The kernel over the stack at (p, d), evaluated once per distinct input."""
        key = (kernel_hp, p.tobytes(), d.tobytes())
        if key not in evaluated:
            evaluated[key] = batch_objective_arrays(p, d, KernelPlan(*fixed, kernel_hp, num_classes))
        return evaluated[key]

    def fd(
        kernel_hp: HyperParams, values: Callable[[BatchArrays], np.ndarray], wrt: str
    ) -> np.ndarray:
        """(value rows, columns) central differences of ``values`` of the
        kernel, stepping each column of ``wrt``, "probs" or "offsets"."""
        if wrt == "probs":
            return finite_diff_grad(
                lambda v: values(kernel(kernel_hp, probs + v, offsets)),
                np.zeros(num_classes),
                PROB_FD_STEP,
            )
        return finite_diff_grad(
            lambda v: values(kernel(kernel_hp, probs, offsets + v)), np.zeros(4)
        )

    def fd_err(
        kernel_hp: HyperParams,
        values: Callable[[BatchArrays], np.ndarray],
        grad_probs: np.ndarray,
        grad_d: np.ndarray,
        per: int = 1,
    ) -> np.ndarray:
        """Per gradient row, the error of both gradients against the
        differences of as many leading rows of ``values``, all over ``per``."""
        m = len(grad_probs)
        return np.maximum(
            _grad_err(grad_probs / per, fd(kernel_hp, values, "probs")[:m] / per),
            _grad_err(grad_d / per, fd(kernel_hp, values, "offsets")[:m] / per),
        )

    def harmonic(b: BatchArrays) -> np.ndarray:
        """Per sample draw, :func:`harmonic_loss`."""
        return ((1.0 + b.beta_r) * b.ce + (1.0 + b.beta_c) * b.loc)[:n]

    def stacked(row_of: Callable[[PositiveSample], np.ndarray]) -> np.ndarray:
        return np.array([row_of(s) for s in samples])

    def iou_grad_err() -> np.ndarray:
        a = corners([a for _, (a, _) in draws])
        b = corners([b for _, (_, b) in draws])
        numeric = finite_diff_grad(lambda v: iou_arrays(a + v, b), np.zeros(4))
        return _grad_err(np.array([iou_grad(*pair) for _, pair in draws]), numeric)

    def decode_jacobian_err() -> np.ndarray:
        # the corner-valued decode gives one (corner, offset) Jacobian per draw
        numeric = finite_diff_grad(
            lambda v: decode_arrays(offsets[:n] + v, anchors[:n]).ravel(), np.zeros(4)
        )
        analytic = stacked(lambda s: decode_jacobian(s.d, s.anchor))
        return _grad_err(analytic, numeric.reshape(-1, 4, 4))

    def harmonic_cls_grad_err() -> np.ndarray:
        analytic = stacked(lambda s: harmonic_cls_grad(s, full_loc_loss(s, hp)[0]))
        # the loc does not depend on the probabilities: the probability
        # difference of harmonic_loss is its fixed-loc difference
        return _grad_err(analytic, fd(hp_free, harmonic, "probs")[np.arange(n), gt_class[:n]])

    def tc_loss_err() -> np.ndarray:
        grads = [tc_loss(s, hp_diff)[2:] for s in samples]
        grad_probs, grad_d = (np.array(g) for g in zip(*grads))
        return fd_err(hp_free, lambda b: b.tc[:n], grad_probs, grad_d)

    def harmonic_det_loss_err() -> np.ndarray:
        breakdowns = [harmonic_det_loss(s, hp_diff) for s in samples]
        grad_probs = np.array([bd.grad_probs for bd in breakdowns])
        grad_d = np.array([bd.grad_d for bd in breakdowns])
        return fd_err(hp_diff, lambda b: b.pos_loss[:n], grad_probs, grad_d)

    # each batch draw's rows, positives first; the first BATCH_POSITIVES
    # positives belong to draw 0, and so on
    n_batch = n_pos - n
    draw = np.concatenate([
        np.arange(n_batch) // BATCH_POSITIVES, np.arange(len(negatives)) // BATCH_NEGATIVES
    ])

    def batch_values(b: BatchArrays) -> np.ndarray:
        # each batch row's loss, then each batch draw's summed loss, so that
        # the finite check also fails a draw whose objective overflows
        rows = np.concatenate([b.pos_loss[n:], b.neg_loss])
        return np.concatenate([rows, np.bincount(draw, weights=rows)])

    def batch_objective_err() -> np.ndarray:
        if not batches:
            return np.zeros(0)
        b = kernel(hp_diff, probs, offsets)
        err = fd_err(hp_diff, batch_values, b.grad_probs[n:], b.grad_d[n:], BATCH_POSITIVES)
        return np.maximum(
            err[:n_batch].reshape(-1, BATCH_POSITIVES).max(axis=1),
            err[n_batch:].reshape(-1, BATCH_NEGATIVES).max(axis=1),
        )

    return {
        "iou_grad": iou_grad_err,
        "decode_jacobian": decode_jacobian_err,
        "harmonic_cls_grad": harmonic_cls_grad_err,
        "harmonic_reg_grad": lambda: _grad_err(
            stacked(lambda s: harmonic_reg_grad(s, hp)), fd(hp_free, harmonic, "offsets")
        ),
        "full_loc_loss": lambda: _grad_err(
            stacked(lambda s: full_loc_loss(s, hp)[1]), fd(hp_free, lambda b: b.loc[:n], "offsets")
        ),
        "tc_loss": tc_loss_err,
        "harmonic_det_loss": harmonic_det_loss_err,
        "batch_objective": batch_objective_err,
    }
