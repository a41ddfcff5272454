"""The finite-difference gradient gate: :func:`run_gradcheck` checks every
analytic gradient of :data:`GRADCHECK_OPS` on seeded draws clear of the
losses' kinks, within :data:`GRADCHECK_TOLERANCE`, before training runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .geom import (
    AnchorTargets,
    Box,
    Offsets,
    _jittered_box,
    corners,
    decode,
    decode_arrays,
    decode_jacobian,
    encode,
    iou,
    iou_arrays,
    iou_grad,
)
from .losses import (
    BatchArrays,
    HyperParams,
    KernelPlan,
    PositiveSample,
    batch_objective_arrays,
    full_loc_loss,
    harmonic_cls_grad,
    harmonic_det_loss,
    harmonic_reg_grad,
    tc_loss,
)


class NumericalError(RuntimeError):
    """A computation failed numerically (divergence, failed gradient gate)."""


class GradientCheckError(NumericalError):
    """Raised when the pre-training finite-difference gate fails; names every
    operation over tolerance. ``op`` is the one with the largest error, a NaN
    counting as the largest."""

    def __init__(self, failed: Sequence[GradCheckEntry]):
        worst = max(failed, key=lambda e: (math.isnan(e.max_err), e.max_err))
        super().__init__(
            "gradcheck failed for "
            + "; ".join(
                f"{e.op}: max error {e.max_err:.3e} > tolerance {GRADCHECK_TOLERANCE:.3e} "
                f"at draw {e.worst_draw}"
                for e in failed
            )
        )
        self.op = worst.op
        self.max_err = worst.max_err


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    h: float | np.ndarray = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a function of a K-vector, all 2 K steps
    in one call: ``loss_fn`` maps the (2 K, K) stack of ``params`` stepped up
    along each axis, then down along each, to the stack of their values. ``h``
    is the step, one for every axis or one per axis. A vector-valued function
    gives its Jacobian, one row per output."""
    params = np.asarray(params, dtype=float)
    steps = np.broadcast_to(np.asarray(h, dtype=float), params.shape)
    if not np.all(steps > 0.0):
        raise ValueError(f"finite-difference step must be positive, got {h}")
    k = params.size
    stack = np.concatenate([params + np.diag(steps), params - np.diag(steps)])
    values = np.asarray(loss_fn(stack), dtype=float)
    hi, lo = values[:k], values[k:]
    finite = np.isfinite(hi).reshape(k, -1).all(axis=1) & np.isfinite(lo).reshape(k, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"loss not finite near params[{np.argmin(finite)}]")
    return ((hi - lo) / (2.0 * steps).reshape(-1, *[1] * (hi.ndim - 1))).T


# --- finite-difference gate -------------------------------------------------

# largest normalized analytic-vs-FD error an operation may show and pass
GRADCHECK_TOLERANCE = 1e-5
PROB_FD_STEP = 5e-7  # keeps perturbed vectors inside the sum-to-one tolerance
# smallest class probability an oracle draw may hold: near 1e-5 the truncation
# error of the PROB_FD_STEP central difference alone exceeds GRADCHECK_TOLERANCE
PROB_DRAW_FLOOR = 1e-3
KINK_MARGIN = 1e-3


def _grad_err(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Per row (first axis), the max normalized analytic-vs-FD error over the
    row's entries; a NaN entry makes its row's error NaN."""
    analytic = np.asarray(analytic, dtype=float).reshape(len(analytic), -1)
    numeric = np.asarray(numeric, dtype=float).reshape(len(numeric), -1)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.max(np.abs(analytic - numeric) / denom, axis=1)


def _kink_free_overlap(a: Box, b: Box) -> bool:
    """Whether boxes ``a`` and ``b`` overlap at least ``KINK_MARGIN`` wide and
    high, with no corner of one within ``KINK_MARGIN`` of the other's."""
    if min(abs(a.x1 - b.x1), abs(a.y1 - b.y1), abs(a.x2 - b.x2), abs(a.y2 - b.y2)) < KINK_MARGIN:
        return False
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    return iw >= KINK_MARGIN and ih >= KINK_MARGIN


def random_positive_sample(
    rng: np.random.Generator, hp: HyperParams, num_classes: int
) -> PositiveSample:
    """Rejection-sample a valid sample of ``num_classes`` classes away from
    every loss breakpoint.

    Avoided kinks: decoded-vs-gt corner ties and touching edges, the TC
    hinge boundary and the |p - IoU| crease, each by ``KINK_MARGIN``, and
    class probabilities below the draw floor (:func:`check_draw_floor`). The
    smooth-L1 curvature breaks at |d - d_hat| = 1 are out of reach: the
    offset noise is at most 0.5. Raises :class:`NumericalError` when no draw
    qualifies, as with so many classes that the floor is out of reach.
    """
    concentration = np.ones(num_classes)
    for _ in range(10_000):
        cx, cy = rng.uniform(5.0, 11.0, size=2).tolist()
        w, h = rng.uniform(2.0, 4.0, size=2).tolist()
        anchor = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        gt = Box(*_jittered_box(cx, cy, w, h, rng.uniform(-0.3, 0.3, size=4).tolist()))
        d_hat = encode(gt, anchor)
        d = Offsets.from_array(d_hat.as_array() + rng.uniform(-0.5, 0.5, size=4))
        decoded = decode(d, anchor)
        if not _kink_free_overlap(decoded, gt):
            continue
        u = iou(decoded, gt)
        probs = rng.dirichlet(concentration)
        gt_class = int(rng.integers(1, num_classes))
        p = float(probs[gt_class])
        if p < 0.02 or p > 0.98 or probs.min() < PROB_DRAW_FLOOR:
            continue
        if abs(p - u) < KINK_MARGIN or abs(abs(p - u) - hp.margin) < KINK_MARGIN:
            continue
        return PositiveSample(probs, gt_class, d, anchor, gt)
    raise NumericalError(
        "gradcheck could not draw a kink-free sample in 10000 tries with every one of "
        f"num_classes {num_classes} probabilities at or above the draw floor {PROB_DRAW_FLOOR:g}"
    )


def _random_box_pair(rng: np.random.Generator) -> tuple[Box, Box]:
    """Overlapping box pair with no coincident or touching edges."""
    while True:
        cx, cy = rng.uniform(4.0, 12.0, size=2).tolist()
        w, h = rng.uniform(2.0, 5.0, size=2).tolist()
        a = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        shifts = rng.uniform(-0.6, 0.6, size=2).tolist()
        b = Box(*_jittered_box(cx, cy, w, h, shifts + rng.uniform(-0.4, 0.4, size=2).tolist()))
        if _kink_free_overlap(a, b):
            return a, b


@dataclass(frozen=True)
class GradCheckEntry:
    """One operation's largest error over its ``samples`` draws, and the index
    of the draw it came from; with the seed, the draw replays."""

    op: str
    samples: int
    max_err: float
    worst_draw: int

    @property
    def passed(self) -> bool:
        return self.max_err <= GRADCHECK_TOLERANCE


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple[GradCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _gate_errors(
    draws: Sequence[tuple[PositiveSample, tuple[Box, Box]]],
    batches: Sequence[tuple[list[PositiveSample], list[np.ndarray]]],
    hp: HyperParams,
) -> dict[str, Callable[[], np.ndarray]]:
    """Per operation of :data:`GRADCHECK_OPS`, in order, a thunk for every
    draw's max normalized analytic-vs-FD error, so that a failure can be
    charged to its operation.

    The gradients under test come from the per-sample functions, one call
    per function and sample draw (they share one localization pass per
    draw), and from one :func:`batch_objective_arrays` call for all batch
    draws. The central differences run on the array value forms over one
    row stack: the sample draws, then every batch draw's positives, then its
    negatives. A row's value depends on its own row's inputs only, so
    stepping one input column in every row at once differences every draw.
    The 2 (C + 4) stepped copies of the stack, each of the C probability
    columns and then each of the 4 offset columns stepped up, then each
    stepped down, go through the kernel as one call, every copy's positives
    leading every copy's negatives, once per set of hyperparameters and read
    by every entry that differences it: with the analytic call, 2 kernel
    calls when the entries share their hyperparameters, as in harmonic
    mode, 3 under frozen factors (and a call per block of whole copies past
    :data:`MAX_GATE_ROWS` rows). ``iou_arrays`` and ``decode_arrays`` each
    run once on their own stepped stack. A batch draw's errors are
    normalized as for its objective, whose gradient is the per-row gradient
    over its positive count.
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
    inputs = np.concatenate([probs, offsets], axis=1)
    anchors = corners([s.anchor for s in positives])
    gt_boxes = corners([s.gt_box for s in positives])
    gt_class = np.array([s.gt_class for s in positives])
    d_hat = np.array([s.d_hat.as_array() for s in positives])
    # the step of each input column; the offsets take finite_diff_grad's default
    steps = np.repeat([PROB_FD_STEP, 1e-6], [num_classes, 4])
    # probability directions need the differentiable entropy weight; the
    # scalar harmonic_loss and tc_loss ignore freeze_factors (no value
    # depends on beta_e_stop_grad)
    hp_diff = replace(hp, beta_e_stop_grad=False)
    hp_free = replace(hp_diff, freeze_factors=False)
    evaluated: dict[HyperParams, list[BatchArrays]] = {}
    # stepped copies per kernel call: at least one, and no more than
    # MAX_GATE_ROWS rows unless one copy holds more
    per_call = max(1, MAX_GATE_ROWS // n_rows)

    def kernel(kernel_hp: HyperParams, stack: np.ndarray) -> BatchArrays:
        """The kernel over a (copies, rows, C + 4) stack of inputs: every copy's
        positives, then every copy's negatives, each block copy-major; on a
        plan of its own, as every call's rows differ."""
        copies, width = len(stack), num_classes + 4
        rows = np.concatenate([stack[:, :n_pos], stack[:, n_pos:]], axis=None).reshape(-1, width)
        plan = KernelPlan(
            AnchorTargets(np.tile(anchors, (copies, 1)), np.tile(gt_boxes, (copies, 1))),
            np.tile(gt_class, copies),
            np.tile(d_hat, (copies, 1)),
            kernel_hp,
            num_classes,
        )
        return batch_objective_arrays(rows[:, :num_classes], rows[:, num_classes:], plan)

    def fd(kernel_hp: HyperParams, values: Callable[[BatchArrays], np.ndarray]) -> np.ndarray:
        """(value rows, C + 4) central differences of ``values`` of the
        kernel, one column per input column, the probabilities' then the
        offsets'; ``values`` maps an evaluation of some copies to one row of
        values per copy. finite_diff_grad hands every call the same stepped
        stack, so it is evaluated once per set of hyperparameters."""

        def stepped(vs: np.ndarray) -> np.ndarray:
            if kernel_hp not in evaluated:
                evaluated[kernel_hp] = [
                    kernel(kernel_hp, inputs + vs[k : k + per_call, None])
                    for k in range(0, len(vs), per_call)
                ]
            return np.concatenate([values(b) for b in evaluated[kernel_hp]])

        return finite_diff_grad(stepped, np.zeros(num_classes + 4), steps)

    def fd_err(
        kernel_hp: HyperParams,
        values: Callable[[BatchArrays], np.ndarray],
        grad_probs: np.ndarray,
        grad_d: np.ndarray,
        per: int = 1,
    ) -> np.ndarray:
        """Per gradient row, the error of both gradients against the
        differences of as many leading rows of ``values``, all over ``per``."""
        numeric = fd(kernel_hp, values)[: len(grad_probs)] / per
        return np.maximum(
            _grad_err(grad_probs / per, numeric[:, :num_classes]),
            _grad_err(grad_d / per, numeric[:, num_classes:]),
        )

    def positive(values: np.ndarray) -> np.ndarray:
        """Per-positive values of a kernel evaluation, one row per copy."""
        return values.reshape(-1, n_pos)

    def harmonic(b: BatchArrays) -> np.ndarray:
        """Per sample draw, :func:`harmonic_loss`."""
        return positive((1.0 + b.beta_r) * b.ce + (1.0 + b.beta_c) * b.loc)[:, :n]

    def stacked(row_of: Callable[[PositiveSample], np.ndarray]) -> np.ndarray:
        return np.array([row_of(s) for s in samples])

    def iou_grad_err() -> np.ndarray:
        a = corners([a for _, (a, _) in draws])
        b = corners([b for _, (_, b) in draws])
        numeric = finite_diff_grad(lambda vs: iou_arrays(a + vs[:, None], b), np.zeros(4))
        return _grad_err(np.array([iou_grad(*pair) for _, pair in draws]), numeric)

    def decode_jacobian_err() -> np.ndarray:
        # the corner-valued decode gives one (corner, offset) Jacobian per draw
        def decoded(vs: np.ndarray) -> np.ndarray:
            stack = (offsets[:n] + vs[:, None]).reshape(-1, 4)
            return decode_arrays(stack, np.tile(anchors[:n], (len(vs), 1))).reshape(len(vs), -1)

        numeric = finite_diff_grad(decoded, np.zeros(4))
        analytic = stacked(lambda s: decode_jacobian(s.d, s.anchor))
        return _grad_err(analytic, numeric.reshape(-1, 4, 4))

    def harmonic_cls_grad_err() -> np.ndarray:
        analytic = stacked(lambda s: harmonic_cls_grad(s, full_loc_loss(s, hp)[0]))
        # the loc does not depend on the probabilities: the probability
        # difference of harmonic_loss is its fixed-loc difference
        return _grad_err(analytic, fd(hp_free, harmonic)[np.arange(n), gt_class[:n]])

    def tc_loss_err() -> np.ndarray:
        grads = [tc_loss(s, hp_diff)[2:] for s in samples]
        grad_probs, grad_d = (np.array(g) for g in zip(*grads))
        return fd_err(hp_free, lambda b: positive(b.tc)[:, :n], grad_probs, grad_d)

    def harmonic_det_loss_err() -> np.ndarray:
        breakdowns = [harmonic_det_loss(s, hp_diff) for s in samples]
        grad_probs = np.array([bd.grad_probs for bd in breakdowns])
        grad_d = np.array([bd.grad_d for bd in breakdowns])
        return fd_err(hp_diff, lambda b: positive(b.pos_loss)[:, :n], grad_probs, grad_d)

    # each batch draw's rows, positives first; the first BATCH_POSITIVES
    # positives belong to draw 0, and so on
    n_batch = n_pos - n
    draw = np.concatenate([
        np.arange(n_batch) // BATCH_POSITIVES, np.arange(len(negatives)) // BATCH_NEGATIVES
    ])

    def batch_values(b: BatchArrays) -> np.ndarray:
        # each batch row's loss, then each batch draw's summed loss, so that
        # the finite check also fails a draw whose objective overflows
        pos = positive(b.pos_loss)
        rows = np.concatenate([pos[:, n:], b.neg_loss.reshape(len(pos), -1)], axis=1)
        # one bin per draw and copy, each summed in row order
        bins = draw + len(batches) * np.arange(len(rows))[:, None]
        sums = np.bincount(bins.ravel(), weights=rows.ravel()).reshape(len(rows), -1)
        return np.concatenate([rows, sums], axis=1)

    def batch_objective_err() -> np.ndarray:
        b = kernel(hp_diff, inputs[None])
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
            stacked(lambda s: harmonic_reg_grad(s, hp)), fd(hp_free, harmonic)[:, num_classes:]
        ),
        "full_loc_loss": lambda: _grad_err(
            stacked(lambda s: full_loc_loss(s, hp)[1]),
            fd(hp_free, lambda b: positive(b.loc)[:, :n])[:, num_classes:],
        ),
        "tc_loss": tc_loss_err,
        "harmonic_det_loss": harmonic_det_loss_err,
        "batch_objective": batch_objective_err,
    }


# the batch draws that check the training kernel, and the rows of each
BATCH_DRAWS = 4
BATCH_POSITIVES = 4
BATCH_NEGATIVES = 3
# largest row stack the gate's kernel call evaluates at once: the train gate's
# 20 draws take one call, and a 500-draw sweep stays within 2 MB of
# temporaries per call (tracemalloc)
MAX_GATE_ROWS = 2048
# most draws one sweep takes, all held at once: 10 000 draws of 5 classes peak
# at 67 MiB traced (tracemalloc) and run 12 s on one core of a 2-core x86-64 host
MAX_GATE_SAMPLES = 10_000


def check_draw_floor(num_classes: int) -> None:
    """Raise ``ValueError`` when the gate's draw floor leaves it nothing to
    draw: ``num_classes`` probabilities that sum to 1 cannot all reach it."""
    if num_classes * PROB_DRAW_FLOOR >= 1.0:
        raise ValueError(
            f"{num_classes} class probabilities summing to 1 cannot all reach the "
            f"gradient gate's draw floor {PROB_DRAW_FLOOR:g}"
        )


def _random_batch(
    rng: np.random.Generator, hp: HyperParams, num_classes: int
) -> tuple[list[PositiveSample], list[np.ndarray]]:
    """One batch draw: kink-free positives and background probability rows."""
    positives = [random_positive_sample(rng, hp, num_classes) for _ in range(BATCH_POSITIVES)]
    negatives = []
    for _ in range(BATCH_NEGATIVES):
        probs = rng.dirichlet(np.ones(num_classes))
        if np.any(probs < PROB_DRAW_FLOOR):
            probs = (probs + PROB_DRAW_FLOOR) / (1.0 + num_classes * PROB_DRAW_FLOOR)
        negatives.append(probs)
    return positives, negatives


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
    hp: HyperParams, num_classes: int, num_samples: int, seed: int = 0
) -> GradCheckReport:
    """Analytic-vs-FD sweep over every differentiated operation, on draws of
    ``num_classes`` class probabilities.

    ``num_samples`` draws check the per-sample operations, and
    :data:`BATCH_DRAWS` batch draws, drawn after them, check
    :func:`batch_objective_arrays`, the kernel that trains; every draw is
    checked at once, in one gate pass (:func:`_gate_errors`), and each entry
    counts the draws of its kind as its ``samples``. Errors are
    normalized by max(1, |gradient|) and reduced by max over the draws; an
    entry passes within :data:`GRADCHECK_TOLERANCE`. At least one sample is
    required, so that no entry passes without checking anything, at most
    :data:`MAX_GATE_SAMPLES`, and :func:`check_draw_floor` must pass. Raises
    :class:`NumericalError`, naming the operation, when a check fails to
    compute, as when a loss is not finite near a draw.
    """
    if num_samples < 1:
        raise ValueError(f"gradcheck needs at least one sample, got {num_samples}")
    if num_samples > MAX_GATE_SAMPLES:
        raise ValueError(f"gradcheck samples must be <= {MAX_GATE_SAMPLES}, got {num_samples}")
    check_draw_floor(num_classes)

    def computed(op: str, err: Callable[[], np.ndarray]) -> np.ndarray:
        try:
            # an overflow shows as a non-finite loss or error, which the
            # checks report, not as a warning
            with np.errstate(all="ignore"):
                return err()
        except ValueError as exc:
            raise NumericalError(f"gradcheck {op}: {exc}") from exc

    rng = np.random.default_rng(seed)
    draws = [
        (random_positive_sample(rng, hp, num_classes), _random_box_pair(rng))
        for _ in range(num_samples)
    ]
    batches = [_random_batch(rng, hp, num_classes) for _ in range(BATCH_DRAWS)]
    errors = {op: computed(op, err) for op, err in _gate_errors(draws, batches, hp).items()}

    def entry(op: str) -> GradCheckEntry:
        # argmax picks a NaN error first, so a NaN fails the entry
        worst = int(np.argmax(errors[op]))
        samples = BATCH_DRAWS if op == "batch_objective" else num_samples
        return GradCheckEntry(op, samples, float(errors[op][worst]), worst)

    return GradCheckReport(tuple(entry(op) for op in GRADCHECK_OPS))
