"""Axis-aligned box geometry: IoU with analytic gradients, offset coding.

Boxes use the (x1, y1, x2, y2) corner convention and serialize as plain
4-element arrays everywhere in this package. Offsets follow the usual
(dx, dy, log dw, log dh) parameterization relative to an anchor box.
All functions are safe to call concurrently; none writes its arguments, but
for the workspace its caller lends :func:`offset_iou_and_grad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DECODE_LOG_CAP = 16.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box coordinate {name} is not finite: {v!r}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"box corners out of order: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=float)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "Box":
        if len(values) != 4:
            raise ValueError(f"box needs exactly 4 coordinates, got {len(values)}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))


@dataclass(frozen=True)
class Offsets:
    """Regression offsets (tx, ty, tw, th) relative to an anchor."""

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self) -> None:
        for name in ("tx", "ty", "tw", "th"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"offset component {name} is not finite: {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tw, self.th], dtype=float)

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "Offsets":
        if len(values) != 4:
            raise ValueError(f"offsets need exactly 4 components, got {len(values)}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))


def iou(a: Box, b: Box) -> float:
    """Intersection over union in [0, 1]; 0 when the union has zero area."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_grad(a: Box, b: Box) -> np.ndarray:
    """Gradient of iou(a, b) with respect to a's corners (x1, y1, x2, y2).

    Piecewise analytic. At kinks the one-sided derivative is chosen so that
    zero-width contact counts as overlapping (ascending the gradient moves a
    toward b) and at exactly coincident corners the other box is treated as
    the one bounding the intersection.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter_w = max(0.0, iw)
    inter_h = max(0.0, ih)
    inter = inter_w * inter_h
    union = a.area + b.area - inter
    if union <= 0.0:
        raise ValueError("iou gradient undefined for a degenerate union")

    # Clamp subgradient: active at exact contact (iw == 0 or ih == 0).
    w_active = 1.0 if iw >= 0.0 else 0.0
    h_active = 1.0 if ih >= 0.0 else 0.0

    # Binding of the min/max that form the intersection; ties go to b.
    dw_dax1 = -1.0 if a.x1 > b.x1 else 0.0
    dw_dax2 = 1.0 if a.x2 < b.x2 else 0.0
    dh_day1 = -1.0 if a.y1 > b.y1 else 0.0
    dh_day2 = 1.0 if a.y2 < b.y2 else 0.0

    d_inter = np.array(
        [
            dw_dax1 * w_active * inter_h,
            dh_day1 * h_active * inter_w,
            dw_dax2 * w_active * inter_h,
            dh_day2 * h_active * inter_w,
        ]
    )
    d_area = np.array([-a.height, -a.width, a.height, a.width])
    d_union = d_area - d_inter
    return (d_inter * union - inter * d_union) / (union * union)


# what each offset computes from the boxes, as encode's range failure names it
_OFFSET_RATIOS = (
    "tx = (gt center x - anchor center x) / anchor width",
    "ty = (gt center y - anchor center y) / anchor height",
    "tw = log(gt width / anchor width)",
    "th = log(gt height / anchor height)",
)


def encode(gt: Box, anchor: Box) -> Offsets:
    """Offsets that map ``anchor`` onto ``gt``; both boxes must have positive
    size. Raises ``FloatingPointError``, naming the offset and its ratio,
    when a ratio leaves the float range: a shift or size ratio that
    overflows, or a size ratio that underflows to 0."""
    aw, ah, gw, gh = anchor.width, anchor.height, gt.width, gt.height
    if aw <= 0.0 or ah <= 0.0:
        raise ValueError("cannot encode against a degenerate anchor")
    if gw <= 0.0 or gh <= 0.0:
        raise ValueError("cannot encode a degenerate ground-truth box")
    acx, acy = anchor.center
    gcx, gcy = gt.center
    parts = ((gcx - acx, aw), (gcy - acy, ah), (gw, aw), (gh, ah))
    ratios = tx, ty, sw, sh = [num / den for num, den in parts]
    # written so that NaN fails these checks too
    valid = (abs(tx) < math.inf, abs(ty) < math.inf, 0.0 < sw < math.inf, 0.0 < sh < math.inf)
    if not all(valid):
        k = valid.index(False)
        (num, den), r = parts[k], ratios[k]
        raise FloatingPointError(
            f"{_OFFSET_RATIOS[k]} leaves the float range: {num!r} / {den!r} = {r!r}"
        )
    return Offsets(tx, ty, math.log(sw), math.log(sh))


def check_decode(d: Offsets, anchor: Box) -> None:
    """Raise ``ValueError`` unless :func:`decode` accepts ``d`` on ``anchor``:
    a degenerate anchor, or a size offset past ``DECODE_LOG_CAP``."""
    if anchor.width <= 0.0 or anchor.height <= 0.0:
        raise ValueError("cannot decode against a degenerate anchor")
    if abs(d.tw) > DECODE_LOG_CAP or abs(d.th) > DECODE_LOG_CAP:
        raise ValueError(f"size offsets ({d.tw}, {d.th}) exceed the exp cap {DECODE_LOG_CAP}")


def decode(d: Offsets, anchor: Box) -> Box:
    """Inverse of :func:`encode`; raises if |tw| or |th| exceeds ``DECODE_LOG_CAP``."""
    check_decode(d, anchor)
    acx, acy = anchor.center
    cx = d.tx * anchor.width + acx
    cy = d.ty * anchor.height + acy
    w = anchor.width * math.exp(d.tw)
    h = anchor.height * math.exp(d.th)
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def decode_jacobian(d: Offsets, anchor: Box) -> np.ndarray:
    """4x4 Jacobian of the decoded corners w.r.t. (tx, ty, tw, th), checked
    as :func:`decode`.

    Row order is (x1, y1, x2, y2); column order is (tx, ty, tw, th).
    """
    check_decode(d, anchor)
    wa = anchor.width
    ha = anchor.height
    half_w = 0.5 * wa * math.exp(d.tw)
    half_h = 0.5 * ha * math.exp(d.th)
    return np.array(
        [
            [wa, 0.0, -half_w, 0.0],
            [0.0, ha, 0.0, -half_h],
            [wa, 0.0, half_w, 0.0],
            [0.0, ha, 0.0, half_h],
        ]
    )


def _jittered_box(
    cx: float, cy: float, w: float, h: float, jitters: Sequence[float]
) -> tuple[float, float, float, float]:
    """Corners of the w x h box centered at (cx, cy) once its center shifts by
    (sx w, sy h) and its log-sizes by (lw, lh), for ``jitters`` (sx, sy, lw, lh)."""
    sx, sy, lw, lh = jitters
    gx = cx + sx * w
    gy = cy + sy * h
    gw = w * math.exp(lw)
    gh = h * math.exp(lh)
    return gx - gw / 2, gy - gh / 2, gx + gw / 2, gy + gh / 2


# --- array forms ---------------------------------------------------------------
#
# Row-wise versions of the functions above over (..., 4) corner or offset
# arrays, for the training and refinement loops. They repeat the scalar
# arithmetic operation for operation and agree with it bit for bit, because
# training amplifies any last-bit difference into a different trajectory. They
# validate nothing: callers check box order, positive anchor and ground-truth
# size, and the decode log cap once at their own boundary. The training
# kernel, :func:`offset_iou_and_grad` over :class:`AnchorTargets`, keeps the
# (N, 4) interface but computes on axis-major (2, N) rows, contiguous per axis.
#
# The array forms here take exp and log from the C library through
# :func:`elementwise`, like the scalar forms, and so do ``train``'s kernel and
# every output of ``train``, ``gradcheck``, ``surface`` and ``loss-eval``: at
# train's constant step, a last-bit change moves every trained float and
# swings the mean AP by up to 0.11. :func:`offset_iou_and_grad` takes e^tw and
# e^th from its caller. Refine's descent passes numpy's vectorized exp there
# and takes its HIoU power from numpy too, saving a Python call per element;
# at its small step the refined IoUs move by a few ulp. Its final IoUs decode
# through libm again.


def elementwise(
    fn: Callable[..., float], x: np.ndarray | list, *more: np.ndarray | list
) -> np.ndarray:
    """``fn`` applied to each entry of a 1-D array or a list as a Python
    float; with ``more`` arguments of the same length, to the entries at
    each position.

    The array forms take exp, log and pow through here, from the C library
    like the scalar forms: numpy's vectorized versions can differ in the last
    bit (see the note above).
    """
    x = x.tolist() if isinstance(x, np.ndarray) else x
    if more:
        args = [y.tolist() if isinstance(y, np.ndarray) else y for y in more]
        return np.fromiter(map(fn, x, *args), dtype=float, count=len(x))
    # the one-argument form, called several times per training step, skips
    # the per-argument dispatch
    return np.fromiter(map(fn, x), dtype=float, count=len(x))


def corners(boxes: Sequence[Box]) -> np.ndarray:
    """The (N, 4) corner array of a box sequence, (0, 4) when empty."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def iou_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`iou`; ``a`` and ``b`` broadcast against each other.
    For all pairs of two box sets use :func:`iou_matrix`."""
    span = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    overlap = np.maximum(0.0, span)
    inter = overlap[..., 0] * overlap[..., 1]
    size_a = a[..., 2:] - a[..., :2]
    size_b = b[..., 2:] - b[..., :2]
    union = size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs :func:`iou` of (N, 4) and (M, 4) corners as an (N, M) matrix.

    Runs :func:`iou_arrays`' operations in its order on the corner columns,
    so it equals ``iou_arrays(a[:, None], b[None])`` bit for bit without the
    (N, M, 2) temporaries. It divides in place: where the union is not
    positive, boxes in corner order have no intersection, which stays 0.
    """
    inter = np.minimum.outer(a[:, 2], b[:, 2])
    inter -= np.maximum.outer(a[:, 0], b[:, 0])
    np.maximum(0.0, inter, out=inter)
    span_y = np.minimum.outer(a[:, 3], b[:, 3])
    span_y -= np.maximum.outer(a[:, 1], b[:, 1])
    inter *= np.maximum(0.0, span_y, out=span_y)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add.outer(area_a, area_b, out=span_y)
    union -= inter
    return np.divide(inter, union, out=inter, where=union > 0.0)


def encode_arrays(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row-wise :func:`encode` of (N, 4) ground truths against (N, 4) anchors."""
    size_a = anchors[:, 2:] - anchors[:, :2]
    size_gt = gt[:, 2:] - gt[:, :2]
    shift = 0.5 * (gt[:, :2] + gt[:, 2:]) - 0.5 * (anchors[:, :2] + anchors[:, 2:])
    log_ratio = elementwise(math.log, (size_gt / size_a).ravel()).reshape(-1, 2)
    return np.concatenate([shift / size_a, log_ratio], axis=1)


def decode_arrays(d: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row-wise :func:`decode` of (N, 4) offsets against (N, 4) anchors."""
    scale = elementwise(math.exp, d[:, 2:].ravel()).reshape(-1, 2)
    size = anchors[:, 2:] - anchors[:, :2]
    center = d[:, :2] * size + 0.5 * (anchors[:, :2] + anchors[:, 2:])
    half = 0.5 * (size * scale)
    return np.concatenate([center - half, center + half], axis=1)


# row-major positions of wa, ha, wa, ha in the 4x4 decode Jacobian
_SIZE_SLOTS = np.array([0, 5, 8, 13])


class AnchorTargets:
    """(N, 4) anchors paired row-wise with (N, 4) target boxes, and the terms
    of :func:`offset_iou_and_grad` that no offset changes, computed once for
    a descent of many steps.

    The per-axis terms are axis-major: ``size``, ``half_size`` and ``center``
    of the anchors and the targets' ``gt_lo`` (x1, y1) and ``gt_hi`` (x2, y2)
    are C-contiguous (2, N) arrays, the x row first, so the kernel's per-axis
    steps run on contiguous rows. ``gt_area`` is (N,), and ``jacobian`` (N,
    16) holds each row's row-major 4x4 decode Jacobian with only its
    anchor-size entries filled: a copy of it is the kernel's workspace. The
    arrays are read-only, so one instance may be shared."""

    def __init__(self, anchors: np.ndarray, gt: np.ndarray) -> None:
        a, g = np.ascontiguousarray(anchors.T), np.ascontiguousarray(gt.T)
        self.size = a[2:] - a[:2]
        self.half_size = 0.5 * self.size
        self.center = 0.5 * (a[:2] + a[2:])
        self.gt_lo, self.gt_hi = g[:2], g[2:]
        gt_size = g[2:] - g[:2]
        self.gt_area = gt_size[0] * gt_size[1]
        self.jacobian = np.zeros((len(anchors), 16))
        self.jacobian[:, _SIZE_SLOTS] = np.concatenate([self.size, self.size]).T
        for array in vars(self).values():
            array.flags.writeable = False


def offset_iou_and_grad(
    d: np.ndarray, targets: AnchorTargets, scale: np.ndarray, jacobian: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``iou(decode(d, anchor), gt)`` of (N, 4) offsets and its
    gradient w.r.t. them, ``decode_jacobian(d, anchor).T @ iou_grad(decode(d,
    anchor), gt)``, as (N,) and (N, 4); every union must be positive.
    ``scale`` holds the (2, N) rows e^tw and e^th, which the caller computes
    with the exp of its choice. ``jacobian`` is the caller's workspace, a
    writable copy of ``targets.jacobian``: the call fills its half-size
    entries in place and returns no view of it, so one copy serves a whole
    descent, one call at a time.

    Works on the rows of ``d.T``, axis-major like ``targets``. Runs the
    scalar forms' operations in their order, and the product as a stacked
    (N, 4, 4) ``matmul``, the same matrix-vector product per row, so that it
    agrees with them bit for bit; the decode's half size is the Jacobian's,
    equal while ``size * scale`` is a normal float.
    """
    rows = np.ascontiguousarray(d.T)
    t = targets
    half = t.half_size * scale
    # the Jacobian's only entries that change: the half size at its
    # row-major slots 10 and 15, negated at 2 and 7
    jac = jacobian.T
    jac[10:16:5] = half
    jac[2:8:5] = -half
    center = rows[:2] * t.size + t.center
    lo = center - half
    hi = center + half
    span = np.minimum(hi, t.gt_hi) - np.maximum(lo, t.gt_lo)
    overlap = np.maximum(0.0, span)
    inter = overlap[0] * overlap[1]
    size = hi - lo
    union = size[0] * size[1] + t.gt_area - inter
    # the subgradient conventions of iou_grad: the (x, y) rows hold
    # d(inter)/d(width) and d(inter)/d(height) where the clamp is active,
    # written only at the corners that bind
    active = span >= 0.0
    d_inter = np.zeros((4, inter.size))
    np.negative(overlap[::-1], out=d_inter[:2], where=(lo > t.gt_lo) & active)
    np.copyto(d_inter[2:], overlap[::-1], where=(hi < t.gt_hi) & active)
    height_width = size[::-1]
    d_union = np.concatenate([-height_width, height_width]) - d_inter
    # written through the transpose, so that the matmul reads contiguous
    # (N, 4) rows, each laid out as the scalar form's vector
    du_dcorners = np.empty((inter.size, 4))
    np.divide(d_inter * union - inter * d_union, union * union, out=du_dcorners.T)
    # The matmul stays, though only 8 of the 16 entries are non-zero: under
    # OpenBLAS 0.3.31 (DYNAMIC_ARCH, on an AVX-512 Xeon) it computes entry k
    # as the fused chain fma(J3k, g3, fma(J2k, g2, fma(J1k, g1, J0k * g0))),
    # as exact rational arithmetic reproduced on all 1 200 entries of 300
    # random rows. numpy has no fused multiply-add: a product-and-sum of the
    # non-zero entries differed from it in 391 of them.
    du_dd = np.matmul(jacobian.reshape(-1, 4, 4).transpose(0, 2, 1), du_dcorners[:, :, None])
    return inter / union, du_dd[:, :, 0]
