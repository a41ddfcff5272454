"""Axis-aligned box geometry: IoU with analytic gradients, offset coding.

Boxes use the (x1, y1, x2, y2) corner convention and serialize as plain
4-element arrays everywhere in this package. Offsets follow the usual
(dx, dy, log dw, log dh) parameterization relative to an anchor box.
All functions are pure and safe to call concurrently.
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

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

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


ZERO_OFFSETS = Offsets(0.0, 0.0, 0.0, 0.0)


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


def encode(gt: Box, anchor: Box) -> Offsets:
    """Offsets that map ``anchor`` onto ``gt``; both boxes must have positive size."""
    if anchor.width <= 0.0 or anchor.height <= 0.0:
        raise ValueError("cannot encode against a degenerate anchor")
    if gt.width <= 0.0 or gt.height <= 0.0:
        raise ValueError("cannot encode a degenerate ground-truth box")
    acx, acy = anchor.center
    gcx, gcy = gt.center
    return Offsets(
        (gcx - acx) / anchor.width,
        (gcy - acy) / anchor.height,
        math.log(gt.width / anchor.width),
        math.log(gt.height / anchor.height),
    )


def decode(d: Offsets, anchor: Box, log_cap: float = DECODE_LOG_CAP) -> Box:
    """Inverse of :func:`encode`; raises if |tw| or |th| exceeds ``log_cap``."""
    if anchor.width <= 0.0 or anchor.height <= 0.0:
        raise ValueError("cannot decode against a degenerate anchor")
    if abs(d.tw) > log_cap or abs(d.th) > log_cap:
        raise ValueError(
            f"size offsets ({d.tw}, {d.th}) exceed the exp cap {log_cap}"
        )
    acx, acy = anchor.center
    cx = d.tx * anchor.width + acx
    cy = d.ty * anchor.height + acy
    w = anchor.width * math.exp(d.tw)
    h = anchor.height * math.exp(d.th)
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def decode_jacobian(d: Offsets, anchor: Box, log_cap: float = DECODE_LOG_CAP) -> np.ndarray:
    """4x4 Jacobian of the decoded corners w.r.t. (tx, ty, tw, th).

    Row order is (x1, y1, x2, y2); column order is (tx, ty, tw, th).
    """
    if anchor.width <= 0.0 or anchor.height <= 0.0:
        raise ValueError("cannot decode against a degenerate anchor")
    if abs(d.tw) > log_cap or abs(d.th) > log_cap:
        raise ValueError(
            f"size offsets ({d.tw}, {d.th}) exceed the exp cap {log_cap}"
        )
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


# --- array forms ---------------------------------------------------------------
#
# Row-wise versions of the functions above over (..., 4) corner or offset
# arrays, for the training and refinement loops. They repeat the scalar
# arithmetic operation for operation and agree with it bit for bit, because
# training amplifies any last-bit difference into a different trajectory. They
# validate nothing: callers check box order, positive anchor and ground-truth
# size, and the decode log cap once at their own boundary.


def elementwise(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` applied to each entry of a 1-D array as a Python float.

    The array forms take exp, log and pow through here, from the C library
    like the scalar forms: numpy's vectorized versions can differ in the last
    bit.
    """
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def iou_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`iou`; ``a`` and ``b`` broadcast against each other."""
    span = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    overlap = np.maximum(0.0, span)
    inter = overlap[..., 0] * overlap[..., 1]
    size_a = a[..., 2:] - a[..., :2]
    size_b = b[..., 2:] - b[..., :2]
    union = size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0)


def iou_and_grad_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`iou` and :func:`iou_grad` w.r.t. ``a`` of (N, 4) boxes,
    sharing the overlap terms; every union must be positive."""
    span = np.minimum(a[:, 2:], b[:, 2:]) - np.maximum(a[:, :2], b[:, :2])
    overlap = np.maximum(0.0, span)
    inter = overlap[:, 0] * overlap[:, 1]
    size_a = a[:, 2:] - a[:, :2]
    size_b = b[:, 2:] - b[:, :2]
    union = size_a[:, 0] * size_a[:, 1] + size_b[:, 0] * size_b[:, 1] - inter
    # same subgradient conventions as the scalar form: (x, y) columns hold
    # d(inter)/d(width) and d(inter)/d(height) where the clamp is active
    side = np.where(span >= 0.0, overlap[:, ::-1], 0.0)
    d_inter = np.concatenate(
        [np.where(a[:, :2] > b[:, :2], -side, 0.0), np.where(a[:, 2:] < b[:, 2:], side, 0.0)],
        axis=1,
    )
    height_width = size_a[:, ::-1]
    d_union = np.concatenate([-height_width, height_width], axis=1) - d_inter
    grad = (d_inter * union[:, None] - inter[:, None] * d_union) / (union * union)[:, None]
    return inter / union, grad


def _size_and_scale(d: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchor (width, height) and (e^tw, e^th), row-wise."""
    scale = elementwise(math.exp, d[:, 2:].ravel()).reshape(-1, 2)
    return anchors[:, 2:] - anchors[:, :2], scale


def decode_arrays(d: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Row-wise :func:`decode` of (N, 4) offsets against (N, 4) anchors."""
    size, scale = _size_and_scale(d, anchors)
    center = d[:, :2] * size + 0.5 * (anchors[:, :2] + anchors[:, 2:])
    half = 0.5 * (size * scale)
    return np.concatenate([center - half, center + half], axis=1)


# row-major positions of wa, ha, wa, ha, -hw, -hh, hw, hh in the 4x4 decode
# Jacobian
_JACOBIAN_SLOTS = [0, 5, 8, 13, 2, 7, 10, 15]


def decode_vjp_arrays(d: np.ndarray, anchors: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise ``decode_jacobian(d, anchor).T @ g``: pulls a gradient w.r.t.
    the decoded corners back to the offsets.

    Runs the same matrix-vector product per row as the scalar expression.
    """
    size, scale = _size_and_scale(d, anchors)
    half = 0.5 * size * scale
    jac = np.zeros((d.shape[0], 16))
    jac[:, _JACOBIAN_SLOTS] = np.concatenate([size, size, -half, half], axis=1)
    return np.matmul(jac.reshape(-1, 4, 4).transpose(0, 2, 1), g[:, :, None])[:, :, 0]
