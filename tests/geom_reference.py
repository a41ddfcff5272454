"""The training geometry's four-call reference: decode, IoU with its corner
gradient, and the decode Jacobian's vector product, each its own array call.

``geom.offset_iou_and_grad`` runs them as one pass over hoisted
``AnchorTargets``; the tests hold it to these and to the scalar forms bit for
bit, and ``train_reference`` builds the reference kernel from them. Refine's
chain, ``geom.offset_iou_and_grad_rows``, takes the product in the
Jacobian's closed form instead, as :func:`decode_vjp_closed_form` does.
"""

import math

import numpy as np

from hardet.geom import elementwise


def libm_exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry of ``x``, one float at a time, shaped as
    ``x``: the C library's exp, which the scalar forms and train's kernel
    take."""
    return elementwise(math.exp, x.ravel()).reshape(x.shape)


def decode_arrays(d: np.ndarray, anchors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Row-wise ``decode`` of (N, 4) offsets against (N, 4) anchors, with
    ``scale`` the (N, 2) e^tw and e^th."""
    size = anchors[:, 2:] - anchors[:, :2]
    center = d[:, :2] * size + 0.5 * (anchors[:, :2] + anchors[:, 2:])
    half = 0.5 * (size * scale)
    return np.concatenate([center - half, center + half], axis=1)


def iou_and_grad_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``iou`` and ``iou_grad`` w.r.t. ``a`` of (N, 4) boxes,
    sharing the overlap terms; every union must be positive."""
    span = np.minimum(a[:, 2:], b[:, 2:]) - np.maximum(a[:, :2], b[:, :2])
    overlap = np.maximum(0.0, span)
    inter = overlap[:, 0] * overlap[:, 1]
    size_a = a[:, 2:] - a[:, :2]
    size_b = b[:, 2:] - b[:, :2]
    union = size_a[:, 0] * size_a[:, 1] + size_b[:, 0] * size_b[:, 1] - inter
    side = np.where(span >= 0.0, overlap[:, ::-1], 0.0)
    d_inter = np.concatenate(
        [np.where(a[:, :2] > b[:, :2], -side, 0.0), np.where(a[:, 2:] < b[:, 2:], side, 0.0)],
        axis=1,
    )
    height_width = size_a[:, ::-1]
    d_union = np.concatenate([-height_width, height_width], axis=1) - d_inter
    grad = (d_inter * union[:, None] - inter[:, None] * d_union) / (union * union)[:, None]
    return inter / union, grad


# row-major positions of wa, ha, wa, ha, -hw, -hh, hw, hh in the 4x4 decode
# Jacobian
_JACOBIAN_SLOTS = [0, 5, 8, 13, 2, 7, 10, 15]


def decode_vjp_arrays(
    d: np.ndarray, anchors: np.ndarray, g: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Row-wise ``decode_jacobian(d, anchor).T @ g``, with ``scale`` as in
    :func:`decode_arrays`; one stacked matrix-vector product per row."""
    size = anchors[:, 2:] - anchors[:, :2]
    half = 0.5 * size * scale
    jac = np.zeros((d.shape[0], 16))
    jac[:, _JACOBIAN_SLOTS] = np.concatenate([size, size, -half, half], axis=1)
    return np.matmul(jac.reshape(-1, 4, 4).transpose(0, 2, 1), g[:, :, None])[:, :, 0]


def decode_vjp_closed_form(
    d: np.ndarray, anchors: np.ndarray, g: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """:func:`decode_vjp_arrays` by the Jacobian's closed form: size * (g_lo +
    g_hi) for (tx, ty) and half size * (g_hi - g_lo) for (tw, th)."""
    size = anchors[:, 2:] - anchors[:, :2]
    half = 0.5 * size * scale
    return np.concatenate([size * (g[:, :2] + g[:, 2:]), half * (g[:, 2:] - g[:, :2])], axis=1)


def offset_iou_and_grad(
    d: np.ndarray, anchors: np.ndarray, gt: np.ndarray, exp=libm_exp, vjp=decode_vjp_arrays
) -> tuple[np.ndarray, np.ndarray]:
    """The four calls chained: IoU of the decoded boxes with ``gt`` and its
    gradient w.r.t. the offsets, one ``exp`` of the size offsets shared by
    the decode and its VJP: libm and the BLAS product for train's kernel,
    ``np.exp`` and :func:`decode_vjp_closed_form` for refine's descent."""
    scale = exp(d[:, 2:])
    u, du_dcorners = iou_and_grad_arrays(decode_arrays(d, anchors, scale), gt)
    return u, vjp(d, anchors, du_dcorners, scale)
