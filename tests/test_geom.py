"""Box geometry: IoU, analytic gradients, offset coding."""

import math

import numpy as np
import pytest

from hardet.geom import (
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
from hardet.harness import _random_box_pair, finite_diff_grad


def unit_square(x=0.0, y=0.0):
    return Box(x, y, x + 1.0, y + 1.0)


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(1.0, 0.0, 0.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, math.inf, 1.0)

    def test_from_array_needs_four(self):
        with pytest.raises(ValueError):
            Box.from_array([0.0, 0.0, 1.0])

    def test_degenerate_boxes_allowed(self):
        b = Box(1.0, 1.0, 1.0, 2.0)
        assert b.area == 0.0


class TestIou:
    def test_identical_unit_squares(self):
        assert iou(unit_square(), unit_square()) == 1.0

    def test_disjoint(self):
        assert iou(unit_square(), unit_square(5.0, 5.0)) == 0.0

    def test_half_shift(self):
        # intersection 0.5, union 1.5
        a = Box(0, 0, 1, 1)
        b = Box(0.5, 0, 1.5, 1)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_degenerate_pair_is_zero(self):
        line = Box(0, 0, 0, 1)
        assert iou(line, line) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = _random_box_pair(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = _random_box_pair(rng)
            dx, dy = rng.uniform(-10, 10, size=2)
            assert iou(a.translate(dx, dy), b.translate(dx, dy)) == pytest.approx(
                iou(a, b), abs=1e-12
            )


class TestIouGrad:
    def test_coincident_boxes_have_unit_magnitude(self):
        g = iou_grad(unit_square(), unit_square())
        # growing the union only: +1, +1 inward at (x1, y1), -1, -1 at (x2, y2)
        np.testing.assert_allclose(g, [1.0, 1.0, -1.0, -1.0])

    def test_disjoint_with_gap_is_zero(self):
        g = iou_grad(unit_square(), unit_square(3.0, 0.0))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_degenerate_union_raises(self):
        line = Box(0, 0, 0, 1)
        with pytest.raises(ValueError):
            iou_grad(line, line)

    def test_half_shift_x_components_match_fd(self):
        # y edges coincide here, so only the x directions are smooth
        a = Box(0, 0, 1, 1)
        b = Box(0.5, 0, 1.5, 1)
        g = iou_grad(a, b)
        fd = finite_diff_grad(lambda v: iou(Box.from_array(v), b), a.as_array())
        np.testing.assert_allclose(g[[0, 2]], fd[[0, 2]], atol=1e-6)
        # coincident y edges take the documented one-sided values
        assert g[1] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert g[3] == pytest.approx(-2.0 / 9.0, abs=1e-12)

    def test_touching_edges_point_toward_overlap(self):
        a = Box(0, 0, 1, 1)
        b = Box(1, 0, 2, 1)
        g = iou_grad(a, b)
        assert g[2] > 0.0  # pushing x2 into b creates overlap

    def test_matches_fd_on_random_interior_configs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            a, b = _random_box_pair(rng)
            g = iou_grad(a, b)
            fd = finite_diff_grad(lambda v: iou(Box.from_array(v), b), a.as_array())
            worst = max(worst, float(np.max(np.abs(g - fd))))
        assert worst < 1e-5


class TestOffsetCoding:
    def test_encode_identity(self):
        a = Box(1, 2, 3, 5)
        t = encode(a, a)
        np.testing.assert_allclose(t.as_array(), np.zeros(4))

    def test_encode_hand_case(self):
        t = encode(Box(1, 1, 3, 3), Box(0, 0, 2, 2))
        np.testing.assert_allclose(t.as_array(), [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_decode_hand_case(self):
        out = decode(Offsets(0.5, 0.5, 0.0, 0.0), Box(0, 0, 2, 2))
        np.testing.assert_allclose(out.as_array(), [1, 1, 3, 3], atol=1e-12)

    def test_decode_of_zero_is_anchor(self):
        a = Box(2, 1, 7, 4)
        np.testing.assert_allclose(decode(Offsets(0, 0, 0, 0), a).as_array(), a.as_array())

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            a, b = _random_box_pair(rng)
            back = decode(encode(b, a), a)
            worst = max(worst, float(np.max(np.abs(back.as_array() - b.as_array()))))
        assert worst < 1e-9

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(ValueError):
            encode(unit_square(), Box(0, 0, 0, 1))
        with pytest.raises(ValueError):
            decode(Offsets(0, 0, 0, 0), Box(0, 0, 0, 1))

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError):
            encode(Box(0, 0, 0, 1), unit_square())

    def test_exp_cap(self):
        with pytest.raises(ValueError):
            decode(Offsets(0, 0, 17.0, 0), unit_square())
        # at the cap itself it still decodes
        decode(Offsets(0, 0, 16.0, 0), unit_square())


class TestDecodeJacobian:
    def test_unit_anchor_entries(self):
        j = decode_jacobian(Offsets(0, 0, 0, 0), unit_square())
        assert j[0, 0] == pytest.approx(1.0)  # dx1/dtx
        assert j[0, 2] == pytest.approx(-0.5)  # dx1/dtw
        assert j[2, 2] == pytest.approx(0.5)  # dx2/dtw
        assert j[1, 1] == pytest.approx(1.0)  # dy1/dty

    def test_scales_with_anchor_width(self):
        d = Offsets(0.2, -0.1, 0.3, 0.1)
        j1 = decode_jacobian(d, Box(0, 0, 2, 2))
        j2 = decode_jacobian(d, Box(0, 0, 4, 2))
        np.testing.assert_allclose(j2[:, 0], 2.0 * j1[:, 0])

    def test_matches_fd_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a, b = _random_box_pair(rng)
            d = Offsets.from_array(rng.uniform(-0.8, 0.8, size=4))
            j = decode_jacobian(d, a)
            fd = np.zeros((4, 4))
            for col in range(4):
                step = np.zeros(4)
                step[col] = 1e-6
                hi = decode(Offsets.from_array(d.as_array() + step), a).as_array()
                lo = decode(Offsets.from_array(d.as_array() - step), a).as_array()
                fd[:, col] = (hi - lo) / 2e-6
            np.testing.assert_allclose(j, fd, rtol=1e-6, atol=1e-6)


def random_pairs(rng, n):
    """Overlapping, disjoint and nested pairs on a coarse grid, so that
    touching edges and coincident corners occur often."""
    pairs = []
    for _ in range(n):
        x1, y1 = rng.integers(0, 6, size=2) * 0.5
        w1, h1 = rng.integers(1, 6, size=2) * 0.5
        x2, y2 = rng.integers(0, 6, size=2) * 0.5
        w2, h2 = rng.integers(1, 6, size=2) * 0.5
        pairs.append((Box(x1, y1, x1 + w1, y1 + h1), Box(x2, y2, x2 + w2, y2 + h2)))
    return pairs


def stacked(boxes):
    return np.array([b.as_array() for b in boxes])


TOUCHING = [
    (Box(0, 0, 1, 1), Box(1, 0, 2, 1)),  # shared edge
    (Box(0, 0, 1, 1), Box(1, 1, 2, 2)),  # shared corner
    (Box(0, 0, 1, 1), Box(0, 0, 1, 1)),  # coincident
    (Box(0, 0, 2, 2), Box(0, 0, 1, 1)),  # nested with shared corner
    (Box(0, 0, 1, 1), Box(0, 1, 1, 3)),  # stacked vertically
]


class TestArrayForms:
    """The array forms agree with the scalar reference bit for bit."""

    def test_iou_equals_scalar_on_random_pairs(self):
        rng = np.random.default_rng(11)
        pairs = [_random_box_pair(rng) for _ in range(300)] + random_pairs(rng, 300)
        a, b = stacked(p[0] for p in pairs), stacked(p[1] for p in pairs)
        got = iou_arrays(a, b)
        want = np.array([iou(x, y) for x, y in pairs])
        assert np.array_equal(got, want)

    def test_iou_equals_scalar_on_touching_and_degenerate_pairs(self):
        pairs = TOUCHING + [(Box(0, 0, 0, 1), Box(0, 0, 0, 1)), (Box(0, 0, 1, 1), Box(3, 3, 4, 4))]
        a, b = stacked(p[0] for p in pairs), stacked(p[1] for p in pairs)
        want = np.array([iou(x, y) for x, y in pairs])
        assert np.array_equal(iou_arrays(a, b), want)
        assert np.array_equal(iou_arrays(b, a), want)

    def test_iou_broadcasts_to_a_matrix(self):
        rng = np.random.default_rng(12)
        boxes = [p[0] for p in random_pairs(rng, 7)]
        others = [p[1] for p in random_pairs(rng, 3)]
        mat = iou_arrays(stacked(boxes)[:, None, :], stacked(others)[None, :, :])
        assert mat.shape == (7, 3)
        want = np.array([[iou(x, y) for y in others] for x in boxes])
        assert np.array_equal(mat, want)

    def test_iou_and_grad_equal_scalar(self):
        rng = np.random.default_rng(13)
        pairs = TOUCHING + [_random_box_pair(rng) for _ in range(200)] + random_pairs(rng, 200)
        a, b = stacked(p[0] for p in pairs), stacked(p[1] for p in pairs)
        u, grad = iou_and_grad_arrays(a, b)
        assert np.array_equal(u, [iou(x, y) for x, y in pairs])
        assert np.array_equal(grad, [iou_grad(x, y) for x, y in pairs])

    def test_decode_and_jacobian_product_equal_scalar(self):
        rng = np.random.default_rng(14)
        anchors = [_random_box_pair(rng)[0] for _ in range(200)]
        d = rng.uniform(-2.0, 2.0, size=(200, 4))
        g = rng.normal(size=(200, 4))
        a = stacked(anchors)
        want_boxes = np.array(
            [decode(Offsets.from_array(row), anc).as_array() for row, anc in zip(d, anchors)]
        )
        want_vjp = np.array(
            [
                decode_jacobian(Offsets.from_array(row), anc).T @ gi
                for row, anc, gi in zip(d, anchors, g)
            ]
        )
        assert np.array_equal(decode_arrays(d, a), want_boxes)
        assert np.array_equal(decode_vjp_arrays(d, a, g), want_vjp)
