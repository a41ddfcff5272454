"""Box geometry: IoU, analytic gradients, offset coding."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import geom_reference
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
    iou_matrix,
    offset_iou_and_grad,
)
from hardet.gate import _random_box_pair, finite_diff_grad
from hardet.harness import SceneConfig, generate_scenes


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
            shift = np.tile(rng.uniform(-10, 10, size=2), 2)
            moved = [Box.from_array(box.as_array() + shift) for box in (a, b)]
            assert iou(*moved) == pytest.approx(iou(a, b), abs=1e-12)


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
        fd = finite_diff_grad(lambda vs: [iou(Box.from_array(v), b) for v in vs], a.as_array())
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
            fd = finite_diff_grad(lambda vs: [iou(Box.from_array(v), b) for v in vs], a.as_array())
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


def scalar_offset_iou_and_grad(d, anchors, gts):
    """Per row, ``iou(decode(d, a), g)`` and ``decode_jacobian(d, a).T @
    iou_grad(decode(d, a), g)``."""
    us, grads = [], []
    for row, a, g in zip(d, anchors, gts):
        offsets = Offsets.from_array(row)
        box = decode(offsets, a)
        us.append(iou(box, g))
        grads.append(decode_jacobian(offsets, a).T @ iou_grad(box, g))
    return np.array(us), np.array(grads)


def assert_fused_equals_scalar(d, anchors, gts):
    """The fused call equals the scalar forms and the four-call reference,
    bit for bit."""
    a, g = corners(anchors), corners(gts)
    # the libm exp, as train's kernel passes it
    targets = AnchorTargets(a, g)
    u, grad = offset_iou_and_grad(d, targets, geom_reference.libm_exp(d.T[2:]), targets.jacobian.copy())
    assert u.shape == (len(d),) and grad.shape == (len(d), 4)
    want_u, want_grad = scalar_offset_iou_and_grad(d, anchors, gts)
    assert u.tobytes() == want_u.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    ref_u, ref_grad = geom_reference.offset_iou_and_grad(d, a, g)
    assert u.tobytes() == ref_u.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


TOUCHING = [
    (Box(0, 0, 1, 1), Box(1, 0, 2, 1)),  # shared edge
    (Box(0, 0, 1, 1), Box(1, 1, 2, 2)),  # shared corner
    (Box(0, 0, 1, 1), Box(0, 0, 1, 1)),  # coincident
    (Box(0, 0, 2, 2), Box(0, 0, 1, 1)),  # nested with shared corner
    (Box(0, 0, 1, 1), Box(0, 1, 1, 3)),  # stacked vertically
]


class TestArrayForms:
    """The array forms agree with the scalar reference bit for bit."""

    def test_corners_rows_are_box_arrays(self):
        boxes = [Box(0, 1, 2, 3), unit_square(4, 5)]
        assert np.array_equal(corners(boxes), np.array([b.as_array() for b in boxes]))
        assert corners([]).shape == (0, 4)

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
        # zero offsets decode each anchor onto itself, so the touching rows
        # stay touching; the rest move
        d = rng.uniform(-0.5, 0.5, size=(len(pairs), 4))
        d[: len(TOUCHING) + 100] = 0.0
        assert_fused_equals_scalar(d, [p[0] for p in pairs], [p[1] for p in pairs])
        touching = AnchorTargets(stacked(a for a, _ in TOUCHING), stacked(b for _, b in TOUCHING))
        # e^0 is 1
        u, _ = offset_iou_and_grad(
            np.zeros((len(TOUCHING), 4)), touching, np.ones((2, 5)), touching.jacobian.copy()
        )
        assert np.array_equal(u, [iou(a, b) for a, b in TOUCHING])

    def test_decode_and_jacobian_product_equal_scalar(self):
        rng = np.random.default_rng(14)
        pairs = [_random_box_pair(rng) for _ in range(200)]
        anchors = [a for a, _ in pairs]
        d = rng.uniform(-2.0, 2.0, size=(200, 4))
        want_boxes = np.array(
            [decode(Offsets.from_array(row), anc).as_array() for row, anc in zip(d, anchors)]
        )
        assert np.array_equal(decode_arrays(d, stacked(anchors)), want_boxes)
        assert_fused_equals_scalar(d, anchors, [g for _, g in pairs])

    def test_stacked_runs_equal_scalar(self):
        # refine's layout: one block of a scene set's positives per run, each
        # run at its own offsets
        m = generate_scenes(SceneConfig(num_scenes=3, seed=4)).matching
        anchors = [Box.from_array(row) for row in np.tile(m.anchors, (2, 1))]
        gts = [Box.from_array(row) for row in np.tile(m.gt, (2, 1))]
        d = np.random.default_rng(15).uniform(-0.3, 0.3, size=(len(anchors), 4))
        d[: m.pos_flat.size // 2] = 0.0
        assert_fused_equals_scalar(d, anchors, gts)

    @pytest.mark.parametrize("rows", [0, 1200])
    def test_fused_equals_scalar_at_no_rows_and_many(self, rows):
        # the axis-major layout shows only at many rows: the property test
        # below draws at most 8
        rng = np.random.default_rng(16)
        pairs = [_random_box_pair(rng) for _ in range(rows // 2)] + random_pairs(rng, rows // 2)
        d = rng.uniform(-0.5, 0.5, size=(rows, 4))
        d[: rows // 4] = 0.0
        assert_fused_equals_scalar(d, [a for a, _ in pairs], [g for _, g in pairs])

    def test_targets_are_read_only(self):
        anchors = [Box(0, 1, 2, 4), Box(1, 1, 4, 2), unit_square()]
        targets = AnchorTargets(stacked(anchors), stacked([unit_square(0.5, 0.25)] * 3))
        # the per-axis terms are axis-major rows, the x row first
        assert np.array_equal(targets.size, [[2, 3, 1], [3, 1, 1]])
        assert np.array_equal(targets.gt_lo, [[0.5] * 3, [0.25] * 3])
        for name in ("size", "half_size", "center", "gt_lo", "gt_hi"):
            array = getattr(targets, name)
            assert array.shape == (2, 3), name
            assert array.flags.c_contiguous and not array.flags.writeable, name
        assert not targets.jacobian.flags.writeable
        with pytest.raises(ValueError):
            targets.gt_area[0] = 2.0
        workspace = targets.jacobian.copy()
        assert math.exp(1.0) == math.e
        offset_iou_and_grad(np.ones((3, 4)), targets, np.full((2, 3), math.e), workspace)
        # the call fills the workspace with every row's decode Jacobian at its
        # offsets, and the targets keep only the anchor sizes
        want = np.array([decode_jacobian(Offsets(1.0, 1.0, 1.0, 1.0), a) for a in anchors])
        assert workspace.reshape(-1, 4, 4).tobytes() == want.tobytes()
        assert np.count_nonzero(targets.jacobian) == 4 * 3

    def test_a_reused_workspace_equals_a_fresh_one_bit_for_bit(self):
        # refine's layout and exp: two runs of a scene set's positives, the
        # scale from numpy's exp
        m = generate_scenes(SceneConfig(num_scenes=3, seed=4)).matching
        anchors, gt = np.tile(m.anchors, (2, 1)), np.tile(m.gt, (2, 1))
        targets = AnchorTargets(anchors, gt)
        workspace = targets.jacobian.copy()
        rng = np.random.default_rng(17)
        kept = None
        for _ in range(3):
            d = rng.uniform(-0.5, 0.5, size=(len(anchors), 4))
            got = offset_iou_and_grad(d, targets, np.exp(d.T[2:]), workspace)
            want = offset_iou_and_grad(d, targets, np.exp(d.T[2:]), targets.jacobian.copy())
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            # no result is a view of the workspace: the next call leaves it be
            if kept is not None:
                assert [a.tobytes() for a in kept[0]] == kept[1]
            kept = got, [a.tobytes() for a in got]


# --- properties ---------------------------------------------------------------

# corners on a coarse grid (ties, touching edges, zero sizes) or continuous
_GRID = st.integers(-8, 8).map(lambda k: k * 0.5)


def boxes(coord=_GRID | st.floats(-20.0, 20.0), size=_GRID.map(abs) | st.floats(0.0, 20.0)):
    return st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), coord, coord, size, size)


_SOLID = boxes(size=st.integers(1, 8).map(lambda k: k * 0.5) | st.floats(0.01, 20.0))
_OFFSET = _GRID.map(lambda v: v / 4.0) | st.floats(-2.0, 2.0)


@st.composite
def _box_sets(draw):
    """Two box lists, the second often repeating boxes of the first."""
    a = draw(st.lists(boxes(), max_size=6))
    pool = st.sampled_from(a) | boxes() if a else boxes()
    return a, draw(st.lists(pool, max_size=6))


class TestGeomProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=boxes(), b=boxes())
    def test_iou_is_symmetric_bounded_and_one_on_itself(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        for box in (a, b):
            assert iou(box, box) == (1.0 if box.area > 0.0 else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(anchor=_SOLID, gt=_SOLID)
    def test_encode_then_decode_returns_the_box(self, anchor, gt):
        back = decode(encode(gt, anchor), anchor).as_array()
        scale = max(1.0, *np.abs(anchor.as_array()), *np.abs(gt.as_array()))
        np.testing.assert_allclose(back, gt.as_array(), rtol=0.0, atol=1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(
        a=boxes(st.floats(-10.0, 10.0), st.floats(0.5, 8.0)),
        b=boxes(st.floats(-10.0, 10.0), st.floats(0.5, 8.0)),
    )
    def test_iou_grad_matches_finite_differences_away_from_kinks(self, a, b):
        # kinks: coincident corresponding edges and zero-width contact
        assume(np.all(np.abs(a.as_array() - b.as_array()) >= 1e-3))
        iw = min(a.x2, b.x2) - max(a.x1, b.x1)
        ih = min(a.y2, b.y2) - max(a.y1, b.y1)
        assume(abs(iw) >= 1e-3 and abs(ih) >= 1e-3)
        g = iou_grad(a, b)
        fd = finite_diff_grad(lambda vs: [iou(Box.from_array(v), b) for v in vs], a.as_array())
        np.testing.assert_allclose(g, fd, rtol=0.0, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(boxes(), boxes()), min_size=1, max_size=8))
    def test_iou_arrays_equals_scalar_bit_for_bit(self, pairs):
        a, b = stacked(p[0] for p in pairs), stacked(p[1] for p in pairs)
        want = np.array([iou(x, y) for x, y in pairs])
        assert iou_arrays(a, b).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(sets=_box_sets())
    @example(sets=([p[0] for p in TOUCHING], [p[1] for p in TOUCHING]))
    # zero-area boxes (a line, a point) against themselves and a solid box
    @example(
        sets=([Box(0, 0, 0, 1), Box(1, 1, 1, 1)], [Box(0, 0, 0, 1), Box(1, 1, 1, 1), unit_square()])
    )
    @example(sets=([], [unit_square()]))
    @example(sets=([unit_square()], []))
    def test_iou_matrix_equals_broadcast_and_scalar_bit_for_bit(self, sets):
        a, b = sets
        got = iou_matrix(corners(a), corners(b))
        assert got.shape == (len(a), len(b))
        assert got.tobytes() == iou_arrays(corners(a)[:, None], corners(b)[None]).tobytes()
        want = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_SOLID, _SOLID, st.just((0.0,) * 4) | st.tuples(*[_OFFSET] * 4)),
            min_size=1,
            max_size=8,
        )
    )
    def test_offset_iou_and_grad_equals_scalar_bit_for_bit(self, rows):
        d = np.array([row[2] for row in rows])
        assert_fused_equals_scalar(d, [row[0] for row in rows], [row[1] for row in rows])
