"""Loss terms, harmonic factors, and analytic gradients."""

import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import hardet.losses as losses
from hardet.geom import AnchorTargets, Box, Offsets, encode
from hardet.losses import (
    SURFACE_LOC_GRID,
    SURFACE_P_GRID,
    HyperParams,
    KernelPlan,
    NegativeSample,
    PositiveSample,
    batch_objective,
    batch_objective_arrays,
    cross_entropy,
    full_loc_loss,
    gradient_surface,
    harmonic_cls_grad,
    harmonic_det_loss,
    harmonic_loss,
    harmonic_reg_grad,
    hiou_loss,
    hiou_slope,
    iou_loss,
    positive_sample_from_json,
    smooth_l1,
    standard_det_loss,
    tc_loss,
)
from hardet.gate import random_positive_sample
from hardet.harness import SceneConfig, generate_scenes

from gate_reference import _fd_offsets, _fd_probs
import train_reference
from train_reference import hiou_loss_arrays, hiou_slope_arrays

HP = HyperParams()

# -ln 0.7, frozen from math.log
CE_07 = 0.35667494393873245


def make_sample(probs, gt_class=1, anchor=(0, 0, 2, 2), gt=(0.5, 0.5, 2.5, 2.5), d=None):
    anchor = Box.from_array(anchor)
    gt = Box.from_array(gt)
    d = encode(gt, anchor) if d is None else Offsets.from_array(d)
    return PositiveSample(
        probs=np.asarray(probs, dtype=float), gt_class=gt_class, d=d, anchor=anchor, gt_box=gt
    )


def shifted_iou_sample(probs, gt_class, target_iou):
    """Unit-square pair whose decoded-box IoU is exactly (1-s)/(1+s)."""
    s = (1.0 - target_iou) / (1.0 + target_iou)
    anchor = Box(s, 0.0, 1.0 + s, 1.0)
    gt = Box(0.0, 0.0, 1.0, 1.0)
    return PositiveSample(
        probs=np.asarray(probs, dtype=float),
        gt_class=gt_class,
        d=Offsets(0, 0, 0, 0),
        anchor=anchor,
        gt_box=gt,
    )


class TestSampleValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_sample([0.5, 0.2, 0.1, 0.1, 0.2])

    def test_gt_class_in_range(self):
        with pytest.raises(ValueError):
            make_sample([0.2] * 5, gt_class=5)

    def test_d_hat_is_derived(self):
        s = make_sample([0.2] * 5)
        np.testing.assert_allclose(
            s.d_hat.as_array(), encode(s.gt_box, s.anchor).as_array()
        )

    def test_from_json_round_trip(self):
        record = {
            "probs": [0.1, 0.7, 0.1, 0.05, 0.05],
            "gt_class": 1,
            "anchor": [0, 0, 2, 2],
            "gt_box": [0.5, 0.5, 2.5, 2.5],
            "d": [0.1, 0.2, 0.0, -0.1],
        }
        s = positive_sample_from_json(record)
        assert s.gt_class == 1
        assert s.probs[1] == 0.7

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            positive_sample_from_json({"probs": [1.0, 0.0], "gt_class": 0, "anchor": [0, 0, 1, 1], "gt_box": [0, 0, 1, 1], "d": [0, 0, 0, 0], "extra": 1})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gt_class", 1.7, "sample.gt_class: expected an integer, got 1.7"),
            ("gt_class", True, "sample.gt_class: expected an integer, got True"),
            ("gt_class", "1", "sample.gt_class: expected an integer, got '1'"),
            ("probs", ["0.2", "0.8"], "sample.probs[0]: expected a number, got '0.2'"),
            ("probs", 0.5, "sample.probs: expected list, got float"),
            ("d", [False, 0, 0, 0], "sample.d[0]: expected a number, got False"),
            ("anchor", [0, 0, math.inf, 1], "sample.anchor[2]: expected a finite number, got inf"),
            ("gt_box", [0, 0, 10**400, 1], "sample.gt_box[2]: integer out of the float range"),
            ("extra", 1, "sample.extra: unknown key"),
        ],
    )
    def test_from_json_rejects_a_mistyped_field_naming_it(self, field, value, message):
        record = {
            "probs": [0.2, 0.8], "gt_class": 1, "anchor": [0, 0, 1, 1], "gt_box": [0, 0, 1, 1],
            "d": [0, 0, 0, 0],
        }
        positive_sample_from_json(record)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            positive_sample_from_json({**record, field: value})

    def test_from_json_rejects_a_record_that_is_not_an_object(self):
        with pytest.raises(ValueError, match=r"^sample: expected an object, got list$"):
            positive_sample_from_json([0.2, 0.8])


class TestHyperParams:
    def test_defaults(self):
        hp = HyperParams()
        assert (hp.alpha, hp.gamma, hp.margin) == (1.5, 0.8, 0.2)

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError, match="breaks HIoU monotonicity"):
            HyperParams(gamma=math.nextafter(1.0, 2.0))
        assert HyperParams(gamma=1.0).gamma == 1.0

    def test_margin_range(self):
        with pytest.raises(ValueError):
            HyperParams(margin=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", math.nan, "alpha must be >= 0"),
            ("alpha", math.inf, "alpha must be finite, got inf"),
            ("gamma", math.nan, "gamma must be finite, got nan"),
            ("gamma", -math.inf, "gamma must be finite, got -inf"),
            ("gamma", math.inf, "gamma=inf breaks HIoU monotonicity"),
            ("margin", math.nan, r"margin must lie in \[0, 1\), got nan"),
            ("margin", math.inf, r"margin must lie in \[0, 1\), got inf"),
        ],
    )
    def test_nan_and_inf_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            HyperParams(**{field: value})


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_point_seven(self):
        assert cross_entropy(np.array([0.3, 0.7]), 1) == pytest.approx(CE_07, abs=1e-15)

    def test_floor_keeps_it_finite(self):
        v = cross_entropy(np.array([1.0, 0.0]), 1)
        assert v == pytest.approx(-math.log(1e-12))

    def test_index_error(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestSmoothL1:
    def test_zero_at_match(self):
        d = Offsets(0.1, -0.2, 0.3, 0.0)
        assert smooth_l1(d, d) == 0.0

    def test_quadratic_branch(self):
        assert smooth_l1(Offsets(0.5, 0, 0, 0), Offsets(0, 0, 0, 0)) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert smooth_l1(Offsets(2.0, 0, 0, 0), Offsets(0, 0, 0, 0)) == pytest.approx(1.5)

    def test_huge_offset_warns_nothing_in_either_form(self):
        s = make_sample([0.1, 0.7, 0.1, 0.05, 0.05], d=[1e200, 0.0, 0.0, 0.0])
        # the squared branch np.where discards would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = smooth_l1(s.d, s.d_hat)
            got = batch_objective_arrays(*batch_arrays([s], [], HP))
        assert value == 1e200
        assert got.sl1.tolist() == [value]


class TestIouLosses:
    def test_iou_loss_values(self):
        assert iou_loss(1.0) == 0.0
        assert iou_loss(0.0) == 1.0
        assert iou_loss(0.5) == 0.5

    def test_iou_loss_range_check(self):
        with pytest.raises(ValueError):
            iou_loss(1.2)

    def test_hiou_zero_at_perfect(self):
        for gamma in (0.0, 0.5, 1.0):
            assert hiou_loss(1.0, gamma) == 0.0

    def test_hiou_at_zero_iou(self):
        assert hiou_loss(0.0, 0.8) == pytest.approx(1.0)

    def test_hiou_midpoint(self):
        # 1.5^0.8 * 0.5, frozen from high-precision evaluation
        assert hiou_loss(0.5, 0.8) == pytest.approx(0.6915809336112958, abs=1e-12)

    def test_hiou_reduces_to_iou_loss_at_gamma_zero(self):
        for u in np.linspace(0.0, 1.0, 21):
            assert hiou_loss(u, 0.0) == pytest.approx(iou_loss(u), abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.8, 1.0])
    def test_monotone_non_increasing_when_gamma_valid(self, gamma):
        grid = np.linspace(0.0, 1.0, 10_001)
        vals = (1.0 + grid) ** gamma * (1.0 - grid)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_monotonicity_fails_for_gamma_above_one(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        vals = (1.0 + grid) ** 1.5 * (1.0 - grid)
        assert np.any(np.diff(vals) > 1e-12)

    def test_reweighting_ratio_increases(self):
        gamma = 0.8
        grid = np.linspace(0.0, 1.0, 101)
        ratio = (1.0 + grid) ** gamma  # hiou / iou_loss
        assert np.all(np.diff(ratio) > 0)
        # (1.9/1.1)^0.8, frozen from high-precision evaluation
        assert ratio[90] / ratio[10] == pytest.approx(1.5484198589350566, rel=1e-9)

    def test_slope_matches_fd(self):
        for gamma in (0.0, 0.5, 0.8):
            for u in (0.1, 0.4, 0.7, 0.95):
                fd = (hiou_loss(u + 1e-7, gamma) - hiou_loss(u - 1e-7, gamma)) / 2e-7
                assert hiou_slope(u, gamma) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("fn, scalar", [(hiou_loss_arrays, hiou_loss), (hiou_slope_arrays, hiou_slope)])
    def test_per_row_gamma_equals_scalar_bit_for_bit(self, fn, scalar):
        gammas = (0.0, 0.5, HyperParams().gamma)
        u = np.random.default_rng(0).uniform(0.0, 1.0, 30)
        u[:3] = (0.0, 1.0, 0.5)
        gamma = np.resize(gammas, u.size)
        want = np.array([scalar(v, g) for v, g in zip(u.tolist(), gamma.tolist())])
        assert fn(u, gamma).tobytes() == want.tobytes()
        # one gamma for every row is the same as that gamma repeated
        for g in gammas:
            assert fn(u, g).tobytes() == np.array([scalar(v, g) for v in u.tolist()]).tobytes()


class TestFullLocLoss:
    def test_perfect_prediction_is_zero(self):
        s = make_sample([0.2] * 5)  # d == d_hat, decoded box == gt
        value, grad = full_loc_loss(s, HP)
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_alpha_zero_reduces_to_smooth_l1(self):
        rng = np.random.default_rng(2)
        hp = replace(HP, alpha=0.0)
        for _ in range(50):
            s = random_positive_sample(rng, HP, 5)
            value, grad = full_loc_loss(s, hp)
            assert value == pytest.approx(smooth_l1(s.d, s.d_hat), abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = random_positive_sample(rng, HP, 5)
            _, grad = full_loc_loss(s, HP)
            fd = _fd_offsets(s, lambda x: full_loc_loss(x, HP)[0])
            np.testing.assert_allclose(grad, fd, atol=1e-6, rtol=1e-5)


class TestSharedLocParts:
    def test_cached_arrays_cannot_be_written(self):
        s = make_sample([0.2] * 5, d=[0.1, -0.2, 0.05, 0.1])
        parts = losses._shared_loc_parts(s, HP)
        arrays = [parts.iou_grad_d, parts.grad, full_loc_loss(s, HP)[1]]
        assert arrays[-1] is parts.grad
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        # the losses that build on the parts return arrays of their own
        harmonic_det_loss(s, replace(HP, freeze_factors=True)).grad_d[0] = 1.0
        harmonic_reg_grad(s, HP)[0] = 1.0
        assert losses._shared_loc_parts(s, HP).grad.tobytes() == losses._loc_parts(s, HP).grad.tobytes()

    def test_one_pass_per_sample_and_alpha_gamma(self, monkeypatch):
        real = losses._loc_parts
        calls = []
        monkeypatch.setattr(losses, "_loc_parts", lambda *a: calls.append(a[1]) or real(*a))
        s = make_sample([0.2] * 5, d=[0.1, -0.2, 0.05, 0.1])
        # the hyperparameters _loc_parts does not read share its pass
        for hp in (HP, replace(HP, beta_e_stop_grad=False), replace(HP, margin=0.5)):
            full_loc_loss(s, hp)
            tc_loss(s, hp)
            harmonic_det_loss(s, hp)
            harmonic_reg_grad(s, hp)
            harmonic_loss(s, hp)
        assert calls == [HP]
        # alpha -0.0 keeps its own pass: its zero products keep their sign
        for alpha in (0.0, -0.0, 0.5):
            full_loc_loss(s, replace(HP, alpha=alpha))
        full_loc_loss(s, replace(HP, gamma=0.5))
        assert [(hp.alpha, hp.gamma) for hp in calls[1:]] == [(0.0, 0.8), (-0.0, 0.8), (0.5, 0.8), (1.5, 0.5)]
        assert math.copysign(1.0, calls[2].alpha) == -1.0
        # a new sample, as replace gives, takes a pass of its own
        full_loc_loss(replace(s, d=s.d), HP)
        assert len(calls) == 6


class TestHarmonicLoss:
    def test_zero_losses(self):
        s = make_sample([0.0, 1.0, 0.0, 0.0, 0.0])
        value, beta_r, beta_c = harmonic_loss(s, HP, loc=0.0)
        assert value == 0.0
        assert beta_r == 1.0
        assert beta_c == 1.0

    def test_hand_value(self):
        s = make_sample([0.1, 0.7, 0.1, 0.05, 0.05])
        value, beta_r, beta_c = harmonic_loss(s, HP, loc=0.5)
        # (1 + e^-0.5) * (-ln 0.7) + 1.7 * 0.5, frozen from direct evaluation
        assert value == pytest.approx(1.4230092329888584, abs=1e-12)
        assert beta_r == pytest.approx(math.exp(-0.5))
        assert beta_c == pytest.approx(0.7, abs=1e-12)

    def test_beta_c_equals_gt_probability(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            s = random_positive_sample(rng, HP, 5)
            _, _, beta_c = harmonic_loss(s, HP, loc=float(rng.uniform(0, 2)))
            assert beta_c == pytest.approx(float(s.probs[s.gt_class]), abs=1e-9)

    def test_factor_ranges(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            s = random_positive_sample(rng, HP, 5)
            _, beta_r, beta_c = harmonic_loss(s, HP)
            assert 0.0 < beta_r <= 1.0
            assert 0.0 < beta_c <= 1.0

    def test_situation_ordering(self):
        # regression weight grows with classification confidence
        betas = []
        for p in np.linspace(0.05, 0.95, 10):
            s = make_sample([1.0 - p - 0.03, p, 0.01, 0.01, 0.01])
            _, _, beta_c = harmonic_loss(s, HP, loc=0.5)
            betas.append(1.0 + beta_c)
        assert np.all(np.diff(betas) > 0)
        # classification weight shrinks as localization worsens
        s = make_sample([0.2] * 5)
        weights = [1.0 + harmonic_loss(s, HP, loc=loc)[1] for loc in np.linspace(0, 4, 10)]
        assert np.all(np.diff(weights) < 0)


class TestHarmonicClsGrad:
    def test_spot_values(self):
        s5 = make_sample([0.5, 0.5], gt_class=1)
        assert harmonic_cls_grad(s5, 0.0) == pytest.approx(-4.0, abs=1e-12)
        s7 = make_sample([0.3, 0.7], gt_class=1)
        # 0.5 - (1 + e^-0.5)/0.7, frozen from direct evaluation
        assert harmonic_cls_grad(s7, 0.5) == pytest.approx(-1.7950437995894766, abs=1e-12)

    def test_matches_fd_of_harmonic_loss(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            p = float(rng.uniform(0.01, 0.99))
            s = make_sample([1.0 - p, p], gt_class=1)
            loc = float(rng.uniform(0.0, 2.0))
            fd = _fd_probs(s, lambda x: harmonic_loss(x, HP, loc)[0])
            analytic = harmonic_cls_grad(s, loc)
            denom = max(1.0, abs(analytic))
            assert abs(analytic - fd[s.gt_class]) / denom < 1e-5

    def test_sign_matches_closed_form_condition(self):
        for p in np.linspace(0.05, 1.0, 15):
            for loc in np.linspace(0.0, 4.0, 15):
                s = make_sample([1.0 - p, p], gt_class=1) if p < 1.0 else make_sample([0.0, 1.0], gt_class=1)
                g = harmonic_cls_grad(s, loc)
                negative = loc < (1.0 + math.exp(-loc)) / p
                assert (g < 0) == negative

    def test_negative_over_training_grid(self):
        for p in np.linspace(0.05, 1.0, 20):
            for loc in np.linspace(0.0, 1.2, 13):
                s = make_sample([1.0 - p, p], gt_class=1) if p < 1.0 else make_sample([0.0, 1.0], gt_class=1)
                assert harmonic_cls_grad(s, loc) < 0


class TestHarmonicRegGrad:
    def test_zero_at_target_without_hiou(self):
        # at alpha 0 the localization loss is smooth L1 alone
        hp = replace(HP, alpha=0.0)
        s = make_sample([0.2] * 5)  # d == d_hat
        np.testing.assert_allclose(harmonic_reg_grad(s, hp), np.zeros(4), atol=1e-15)

    def test_prefactor_hand_value(self):
        hp = replace(HP, alpha=0.0)
        anchor = Box(0, 0, 2, 2)
        gt = Box(0.5, 0.5, 2.5, 2.5)
        d_hat = encode(gt, anchor)
        d = Offsets.from_array(d_hat.as_array() + np.array([1.0, 0.0, 0.0, 0.0]))
        s = PositiveSample(
            probs=np.array([0.1, 0.7, 0.1, 0.05, 0.05]), gt_class=1, d=d, anchor=anchor, gt_box=gt
        )
        assert smooth_l1(s.d, s.d_hat) == pytest.approx(0.5)
        grad = harmonic_reg_grad(s, hp)
        # (1 + 0.7) - (-ln 0.7) e^-0.5, frozen from direct evaluation
        prefactor = 1.483665710949874
        np.testing.assert_allclose(grad, prefactor * np.array([1.0, 0, 0, 0]), atol=1e-9)

    def test_matches_fd(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            s = random_positive_sample(rng, HP, 5)
            fd = _fd_offsets(s, lambda x: harmonic_loss(x, HP)[0])
            np.testing.assert_allclose(harmonic_reg_grad(s, HP), fd, atol=1e-5, rtol=1e-5)


class TestTcLoss:
    def test_inactive_hinge(self):
        # p = 0.85, IoU ~= 0.9: within the 0.2 margin
        s = shifted_iou_sample([0.05, 0.85, 0.05, 0.03, 0.02], 1, 0.9)
        value, beta_e, grad_probs, grad_d = tc_loss(s, HP)
        assert value == 0.0
        np.testing.assert_array_equal(grad_probs, np.zeros(5))
        np.testing.assert_array_equal(grad_d, np.zeros(4))

    def test_one_hot_weight_is_half(self):
        s = shifted_iou_sample([0.0, 1.0, 0.0, 0.0, 0.0], 1, 0.5)
        value, beta_e, _, _ = tc_loss(s, HP)
        assert beta_e == pytest.approx(1.0, abs=1e-12)
        # weight 1/2, hinge |1 - 0.5| - 0.2
        assert value == pytest.approx(0.5 * 0.3, abs=1e-9)

    def test_uniform_probs_hand_value(self):
        s = shifted_iou_sample([0.2] * 5, 1, 0.9)
        value, beta_e, _, _ = tc_loss(s, HP)
        assert beta_e == pytest.approx(5.0, rel=1e-12)
        assert value == pytest.approx(0.5 / 6.0, rel=1e-9)

    def test_beta_e_at_least_one(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = random_positive_sample(rng, HP, 5)
            _, beta_e, _, _ = tc_loss(s, HP)
            assert beta_e >= 1.0

    def test_gradients_match_fd_without_stop_grad(self):
        hp = replace(HP, beta_e_stop_grad=False)
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 60:
            s = random_positive_sample(rng, hp, 5)
            value, _, grad_probs, grad_d = tc_loss(s, hp)
            if value == 0.0:
                continue
            np.testing.assert_allclose(grad_probs, _fd_probs(s, lambda x: tc_loss(x, hp)[0]), atol=1e-5)
            np.testing.assert_allclose(grad_d, _fd_offsets(s, lambda x: tc_loss(x, hp)[0]), atol=1e-5)
            checked += 1

    def test_stop_grad_drops_only_entropy_path(self):
        hp_stop = HP
        hp_diff = replace(HP, beta_e_stop_grad=False)
        rng = np.random.default_rng(43)
        for _ in range(50):
            s = random_positive_sample(rng, HP, 5)
            v_stop, be_stop, gp_stop, gd_stop = tc_loss(s, hp_stop)
            v_diff, be_diff, gp_diff, gd_diff = tc_loss(s, hp_diff)
            assert v_stop == v_diff
            assert be_stop == be_diff
            np.testing.assert_array_equal(gd_stop, gd_diff)
            # off the gt entry, the stop-grad variant has no probability grads
            mask = np.ones(5, dtype=bool)
            mask[s.gt_class] = False
            np.testing.assert_array_equal(gp_stop[mask], np.zeros(4))


class TestHarmonicDetLoss:
    def test_perfect_sample_total_zero(self):
        s = make_sample([0.0, 1.0, 0.0, 0.0, 0.0])
        b = harmonic_det_loss(s, HP)
        assert b.total == pytest.approx(0.0, abs=1e-8)
        assert b.beta_r == pytest.approx(1.0, abs=1e-8)
        assert b.beta_c == 1.0
        assert b.tc == 0.0

    def test_breakdown_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            s = random_positive_sample(rng, HP, 5)
            b = harmonic_det_loss(s, HP)
            recon = (1.0 + b.beta_r) * b.ce + (1.0 + b.beta_c) * b.loc_full + b.tc
            assert b.total == pytest.approx(recon, abs=1e-9)
            assert b.beta_c == pytest.approx(float(s.probs[s.gt_class]), abs=1e-9)

    def test_terms_non_negative(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            s = random_positive_sample(rng, HP, 5)
            b = harmonic_det_loss(s, HP)
            for term in (b.ce, b.smooth_l1, b.hiou, b.loc_full, b.tc, b.total):
                assert term >= 0.0

    def test_joint_gradient_matches_fd(self):
        hp = replace(HP, beta_e_stop_grad=False)
        rng = np.random.default_rng(53)
        for _ in range(100):
            s = random_positive_sample(rng, hp, 5)
            b = harmonic_det_loss(s, hp)
            fd_p = _fd_probs(s, lambda x: harmonic_det_loss(x, hp).total)
            fd_d = _fd_offsets(s, lambda x: harmonic_det_loss(x, hp).total)
            np.testing.assert_allclose(b.grad_probs, fd_p, atol=1e-5, rtol=1e-5)
            np.testing.assert_allclose(b.grad_d, fd_d, atol=1e-5, rtol=1e-5)

    def test_json_field_names(self):
        s = make_sample([0.2] * 5)
        payload = harmonic_det_loss(s, HP).to_json()
        assert set(payload) == {
            "ce", "smooth_l1", "iou_value", "hiou", "loc_full", "tc",
            "beta_r", "beta_c", "beta_e", "total", "grad_probs", "grad_d",
        }


def random_negative(rng, num_classes):
    probs = rng.dirichlet(np.ones(num_classes))
    return NegativeSample(probs=probs)


class TestStandardDetLoss:
    def test_perfect_positive(self):
        s = make_sample([0.0, 1.0, 0.0, 0.0, 0.0])
        assert standard_det_loss([s], []) == 0.0

    def test_hand_value(self):
        anchor = Box(0, 0, 2, 2)
        gt = Box(0.5, 0.5, 2.5, 2.5)
        d = Offsets.from_array(encode(gt, anchor).as_array() + np.array([1.0, 0, 0, 0]))
        s = PositiveSample(
            probs=np.array([0.3, 0.7]), gt_class=1, d=d, anchor=anchor, gt_box=gt
        )
        # -ln 0.7 + 0.5, frozen from direct evaluation
        assert standard_det_loss([s], []) == pytest.approx(0.8566749439387324, abs=1e-12)

    def test_duplicate_invariance(self):
        rng = np.random.default_rng(61)
        s = random_positive_sample(rng, HP, 5)
        assert standard_det_loss([s, s], []) == pytest.approx(standard_det_loss([s], []))

    def test_empty_positives_rejected(self):
        with pytest.raises(ValueError):
            standard_det_loss([], [])


class TestBatchObjective:
    def test_single_positive_equals_per_sample_loss(self):
        rng = np.random.default_rng(71)
        s = random_positive_sample(rng, HP, 5)
        batch = batch_objective([s], [], HP)
        assert batch.value == pytest.approx(harmonic_det_loss(s, HP).total, abs=1e-12)

    def test_all_perfect_is_zero(self):
        pos = make_sample([0.0, 1.0, 0.0, 0.0, 0.0])
        neg = NegativeSample(probs=np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert batch_objective([pos], [neg], HP).value == pytest.approx(0.0, abs=1e-8)

    def test_negatives_normalized_by_positive_count(self):
        rng = np.random.default_rng(72)
        pos = [random_positive_sample(rng, HP, 5) for _ in range(2)]
        neg = [random_negative(rng, 5) for _ in range(4)]
        v = batch_objective(pos, neg, HP).value
        per_pos = sum(harmonic_det_loss(s, HP).total for s in pos)
        per_neg = sum(cross_entropy(n.probs, 0) for n in neg)
        assert v == pytest.approx((per_pos + per_neg) / 2.0, abs=1e-12)

    def test_a_negative_is_background(self):
        probs = np.array([0.4, 0.1, 0.3, 0.1, 0.1])
        with pytest.raises(TypeError):
            NegativeSample(probs=probs, gt_class=2)
        pos = make_sample([0.0, 1.0, 0.0, 0.0, 0.0])
        (grad,) = batch_objective([pos], [NegativeSample(probs=probs)], HP).negative_grad_probs
        np.testing.assert_array_equal(grad, [-1.0 / 0.4, 0.0, 0.0, 0.0, 0.0])

    def test_compat_mode_reproduces_standard_loss(self):
        rng = np.random.default_rng(73)
        hp = HP.compat_standard()
        for _ in range(20):
            pos = [random_positive_sample(rng, HP, 5) for _ in range(rng.integers(1, 6))]
            neg = [random_negative(rng, 5) for _ in range(rng.integers(0, 5))]
            assert abs(batch_objective(pos, neg, hp).value - standard_det_loss(pos, neg)) <= 1e-12

    def test_deterministic_repetition(self):
        rng = np.random.default_rng(74)
        pos = [random_positive_sample(rng, HP, 5) for _ in range(4)]
        neg = [random_negative(rng, 5) for _ in range(3)]
        assert batch_objective(pos, neg, HP).value == batch_objective(pos, neg, HP).value


def batch_arrays(positives, negatives, hp):
    """The samples as kernel inputs: the positives' rows, then the
    negatives', and the plan of the positives under ``hp``."""
    probs = np.array([s.probs for s in [*positives, *negatives]])
    offsets = np.zeros((len(probs), 4))
    offsets[: len(positives)] = [s.d.as_array() for s in positives]
    plan = KernelPlan(
        AnchorTargets(
            np.array([s.anchor.as_array() for s in positives]),
            np.array([s.gt_box.as_array() for s in positives]),
        ),
        np.array([s.gt_class for s in positives]),
        np.array([s.d_hat.as_array() for s in positives]),
        hp,
        probs.shape[1],
    )
    return probs, offsets, plan


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (got, want)


def check_against_reference(positives, negatives, hp):
    n = len(positives)
    got = batch_objective_arrays(*batch_arrays(positives, negatives, hp))
    want = batch_objective(positives, negatives, hp)
    assert_close(got.value, want.value)
    assert got.num_positives == want.num_positives
    for k, b in enumerate(want.breakdowns):
        assert_close(got.grad_probs[k], b.grad_probs)
        assert_close(got.grad_d[k], b.grad_d)
        assert_close(got.beta_r[k], b.beta_r)
        assert_close(got.beta_c[k], b.beta_c)
        assert_close(got.iou[k], b.iou_value)
        assert got.p_gt[k] == positives[k].probs[positives[k].gt_class]
    for j, g in enumerate(want.negative_grad_probs):
        assert_close(got.grad_probs[n + j], g)
        assert np.all(got.grad_d[n + j] == 0.0)
    return got, want


def random_batch(rng, hp, max_pos=8, max_neg=8):
    # drawn clear of hp's TC margin
    positives = [random_positive_sample(rng, hp, 5) for _ in range(int(rng.integers(1, max_pos)))]
    # plus samples on the smooth-L1 and TC kinks the oracle's sampler avoids
    for _ in range(3):
        s = random_positive_sample(rng, hp, 5)
        positives.append(replace(s, d=Offsets.from_array(s.d_hat.as_array() + [1.0, -1.0, 0.0, 2.0])))
    negatives = [random_negative(rng, 5) for _ in range(int(rng.integers(0, max_neg)))]
    return positives, negatives


def assert_equals_the_reference_kernel(positives, negatives, hp):
    """The kernel's every field, bit for bit, against the reference kernel
    fed the rows of the positives and of the negatives as index arrays."""
    probs, offsets, plan = batch_arrays(positives, negatives, hp)
    got = batch_objective_arrays(probs, offsets, plan)
    n = len(positives)
    want = train_reference.batch_objective_arrays(
        probs,
        offsets,
        np.array([s.anchor.as_array() for s in positives]),
        np.array([s.gt_box.as_array() for s in positives]),
        plan.gt_class,
        plan.d_hat,
        np.arange(n),
        np.arange(n, len(probs)),
        hp,
    )
    for field in fields(want):
        got_value, want_value = getattr(got, field.name), getattr(want, field.name)
        if field.name == "value":
            assert got_value.hex() == want_value.hex()
        else:
            assert got_value.tobytes() == want_value.tobytes(), field.name


# the scenes of the train workloads at the CLI's defaults and the dense config
TRAIN_SCENES = {
    "train_default": SceneConfig(anchor_spacing=3.0, jitter=0.12),
    "train_dense": SceneConfig(num_scenes=16, anchor_spacing=1.0, jitter=0.12),
}


KINK_CASES = {
    "default": HP,
    "compat_standard": HP.compat_standard(),
    "freeze_factors_with_alpha": replace(HP, freeze_factors=True),
    "entropy_weight_differentiated": replace(HP, beta_e_stop_grad=False),
    "tc_hinge_always_on": replace(HP, margin=0.0, beta_e_stop_grad=False),
    "tc_hinge_always_off": replace(HP, margin=0.99),
    # no HIoU term: the harmonic factors come from smooth L1 alone
    "hiou_off": replace(HP, alpha=0.0),
    # the HIoU focusing exponent at its monotonicity bound, and at 0, where
    # the HIoU weight is 1 at every IoU
    "gamma_at_one": replace(HP, gamma=1.0),
    "gamma_zero": replace(HP, gamma=0.0),
}


class TestBatchObjectiveArrays:
    """The array kernel against the per-sample reference, to 1e-12."""

    @pytest.mark.parametrize("case", sorted(KINK_CASES))
    def test_matches_reference_on_random_batches(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(sorted(KINK_CASES).index(case))
        for _ in range(15):
            check_against_reference(*random_batch(rng, hp), hp)

    @pytest.mark.parametrize("case", sorted(KINK_CASES))
    def test_probability_floor_clamp(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(90)
        # p_gt, the other entries and the background at 0.0 and at 1e-300,
        # both below PROB_FLOOR: the CE and entropy logs, the dp mask and the
        # negatives' floor all clamp
        d = [0.1, -0.2, 0.05, 0.1]
        positives = [
            make_sample([0.5, 0.0, 0.5, 0.0, 0.0], gt_class=1, d=d),
            make_sample([0.0, 1.0, 0.0, 0.0, 0.0], gt_class=1),
            make_sample([0.5, 1e-300, 0.5, 1e-300, 0.0], gt_class=1, d=d),
            make_sample([1e-300, 1.0, 1e-300, 0.0, 0.0], gt_class=1),
        ]
        negatives = [
            NegativeSample(probs=np.array([0.0, 0.25, 0.25, 0.25, 0.25])),
            NegativeSample(probs=np.array([1e-300, 0.25, 0.25, 0.25, 0.25])),
            random_negative(rng, 5),
        ]
        check_against_reference(positives, negatives, hp)
        assert_equals_the_reference_kernel(positives, negatives, hp)

    def test_hinge_cases_are_exercised(self):
        rng = np.random.default_rng(91)
        positives, negatives = random_batch(rng, HP, max_pos=20)
        on, _ = check_against_reference(positives, negatives, KINK_CASES["tc_hinge_always_on"])
        off, _ = check_against_reference(positives, negatives, KINK_CASES["tc_hinge_always_off"])
        assert on.value != off.value

    def test_bit_equal_to_reference(self):
        # training amplifies last-bit differences into a different trajectory
        rng = np.random.default_rng(92)
        positives, negatives = random_batch(rng, HP)
        n = len(positives)
        got = batch_objective_arrays(*batch_arrays(positives, negatives, HP))
        want = batch_objective(positives, negatives, HP)
        assert got.value == want.value
        assert np.array_equal(got.grad_probs[:n], [b.grad_probs for b in want.breakdowns])
        assert np.array_equal(got.grad_d[:n], [b.grad_d for b in want.breakdowns])
        if negatives:
            assert np.array_equal(got.grad_probs[n:], want.negative_grad_probs)

    @pytest.mark.parametrize("case", sorted(KINK_CASES))
    def test_row_losses_match_reference(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(100 + sorted(KINK_CASES).index(case))
        for _ in range(15):
            positives, negatives = random_batch(rng, hp)
            got = batch_objective_arrays(*batch_arrays(positives, negatives, hp))
            assert_close(got.pos_loss, [harmonic_det_loss(s, hp).total for s in positives])
            assert_close(
                got.neg_loss, [cross_entropy(n.probs, 0) for n in negatives]
            )
            # the in-order sum over the positive count is the objective, bit for bit
            total = 0.0
            for v in [*got.pos_loss.tolist(), *got.neg_loss.tolist()]:
                total += v
            assert total / len(positives) == got.value

    def test_row_losses_bit_equal_to_reference(self):
        rng = np.random.default_rng(93)
        positives, negatives = random_batch(rng, HP)
        negatives.append(random_negative(rng, 5))
        got = batch_objective_arrays(*batch_arrays(positives, negatives, HP))
        assert got.pos_loss.tolist() == [harmonic_det_loss(s, HP).total for s in positives]
        assert got.neg_loss.tolist() == [cross_entropy(n.probs, 0) for n in negatives]

    @pytest.mark.parametrize("case", sorted(KINK_CASES))
    def test_value_columns_equal_the_scalar_values(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(110 + sorted(KINK_CASES).index(case))
        positives, negatives = random_batch(rng, hp)
        got = batch_objective_arrays(*batch_arrays(positives, negatives, hp))
        assert got.ce.tolist() == [cross_entropy(s.probs, s.gt_class) for s in positives]
        assert got.sl1.tolist() == [smooth_l1(s.d, s.d_hat) for s in positives]
        assert got.loc.tolist() == [full_loc_loss(s, hp)[0] for s in positives]
        if hp.freeze_factors:
            assert not got.tc.any()
        else:
            assert got.tc.tolist() == [tc_loss(s, hp)[0] for s in positives]
            # harmonic_loss's value from the columns, as the gradient gate forms it
            harmonic = (1.0 + got.beta_r) * got.ce + (1.0 + got.beta_c) * got.loc
            assert harmonic.tolist() == [harmonic_loss(s, hp)[0] for s in positives]

    @pytest.mark.parametrize("case", sorted(KINK_CASES))
    def test_equals_the_reference_kernel_bit_for_bit(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(120 + sorted(KINK_CASES).index(case))
        for _ in range(5):
            assert_equals_the_reference_kernel(*random_batch(rng, hp), hp)

    # the compact rows train_toy steps from a zero model: the positives and
    # one row for all the identical negatives
    @pytest.mark.parametrize("workload, scene", sorted(TRAIN_SCENES.items()))
    @pytest.mark.parametrize("hp", [HP, HP.compat_standard()], ids=["harmonic", "standard"])
    def test_equals_the_reference_kernel_at_the_training_sizes(self, workload, scene, hp):
        n = generate_scenes(scene).matching.pos_flat.size
        rng = np.random.default_rng(130)
        positives = [random_positive_sample(rng, HP, 5) for _ in range(n)]
        assert_equals_the_reference_kernel(positives, [random_negative(rng, 5)], hp)

    def test_objective_and_negative_losses_are_computed_on_first_read(self):
        rng = np.random.default_rng(94)
        positives, negatives = random_batch(rng, HP)
        negatives.append(random_negative(rng, 5))
        got = batch_objective_arrays(*batch_arrays(positives, negatives, HP))
        assert "value" not in vars(got) and "neg_loss" not in vars(got)
        value = got.value
        assert vars(got)["value"] is value and vars(got)["neg_loss"] is got.neg_loss
        assert value == batch_objective(positives, negatives, HP).value
        # derived from the fields, neither is set by the constructor
        with pytest.raises(TypeError):
            replace(got, value=math.inf)
        with pytest.raises(AttributeError):
            got.value = 0.0

    # the kernel's three branches: the entropy weight held, the entropy
    # weight differentiated (which adds into whole positive rows), and the
    # factors frozen
    @pytest.mark.parametrize(
        "case", ["default", "entropy_weight_differentiated", "freeze_factors_with_alpha"]
    )
    def test_a_reused_plan_equals_a_fresh_one_bit_for_bit(self, case):
        hp = KINK_CASES[case]
        rng = np.random.default_rng(140 + sorted(KINK_CASES).index(case))
        positives, negatives = random_batch(rng, hp)
        negatives.append(random_negative(rng, 5))
        probs, offsets, plan = batch_arrays(positives, negatives, hp)
        kept = None
        for _ in range(3):
            got = batch_objective_arrays(probs, offsets, plan)
            want = batch_objective_arrays(probs, offsets, batch_arrays(positives, negatives, hp)[2])
            as_bytes = [getattr(got, f.name).tobytes() for f in fields(got)]
            assert as_bytes == [getattr(want, f.name).tobytes() for f in fields(want)]
            # no field is a view of the plan: the next call leaves it be
            if kept is not None:
                assert [getattr(kept[0], f.name).tobytes() for f in fields(got)] == kept[1]
            kept = got, as_bytes
            # other predictions for the same positives and negatives
            probs = rng.dirichlet(np.ones(5), size=len(probs))
            offsets = offsets + rng.uniform(-0.3, 0.3, size=offsets.shape)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="^batch objective needs at least one positive sample$"):
            KernelPlan(
                AnchorTargets(np.zeros((0, 4)), np.zeros((0, 4))),
                np.array([], dtype=int), np.zeros((0, 4)), HP, 5,
            )


class TestGradientSurface:
    def test_standard_rows_identical(self):
        grid = gradient_surface("standard")
        assert grid.shape == (SURFACE_LOC_GRID.size, SURFACE_P_GRID.size)
        for row in grid:
            np.testing.assert_array_equal(row, grid[0])

    def test_standard_is_reciprocal(self):
        np.testing.assert_allclose(gradient_surface("standard")[0], -1.0 / SURFACE_P_GRID)

    def test_harmonic_spot_value(self):
        # loc 0 (row 0) at p 0.5 (column 9)
        assert SURFACE_LOC_GRID[0] == 0.0 and SURFACE_P_GRID[9] == pytest.approx(0.5)
        assert gradient_surface("harmonic")[0, 9] == pytest.approx(-4.0, abs=1e-12)

    def test_harmonic_magnitude_decreases_along_loc(self):
        grid = gradient_surface("harmonic")
        assert np.all(grid < 0)
        mags = np.abs(grid)
        assert np.all(np.diff(mags, axis=0) < 0)

    @pytest.mark.parametrize("mode", ["standard", "harmonic"])
    def test_every_grid_gradient_is_finite_and_bounded(self, mode):
        # p >= 0.05 bounds |grad| by (1 + e^0) / 0.05 = 40; a warning fails the test
        grid = gradient_surface(mode)
        assert np.all(np.isfinite(grid)) and np.abs(grid).max() <= 40.0

    def test_grid_lies_in_the_loss_domain(self):
        # p in (0, 1] and loc >= 0, each strictly increasing
        assert 0.0 < SURFACE_P_GRID[0] and SURFACE_P_GRID[-1] == 1.0
        assert SURFACE_LOC_GRID[0] == 0.0
        assert np.all(np.diff(SURFACE_P_GRID) > 0) and np.all(np.diff(SURFACE_LOC_GRID) > 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown surface mode: 'other'"):
            gradient_surface("other")
