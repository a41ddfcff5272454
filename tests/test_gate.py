"""The finite-difference gradient gate: its central differences, its
draws, and every operation's errors against the per-draw references."""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hardet.gate as gate
import hardet.losses as losses
from hardet.gate import (
    PROB_DRAW_FLOOR,
    NumericalError,
    finite_diff_grad,
    random_positive_sample,
    run_gradcheck,
)
from hardet.geom import Box
from hardet.losses import HyperParams, KernelPlan

import gate_reference


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda xs: xs[:, 0] ** 2, np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda xs: np.ones(len(xs)), np.array([0.5, -2.0]))
        np.testing.assert_array_equal(g, np.zeros(2))

    @pytest.mark.parametrize("h", [0.0, -1e-6, math.nan, [1e-6, 0.0]])
    def test_bad_step_rejected(self, h):
        with pytest.raises(ValueError, match="finite-difference step must be positive"):
            finite_diff_grad(lambda xs: np.zeros(len(xs)), np.zeros(2), h=h)

    def test_non_finite_evaluation_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda xs: np.full(len(xs), math.inf), np.zeros(1))

    def test_one_call_on_every_step_up_then_every_step_down(self):
        stacks = []

        def fn(xs):
            stacks.append(xs.copy())
            return xs.sum(axis=1)

        params, h = np.array([2.0, -1.0, 0.5]), np.array([1e-6, 5e-7, 1e-6])
        finite_diff_grad(fn, params, h)
        assert len(stacks) == 1
        steps = np.diag(h)
        assert stacks[0].tobytes() == np.concatenate([params + steps, params - steps]).tobytes()

    def test_vector_function_gives_its_jacobian(self):
        def fn(xs):
            return np.stack([xs[:, 0] * xs[:, 1], xs[:, 1] ** 2, np.full(len(xs), 3.0)], axis=1)

        jac = finite_diff_grad(fn, np.array([2.0, -1.0]))
        assert jac.shape == (3, 2)
        np.testing.assert_allclose(jac, [[-1.0, 2.0], [0.0, -2.0], [0.0, 0.0]], atol=1e-8)
        # each column is the scalar difference of that output, bit for bit
        for r in range(3):
            assert np.array_equal(jac[r], finite_diff_grad(lambda xs, r=r: fn(xs)[:, r], [2.0, -1.0]))

    @pytest.mark.parametrize("h", [1e-6, np.array([5e-7, 1e-6, 2e-6])])
    def test_equals_the_per_vector_reference_bit_for_bit(self, h):
        # one call per step, the form the gate's reference differences with
        def fn(x):
            return np.array([math.exp(x[0]) * x[1], math.sin(x[2]) / (1.0 + x[0] ** 2)])

        params = np.array([0.3, -1.2, 2.5])
        stacked = finite_diff_grad(lambda xs: [fn(x) for x in xs], params, h)
        if np.ndim(h):
            # the reference takes one step for every axis: one axis at a time
            for k in range(3):
                column = gate_reference.finite_diff_grad(
                    lambda v, k=k: fn(np.concatenate([params[:k], v, params[k + 1 :]])),
                    params[k : k + 1],
                    h[k],
                )
                assert stacked[:, k].tobytes() == column[:, 0].tobytes()
        else:
            assert stacked.tobytes() == gate_reference.finite_diff_grad(fn, params, h).tobytes()

    def test_any_non_finite_output_rejected(self):
        def fn(xs):
            return np.stack([np.ones(len(xs)), np.where(xs[:, 1] > 0, math.inf, 0.0)], axis=1)

        with pytest.raises(ValueError, match=r"loss not finite near params\[1\]"):
            finite_diff_grad(fn, np.zeros(2))


# the gate's hyperparameter variants: both loss modes (standard trains on
# compat_standard), the differentiable entropy weight, harmonic factors from
# smooth L1 alone, the HIoU exponent at its bound and at 0, and three classes
GATE_CASES = {
    "default": (HyperParams(), 5),
    "compat_standard": (HyperParams().compat_standard(), 5),
    "beta_e_not_stopped": (HyperParams(beta_e_stop_grad=False), 5),
    "hiou_off": (HyperParams(alpha=0.0), 5),
    "gamma_at_one": (HyperParams(gamma=1.0), 5),
    "gamma_zero": (HyperParams(gamma=0.0), 5),
    "three_classes": (HyperParams(), 3),
}


class TestGradCheck:
    def test_non_finite_loss_names_the_operation(self):
        # the largest finite alpha
        hp = HyperParams(alpha=sys.float_info.max)
        with pytest.raises(NumericalError, match="gradcheck harmonic_cls_grad: loss not finite"):
            run_gradcheck(hp, 5, num_samples=2)

    @pytest.mark.parametrize("field", ["pos_loss", "neg_p"])
    def test_non_finite_batch_row_fails_the_batch_entry_only(self, monkeypatch, field):
        # each copy of the stack ends its positives and its negatives with a
        # batch draw's row; the sample entries read the same evaluations but
        # not those rows
        real = gate.batch_objective_arrays
        rows = 2 + 4 * (gate.BATCH_POSITIVES + gate.BATCH_NEGATIVES)

        def poisoned(row):
            def kernel(*args):
                batch = real(*args)
                # every copy's positives, then every copy's negatives
                values = getattr(batch, field).copy()
                values.reshape(len(args[0]) // rows, -1)[:, row] = math.inf
                return replace(batch, **{field: values})

            return kernel

        monkeypatch.setattr(gate, "batch_objective_arrays", poisoned(-1))
        hp = HyperParams()
        with pytest.raises(NumericalError, match=r"^gradcheck batch_objective: loss not finite near params\[0\]$"):
            run_gradcheck(hp, 5, num_samples=2, seed=0)
        # a copy's second positive is the last sample draw's
        if field == "pos_loss":
            monkeypatch.setattr(gate, "batch_objective_arrays", poisoned(1))
            with pytest.raises(NumericalError, match="^gradcheck harmonic_det_loss: loss not finite"):
                run_gradcheck(hp, 5, num_samples=2, seed=0)

    def test_report_covers_every_operation_once(self):
        hp = HyperParams()
        report = run_gradcheck(hp, 5, num_samples=10, seed=0)
        ops = [e.op for e in report.entries]
        assert len(ops) == len(set(ops))
        assert set(ops) == {
            "iou_grad",
            "decode_jacobian",
            "harmonic_cls_grad",
            "harmonic_reg_grad",
            "full_loc_loss",
            "tc_loss",
            "harmonic_det_loss",
            "batch_objective",
        }
        # each entry counts the draws of its kind: the batch entry checks the
        # default 4 batch draws, not the 10 samples
        assert [e.samples for e in report.entries] == [10] * 7 + [4]
        assert report.passed

    def test_zero_tolerance_fails(self, monkeypatch):
        hp = HyperParams()
        report = run_gradcheck(hp, 5, num_samples=5, seed=0)
        assert report.passed
        # the tolerance is read when an entry is judged
        monkeypatch.setattr(gate, "GRADCHECK_TOLERANCE", 0.0)
        assert not report.passed

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="^gradcheck needs at least one sample, got 0$"):
            run_gradcheck(HyperParams(), 5, num_samples=0)

    def test_oversized_sweep_rejected_before_drawing(self, monkeypatch):
        def sampler(*args):
            raise AssertionError("the gate drew before its sample count was checked")

        monkeypatch.setattr(gate, "random_positive_sample", sampler)
        limit = gate.MAX_GATE_SAMPLES
        message = f"^gradcheck samples must be <= {limit}, got {limit + 1}$"
        with pytest.raises(ValueError, match=message):
            run_gradcheck(HyperParams(), 5, num_samples=limit + 1)
        # the sampler the gate draws with is the one patched
        with pytest.raises(AssertionError, match="the gate drew"):
            run_gradcheck(HyperParams(), 5, num_samples=1)

    def test_draws_stay_above_probability_floor(self):
        rng = np.random.default_rng(0)
        hp = HyperParams()
        for _ in range(300):
            assert random_positive_sample(rng, hp, 5).probs.min() >= PROB_DRAW_FLOOR

    def test_offset_noise_stays_clear_of_the_smooth_l1_kinks(self):
        # |d - d_hat| never comes near the curvature breaks at 1, which the
        # sampler therefore does not test for
        rng = np.random.default_rng(0)
        hp = HyperParams()
        noise = [
            np.abs(s.d.as_array() - s.d_hat.as_array()).max()
            for s in (random_positive_sample(rng, hp, 5) for _ in range(500))
        ]
        assert max(noise) <= 0.5

    def test_unreachable_draw_floor_cannot_draw(self):
        # 200 probabilities of at least 1e-3 each: a rare draw, and one does
        # not come within the rejection sampler's tries
        with pytest.raises(NumericalError, match="gradcheck could not draw"):
            run_gradcheck(HyperParams(), 200, num_samples=1)

    @pytest.mark.parametrize("num_classes", [1000, 5000])
    def test_draw_floor_out_of_reach_is_rejected_before_drawing(self, num_classes):
        # num_classes probabilities of at least 1e-3 cannot sum to 1
        message = f"^{num_classes} class probabilities summing to 1 cannot all reach the gradient gate's draw floor 0.001$"
        with pytest.raises(ValueError, match=message):
            gate.check_draw_floor(num_classes)
        with pytest.raises(ValueError, match=message):
            run_gradcheck(HyperParams(), num_classes, num_samples=1)
        # a floor within reach, however rarely drawn, is left to the sampler
        gate.check_draw_floor(999)

    def test_exhausted_draws_name_the_draw_floor_and_class_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalError, match=r"num_classes 200 probabilities at or above the draw floor 0\.001$"):
            random_positive_sample(rng, HyperParams(), 200)

    # seeds where draws with class probabilities near 1e-5 made the 5e-7
    # probability FD step too coarse for the 1e-5 tolerance
    @pytest.mark.parametrize("seed", [14, 32, 51, 53])
    def test_default_sweep_passes_at_former_failing_seeds(self, seed):
        report = run_gradcheck(HyperParams(), 5, num_samples=500, seed=seed)
        assert report.passed, report.entries

    @pytest.mark.parametrize("seed", [134, 193, 267, 751])
    def test_training_gate_passes_at_former_failing_seeds(self, seed):
        hp = HyperParams()
        for gate_hp in (hp, hp.compat_standard()):
            report = run_gradcheck(gate_hp, 5, num_samples=20, seed=seed)
            assert report.passed, report.entries

    def test_batch_entry_checks_the_training_kernel(self, monkeypatch):
        real = gate.batch_objective_arrays
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gate, "batch_objective_arrays", counted)
        # every call runs on copies of one stack: the two sample draws, then
        # every batch draw's positives, then its negatives
        rows, negatives = 2 + 4 * (gate.BATCH_POSITIVES + gate.BATCH_NEGATIVES), 4 * 3
        hp = HyperParams()
        for num_classes in (3, 5):
            copies = 2 * (num_classes + 4)
            # one call on every stepped copy per set of hyperparameters the
            # entries difference, then the batch draws' analytic call: in
            # harmonic mode the entries share one set; compat_standard frees
            # the factors for some entries only
            for gate_hp, sets in ((hp, 1), (hp.compat_standard(), 2)):
                calls.clear()
                report = run_gradcheck(gate_hp, num_classes, num_samples=2, seed=0)
                assert report.passed
                assert [len(args[0]) for args in calls] == [copies * rows] * sets + [rows]
                assert [len(args[0]) - len(args[2].gt_class) for args in calls] == [copies * negatives] * sets + [negatives]

    @pytest.mark.parametrize("num_samples", [20, 500])
    def test_stacked_calls_stay_within_the_row_cap(self, monkeypatch, num_samples):
        real = gate.batch_objective_arrays
        calls = []
        monkeypatch.setattr(gate, "batch_objective_arrays", lambda *a: calls.append(len(a[0])) or real(*a))
        run_gradcheck(HyperParams(), 5, num_samples, seed=0)
        rows = num_samples + 4 * (gate.BATCH_POSITIVES + gate.BATCH_NEGATIVES)
        per_call = max(1, gate.MAX_GATE_ROWS // rows)
        # the stepped copies, in calls of as many copies as the cap holds,
        # then the analytic call
        copies = [min(per_call, 18 - k) for k in range(0, 18, per_call)]
        assert calls == [c * rows for c in copies] + [rows]
        assert len(calls) == (2 if num_samples == 20 else 7)

    @pytest.mark.parametrize(
        "hp", [HyperParams(), HyperParams().compat_standard(), HyperParams(beta_e_stop_grad=False)]
    )
    def test_one_localization_pass_per_draw(self, monkeypatch, hp):
        real = losses._loc_parts
        calls = []
        monkeypatch.setattr(losses, "_loc_parts", lambda *a: calls.append(a[0]) or real(*a))
        run_gradcheck(hp, 5, num_samples=20, seed=0)
        assert len(calls) == len({id(s) for s in calls}) == 20

    @pytest.mark.parametrize(
        "mutant",
        [
            # a gradient off by 0.1%
            lambda real, *a: replace(real(*a), grad_d=real(*a).grad_d * 1.001),
            # the TC term's gradient through the entropy weight dropped
            lambda real, probs, offsets, plan: real(probs, offsets, KernelPlan(
                plan.targets, plan.gt_class, plan.d_hat,
                replace(plan.hp, beta_e_stop_grad=True), probs.shape[1],
            )),
        ],
        ids=["grad_d_scaled", "tc_entropy_term_dropped"],
    )
    def test_mutant_kernel_fails_the_gate(self, monkeypatch, mutant):
        real = gate.batch_objective_arrays
        monkeypatch.setattr(gate, "batch_objective_arrays", lambda *a: mutant(real, *a))
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=0)
        assert [e.op for e in report.entries if not e.passed] == ["batch_objective"]

    @pytest.mark.parametrize("seed", [0, 14])
    def test_worst_draw_replays_from_seed_and_index(self, seed):
        hp = HyperParams()
        samples = 6
        report = run_gradcheck(hp, 5, samples, seed=seed)
        for e in report.entries:
            rng = np.random.default_rng(seed)
            draws = [
                (random_positive_sample(rng, hp, 5), gate._random_box_pair(rng))
                for _ in range(samples)
            ]
            batches = [gate._random_batch(rng, hp, 5) for _ in range(gate.BATCH_DRAWS)]
            if e.op == "batch_objective":
                replayed = gate._gate_errors([], [batches[e.worst_draw]], hp)[e.op]()[0]
            else:
                replayed = gate._gate_errors([draws[e.worst_draw]], [], hp)[e.op]()[0]
            assert 0 <= e.worst_draw < (gate.BATCH_DRAWS if e.op == "batch_objective" else samples)
            assert replayed == e.max_err > 0.0, e.op

    @pytest.mark.parametrize("seed", [0, 7, 14])
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_stacked_errors_equal_the_per_draw_reference(self, case, seed):
        hp, num_classes = GATE_CASES[case]
        rng = np.random.default_rng(seed)
        draws = [
            (random_positive_sample(rng, hp, num_classes), gate._random_box_pair(rng))
            for _ in range(20)
        ]
        batches = [gate._random_batch(rng, hp, num_classes) for _ in range(3)]
        stacked = {op: err() for op, err in gate._gate_errors(draws, batches, hp).items()}
        assert list(stacked) == list(gate.GRADCHECK_OPS)
        for op in gate.GRADCHECK_OPS[:-1]:
            want = [gate_reference._check_one(sample, pair, hp)[op]() for sample, pair in draws]
            assert stacked[op].tolist() == want, op
        # the batch draws' errors do not depend on the rows stacked with them
        alone = [gate._gate_errors([], [batch], hp)["batch_objective"]()[0] for batch in batches]
        assert stacked["batch_objective"].tolist() == alone

    @pytest.mark.parametrize("seed", [0, 7, 14, 32])
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_gate_equals_the_per_copy_reference_bit_for_bit(self, case, seed):
        # the gate before its stepped copies shared one kernel call
        hp, num_classes = GATE_CASES[case]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, ref_draws = [], []
        for _ in range(20):
            draws.append((random_positive_sample(rng, hp, num_classes), gate._random_box_pair(rng)))
            ref_draws.append((
                gate_reference.random_positive_sample(ref_rng, hp, num_classes),
                gate_reference._random_box_pair(ref_rng),
            ))
        for (s, (a, b)), (ref, (ref_a, ref_b)) in zip(draws, ref_draws):
            assert s.probs.tobytes() == ref.probs.tobytes() and s.gt_class == ref.gt_class
            for got, want in [
                (s.d, ref.d), (s.d_hat, ref.d_hat), (s.anchor, ref.anchor), (s.gt_box, ref.gt_box),
                (a, ref_a), (b, ref_b),
            ]:
                assert got.as_array().tobytes() == want.as_array().tobytes()
        # the samplers leave the generator where the reference leaves it
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        batches = [gate._random_batch(rng, hp, num_classes) for _ in range(4)]
        got = {op: err() for op, err in gate._gate_errors(draws, batches, hp).items()}
        want = {op: err() for op, err in gate_reference._gate_errors(draws, batches, hp).items()}
        assert list(got) == list(want)
        for op in want:
            assert got[op].tobytes() == want[op].tobytes(), op

    # the stepped copies of a 500-draw stack are evaluated a few at a time
    # (MAX_GATE_ROWS), so the gate's traced peak stays near the per-copy
    # reference's, which holds every copy's evaluation but runs one at a time
    @pytest.mark.parametrize("num_samples, allowance", [(20, 1 << 20), (500, 2 << 20)])
    @pytest.mark.parametrize("case", ["default", "compat_standard"])
    def test_gate_memory_stays_near_the_per_copy_reference(self, num_samples, allowance, case):
        hp, num_classes = GATE_CASES[case]

        def peak(module) -> int:
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                draws = [
                    (module.random_positive_sample(rng, hp, num_classes), module._random_box_pair(rng))
                    for _ in range(num_samples)
                ]
                batches = [gate._random_batch(rng, hp, num_classes) for _ in range(4)]
                for err in module._gate_errors(draws, batches, hp).values():
                    err()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(gate) <= peak(gate_reference) + allowance

    @pytest.mark.parametrize("sampler", ["random_positive_sample", "_random_box_pair"])
    def test_samplers_equal_the_reference_over_many_draws(self, sampler):
        # enough tries that every rejection branch fires
        hp = HyperParams(margin=0.05)
        draws = {}
        for module in (gate, gate_reference):
            rng = np.random.default_rng(3)
            if sampler == "_random_box_pair":
                drawn = [module._random_box_pair(rng) for _ in range(3000)]
            else:
                drawn = [module.random_positive_sample(rng, hp, 4) for _ in range(500)]
                drawn = [(s.probs, s.gt_class, s.d, s.anchor, s.gt_box) for s in drawn]
            as_bytes = [
                tuple(v.as_array().tobytes() if hasattr(v, "as_array") else np.asarray(v).tobytes() for v in d)
                for d in drawn
            ]
            draws[module] = as_bytes, rng.bit_generator.state
        assert draws[gate] == draws[gate_reference]

    @pytest.mark.parametrize(
        "b, accepted",
        [
            (Box(1.0, 1.0, 5.0, 5.0), True),
            # a corner coordinate within KINK_MARGIN of a's
            (Box(0.0005, 1.0, 5.0, 5.0), False),
            (Box(1.0, -0.0005, 5.0, 5.0), False),
            (Box(1.0, 1.0, 3.9995, 5.0), False),
            (Box(1.0, 1.0, 5.0, 4.0005), False),
            # touching edges, and no overlap at all
            (Box(4.0, 1.0, 6.0, 5.0), False),
            (Box(1.0, 4.0, 5.0, 6.0), False),
            (Box(5.0, 1.0, 7.0, 5.0), False),
            # an overlap narrower, or lower, than KINK_MARGIN
            (Box(3.9995, 1.0, 6.0, 5.0), False),
            (Box(1.0, 3.9995, 5.0, 6.0), False),
        ],
    )
    def test_kink_predicate_hand_cases(self, b, accepted):
        # no drawn seed fires the touching-edge branch, so only these cases
        # hold each branch of the samplers' shared kink test
        a = Box(0.0, 0.0, 4.0, 4.0)
        assert gate._kink_free_overlap(a, b) is accepted
        assert gate._kink_free_overlap(b, a) is accepted

    def test_exhausted_draws_match_the_reference(self):
        hp = HyperParams()
        raised = []
        for sampler in (random_positive_sample, gate_reference.random_positive_sample):
            rng = np.random.default_rng(0)
            with pytest.raises(NumericalError) as exc:
                sampler(rng, hp, 200)
            raised.append((str(exc.value), rng.bit_generator.state))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize("op", gate.GRADCHECK_OPS[:-1])
    def test_mutant_scalar_gradient_fails_its_operation(self, monkeypatch, op):
        real = getattr(gate, op)
        # each operation's analytic gradient off by 0.1%
        scaled = {
            "full_loc_loss": lambda *a: (real(*a)[0], real(*a)[1] * 1.001),
            "tc_loss": lambda *a: (*real(*a)[:2], real(*a)[2] * 1.001, real(*a)[3]),
            "harmonic_det_loss": lambda *a: replace(real(*a), grad_d=real(*a).grad_d * 1.001),
        }
        monkeypatch.setattr(gate, op, scaled.get(op, lambda *a: real(*a) * 1.001))
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=0)
        assert [e.op for e in report.entries if not e.passed] == [op]

    def test_nan_error_fails_the_entry(self, monkeypatch):
        real = gate.batch_objective_arrays
        monkeypatch.setattr(
            gate,
            "batch_objective_arrays",
            lambda *a: replace(real(*a), grad_probs=np.where(real(*a).grad_probs < 0, np.nan, 0)),
        )
        report = run_gradcheck(HyperParams(), 5, num_samples=2, seed=0)
        assert math.isnan(report.entries[-1].max_err)
        assert not report.passed

    # max_err of every op at the commit before the central differences were
    # folded into finite_diff_grad; the fold must not move a single bit. The
    # last, batch_objective, is pinned since the entry checks the row-wise
    # differences of batch_objective_arrays instead of the scalar objective.
    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, ["0x1.59d9f80000000p-33", "0x1.3a9e7aaef0314p-31", "0x1.4404a00000000p-31",
                 "0x1.48c96e1800000p-31", "0x1.2130600000000p-32", "0x1.4025a80000000p-35",
                 "0x1.9b216a0000000p-31", "0x1.1cf207cad6409p-24"]),
            (14, ["0x1.5290100000000p-33", "0x1.20f774f8c0864p-31", "0x1.5ee80f8a8b9edp-32",
                  "0x1.93db200000000p-31", "0x1.2d9cd3d397618p-32", "0x1.dbdcc00000000p-35",
                  "0x1.93db200000000p-31", "0x1.3b08550315a61p-25"]),
        ],
    )
    def test_max_errors_are_pinned_bit_for_bit(self, seed, expected):
        report = run_gradcheck(HyperParams(), 5, num_samples=20, seed=seed)
        assert [e.max_err.hex() for e in report.entries] == expected

    # max_err of every op at seed 0 under compat_standard, the hyperparameters
    # standard-mode training gates, before the entries shared one stack
    def test_standard_mode_max_errors_are_pinned_bit_for_bit(self):
        hp = HyperParams().compat_standard()
        report = run_gradcheck(hp, 5, num_samples=20, seed=0)
        assert [e.max_err.hex() for e in report.entries] == [
            "0x1.59d9f80000000p-33", "0x1.3a9e7aaef0314p-31", "0x1.7791dc3762e26p-33",
            "0x1.51bb0f0000000p-31", "0x1.8ebc800000000p-36", "0x1.4025a80000000p-35",
            "0x1.d877c00000000p-32", "0x1.1cf207cad6409p-24",
        ]
