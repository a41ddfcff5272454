"""Before/after timings of ``train_toy``, the gradient gate and the perfbench
workloads.

    python scripts/bench_train_toy.py layer SRC OUT.json
    python scripts/bench_train_toy.py compare PARENT CHANGE OUT.json --what TEXT [--pairs N] [--seconds S]

``layer`` imports ``hardet`` from SRC and times one gate-off ``train_toy``
call at 100, 4 096 and 16 384 model rows in both loss modes; the gate that
precedes ``train``, ``run_gradcheck`` on 20 samples of 5 classes, under both
modes' hyperparameters; ``refinement_experiment`` at the ``refine_long``
workload's config, the other caller of ``offset_iou_and_grad``;
``offset_iou_and_grad`` itself, 100 calls at 12 (``train_default``'s
positives), 478 (refine's two stacked runs), 4 096 and 16 384 rows, cycling
refine's matched pairs under fixed random offsets, each call with e^tw and
e^th from a libm pass as train's kernel computes them; the
evaluation that follows ``train`` (``cli._evaluate_trained``: NMS, AP and
the scatter) on the models trained at 4 096 and 16 384 rows;
``generate_scenes`` at refine's 60 scenes; and ``batch_objective_arrays``,
100 calls on the compact rows ``train_toy`` steps on at the 100-row
(``train_default``) and 4 096-row (``train_dense``) configs, in each
workload's loss mode (:func:`batch_kernel_cases`). Each call
runs between two runs of perfbench's calibration loop; a case's value is the
median over batches of the call's time over the mean of the two calibration
times, so it reads in perfbench's ``calib`` units.

``compare`` takes two checkouts (each a plain copy with ``src/`` and
``perfbench/``) and writes one JSON file: ``--what``, the change measured, in
one sentence; the layer timings of both, from :data:`ROUNDS` rounds that
alternate which side runs first, each case's median over rounds with every
round's value; ``--pairs`` alternating perfbench runs per workload
(``train_dense`` gets twice as many), with the medians, quartiles and wins of
every end-to-end metric; and one traced run per side and workload, for the
per-layer call counts and self times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve()

MODES = ("harmonic_det", "standard")
# the trained models the evaluation runs on, in train_dense's loss mode
EVAL_CASES = ("4096_rows", "16384_rows")
EVAL_MODE = "standard"
# rows of the geometry kernel's cases, and its calls per timed batch
KERNEL_ROWS = (12, 478, 4096, 16384)
KERNEL_CALLS = 100
# the gate's draws before train, the OptimizerConfig default
GATE_SAMPLES = 20
# the batch kernel's cases: the layer case whose compact rows it runs on,
# in that workload's loss mode
BATCH_CASES = {"100_rows": "harmonic_det", "4096_rows": "standard"}
BATCHES = 7
# layer rounds per side in ``compare``: three rounds' medians could not
# resolve a 20% change
ROUNDS = 5
END_TO_END = ("wall_rel", "cpu_rel", "peak_rss_mb", "setup_s")
WORKLOADS = {"train_dense": 1801, "train_default": 1821, "refine_long": 1841}
TRACE_SEED = 1861


def layer_cases(cli) -> dict:
    """name -> (scene config, optimizer config) of ``hardet.cli`` module
    ``cli``; steps as the workloads run them. 100_rows is train's defaults."""
    return {
        "100_rows": (cli._TRAIN_SCENE_DEFAULTS, {}),
        "4096_rows": (
            {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
            {"steps": 20, "log_every": 5},
        ),
        "16384_rows": ({"num_scenes": 16, "anchor_spacing": 0.5}, {"steps": 100, "log_every": 25}),
    }


def batch_kernel_cases() -> dict:
    """name -> (rows, positives, a call of ``batch_objective_arrays``) for
    each of :data:`BATCH_CASES`: the compact rows ``train_toy`` steps on, the
    positives and one row for the zero model's identical negatives, at fixed
    random predictions, on the per-run plan."""
    import numpy as np

    import hardet
    from hardet import cli, losses

    cases = {}
    for name, mode in BATCH_CASES.items():
        ss = hardet.generate_scenes(hardet.SceneConfig(**layer_cases(cli)[name][0]))
        m, c = ss.matching, ss.config.num_classes
        rows = m.pos_flat.size + (m.neg_flat.size > 0)
        rng = np.random.default_rng(rows)
        probs, offsets = rng.dirichlet(np.ones(c), size=rows), rng.uniform(-0.3, 0.3, (rows, 4))
        hp = hardet.HyperParams()
        plan = losses.KernelPlan(
            m.targets, m.gt_class, m.d_hat, hp.compat_standard() if mode == "standard" else hp, c
        )
        cases[f"batch_objective_arrays_{name}_{mode}"] = (
            rows,
            int(m.pos_flat.size),
            lambda p=probs, d=offsets, plan=plan: losses.batch_objective_arrays(p, d, plan),
        )
    return cases


def refine_case(cli) -> tuple[dict, dict]:
    """refine_long: refine's scene and optimizer defaults, at 100 steps."""
    return cli._REFINE_SCENE_DEFAULTS, {**cli._REFINE_OPT_DEFAULTS, "steps": 100}


def layer(src: str, out: str) -> None:
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(src).parent / "perfbench"))
    from child import calibrate

    import numpy as np

    from hardet import (
        AnchorTargets,
        HyperParams,
        OptimizerConfig,
        SceneConfig,
        ToyModel,
        average_precision,
        generate_scenes,
        model_detections,
        nms,
        offset_iou_and_grad,
        refinement_experiment,
        run_gradcheck,
        train_toy,
    )
    from hardet import cli
    from hardet.geom import elementwise

    def train_writers(ss, trained, log, evaluation, opt) -> None:
        """``cli.cmd_train`` with the training and the evaluation replaced by
        their results: the formatting and writing of its four files."""
        cfg = cli.effective_config({}, scene_defaults=cli._TRAIN_SCENE_DEFAULTS)
        saved = cli.train_toy, cli._evaluate_trained
        cli.train_toy = lambda *args: (trained, log)
        cli._evaluate_trained = lambda *args: evaluation
        try:
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_train(cfg, Path(tmp), ss, HyperParams(), opt)
        finally:
            cli.train_toy, cli._evaluate_trained = saved

    def calibrated_median(call) -> float:
        call()  # untimed: warms caches and matching
        values = []
        for _ in range(BATCHES):
            before = calibrate()[0]
            t0 = perf_counter()
            call()
            elapsed = perf_counter() - t0
            values.append(elapsed / (0.5 * (before + calibrate()[0])))
        return statistics.median(values)

    cases = layer_cases(cli)
    results = {}
    for name, (scene, optimizer) in cases.items():
        ss = generate_scenes(SceneConfig(**scene))
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        for mode in MODES:
            opt = OptimizerConfig(**optimizer, loss_mode=mode, gradcheck_samples=0)
            results[f"train_toy_{name}_{mode}"] = {
                "rows": ss.total_anchors,
                "positives": int(ss.matching.pos_flat.size),
                "steps": opt.steps,
                "calibrated_median": calibrated_median(
                    lambda: train_toy(ss, model, opt, HyperParams())
                ),
            }
    for mode in MODES:
        # the hyperparameters train_toy gates in this loss mode
        hp = HyperParams().compat_standard() if mode == "standard" else HyperParams()
        results[f"run_gradcheck_{GATE_SAMPLES}_samples_{mode}"] = {
            "samples": GATE_SAMPLES,
            "num_classes": 5,
            "calibrated_median": calibrated_median(lambda: run_gradcheck(hp, 5, GATE_SAMPLES)),
        }
    for name in EVAL_CASES:
        scene, optimizer = cases[name]
        ss = generate_scenes(SceneConfig(**scene))
        opt = OptimizerConfig(**optimizer, loss_mode=EVAL_MODE, gradcheck_samples=0)
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        trained, log = train_toy(ss, model, opt, HyperParams())
        evaluation = cli._evaluate_trained(ss, trained)
        kept = evaluation[1]
        results[f"evaluate_trained_{name}_{EVAL_MODE}"] = {
            "rows": ss.total_anchors,
            "kept": len(kept),
            "calibrated_median": calibrated_median(
                lambda: cli._evaluate_trained(ss, trained)
            ),
        }
        dets = model_detections(ss, trained)
        results[f"nms_{name}"] = {
            "rows": ss.total_anchors,
            "calibrated_median": calibrated_median(lambda: nms(dets, cli.NMS_THRESHOLD)),
        }
        if name != "4096_rows":
            continue
        results[f"average_precision_{name}"] = {
            "rows": len(kept),
            "calibrated_median": calibrated_median(
                lambda: average_precision(kept, ss.ground_truth)
            ),
        }
        results[f"train_writers_{name}"] = {
            "rows": len(kept),
            "calibrated_median": calibrated_median(
                lambda: train_writers(ss, trained, log, evaluation, opt)
            ),
        }
    scene, optimizer = refine_case(cli)
    scene_config = SceneConfig(**scene)
    results["generate_scenes_refine_long"] = {
        "scenes": scene_config.num_scenes,
        "calibrated_median": calibrated_median(lambda: generate_scenes(scene_config)),
    }
    ss = generate_scenes(scene_config)
    for rows in KERNEL_ROWS:
        targets = AnchorTargets(
            np.resize(ss.matching.anchors, (rows, 4)), np.resize(ss.matching.gt, (rows, 4))
        )
        d = np.random.default_rng(rows).uniform(-0.3, 0.3, size=(rows, 4))
        jacobian = targets.jacobian.copy()

        def kernel_calls() -> None:
            for _ in range(KERNEL_CALLS):
                scale = elementwise(math.exp, d.T[2:].ravel()).reshape(2, -1)
                offset_iou_and_grad(d, targets, scale, jacobian)

        results[f"offset_iou_and_grad_{rows}_rows"] = {
            "rows": rows,
            "calls": KERNEL_CALLS,
            "calibrated_median": calibrated_median(kernel_calls),
        }
    for name, (rows, positives, kernel) in batch_kernel_cases().items():

        def batch_kernel_calls() -> None:
            for _ in range(KERNEL_CALLS):
                kernel()

        results[name] = {
            "rows": rows,
            "positives": positives,
            "calls": KERNEL_CALLS,
            "calibrated_median": calibrated_median(batch_kernel_calls),
        }
    opt = OptimizerConfig(**optimizer)
    results["refinement_experiment_refine_long"] = {
        "positives": int(ss.matching.pos_flat.size),
        "steps": opt.steps,
        "calibrated_median": calibrated_median(
            lambda: refinement_experiment(ss, opt, HyperParams())
        ),
    }
    Path(out).write_text(json.dumps(results, indent=1) + "\n")


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    run_dir = checkout / "perfbench" / "out" / workload / f"seed{seed}{'-trace' if trace else ''}"
    record = json.loads((run_dir / "result.json").read_text())
    return {"metrics": record["metrics"], "per_layer": record["per_layer"],
            "attempted": record["attempted"], "failed": record["failed"]}


def src_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "hardet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare(parent: Path, change: Path, out: str, what: str, pairs: int, seconds: float) -> None:
    sides = {"parent": parent, "change": change}
    rounds = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
                path = Path(tmp) / f"{side}{r}.json"
                subprocess.run(
                    [sys.executable, str(HERE), "layer", str(sides[side] / "src"), str(path)],
                    check=True,
                )
                rounds[side].append(json.loads(path.read_text()))
    layers = {
        side: {
            case: {**runs[0][case],
                   "calibrated_median": statistics.median(run[case]["calibrated_median"] for run in runs),
                   "rounds": [run[case]["calibrated_median"] for run in runs]}
            for case in runs[0]
        }
        for side, runs in rounds.items()
    }

    end_to_end = {}
    for workload, first_seed in WORKLOADS.items():
        n = 2 * pairs if workload == "train_dense" else pairs
        runs = {side: [] for side in sides}
        for k in range(n):
            for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                runs[side].append(perfbench(sides[side], workload, first_seed + k, seconds, False))
        summary = {"seeds": [first_seed, first_seed + n - 1], "pairs": n,
                   "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}
        for metric in END_TO_END:
            values = {side: [r["metrics"][metric] for r in rs] for side, rs in runs.items()}
            summary[metric] = {
                **{side: {**quartiles(v), "runs": v} for side, v in values.items()},
                "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            }
        end_to_end[workload] = summary

    trace = {
        workload: {side: perfbench(path, workload, TRACE_SEED, seconds, True)["per_layer"]
                   for side, path in sides.items()}
        for workload in WORKLOADS
    }
    for workload, by_side in trace.items():
        calls = [{m: v for m, v in t.items() if m.endswith(".calls")} for t in by_side.values()]
        by_side["calls_equal"] = calls[0] == calls[1]

    import numpy

    report = {
        "what": what,
        "environment": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "src_sha256": {side: src_digest(path) for side, path in sides.items()},
        "commands": {
            "layer": f"{BATCHES} batches of one call per side per round, {ROUNDS} rounds, "
            "median over rounds",
            "end_to_end": f"perfbench/run.py --seconds {seconds} --trace 0, pair k runs the parent "
            "first when k is even",
            "trace": f"perfbench/run.py --seed {TRACE_SEED} --seconds {seconds} --trace 1, one per side",
        },
        "layer": layers,
        "end_to_end": end_to_end,
        "trace": trace,
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("layer")
    p.add_argument("src")
    p.add_argument("out")
    p = sub.add_parser("compare")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("out")
    p.add_argument("--what", required=True, help="the change measured, in one sentence")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    if args.cmd == "layer":
        layer(args.src, args.out)
    else:
        compare(
            args.parent.resolve(), args.change.resolve(), args.out, args.what, args.pairs, args.seconds
        )


if __name__ == "__main__":
    main()
