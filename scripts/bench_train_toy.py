"""Before/after timings of hardet's layers and of the perfbench workloads.

    python scripts/bench_train_toy.py layer SRC OUT.json
    python scripts/bench_train_toy.py compare PARENT CHANGE OUT.json --what TEXT [--seconds S]

``layer`` imports ``hardet`` from SRC and times every case of :func:`cases`
on it. The train_default, train_dense and refine_long cases take their
scene and optimizer settings from the workloads of the ``perfbench/run.py``
beside this script, built by ``hardet.cli.command_setup`` for the workload's
command, so both sides of ``compare`` time the same inputs. Each call runs
between two runs of that perfbench's calibration loop; a case's value is
the median over :data:`BATCHES` of the call's time over the mean of the two
calibration times, so it reads in perfbench's ``calib`` units.

``compare`` takes two checkouts (each a plain copy with ``src/`` and
``perfbench/``) and runs this script's ``layer`` on both sides' ``src``, so
the parent's ``hardet`` must define every name :func:`cases` calls; ``layer``
exits 1 with one line naming the first name a ``src`` lacks. The cases reach
the gradient gate only through ``hardet.run_gradcheck``, which ``hardet``
exports wherever the gate is defined. ``compare`` writes one JSON file:
``--what``, the change measured, in one sentence; both sides' layer values
from :data:`ROUNDS` rounds, each case's median over rounds with every
round's value; and :data:`PAIRS` perfbench runs per side and workload, with
the medians, quartiles and wins of every end-to-end metric. Rounds and
pairs alternate which side runs first.
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
PERFBENCH = HERE.parents[1] / "perfbench"

MODES = ("harmonic_det", "standard")
# the cases no workload has: 16 scenes at half train_dense's anchor spacing,
# trained in train_dense's loss mode
WIDE_SCENE = {"num_scenes": 16, "anchor_spacing": 0.5}
WIDE_OPTIMIZER = {"steps": 100, "log_every": 25, "loss_mode": "standard"}
# rows of the geometry kernel's cases, and the kernels' calls per timed batch
KERNEL_ROWS = (12, 478, 4096, 16384)
KERNEL_CALLS = 100
# the gate's draws before train, the OptimizerConfig default
GATE_SAMPLES = 20
BATCHES = 7
# layer rounds per side in ``compare``: three rounds' medians could not
# resolve a 20% change
ROUNDS = 5
PAIRS = 10
END_TO_END = ("wall_rel", "cpu_rel", "peak_rss_mb", "setup_s")
# the perfbench seed of each workload's first pair
FIRST_SEEDS = {"train_dense": 1801, "train_default": 1821, "refine_long": 1841}


def cases(workloads: dict):
    """Every layer case as (name, metadata, call), on the ``hardet`` that
    ``sys.path`` finds, with settings from ``workloads``, perfbench's
    ``WORKLOADS``. A case's set-up runs when it is yielded; its call is what
    is timed, and returns the result of the last hardet call it makes.

    ``train_toy`` runs gate-off in both loss modes at train_default's
    (100 rows), train_dense's (4 096 rows) and :data:`WIDE_SCENE`'s
    (16 384 rows) settings. ``batch_objective_arrays`` runs 100 calls on the
    compact rows ``train_toy`` steps on at the first two, in the workload's
    loss mode: the positives and one row for the zero model's identical
    negatives, at fixed random predictions, on the per-run plan. The
    evaluation that follows ``train`` (``cli._evaluate_trained``, ``nms``,
    and at 4 096 rows ``average_precision`` and ``cmd_train``'s writers) runs
    on the models trained in their own loss mode at the last two. The gate
    before ``train``, ``run_gradcheck`` on 20 samples of 5 classes, runs
    under both modes' hyperparameters. At refine_long's settings:
    ``generate_scenes``, ``refinement_experiment``, and
    ``offset_iou_and_grad``, 100 calls at 12 (train_default's positives),
    478 (refine's two stacked runs), 4 096 and 16 384 rows, cycling refine's
    matched pairs under fixed random offsets, each call with e^tw and e^th
    from a libm pass as train's kernel computes them.
    """
    from dataclasses import replace

    import numpy as np

    from hardet import (
        AnchorTargets,
        HyperParams,
        OptimizerConfig,
        SceneConfig,
        ToyModel,
        average_precision,
        cli,
        generate_scenes,
        losses,
        model_detections,
        nms,
        offset_iou_and_grad,
        refinement_experiment,
        run_gradcheck,
        train_toy,
    )
    from hardet.geom import elementwise

    def settings(workload: str) -> tuple[SceneConfig, OptimizerConfig]:
        """A workload's scene and optimizer settings, as its command builds
        them."""
        w = workloads[workload]
        _, scene, _, opt = cli.command_setup(w.command, w.config)
        return scene, opt

    def hyperparams(mode: str) -> HyperParams:
        return HyperParams().compat_standard() if mode == "standard" else HyperParams()

    def repeated(call):
        def calls():
            for _ in range(KERNEL_CALLS - 1):
                call()
            return call()

        return calls

    def train_writers(ss, trained, log, evaluation, opt) -> int:
        """``cli.cmd_train`` with the training and the evaluation replaced by
        their results: the formatting and writing of its four files."""
        cfg = cli.command_setup("train", {})[0]
        saved = cli.train_toy, cli._evaluate_trained
        cli.train_toy = lambda *args: (trained, log)
        cli._evaluate_trained = lambda *args: evaluation
        try:
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                return cli.cmd_train(cfg, Path(tmp), ss, HyperParams(), opt)
        finally:
            cli.train_toy, cli._evaluate_trained = saved

    def train_cases(
        name: str, scene: SceneConfig, optimizer: OptimizerConfig, kernel: bool, evaluate: bool
    ):
        """The cases of one scene: ``train_toy`` in both modes, then the
        batch kernel when ``kernel`` and the evaluation when ``evaluate``,
        in the optimizer's own loss mode."""
        ss = generate_scenes(scene)
        m, c = ss.matching, ss.config.num_classes
        model = ToyModel.zeros(ss.total_anchors, c)
        meta = {"rows": ss.total_anchors, "positives": int(m.pos_flat.size)}
        for mode in MODES:
            opt = replace(optimizer, loss_mode=mode, gradcheck_samples=0)
            yield (
                f"train_toy_{name}_{mode}",
                {**meta, "steps": opt.steps},
                lambda opt=opt: train_toy(ss, model, opt, HyperParams()),
            )
        own = replace(optimizer, gradcheck_samples=0)
        if kernel:
            rows = m.pos_flat.size + (m.neg_flat.size > 0)
            rng = np.random.default_rng(rows)
            probs, offsets = rng.dirichlet(np.ones(c), size=rows), rng.uniform(-0.3, 0.3, (rows, 4))
            plan = losses.KernelPlan(m.targets, m.gt_class, m.d_hat, hyperparams(own.loss_mode), c)
            yield (
                f"batch_objective_arrays_{name}_{own.loss_mode}",
                {"rows": rows, "positives": meta["positives"], "calls": KERNEL_CALLS},
                repeated(lambda: losses.batch_objective_arrays(probs, offsets, plan)),
            )
        if not evaluate:
            return
        trained, log = train_toy(ss, model, own, HyperParams())
        evaluation = cli._evaluate_trained(ss, trained)
        kept = evaluation[1]
        yield (
            f"evaluate_trained_{name}_{own.loss_mode}",
            {"rows": ss.total_anchors, "kept": len(kept)},
            lambda: cli._evaluate_trained(ss, trained),
        )
        dets = model_detections(ss, trained)
        yield f"nms_{name}", {"rows": ss.total_anchors}, lambda: nms(dets, cli.NMS_THRESHOLD)
        if name == "4096_rows":
            yield (
                f"average_precision_{name}",
                {"rows": len(kept)},
                lambda: average_precision(kept, ss.ground_truth),
            )
            yield (
                f"train_writers_{name}",
                {"rows": len(kept)},
                lambda: train_writers(ss, trained, log, evaluation, own),
            )

    yield from train_cases("100_rows", *settings("train_default"), kernel=True, evaluate=False)
    yield from train_cases("4096_rows", *settings("train_dense"), kernel=True, evaluate=True)
    wide = SceneConfig(**WIDE_SCENE), OptimizerConfig(**WIDE_OPTIMIZER)
    yield from train_cases("16384_rows", *wide, kernel=False, evaluate=True)
    for mode in MODES:
        yield (
            f"run_gradcheck_{GATE_SAMPLES}_samples_{mode}",
            {"samples": GATE_SAMPLES, "num_classes": 5},
            lambda hp=hyperparams(mode): run_gradcheck(hp, 5, GATE_SAMPLES),
        )
    scene, opt = settings("refine_long")
    yield (
        "generate_scenes_refine_long",
        {"scenes": scene.num_scenes},
        lambda: generate_scenes(scene),
    )
    ss = generate_scenes(scene)
    for rows in KERNEL_ROWS:
        targets = AnchorTargets(
            np.resize(ss.matching.anchors, (rows, 4)), np.resize(ss.matching.gt, (rows, 4))
        )
        d = np.random.default_rng(rows).uniform(-0.3, 0.3, size=(rows, 4))

        def kernel_call(d=d, targets=targets, jacobian=targets.jacobian.copy()):
            scale = elementwise(math.exp, d.T[2:].ravel()).reshape(2, -1)
            return offset_iou_and_grad(d, targets, scale, jacobian)

        yield (
            f"offset_iou_and_grad_{rows}_rows",
            {"rows": rows, "calls": KERNEL_CALLS},
            repeated(kernel_call),
        )
    yield (
        "refinement_experiment_refine_long",
        {"positives": int(ss.matching.pos_flat.size), "steps": opt.steps},
        lambda: refinement_experiment(ss, opt, HyperParams()),
    )


def layer(src: Path, out: str) -> None:
    sys.path.insert(0, str(src))
    # perfbench's modules, imported as perfbench/sweep.py imports them
    sys.path.insert(0, str(PERFBENCH))
    import run
    from child import calibrate

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

    try:
        results = {
            name: {**meta, "calibrated_median": calibrated_median(call)}
            for name, meta, call in cases(run.WORKLOADS)
        }
    except (AttributeError, ImportError) as exc:
        owner = exc.name if isinstance(exc, ImportError) else getattr(exc.obj, "__name__", None)
        if not (owner or "").startswith("hardet"):
            raise
        sys.exit(f"layer: {src} lacks a hardet name the cases call: {exc}")
    Path(out).write_text(json.dumps(results, indent=1) + "\n")


def alternate(n: int, run_side) -> dict:
    """``run_side(side, k)`` of both sides for k < n, the parent first when
    k is even; each side's results in order of k."""
    runs = {"parent": [], "change": []}
    for k in range(n):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(run_side(side, k))
    return runs


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    run_dir = checkout / "perfbench" / "out" / workload / f"seed{seed}"
    return json.loads((run_dir / "result.json").read_text())


def src_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "hardet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare(parent: Path, change: Path, out: str, what: str, seconds: float) -> None:
    sides = {"parent": parent, "change": change}
    with tempfile.TemporaryDirectory() as tmp:

        def layer_round(side: str, r: int) -> dict:
            path = Path(tmp) / f"{side}{r}.json"
            cmd = [sys.executable, str(HERE), "layer", str(sides[side] / "src"), str(path)]
            subprocess.run(cmd, check=True)
            return json.loads(path.read_text())

        rounds = alternate(ROUNDS, layer_round)
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
    for workload, first_seed in FIRST_SEEDS.items():
        runs = alternate(
            PAIRS, lambda side, k: perfbench(sides[side], workload, first_seed + k, seconds)
        )
        summary = {"seeds": [first_seed, first_seed + PAIRS - 1], "pairs": PAIRS,
                   "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}}
        for metric in END_TO_END:
            values = {side: [r["metrics"][metric] for r in rs] for side, rs in runs.items()}
            summary[metric] = {
                **{side: {**quartiles(v), "runs": v} for side, v in values.items()},
                "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            }
        end_to_end[workload] = summary

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
            "median over rounds, round r runs the parent first when r is even",
            "end_to_end": f"perfbench/run.py --seconds {seconds} --trace 0, pair k runs the parent "
            "first when k is even",
        },
        "layer": layers,
        "end_to_end": end_to_end,
    }
    Path(out).write_text(json.dumps(report, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("layer")
    p.add_argument("src", type=Path)
    p.add_argument("out")
    p = sub.add_parser("compare")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("out")
    p.add_argument("--what", required=True, help="the change measured, in one sentence")
    p.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    if args.cmd == "layer":
        layer(args.src.resolve(), args.out)
    else:
        compare(args.parent.resolve(), args.change.resolve(), args.out, args.what, args.seconds)


if __name__ == "__main__":
    main()
