"""Experiment command line: gradcheck, loss-eval, surface, train, refine.

One JSON config file drives every command; flags override the file
(--seed wins over the config's seed). Outputs are CSV for anything
plottable and JSONL for structured records. Every run writes a
run_meta.json, and every CSV starts with a comment line carrying the
effective-config hash and seed, so identical config+seed reruns are
byte-identical.

Exit codes: 0 success, 1 validation failure (a bad config, input file or
command line), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import gate
from .gate import MAX_GATE_SAMPLES, NumericalError, run_gradcheck
from .geom import check_decode
from .geom import iou  # noqa: F401 - unused here; perfbench's tracer test patches hardet.cli.iou
from .losses import (
    SURFACE_LOC_GRID,
    SURFACE_P_GRID,
    HyperParams,
    LossBreakdown,
    check_json_block,
    gradient_surface,
    harmonic_det_loss,
    positive_sample_from_json,
)
from .metrics import (
    IOU_BIN_EDGES,
    DetectionArrays,
    aic,
    average_precision,
    iou_histogram,
    nms,
    refinement_gain,
)
from .harness import (
    OptimizerConfig,
    SceneConfig,
    SceneSet,
    ToyModel,
    generate_scenes,
    model_detections,
    refinement_experiment,
    train_toy,
)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending path."""


class _UsageError(Exception):
    """A command line the parser rejects, carrying argparse's usage and
    message."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and the class of its subparsers, whose usage
    errors raise ``_UsageError``; argparse would exit 2, the numerical-failure
    code here."""

    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _schema(cls: type, exclude: tuple[str, ...] = ()) -> dict[str, Any]:
    """A config block's keys and JSON types, read from a dataclass's fields;
    a tuple field is a JSON list of its element type."""
    hints = get_type_hints(cls)
    types = {f.name: hints[f.name] for f in fields(cls) if f.name not in exclude}
    return {k: list[get_args(t)[0]] if get_origin(t) is tuple else t for k, t in types.items()}


# calibrated demo defaults: train shows the paired-run dynamics, refine the
# per-bin gain contrast, at second-scale runtimes
_TRAIN_SCENE_DEFAULTS = {"anchor_spacing": 3.0, "jitter": 0.12}
_REFINE_SCENE_DEFAULTS = {"num_scenes": 60, "objects_per_scene": [3, 5], "jitter": 0.18}
_REFINE_OPT_DEFAULTS = {"learning_rate": 0.002, "steps": 20}

# the NMS threshold of train's evaluation, whose AP runs at
# metrics.AP_THRESHOLDS
NMS_THRESHOLD = 0.5

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "hyperparams": {},
    "scene": {},
    "optimizer": {},
    "gradcheck": {"samples": 500},
}


# beta_e_stop_grad and freeze_factors are library fields (the gradient gate
# and loss_mode "standard" set them), as are the scene's class count and
# positive IoU threshold; the scene seed is the top-level seed.
_BLOCK_KEYS = {
    "hyperparams": _schema(HyperParams, exclude=("beta_e_stop_grad", "freeze_factors")),
    "scene": _schema(SceneConfig, exclude=("seed", "num_classes", "positive_iou_threshold")),
    "optimizer": _schema(OptimizerConfig),
    "gradcheck": {"samples": int},
}
_TOP_KEYS = {"seed": int, **{name: dict for name in _BLOCK_KEYS}}


def _read_text(path: str, kind: str) -> str:
    """The text of an input file; one that cannot be read, or is not UTF-8,
    is a ``ConfigError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc


def load_config(path: str | None) -> dict:
    """Parse and schema-check the config file; {} when no file is given."""
    if path is None:
        return {}
    text = _read_text(path, "config file")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    try:
        cfg = check_json_block(raw, _TOP_KEYS, "config")
        for name, keys in _BLOCK_KEYS.items():
            if name in cfg:
                cfg[name] = check_json_block(cfg[name], keys, f"config.{name}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def effective_config(
    cfg: dict,
    seed_override: int | None = None,
    scene_defaults: dict | None = None,
    opt_defaults: dict | None = None,
) -> dict:
    """Merge defaults, the config file, and flag overrides (flags win)."""
    out = json.loads(json.dumps(_DEFAULTS))
    for name in _BLOCK_KEYS:
        block = dict(out.get(name, {}))
        if name == "scene" and scene_defaults:
            block.update(scene_defaults)
        if name == "optimizer" and opt_defaults:
            block.update(opt_defaults)
        block.update(cfg.get(name, {}))
        out[name] = block
    out["seed"] = cfg.get("seed", out["seed"])
    if seed_override is not None:
        out["seed"] = seed_override
    if out["seed"] < 0:
        raise ConfigError(f"config.seed: must be >= 0, got {out['seed']}")
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _build(cls: type, cfg: dict, name: str, **extra: Any) -> Any:
    """The dataclass of config block ``name``: JSON lists become tuples, and
    ``extra`` fills the fields the block leaves out."""
    block = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg[name].items()}
    try:
        return cls(**{**extra, **block})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config.{name}: {exc}") from exc


def command_setup(
    command: str, cfg: dict, seed: int | None = None
) -> tuple[dict, SceneConfig, HyperParams, OptimizerConfig]:
    """The effective config of ``hardet <command>`` (config file contents
    ``cfg`` over the command's defaults, which only ``train`` and ``refine``
    have, and ``seed`` over both) and its scene, hyperparameter and optimizer
    blocks. Every block is built and checked in one order, so a config file
    gets one verdict from every command; building the scene draws no grid."""
    scene_defaults, opt_defaults = {
        "train": (_TRAIN_SCENE_DEFAULTS, None),
        "refine": (_REFINE_SCENE_DEFAULTS, _REFINE_OPT_DEFAULTS),
    }.get(command, (None, None))
    eff = effective_config(
        cfg, seed_override=seed, scene_defaults=scene_defaults, opt_defaults=opt_defaults
    )
    scene = _build(SceneConfig, eff, "scene", seed=eff["seed"])
    hp = _build(HyperParams, eff, "hyperparams")
    opt = _build(OptimizerConfig, eff, "optimizer")
    samples = eff["gradcheck"]["samples"]
    # a sweep over no samples would report PASS without checking anything
    if samples < 1:
        raise ConfigError(f"config.gradcheck.samples: must be >= 1, got {samples}")
    if samples > MAX_GATE_SAMPLES:
        raise ConfigError(f"config.gradcheck.samples: must be <= {MAX_GATE_SAMPLES}, got {samples}")
    return eff, scene, hp, opt


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write(path: Path, text: str) -> None:
    """Write an output file; one that cannot be written is a ``ConfigError``
    naming it."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_meta(out: Path, cfg: dict, command: str) -> None:
    meta = {"command": command, "config_hash": config_hash(cfg), "seed": cfg["seed"], "config": cfg}
    _write(out / "run_meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _csv_header(cfg: dict) -> str:
    return f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_gradcheck(cfg: dict, out: Path, hp: HyperParams, num_classes: int) -> int:
    report = run_gradcheck(hp, num_classes, cfg["gradcheck"]["samples"], cfg["seed"])
    tolerance = gate.GRADCHECK_TOLERANCE
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        print(f"{e.op:20s} samples={e.samples:5d} max_err={e.max_err:.3e} {status}")
    print(f"gradcheck: {'PASS' if report.passed else 'FAIL'} (tolerance {tolerance:g})")
    payload = {
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "tolerance": tolerance,
        "passed": report.passed,
        "entries": [
            {**vars(e), "tolerance": tolerance, "passed": e.passed} for e in report.entries
        ],
    }
    _write(out / "gradcheck_report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _loss_breakdowns(samples_path: str, hp: HyperParams) -> list[LossBreakdown]:
    """The loss breakdown of every non-blank line of a samples file. A line
    that is not a valid sample, or whose offsets do not decode, is a
    ``ConfigError`` naming it; one whose regression target leaves the float
    range, or whose breakdown cannot be computed or is not finite, a
    ``NumericalError`` naming it."""
    breakdowns = []
    for lineno, line in enumerate(_read_text(samples_path, "samples file").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            sample = positive_sample_from_json(json.loads(line))
            check_decode(sample.d, sample.anchor)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"samples line {lineno}: {exc}") from exc
        except FloatingPointError as exc:
            # raised by encode, which computes the sample's d_hat
            raise NumericalError(f"samples line {lineno}: regression target d_hat: {exc}") from exc
        try:
            # an overflow shows as a non-finite field, reported below, not as a warning
            with np.errstate(all="ignore"):
                breakdown = harmonic_det_loss(sample, hp)
        except ValueError as exc:
            raise NumericalError(f"samples line {lineno}: {exc}") from exc
        for name, value in vars(breakdown).items():
            if not np.isfinite(value).all():
                raise NumericalError(f"samples line {lineno}: {name} is not finite")
        breakdowns.append(breakdown)
    return breakdowns


def cmd_loss_eval(out: Path, breakdowns: list[LossBreakdown]) -> int:
    target = out / "breakdowns.jsonl"
    _write(target, "".join(json.dumps(b.to_json(), sort_keys=True) + "\n" for b in breakdowns))
    print(f"loss-eval: wrote {len(breakdowns)} breakdowns to {target}")
    return EXIT_OK


def cmd_surface(cfg: dict, out: Path) -> int:
    """The standard and harmonic classification gradients side by side over
    the (p, loc) grid, loc-major."""
    standard, harmonic = gradient_surface("standard"), gradient_surface("harmonic")
    rows = [_csv_header(cfg), "p,loc,grad_standard,grad_harmonic\n"]
    for i, loc in enumerate(SURFACE_LOC_GRID):
        for j, p in enumerate(SURFACE_P_GRID):
            grads = f"{_fmt(standard[i, j])},{_fmt(harmonic[i, j])}"
            rows.append(f"{_fmt(p)},{_fmt(loc)},{grads}\n")
    _write(out / "surface.csv", "".join(rows))
    print(f"surface: wrote {standard.size} grid points (standard and harmonic)")
    return EXIT_OK


def _evaluate_trained(
    scene_set: SceneSet, model: ToyModel
) -> tuple[dict, DetectionArrays, np.ndarray]:
    """AP payload, kept detections (scene by scene, each in score order) and
    their best IoUs with a ground truth of a trained model on its scenes.
    NMS runs at ``NMS_THRESHOLD`` and AP at ``AP_THRESHOLDS``; AP and
    the IoUs match within (scene, class) groups, and the IoUs are the row
    maxima of AP's own IoU matrices."""
    dets = model_detections(scene_set, model)
    rows = nms(dets, NMS_THRESHOLD)
    kept = dets.take(rows[np.argsort(dets.scene[rows], kind="stable")])
    ap = average_precision(kept, scene_set.ground_truth)
    ap_payload = {
        "per_threshold": {str(k): v for k, v in ap.per_threshold.items()},
        "mean": ap.mean,
    }
    return ap_payload, kept, ap.best_iou


def _evaluation_lines(
    kept: DetectionArrays, best_iou: np.ndarray
) -> tuple[list[str], list[str]]:
    """The ``detections.jsonl`` record lines and ``scatter.csv`` rows of the
    kept detections and their best IoUs, newline-terminated.

    Each record line is ``json.dumps(record, sort_keys=True)``, formatted
    directly: it renders ints and the finite floats of validated detections
    by repr. The kept boxes, scores and IoUs repeat few distinct values
    (the negatives' rows repeat across scenes), so their floats are grouped
    by bit pattern, which keeps -0.0 apart from 0.0, and each distinct
    value's repr is taken once for both files.
    """
    n = len(kept)
    values = np.concatenate([kept.boxes.ravel(), kept.score, best_iou])
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    strs = text[inverse].tolist()
    coords = iter(strs[: 4 * n])
    scores = strs[4 * n : 5 * n]
    ids = zip(kept.class_id.tolist(), kept.scene.tolist())
    records = zip(coords, coords, coords, coords, ids, scores)
    det_lines = [
        f'{{"box": [{x1}, {y1}, {x2}, {y2}], "class_id": {c}, "scene": {s}, "score": {p}}}\n'
        for x1, y1, x2, y2, (c, s), p in records
    ]
    return det_lines, [f"{p},{u}\n" for p, u in zip(scores, strs[5 * n :])]


def cmd_train(
    cfg: dict, out: Path, scene_set: SceneSet, hp: HyperParams, opt: OptimizerConfig
) -> int:
    model = ToyModel.zeros(scene_set.total_anchors, scene_set.config.num_classes)
    model, log = train_toy(scene_set, model, opt, hp)

    rows = [_csv_header(cfg), "step,objective,mean_factor_r,mean_factor_c,aic\n"]
    for r in log.records:
        factors = f"{_fmt(r.mean_factor_r)},{_fmt(r.mean_factor_c)}"
        rows.append(f"{r.step},{_fmt(r.objective)},{factors},{_fmt(r.aic)}\n")
    _write(out / "trainlog.csv", "".join(rows))

    ap_payload, kept, best_iou = _evaluate_trained(scene_set, model)
    meta_line = json.dumps(
        {"meta": {"config_hash": config_hash(cfg), "seed": cfg["seed"]}}, sort_keys=True
    )
    det_lines, scatter_rows = _evaluation_lines(kept, best_iou)
    _write(out / "detections.jsonl", "".join([meta_line + "\n", *det_lines]))
    _write(out / "scatter.csv", "".join([_csv_header(cfg), "score,iou\n", *scatter_rows]))

    summary = {
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "loss_mode": opt.loss_mode,
        "final_objective": log.records[-1].objective,
        "num_positives": log.final_p_gt.size,
        "aic_mean": aic(log.final_p_gt, log.final_iou, mode="mean"),
        "aic_sum": aic(log.final_p_gt, log.final_iou, mode="sum"),
        "ap": ap_payload,
    }
    _write(out / "aic_summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(
        f"train [{opt.loss_mode}]: objective {log.records[0].objective:.4f} -> "
        f"{log.records[-1].objective:.4f}, AIC {summary['aic_mean']:.4f}, "
        f"mean AP {ap_payload['mean']:.4f}"
    )
    return EXIT_OK


def cmd_refine(
    cfg: dict, out: Path, scene_set: SceneSet, hp: HyperParams, opt: OptimizerConfig
) -> int:
    result = refinement_experiment(scene_set, opt, hp)
    plain = refinement_gain(result.iou_before, result.iou_plain)
    weighted = refinement_gain(result.iou_before, result.iou_weighted)
    rows = [_csv_header(cfg), "bin_lo,bin_hi,count,mean_gain_iou,mean_gain_hiou\n"]
    for k in range(plain.counts.size):
        mp = "" if plain.means[k] is None else _fmt(plain.means[k])
        mw = "" if weighted.means[k] is None else _fmt(weighted.means[k])
        rows.append(
            f"{_fmt(plain.edges[k])},{_fmt(plain.edges[k + 1])},{int(plain.counts[k])},{mp},{mw}\n"
        )
    _write(out / "refine_gains.csv", "".join(rows))

    counts = iou_histogram(result.iou_before)
    rows = [_csv_header(cfg), "bin_lo,bin_hi,count\n"]
    for k, c in enumerate(counts):
        rows.append(f"{_fmt(IOU_BIN_EDGES[k])},{_fmt(IOU_BIN_EDGES[k + 1])},{int(c)}\n")
    _write(out / "iou_histogram.csv", "".join(rows))
    print(f"refine: {result.iou_before.size} positives, gamma 0 vs {result.gamma_weighted:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hardet", description="Harmonic detection loss experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gradcheck", "verify analytic gradients against finite differences"),
        ("loss-eval", "evaluate per-sample loss breakdowns from a JSONL file"),
        ("surface", "tabulate the classification-gradient surface"),
        ("train", "train the toy detector and emit logs, detections, and metrics"),
        ("refine", "compare refinement gains under plain vs focused IoU loss"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name == "loss-eval":
            p.add_argument("--samples", required=True, help="input samples JSONL")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        eff, scene, hp, opt = command_setup(args.command, load_config(args.config), args.seed)
        # loss-eval judges its samples, as command_setup judges every block,
        # before anything is written; a scene draw cannot fail
        breakdowns = _loss_breakdowns(args.samples, hp) if args.command == "loss-eval" else None
        out = _out_dir(args)
        _write_meta(out, eff, args.command)
        if args.command == "gradcheck":
            return cmd_gradcheck(eff, out, hp, scene.num_classes)
        if args.command == "loss-eval":
            return cmd_loss_eval(out, breakdowns)
        if args.command == "surface":
            return cmd_surface(eff, out)
        if args.command == "train":
            return cmd_train(eff, out, generate_scenes(scene), hp, opt)
        return cmd_refine(eff, out, generate_scenes(scene), hp, opt)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
