"""Experiment command line: gradcheck, loss-eval, surface, train, refine.

One JSON config file drives every command; flags override the file
(--seed wins over the config's seed). Outputs are CSV for anything
plottable and JSONL for structured records. Every run writes a
run_meta.json, and every CSV starts with a comment line carrying the
effective-config hash and seed, so identical config+seed reruns are
byte-identical.

Exit codes: 0 success, 1 validation failure, 2 numerical failure.
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

from . import harness
from .geom import iou  # noqa: F401 - unused here; perfbench's tracer test patches hardet.cli.iou
from .losses import (
    HyperParams,
    LossBreakdown,
    check_json_block,
    gradient_surface,
    harmonic_det_loss,
    positive_sample_from_json,
)
from .metrics import (
    DEFAULT_AP_THRESHOLDS,
    DEFAULT_IOU_BIN_EDGES,
    DetectionArrays,
    aic,
    average_precision,
    check_iou_thresholds,
    consistency_scatter,
    iou_histogram,
    nms,
    refinement_gain,
)
from .harness import (
    NumericalError,
    OptimizerConfig,
    SceneConfig,
    SceneSet,
    ToyModel,
    check_draw_floor,
    generate_scenes,
    model_detections,
    refinement_experiment,
    run_gradcheck,
    train_toy,
)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending path."""


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

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "hyperparams": {},
    "scene": {},
    "optimizer": {},
    "gradcheck": {"samples": 500},
    "surface": {
        "p_min": 0.05,
        "p_max": 1.0,
        "p_steps": 20,
        "loc_min": 0.0,
        "loc_max": 1.2,
        "loc_steps": 13,
        "mode": "harmonic",
    },
    "train": {"nms_threshold": 0.5, "ap_thresholds": list(DEFAULT_AP_THRESHOLDS)},
}


# freeze_factors is reached only through loss_mode "standard"; the scene seed
# is the top-level seed. The other blocks are declared by their defaults.
_BLOCK_KEYS = {
    "hyperparams": _schema(HyperParams, exclude=("freeze_factors",)),
    "scene": _schema(SceneConfig, exclude=("seed",)),
    "optimizer": _schema(OptimizerConfig),
    **{
        name: {k: list[type(v[0])] if isinstance(v, list) else type(v) for k, v in block.items()}
        for name, block in _DEFAULTS.items()
        if name in ("gradcheck", "surface", "train")
    },
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


def _build_scene_set(scene: SceneConfig) -> SceneSet:
    try:
        return generate_scenes(scene)
    except ValueError as exc:
        raise ConfigError(f"config.scene: {exc}") from exc


MAX_SURFACE_POINTS = 10**6


def _surface_grids(s: dict) -> tuple[np.ndarray, np.ndarray]:
    # a span past the float range gives non-finite points, which
    # gradient_surface rejects; the overflow itself is not worth a warning
    with np.errstate(all="ignore"):
        p_grid = np.linspace(s["p_min"], s["p_max"], s["p_steps"])
        return p_grid, np.linspace(s["loc_min"], s["loc_max"], s["loc_steps"])


Surface = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_command_blocks(cfg: dict) -> Surface:
    """Check the gradcheck, surface and train blocks as the commands that
    read them use them, so that every command judges them alike. Returns
    the surface block's p grid, loc grid and gradient table, which checking
    it computes."""
    gc, s, t = cfg["gradcheck"], cfg["surface"], cfg["train"]
    # a sweep over no samples would report PASS without checking anything
    if gc["samples"] < 1:
        raise ConfigError(f"config.gradcheck.samples: must be >= 1, got {gc['samples']}")
    if s["mode"] not in ("standard", "harmonic"):
        raise ConfigError(f"config.surface.mode: expected standard|harmonic, got {s['mode']!r}")
    if s["p_steps"] < 1 or s["loc_steps"] < 1:
        raise ConfigError("config.surface: p_steps and loc_steps must be >= 1")
    # the whole grid is allocated and written one CSV row per point
    if s["p_steps"] * s["loc_steps"] > MAX_SURFACE_POINTS:
        points = f"{s['p_steps']} x {s['loc_steps']} grid points"
        raise ConfigError(f"config.surface: {points} exceed the limit of {MAX_SURFACE_POINTS}")
    p_grid, loc_grid = _surface_grids(s)
    try:
        surface = p_grid, loc_grid, gradient_surface(p_grid, loc_grid, s["mode"])
    except ValueError as exc:
        raise ConfigError(f"config.surface: {exc}") from exc
    # as nms and average_precision check them
    thresholds = {"nms_threshold": [t["nms_threshold"]], "ap_thresholds": t["ap_thresholds"]}
    for key, values in thresholds.items():
        try:
            check_iou_thresholds(values)
        except ValueError as exc:
            raise ConfigError(f"config.train.{key}: {exc}") from exc
    return surface


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_meta(out: Path, cfg: dict, command: str) -> None:
    meta = {"command": command, "config_hash": config_hash(cfg), "seed": cfg["seed"], "config": cfg}
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _csv_header(cfg: dict) -> str:
    return f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_gradcheck(cfg: dict, out: Path, hp: HyperParams, num_classes: int) -> int:
    report = run_gradcheck(hp, num_classes, cfg["gradcheck"]["samples"], cfg["seed"])
    tolerance = harness.GRADCHECK_TOLERANCE
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
    (out / "gradcheck_report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _loss_breakdowns(samples_path: str, hp: HyperParams) -> list[LossBreakdown]:
    """The loss breakdown of every non-blank line of a samples file; a line
    that is not a valid sample is a ``ConfigError`` naming it, and one whose
    breakdown is not finite a ``NumericalError`` naming it and the field."""
    breakdowns = []
    for lineno, line in enumerate(_read_text(samples_path, "samples file").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            sample = positive_sample_from_json(json.loads(line))
            # an overflow shows as a non-finite field, reported below, not as a warning
            with np.errstate(all="ignore"):
                breakdown = harmonic_det_loss(sample, hp)
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"samples line {lineno}: {exc}") from exc
        for name, value in vars(breakdown).items():
            if not np.isfinite(value).all():
                raise NumericalError(f"samples line {lineno}: {name} is not finite")
        breakdowns.append(breakdown)
    return breakdowns


def cmd_loss_eval(out: Path, breakdowns: list[LossBreakdown]) -> int:
    target = out / "breakdowns.jsonl"
    target.write_text("".join(json.dumps(b.to_json(), sort_keys=True) + "\n" for b in breakdowns))
    print(f"loss-eval: wrote {len(breakdowns)} breakdowns to {target}")
    return EXIT_OK


def cmd_surface(cfg: dict, out: Path, surface: Surface) -> int:
    s = cfg["surface"]
    p_grid, loc_grid, grid = surface
    rows = [_csv_header(cfg), "p,loc,grad\n"]
    for i, loc in enumerate(loc_grid):
        for j, p in enumerate(p_grid):
            rows.append(f"{_fmt(p)},{_fmt(loc)},{_fmt(grid[i, j])}\n")
    (out / "surface.csv").write_text("".join(rows))
    print(f"surface: wrote {len(p_grid) * len(loc_grid)} grid points ({s['mode']} mode)")
    return EXIT_OK


def _evaluate_trained(
    scene_set: SceneSet, model: ToyModel, nms_threshold: float, ap_thresholds: list[float]
) -> tuple[dict, DetectionArrays, np.ndarray]:
    """AP payload, kept detections (scene by scene, each in score order) and
    their best IoUs with a ground truth of a trained model on its scenes; AP
    and the IoUs match within (scene, class) groups."""
    dets = model_detections(scene_set, model)
    rows = nms(dets, nms_threshold)
    kept = dets.take(rows[np.argsort(dets.scene[rows], kind="stable")])
    gts = scene_set.ground_truth
    ap = average_precision(kept, gts, ap_thresholds)
    ap_payload = {
        "per_threshold": {str(k): v for k, v in ap.per_threshold.items()},
        "mean": ap.mean,
    }
    return ap_payload, kept, consistency_scatter(kept, gts)


def cmd_train(
    cfg: dict, out: Path, scene_set: SceneSet, hp: HyperParams, opt: OptimizerConfig
) -> int:
    model = ToyModel.zeros(scene_set.total_anchors, scene_set.config.num_classes)
    model, log = train_toy(scene_set, model, opt, hp)

    rows = [_csv_header(cfg), "step,objective,mean_factor_r,mean_factor_c,aic\n"]
    for r in log.records:
        factors = f"{_fmt(r.mean_factor_r)},{_fmt(r.mean_factor_c)}"
        rows.append(f"{r.step},{_fmt(r.objective)},{factors},{_fmt(r.aic)}\n")
    (out / "trainlog.csv").write_text("".join(rows))

    ap_payload, kept, best_iou = _evaluate_trained(scene_set, model, **cfg["train"])
    meta_line = json.dumps(
        {"meta": {"config_hash": config_hash(cfg), "seed": cfg["seed"]}}, sort_keys=True
    )
    # json.dumps(..., sort_keys=True) of each record, formatted directly: it
    # renders ints and the finite floats of validated detections by repr
    scores = kept.score.tolist()
    records = zip(kept.boxes.tolist(), kept.class_id.tolist(), kept.scene.tolist(), scores)
    det_lines = [meta_line] + [
        f'{{"box": [{x1!r}, {y1!r}, {x2!r}, {y2!r}], "class_id": {c}, '
        f'"scene": {s}, "score": {p!r}}}'
        for (x1, y1, x2, y2), c, s, p in records
    ]
    (out / "detections.jsonl").write_text("".join(line + "\n" for line in det_lines))

    rows = [_csv_header(cfg), "score,iou\n"]
    rows.extend(f"{s!r},{u!r}\n" for s, u in zip(scores, best_iou.tolist()))
    (out / "scatter.csv").write_text("".join(rows))

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
    (out / "aic_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
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
    (out / "refine_gains.csv").write_text("".join(rows))

    counts = iou_histogram(result.iou_before, DEFAULT_IOU_BIN_EDGES)
    rows = [_csv_header(cfg), "bin_lo,bin_hi,count\n"]
    for k, c in enumerate(counts):
        rows.append(
            f"{_fmt(DEFAULT_IOU_BIN_EDGES[k])},{_fmt(DEFAULT_IOU_BIN_EDGES[k + 1])},{int(c)}\n"
        )
    (out / "iou_histogram.csv").write_text("".join(rows))
    print(f"refine: {result.iou_before.size} positives, gamma 0 vs {result.gamma_weighted:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardet", description="Harmonic detection loss experiments"
    )
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
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        scene_defaults = opt_defaults = None
        if args.command == "train":
            scene_defaults = _TRAIN_SCENE_DEFAULTS
        elif args.command == "refine":
            scene_defaults = _REFINE_SCENE_DEFAULTS
            opt_defaults = _REFINE_OPT_DEFAULTS
        eff = effective_config(
            cfg, seed_override=args.seed, scene_defaults=scene_defaults, opt_defaults=opt_defaults
        )
        # every command builds and checks every block before writing anything,
        # so a config file gets one verdict; building the scene draws no grid
        scene = _build(SceneConfig, eff, "scene", seed=eff["seed"])
        hp = _build(HyperParams, eff, "hyperparams")
        try:
            check_draw_floor(scene.num_classes)
        except ValueError as exc:
            raise ConfigError(f"config.scene.num_classes: {exc}") from exc
        opt = _build(OptimizerConfig, eff, "optimizer")
        surface = _check_command_blocks(eff)
        # the commands that draw scenes or read samples judge them before writing too
        scene_set = _build_scene_set(scene) if args.command in ("train", "refine") else None
        breakdowns = _loss_breakdowns(args.samples, hp) if args.command == "loss-eval" else None
        out = _out_dir(args)
        _write_meta(out, eff, args.command)
        if args.command == "gradcheck":
            return cmd_gradcheck(eff, out, hp, scene.num_classes)
        if args.command == "loss-eval":
            return cmd_loss_eval(out, breakdowns)
        if args.command == "surface":
            return cmd_surface(eff, out, surface)
        if args.command == "train":
            return cmd_train(eff, out, scene_set, hp, opt)
        return cmd_refine(eff, out, scene_set, hp, opt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
