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
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .geom import iou  # noqa: F401 - unused here; perfbench's tracer test patches hardet.cli.iou
from .losses import HyperParams, gradient_surface, harmonic_det_loss, positive_sample_from_json
from .metrics import (
    DEFAULT_AP_THRESHOLDS,
    DEFAULT_IOU_BIN_EDGES,
    Detection,
    GroundTruth,
    average_precision,
    consistency_scatter,
    iou_histogram,
    nms,
    refinement_gain,
)
from .harness import (
    NumericalError,
    OptimizerConfig,
    SceneConfig,
    ToyModel,
    consistency_pairs,
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

_HP_KEYS = {
    "alpha": float,
    "gamma": float,
    "margin": float,
    "num_classes": int,
    "prob_floor": float,
    "beta_e_stop_grad": bool,
    "harmonic_mode": str,
    "tc_through_iou": bool,
    "allow_gamma_above_one": bool,
}
_SCENE_KEYS = {
    "num_scenes": int,
    "objects_per_scene": list,
    "canvas": list,
    "anchor_spacing": float,
    "anchor_scales": list,
    "jitter": float,
    "num_classes": int,
    "positive_iou_threshold": float,
}
_OPT_KEYS = {
    "learning_rate": float,
    "steps": int,
    "log_every": int,
    "loss_mode": str,
    "gradcheck_samples": int,
    "gradcheck_tolerance": float,
}
_GRADCHECK_KEYS = {"samples": int, "tolerance": float, "batch_draws": int}
_SURFACE_KEYS = {
    "p_min": float,
    "p_max": float,
    "p_steps": int,
    "loc_min": float,
    "loc_max": float,
    "loc_steps": int,
    "mode": str,
}
_TRAIN_KEYS = {"nms_threshold": float, "ap_thresholds": list}
_TOP_KEYS = {
    "seed": int,
    "hyperparams": dict,
    "scene": dict,
    "optimizer": dict,
    "gradcheck": dict,
    "surface": dict,
    "train": dict,
}

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
    "gradcheck": {"samples": 500, "tolerance": 1e-5, "batch_draws": 4},
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


def _check_block(block: Any, allowed: dict[str, type], path: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    for key, value in block.items():
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
        expected = allowed[key]
        if expected in (float, int):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        elif not isinstance(value, expected):
            raise ConfigError(
                f"{path}.{key}: expected {expected.__name__}, got {type(value).__name__}"
            )
    return dict(block)


def load_config(path: str | None) -> dict:
    """Parse and schema-check the config file; {} when no file is given."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    cfg = _check_block(raw, _TOP_KEYS, "config")
    for name, keys in (
        ("hyperparams", _HP_KEYS),
        ("scene", _SCENE_KEYS),
        ("optimizer", _OPT_KEYS),
        ("gradcheck", _GRADCHECK_KEYS),
        ("surface", _SURFACE_KEYS),
        ("train", _TRAIN_KEYS),
    ):
        if name in cfg:
            cfg[name] = _check_block(cfg[name], keys, f"config.{name}")
    return cfg


def effective_config(
    cfg: dict,
    seed_override: int | None = None,
    scene_defaults: dict | None = None,
    opt_defaults: dict | None = None,
) -> dict:
    """Merge defaults, the config file, and flag overrides (flags win)."""
    out = json.loads(json.dumps(_DEFAULTS))
    for name in ("hyperparams", "scene", "optimizer", "gradcheck", "surface", "train"):
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
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _build_hyperparams(cfg: dict) -> HyperParams:
    block = dict(cfg["hyperparams"])
    block.setdefault("num_classes", cfg["scene"].get("num_classes", 5))
    try:
        return HyperParams(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.hyperparams: {exc}") from exc


def _build_scene_config(cfg: dict) -> SceneConfig:
    block = dict(cfg["scene"])
    for key in ("objects_per_scene", "canvas", "anchor_scales"):
        if key in block:
            block[key] = tuple(block[key])
    try:
        return SceneConfig(seed=cfg["seed"], **block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.scene: {exc}") from exc


def _build_optimizer(cfg: dict) -> OptimizerConfig:
    try:
        return OptimizerConfig(**cfg["optimizer"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.optimizer: {exc}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, cfg: dict, command: str) -> None:
    meta = {"command": command, "config_hash": config_hash(cfg), "seed": cfg["seed"], "config": cfg}
    (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _csv_header(cfg: dict) -> str:
    return f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_gradcheck(cfg: dict, out: Path) -> int:
    hp = _build_hyperparams(cfg)
    gc = cfg["gradcheck"]
    # a sweep over no samples would report PASS without checking anything
    if gc["samples"] < 1:
        raise ConfigError(f"config.gradcheck.samples: must be >= 1, got {gc['samples']}")
    if gc["batch_draws"] < 0:
        raise ConfigError(f"config.gradcheck.batch_draws: must be >= 0, got {gc['batch_draws']}")
    report = run_gradcheck(
        hp,
        num_samples=int(gc["samples"]),
        tolerance=float(gc["tolerance"]),
        seed=int(cfg["seed"]),
        batch_draws=int(gc["batch_draws"]),
    )
    lines = []
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        lines.append(f"{e.op:20s} samples={e.samples:5d} max_err={e.max_err:.3e} {status}")
    print("\n".join(lines))
    print(f"gradcheck: {'PASS' if report.passed else 'FAIL'} (tolerance {gc['tolerance']:g})")
    payload = {
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "tolerance": gc["tolerance"],
        "passed": report.passed,
        "entries": [
            {
                "op": e.op,
                "samples": e.samples,
                "max_err": e.max_err,
                "tolerance": e.tolerance,
                "passed": e.passed,
            }
            for e in report.entries
        ],
    }
    (out / "gradcheck_report.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_loss_eval(cfg: dict, out: Path, samples_path: str) -> int:
    hp = _build_hyperparams(cfg)
    try:
        text = Path(samples_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {samples_path}: {exc}") from exc
    out_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            sample = positive_sample_from_json(record)
            if sample.num_classes != hp.num_classes:
                hp_line = HyperParams(
                    **{
                        **{k: getattr(hp, k) for k in _HP_KEYS},
                        "num_classes": sample.num_classes,
                    }
                )
            else:
                hp_line = hp
            breakdown = harmonic_det_loss(sample, hp_line)
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"samples line {lineno}: {exc}") from exc
        out_lines.append(json.dumps(breakdown.to_json(), sort_keys=True))
    target = out / "breakdowns.jsonl"
    target.write_text("".join(line + "\n" for line in out_lines))
    print(f"loss-eval: wrote {len(out_lines)} breakdowns to {target}")
    return EXIT_OK


def cmd_surface(cfg: dict, out: Path) -> int:
    s = cfg["surface"]
    if s["mode"] not in ("standard", "harmonic"):
        raise ConfigError(f"config.surface.mode: expected standard|harmonic, got {s['mode']!r}")
    if s["p_steps"] < 1 or s["loc_steps"] < 1:
        raise ConfigError("config.surface: p_steps and loc_steps must be >= 1")
    p_grid = np.linspace(s["p_min"], s["p_max"], int(s["p_steps"]))
    loc_grid = np.linspace(s["loc_min"], s["loc_max"], int(s["loc_steps"]))
    try:
        grid = gradient_surface(p_grid, loc_grid, s["mode"])
    except ValueError as exc:
        raise ConfigError(f"config.surface: {exc}") from exc
    rows = [_csv_header(cfg), "p,loc,grad\n"]
    for i, loc in enumerate(loc_grid):
        for j, p in enumerate(p_grid):
            rows.append(f"{_fmt(p)},{_fmt(loc)},{_fmt(grid[i, j])}\n")
    (out / "surface.csv").write_text("".join(rows))
    print(f"surface: wrote {len(p_grid) * len(loc_grid)} grid points ({s['mode']} mode)")
    return EXIT_OK


def _evaluate_trained(
    cfg: dict, scene_set, model: ToyModel
) -> tuple[list[tuple[float, float]], dict, list[dict], list[tuple[float, float]]]:
    """NMS + AP + scatter + AIC pairs for a trained model on its scenes."""
    t = cfg["train"]
    per_scene = model_detections(scene_set, model)
    kept: list[list[Detection]] = [nms(dets, float(t["nms_threshold"])) for dets in per_scene]

    # AP with scene-namespaced class keys so matches stay within a scene
    all_dets: list[Detection] = []
    all_gts: list[GroundTruth] = []
    det_rows: list[dict] = []
    scatter_rows: list[tuple[float, float]] = []
    for s_idx, (scene, dets) in enumerate(zip(scene_set.scenes, kept)):
        gts = [GroundTruth(box=b, class_id=c) for b, c in zip(scene.gt_boxes, scene.gt_classes)]
        scatter_rows.extend(consistency_scatter(dets, gts))
        for d in dets:
            all_dets.append(
                Detection(box=d.box, class_id=s_idx * 10_000 + d.class_id, score=d.score)
            )
            det_rows.append(
                {
                    "scene": s_idx,
                    "box": [d.box.x1, d.box.y1, d.box.x2, d.box.y2],
                    "class_id": d.class_id,
                    "score": d.score,
                }
            )
        for g in gts:
            all_gts.append(GroundTruth(box=g.box, class_id=s_idx * 10_000 + g.class_id))
    ap = average_precision(all_dets, all_gts, [float(x) for x in t["ap_thresholds"]])
    ap_payload = {
        "per_threshold": {str(k): v for k, v in ap.per_threshold.items()},
        "mean": ap.mean,
    }
    # the matching train_toy built is cached on the scene set
    return consistency_pairs(scene_set, model), ap_payload, det_rows, scatter_rows


def cmd_train(cfg: dict, out: Path) -> int:
    from .metrics import aic as aic_metric

    scene_cfg = _build_scene_config(cfg)
    hp = _build_hyperparams(cfg)
    if hp.num_classes != scene_cfg.num_classes:
        raise ConfigError(
            "config: hyperparams.num_classes and scene.num_classes must agree"
        )
    opt = _build_optimizer(cfg)
    scene_set = generate_scenes(scene_cfg)
    model = ToyModel.zeros(scene_set.total_anchors, scene_cfg.num_classes)
    model, log = train_toy(scene_set, model, opt, hp)

    rows = [_csv_header(cfg), "step,objective,mean_factor_r,mean_factor_c,aic\n"]
    for step, objective, fr, fc, a in log.csv_rows():
        rows.append(f"{step},{_fmt(objective)},{_fmt(fr)},{_fmt(fc)},{_fmt(a)}\n")
    (out / "trainlog.csv").write_text("".join(rows))

    aic_pairs, ap_payload, det_rows, scatter_rows = _evaluate_trained(cfg, scene_set, model)
    meta_line = json.dumps(
        {"meta": {"config_hash": config_hash(cfg), "seed": cfg["seed"]}}, sort_keys=True
    )
    det_lines = [meta_line] + [json.dumps(r, sort_keys=True) for r in det_rows]
    (out / "detections.jsonl").write_text("".join(line + "\n" for line in det_lines))

    rows = [_csv_header(cfg), "score,iou\n"]
    rows.extend(f"{_fmt(s)},{_fmt(u)}\n" for s, u in scatter_rows)
    (out / "scatter.csv").write_text("".join(rows))

    summary = {
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "loss_mode": opt.loss_mode,
        "final_objective": log.records[-1].objective,
        "num_positives": len(aic_pairs),
        "aic_mean": aic_metric(aic_pairs, mode="mean"),
        "aic_sum": aic_metric(aic_pairs, mode="sum"),
        "ap": ap_payload,
    }
    (out / "aic_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(
        f"train [{opt.loss_mode}]: objective {log.records[0].objective:.4f} -> "
        f"{log.records[-1].objective:.4f}, AIC {summary['aic_mean']:.4f}, "
        f"mean AP {ap_payload['mean']:.4f}"
    )
    return EXIT_OK


def cmd_refine(cfg: dict, out: Path) -> int:
    scene_cfg = _build_scene_config(cfg)
    hp = _build_hyperparams(cfg)
    opt = _build_optimizer(cfg)
    scene_set = generate_scenes(scene_cfg)
    result = refinement_experiment(scene_set, opt, hp)
    plain = refinement_gain(result.pairs_plain)
    weighted = refinement_gain(result.pairs_weighted)
    rows = [_csv_header(cfg), "bin_lo,bin_hi,count,mean_gain_iou,mean_gain_hiou\n"]
    for k in range(plain.counts.size):
        mp = "" if plain.means[k] is None else _fmt(plain.means[k])
        mw = "" if weighted.means[k] is None else _fmt(weighted.means[k])
        rows.append(
            f"{_fmt(plain.edges[k])},{_fmt(plain.edges[k + 1])},{int(plain.counts[k])},{mp},{mw}\n"
        )
    (out / "refine_gains.csv").write_text("".join(rows))

    before = [b for b, _ in result.pairs_plain]
    counts = iou_histogram(before, DEFAULT_IOU_BIN_EDGES)
    rows = [_csv_header(cfg), "bin_lo,bin_hi,count\n"]
    for k, c in enumerate(counts):
        rows.append(
            f"{_fmt(DEFAULT_IOU_BIN_EDGES[k])},{_fmt(DEFAULT_IOU_BIN_EDGES[k + 1])},{int(c)}\n"
        )
    (out / "iou_histogram.csv").write_text("".join(rows))
    print(
        f"refine: {len(result.pairs_plain)} positives, gamma {result.gamma_plain:g} vs "
        f"{result.gamma_weighted:g}"
    )
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
        out = _out_dir(args)
        _write_meta(out, eff, args.command)
        if args.command == "gradcheck":
            return cmd_gradcheck(eff, out)
        if args.command == "loss-eval":
            return cmd_loss_eval(eff, out, args.samples)
        if args.command == "surface":
            return cmd_surface(eff, out)
        if args.command == "train":
            return cmd_train(eff, out)
        if args.command == "refine":
            return cmd_refine(eff, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
