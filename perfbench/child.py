"""One measured iteration in a fresh interpreter; driven by run.py.

Usage: python3 perfbench/child.py SPEC.json

The spec names the checkout's ``src`` directory, the config file, the seed,
the ``hardet.cli.main`` argv, whether to trace, and where to write the
result. Set-up is ``import hardet`` plus the config handling ``cli.main``
does for the command; the result JSON carries the perf_counter instant at
which set-up finished, so the parent can time set-up from the moment it
spawned this process. A fixed calibration loop is timed just before and
after the command.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


CALIB_LOOPS = 30_000


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds this host takes for a fixed loop of small work.

    The work is of the kind hardet does (4-vector products, scalar math) but
    calls no hardet code. Timed just before and after the command, it shows
    how fast the host runs at that moment: its speed swings by up to 1.8x
    within seconds when other tenants load the machine.
    """
    import numpy as np

    t0, c0 = perf_counter(), process_time()
    m = np.arange(16.0).reshape(4, 4) / 10.0
    v = np.ones(4)
    acc = 0.0
    for i in range(CALIB_LOOPS):
        w = m @ v
        acc += math.exp(-abs(float(w[i & 3]))) + max(0.0, min(1.0, acc * 1e-9))
        v = np.array((w[0] * 0.1, w[1] * 0.1, 1.0, 0.5))
    return perf_counter() - t0, process_time() - c0


def _facts(out: Path) -> dict:
    """Ground-truth and positive counts of the run's scenes, for the checks."""
    from hardet import SceneConfig, generate_scenes, match_anchors

    cfg = json.loads((out / "run_meta.json").read_text())["config"]
    scene = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg["scene"].items()}
    scene_set = generate_scenes(SceneConfig(seed=cfg["seed"], **scene))
    threshold = scene_set.config.positive_iou_threshold
    return {
        "gt_count": sum(len(s.gt_boxes) for s in scene_set.scenes),
        "positive_count": sum(
            len(match_anchors(s, scene_set.anchors, threshold).pos_anchor)
            for s in scene_set.scenes
        ),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import numpy
    import hardet
    from hardet import cli

    # the same defaults cli.main passes for the command
    command = spec["argv"][0]
    scene_defaults = opt_defaults = None
    if command == "train":
        scene_defaults = cli._TRAIN_SCENE_DEFAULTS
    elif command == "refine":
        scene_defaults = cli._REFINE_SCENE_DEFAULTS
        opt_defaults = cli._REFINE_OPT_DEFAULTS
    cli.effective_config(
        cli.load_config(spec["config"]),
        seed_override=spec["seed"],
        scene_defaults=scene_defaults,
        opt_defaults=opt_defaults,
    )
    result: dict = {
        "t_setup_done": perf_counter(),
        "hardet_file": hardet.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    import tracer

    if spec["trace"]:
        tr = tracer.Tracer(run_id=spec["run_id"])
        tr.install()
    else:
        tr = None
        left = tracer.installed_wrappers()
        if left:
            raise RuntimeError(f"untraced run found tracer wrappers: {left}")
    calib_before = calibrate()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    try:
        code = cli.main(spec["argv"])
    finally:
        t1 = perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if tr is not None:
            tr.restore()
    result.update(
        exit_code=code,
        wall_s=t1 - t0,
        cpu_s=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        peak_rss_mb=r1.ru_maxrss / 1024.0,
    )
    calib_after = calibrate()
    result.update(
        calib_s=(calib_before[0] + calib_after[0]) / 2.0,
        calib_cpu_s=(calib_before[1] + calib_after[1]) / 2.0,
    )
    if tr is not None:
        Path(spec["trace_path"]).write_text(json.dumps(tr.report()) + "\n")
    if spec["facts"] and code == 0:
        result["facts"] = _facts(Path(spec["out"]))
    Path(spec["result_path"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
