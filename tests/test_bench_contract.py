"""The benchmark's reach into hardet.

``perfbench/tracer.py`` resolves every traced name by ``getattr``, and
``perfbench/child.py`` and ``scripts/bench_train_toy.py`` call ``hardet.cli``
and ``hardet.harness`` names directly. A renamed or deleted name breaks only
benchmark runs, and perfbench's own tests sit outside the default test paths
and time things. These tests run the benchmark's own modules, loaded by
path, on a small config, and assert no timing.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hardet import OptimizerConfig, SceneConfig, ToyModel, cli, generate_scenes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = PERFBENCH.parent / "scripts"


def _load(name: str, where: Path = PERFBENCH):
    spec = importlib.util.spec_from_file_location(f"{where.name}_{name}", where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def tracer():
    return _load("tracer")


def test_tracer_installs_on_every_traced_name_and_restores(tracer):
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = set(tracer.installed_wrappers())
    finally:
        tr.restore()
    assert tracer.installed_wrappers() == []
    for qual in tracer.traced_names():
        layer, name = qual.split(".", 1)
        if name.endswith(".init"):
            want = f"hardet.{layer}.{name[: -len('.init')]}.__post_init__"
        else:
            want = f"hardet.{layer}.{name}"
        assert want in wrapped, qual


@pytest.mark.parametrize("command", ["train", "refine"])
def test_child_runs_a_traced_command_with_its_facts(tmp_path, monkeypatch, tracer, command):
    """``child.main`` end to end: its set-up through ``cli``, the command
    under the tracer, and the scene facts it reads through ``hardet``."""
    config = tmp_path / "config.json"
    small = {
        "scene": {"num_scenes": 2, "objects_per_scene": [2, 3]},
        "optimizer": {"steps": 5, "log_every": 5, "gradcheck_samples": 3},
    }
    config.write_text(json.dumps(small))
    out = tmp_path / "out"
    spec = {
        "src": str(Path(cli.__file__).resolve().parent.parent),
        "config": str(config),
        "seed": 3,
        "argv": [command, "--config", str(config), "--seed", "3", "--out", str(out)],
        "trace": True,
        "run_id": "0",
        "trace_path": str(tmp_path / "trace.json"),
        "facts": True,
        "out": str(out),
        "result_path": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    # child.py imports the tracer by name and puts its src first on sys.path
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ["child.py", str(tmp_path / "spec.json")])
    child = _load("child")
    child.CALIB_LOOPS = 10  # the host calibration only feeds timings
    assert child.main() == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    assert result["facts"]["positive_count"] >= result["facts"]["gt_count"] > 0
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    assert metrics[f"cli.cmd_{command}.calls"] == 1
    assert metrics["harness.generate_scenes.calls"] == 1
    if command == "train":
        # the evaluation runs under the names the benchmark traces; the
        # scatter comes from average_precision's own IoU matrices
        for name, calls in (("nms", 1), ("average_precision", 1), ("consistency_scatter", 0)):
            assert metrics[f"metrics.{name}.calls"] == calls, name
        # one AIC per logged record, then aic_summary.json's mean and sum
        records = (out / "trainlog.csv").read_text().splitlines()[2:]
        assert metrics["metrics.aic.calls"] == len(records) + 2
    else:
        assert metrics["metrics.refinement_gain.calls"] == 2
        assert metrics["metrics.iou_histogram.calls"] == 1
    assert sum(v for k, v in metrics.items() if k.endswith(".errors")) == 0
    assert tracer.installed_wrappers() == []


def test_every_module_binds_the_iou_alias_the_tracer_rebinds(monkeypatch, tracer):
    """perfbench's own alias test, run by path: the tracer rebinds ``iou`` in
    every ``hardet`` module, so a module that stops binding it breaks that
    test, which sits outside the default test paths."""
    # test_perfbench.py puts perfbench first on sys.path and imports its
    # siblings by name; hand it the ones loaded here and undo both after
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "run", _load("run"))
    _load("test_perfbench").test_install_rebinds_every_alias_and_restore_puts_them_back()


def test_every_workload_config_runs_through_the_cli(tmp_path, monkeypatch, tracer):
    """Each benchmark workload's config passes ``load_config`` and runs its
    command through ``cli.main`` to exit 0: a config key the CLI stops
    accepting would otherwise fail every benchmark run of that workload."""
    # run.py puts perfbench first on sys.path and imports the tracer by name
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    run = _load("run")
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(workload.config, sort_keys=True, indent=2) + "\n")
        assert cli.load_config(str(config)) == workload.config, name
        argv = [workload.command, "--config", str(config), "--out", str(tmp_path / name)]
        assert cli.main(argv) == cli.EXIT_OK, name


def test_every_bench_script_case_builds_its_configs_and_scenes():
    """``bench_train_toy.py layer`` builds ``SceneConfig`` and
    ``OptimizerConfig`` from its cases' keys directly, some of them cli's
    per-command defaults, and evaluates through ``cli._evaluate_trained``, so
    a field or name hardet drops would crash it; build each case as it does,
    and evaluate an untrained model on each evaluation case, without timing."""
    bench = _load("bench_train_toy", SCRIPTS)
    cases = bench.layer_cases(cli)
    for scene, optimizer in cases.values():
        assert generate_scenes(SceneConfig(**scene)).total_anchors > 0
        for mode in bench.MODES:
            OptimizerConfig(**optimizer, loss_mode=mode, gradcheck_samples=0)
    for name in bench.EVAL_CASES:
        scene, optimizer = cases[name]
        OptimizerConfig(**optimizer, loss_mode=bench.EVAL_MODE, gradcheck_samples=0)
        ss = generate_scenes(SceneConfig(**scene))
        model = ToyModel.zeros(ss.total_anchors, ss.config.num_classes)
        assert len(cli._evaluate_trained(ss, model)[1]) > 0
    scene, optimizer = bench.refine_case(cli)
    assert generate_scenes(SceneConfig(**scene)).total_anchors > 0
    OptimizerConfig(**optimizer)
    # the batch kernel's cases call it as this checkout declares it
    kernel_cases = bench.batch_kernel_cases()
    assert len(kernel_cases) == len(bench.BATCH_CASES)
    for rows, positives, kernel in kernel_cases.values():
        batch = kernel()
        assert batch.grad_probs.shape[0] == rows and batch.num_positives == positives
