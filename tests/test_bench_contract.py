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
import subprocess
import sys
from pathlib import Path

import pytest

from hardet import cli

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
        # the gate, which lives in hardet.gate, traced under its harness
        # names: 3 draws and 4 batch draws of 4 positives, one difference
        # per entry
        assert metrics["harness.run_gradcheck.calls"] == 1
        assert metrics["harness.random_positive_sample.calls"] == 3 + 4 * 4
        assert metrics["harness.finite_diff_grad.calls"] == 8
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


@pytest.fixture(scope="module")
def bench_cases():
    """Every case of ``bench_train_toy.py layer``, built as it builds them
    from perfbench's workloads, untimed."""
    with pytest.MonkeyPatch.context() as mp:
        # run.py puts perfbench first on sys.path and imports the tracer by name
        mp.setattr(sys, "path", list(sys.path))
        mp.setitem(sys.modules, "tracer", _load("tracer"))
        bench = _load("bench_train_toy", SCRIPTS)
        return list(bench.cases(_load("run").WORKLOADS))


def test_every_bench_script_case_builds_its_configs_and_scenes(bench_cases):
    """``bench_train_toy.py layer`` builds its cases from perfbench's
    workloads merged with cli's per-command defaults, and calls ``hardet``
    and ``hardet.cli`` names directly, so a field or name hardet drops would
    crash it; call every case once, as ``layer`` does before timing it."""
    names = [name for name, _, _ in bench_cases]
    assert len(names) == len(set(names)) > 0
    for name, _, call in bench_cases:
        call()


def test_bench_script_batch_kernel_cases_record_what_they_run(bench_cases):
    """The batch kernel's cases call it as this checkout declares it, on the
    rows and positives their metadata records."""
    kernel_cases = [c for c in bench_cases if c[0].startswith("batch_objective_arrays_")]
    assert len(kernel_cases) == 2
    for name, meta, call in kernel_cases:
        batch = call()
        assert batch.grad_probs.shape[0] == meta["rows"], name
        assert batch.num_positives == meta["positives"], name


# a hardet without its names, and one whose cli lacks command_setup, the
# first name the cases call after their imports
NAMELESS_HARDET = {
    "no_names": ({"__init__.py": ""}, "cannot import name 'AnchorTargets' from 'hardet'"),
    "no_command_setup": (
        {
            "__init__.py": (
                "from . import cli, losses\n"
                "AnchorTargets = HyperParams = OptimizerConfig = SceneConfig = ToyModel = None\n"
                "average_precision = generate_scenes = model_detections = nms = None\n"
                "offset_iou_and_grad = refinement_experiment = run_gradcheck = train_toy = None\n"
            ),
            "cli.py": "",
            "losses.py": "",
            "geom.py": "elementwise = None\n",
        },
        "module 'hardet.cli' has no attribute 'command_setup'",
    ),
}


@pytest.mark.parametrize("case", sorted(NAMELESS_HARDET))
def test_bench_script_layer_names_a_missing_hardet_name(tmp_path, case):
    """``bench_train_toy.py layer`` on a ``src`` whose ``hardet`` lacks a
    name its cases call, as a parent older than that name is, exits 1 with
    one line naming it, and writes nothing."""
    files, missing = NAMELESS_HARDET[case]
    package = tmp_path / "src" / "hardet"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    out = tmp_path / "layer.json"
    cmd = [sys.executable, str(SCRIPTS / "bench_train_toy.py"), "layer", str(package.parent), str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and missing in done.stderr, done.stderr
    assert done.stderr.startswith(f"layer: {package.parent} lacks a hardet name the cases call: ")
    assert not out.exists()
