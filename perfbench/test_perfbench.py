"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rows(report: dict) -> dict[tuple[str, str], dict]:
    return {(r["function"], r["parent"]): r for r in report["by_parent"]}


def _spin(cpu_s: float) -> None:
    """Burn ``cpu_s`` seconds of this thread's CPU time."""
    end = time.thread_time() + cpu_s
    while time.thread_time() < end:
        pass


def test_self_time_of_nested_call():
    tr = tracer.Tracer()
    inner = tr.wrap("geom.iou", lambda: _spin(0.02))

    def outer_body():
        _spin(0.01)
        time.sleep(0.05)  # waiting is not self time
        inner()
        inner()

    outer = tr.wrap("harness.train_toy", outer_body, coarse=True)
    outer()
    report = tr.report()
    rows = _rows(report)
    o = rows[("harness.train_toy", tracer.ROOT)]
    i = rows[("geom.iou", "harness.train_toy")]
    assert (o["calls"], i["calls"]) == (1, 2)
    assert i["self_s"] == pytest.approx(i["cpu_s"])
    assert o["self_s"] == pytest.approx(o["cpu_s"] - i["cpu_s"], abs=1e-9)
    assert i["cpu_s"] >= 0.04
    assert 0.01 <= o["self_s"] < 0.02
    assert report["metrics"]["geom.iou.calls"] == 2
    assert [s["name"] for s in report["spans"]] == ["harness.train_toy"]
    assert report["spans"][0]["parent"] == tracer.ROOT


def test_calls_in_worker_threads_keep_their_own_stack():
    tr = tracer.Tracer()
    inner = tr.wrap("geom.decode", lambda: _spin(0.005))

    def fan_out():
        with ThreadPoolExecutor(max_workers=3) as pool:
            for f in [pool.submit(inner) for _ in range(12)]:
                f.result()

    outer = tr.wrap("harness.run_gradcheck", fan_out, coarse=True)
    outer()
    rows = _rows(tr.report())
    worker = rows[("geom.decode", tracer.WORKER_ROOT)]
    assert worker["calls"] == 12
    assert ("geom.decode", "harness.run_gradcheck") not in rows
    # each call is charged its own thread's CPU, not its wait for the lock
    assert 0.06 <= worker["self_s"] < 0.09
    # the caller only waits for the pool, which costs it almost no CPU
    o = rows[("harness.run_gradcheck", tracer.ROOT)]
    assert o["self_s"] < 0.02


def test_exception_counted_once_where_it_leaves_a_layer():
    tr = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    inner = tr.wrap("geom.encode", fail)
    outer = tr.wrap("losses.full_loc_loss", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    metrics = tr.report()["metrics"]
    assert metrics["geom.errors"] == 1
    assert metrics["losses.errors"] == 0
    assert metrics["geom.encode.calls"] == 1


def test_install_rebinds_every_alias_and_restore_puts_them_back():
    import hardet
    from hardet import cli, geom, harness, losses, metrics

    original_iou = geom.iou
    original_init = losses.PositiveSample.__dict__["__post_init__"]
    assert tracer.installed_wrappers() == []
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (hardet, geom, losses, metrics, harness, cli):
            assert getattr(mod.iou, "__wrapped__", None) is original_iou
        assert losses.PositiveSample.__dict__["__post_init__"] is not original_init
        assert "hardet.metrics.iou" in tracer.installed_wrappers()
        a = hardet.Box(0.0, 0.0, 2.0, 2.0)
        assert hardet.iou(a, hardet.Box(1.0, 0.0, 3.0, 2.0)) == pytest.approx(1 / 3)
    finally:
        tr.restore()
    assert tracer.installed_wrappers() == []
    for mod in (hardet, geom, losses, metrics, harness, cli):
        assert mod.iou is original_iou
    assert losses.PositiveSample.__dict__["__post_init__"] is original_init
    m = tr.report()["metrics"]
    assert m["geom.iou.calls"] == 1
    assert m["geom.Box.init.calls"] == 2


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [*run.END_TO_END, *run.RAW, *run.RESULTS, "error_rate", *tracer.per_layer_metrics()]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (n, u, b) for n, (u, b) in tracer.per_layer_metrics().items()
    ]
    for m in bench["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    listed = [w["name"] for w in bench["workloads"]]
    assert listed == [w for w in run.WORKLOADS if w != "gradcheck_default"]


def test_refine_gain_delta_weights_high_iou_bins_by_count(tmp_path):
    (tmp_path / "refine_gains.csv").write_text(
        "# config_hash=x seed=0\n"
        "bin_lo,bin_hi,count,mean_gain_iou,mean_gain_hiou\n"
        "0.4,0.5,5,0.1,0.9\n"
        "0.5,0.6,1,0.1,0.2\n"
        "0.6,0.7,3,0.1,0.5\n"
        "0.7,0.8,0,,\n"
    )
    results, failures = run.check_outputs("refine", tmp_path, {"positive_count": 9})
    assert failures == []
    assert results["result.refine_gain_delta"] == pytest.approx((1 * 0.1 + 3 * 0.4) / 4)
    _, failures = run.check_outputs("refine", tmp_path, {"positive_count": 8})
    assert failures == ["9 refine pairs != 8 positives"]


def test_reference_values_are_enforced_for_pinned_seeds():
    pinned = json.loads((HERE / "reference.json").read_text())["values"]["train_default"]["0"]
    assert run.check_reference("train_default", 0, dict(pinned)) == []
    off = {k: v * (1 + 1e-4) for k, v in pinned.items()}
    assert len(run.check_reference("train_default", 0, off)) == len(pinned)
    assert run.check_reference("train_default", 10**6, off) == []
