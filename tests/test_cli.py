"""Command-line behavior: exit codes, output files, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import warnings
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardet import cli, harness
from hardet.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from hardet.harness import OptimizerConfig, SceneConfig, ToyModel, generate_scenes, train_toy
from hardet.losses import HyperParams
from hardet.metrics import DEFAULT_AP_THRESHOLDS, DetectionArrays

import eval_reference

FAST_TRAIN = {
    "scene": {"num_scenes": 2, "objects_per_scene": [2, 3], "anchor_spacing": 4.0},
    "optimizer": {"steps": 25, "log_every": 5, "gradcheck_samples": 3},
}
FAST_REFINE = {
    "scene": {"num_scenes": 4, "objects_per_scene": [2, 3]},
    "optimizer": {"steps": 5, "learning_rate": 0.002},
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path: Path) -> tuple[str, list[dict]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return lines[0], list(csv.DictReader(lines[1:]))


class TestConfigHandling:
    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,\n  "oops"\n}')
        code = main(["surface", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "line" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"optimizer": {"momentum": 0.9}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        assert "momentum" in capsys.readouterr().err

    def test_config_schema_keys(self):
        # every settable key: adding or removing a knob is an edit here.
        # beta_e_stop_grad and freeze_factors are library fields, and the
        # gradient gate's tolerance and batch draws, the canvas, the anchor
        # side, the surface grid and train's NMS and AP thresholds are constants
        assert {name: set(keys) for name, keys in cli._BLOCK_KEYS.items()} == {
            "hyperparams": {"alpha", "gamma", "margin"},
            "scene": {
                "anchor_spacing",
                "num_scenes",
                "objects_per_scene",
                "num_classes",
                "jitter",
                "positive_iou_threshold",
            },
            "optimizer": {"learning_rate", "steps", "log_every", "loss_mode", "gradcheck_samples"},
            "gradcheck": {"samples"},
            "surface": {"mode"},
        }
        assert set(cli._TOP_KEYS) == {"seed", *cli._BLOCK_KEYS}
        # the settable keys, counting seed
        assert 1 + sum(map(len, cli._BLOCK_KEYS.values())) == 17

    @pytest.mark.parametrize(
        "block, key",
        [
            ("gradcheck", "tolerance"),
            ("gradcheck", "batch_draws"),
            ("optimizer", "gradcheck_tolerance"),
            ("scene", "canvas"),
            ("scene", "anchor_scales"),
            ("surface", "p_min"),
            ("surface", "p_max"),
            ("surface", "p_steps"),
            ("surface", "loc_min"),
            ("surface", "loc_max"),
            ("surface", "loc_steps"),
            ("train", "nms_threshold"),
            ("train", "ap_thresholds"),
            ("hyperparams", "beta_e_stop_grad"),
            # the whole block: key None
            ("train", None),
        ],
    )
    def test_removed_gate_key_is_unknown_to_every_command(self, tmp_path, block, key):
        # the gate's tolerance and batch draws, the canvas, the anchor side,
        # the surface grid and train's thresholds are constants, and
        # beta_e_stop_grad is a library field; 1e-5, 4, [16, 16], [3], 0.5,
        # 20, True and the AP thresholds are their own values, so a config
        # that restates them is rejected too
        values = (0.0, 1e-5, 4, 0.5, 20, True, [16.0, 16.0], [3.0], list(DEFAULT_AP_THRESHOLDS), {})
        # the train block is gone whole, so it is the unknown key
        path = block if block == "train" else f"{block}.{key}"
        for value in values:
            cfg = write_config(tmp_path, {block: value} if key is None else {block: {key: value}})
            for command, flags in [
                ("gradcheck", []),
                ("loss-eval", ["--samples", "never-read.jsonl"]),
                ("surface", []),
                ("train", []),
                ("refine", []),
            ]:
                out = tmp_path / command
                assert _run_quietly([command, "--config", cfg, *flags, "--out", str(out)]) == (
                    EXIT_VALIDATION,
                    f"error: config.{path}: unknown key\n",
                )
                assert not out.exists()

    def test_missing_file(self, tmp_path):
        code = main(["surface", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_non_utf8_file_exits_1_naming_it(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        code, err = _run_quietly(["gradcheck", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: cannot read config file {bad}: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_deeply_nested_config_exits_1_naming_it(self, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, past its depth
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "out"
        code, err = _run_quietly(["surface", "--config", str(deep), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: config {deep}: maximum recursion depth exceeded")
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, **FAST_TRAIN})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "9", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 9


class TestNoTracebacks:
    @pytest.mark.parametrize(
        "command, payload, flags, path",
        [
            ("train", {"scene": {"objects_per_scene": [1, 2, 3]}}, [], "config.scene: objects_per_scene"),
            ("train", {"seed": -1}, [], "config.seed"),
            ("train", {}, ["--seed", "-1"], "config.seed"),
            ("train", {"optimizer": {"steps": 2.5}}, [], "config.optimizer.steps"),
            ("train", {"scene": {"num_scenes": True}}, [], "config.scene.num_scenes"),
            ("gradcheck", {"gradcheck": {"samples": 2.5}}, [], "config.gradcheck.samples"),
            ("gradcheck", {"gradcheck": {"samples": 2.0}}, [], "config.gradcheck.samples: expected an integer"),
            ("train", {"scene": {"objects_per_scene": [2.5, 4]}}, [], "config.scene.objects_per_scene[0]"),
            ("train", {"scene": {"objects_per_scene": [True, 2]}}, [], "config.scene.objects_per_scene[0]"),
            # the scene set is bounded before any grid is built
            ("train", {"scene": {"anchor_spacing": 5e-324}}, [], "config.scene: 4 scenes of inf anchors"),
            ("train", {"scene": {"anchor_spacing": 1e-300}}, [], "config.scene: 4 scenes of inf anchors"),
            ("train", {"scene": {"num_scenes": 100000000}}, [], "config.scene: 100000000 scenes"),
            # every object needs an anchor of its own, and one scene's IoU matrix is bounded
            (
                "train",
                {"scene": {"anchor_spacing": 8, "objects_per_scene": [6, 6]}},
                [],
                "config.scene: objects_per_scene upper bound 6 exceeds the 4 anchors per scene",
            ),
            ("train", {"scene": {"objects_per_scene": [200000, 200000]}}, [], "config.scene: objects_per_scene"),
            ("train", {"scene": {"objects_per_scene": [2, 100000000]}}, [], "config.scene: objects_per_scene"),
            (
                "train",
                {"scene": {"num_scenes": 1, "anchor_spacing": 0.04, "objects_per_scene": [2, 7]}},
                [],
                "config.scene: 160000 anchors x 7 objects per scene exceed the matching limit",
            ),
            # non-finite floats are rejected when the config is read
            ("train", {"optimizer": {"learning_rate": float("nan")}}, [], "config.optimizer.learning_rate: expected a finite"),
            ("train", {"hyperparams": {"gamma": float("nan")}}, [], "config.hyperparams.gamma: expected a finite number"),
            # every command judges the scene block of its own effective config
            ("surface", {"scene": {"objects_per_scene": [200000, 200000]}}, [], "config.scene: objects_per_scene"),
            ("gradcheck", {"scene": {"objects_per_scene": [200000, 200000]}}, [], "config.scene: objects_per_scene"),
            (
                "loss-eval",
                {"scene": {"objects_per_scene": [200000, 200000]}},
                ["--samples", "never-read.jsonl"],
                "config.scene: objects_per_scene",
            ),
        ],
    )
    def test_bad_config_exits_1_naming_the_key(self, tmp_path, capsys, command, payload, flags, path):
        merged = {**FAST_TRAIN, **payload} if command == "train" else payload
        cfg = write_config(tmp_path, merged)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, *flags, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert path in err
        assert "Traceback" not in err
        # every block is checked before training starts, not after it
        assert not (out / "trainlog.csv").exists()

    def test_output_path_that_is_a_file_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["surface", "--out", str(taken)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"cannot create output directory {taken}" in err
        assert "Traceback" not in err

    def test_float_keys_still_take_integers(self, tmp_path):
        cfg = write_config(tmp_path, {"hyperparams": {"alpha": 1}, "scene": {"anchor_spacing": 3}})
        assert main(["surface", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize(
        "command, payload, name",
        [
            # written before the work, and after training
            ("surface", {}, "run_meta.json"),
            ("train", FAST_TRAIN, "trainlog.csv"),
        ],
    )
    def test_output_file_that_cannot_be_written_exits_1(self, tmp_path, command, payload, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path, payload)
        code, err = _run_quietly([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: cannot write {out / name}: [Errno 21] Is a directory")

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("train", {**FAST_TRAIN, "hyperparams": {"alpha": 1e308}}),
            ("gradcheck", {"hyperparams": {"alpha": 1e308}, "gradcheck": {"samples": 2}}),
        ],
    )
    def test_overflow_in_the_gradient_gate_exits_2(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: gradcheck batch_objective: loss not finite" in err
        assert "Traceback" not in err

    def test_overflow_in_the_gradient_gate_warns_nothing(self, tmp_path, capsys):
        payload = {"hyperparams": {"alpha": 1e308}, "gradcheck": {"samples": 2}}
        cfg = write_config(tmp_path, payload)
        # a numpy RuntimeWarning would escape main as an exception here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gradcheck batch_objective: loss not finite")
        assert "Warning" not in err

    def test_failed_gradient_gate_names_the_operation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "GRADCHECK_TOLERANCE", 0.0)
        cfg = write_config(tmp_path, FAST_TRAIN)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gradcheck failed for ")
        assert "batch_objective: max error " in err
        assert "> tolerance 0.000e+00 at draw " in err
        assert "Traceback" not in err
        assert not (out / "trainlog.csv").exists()

    @pytest.mark.parametrize("command", ["gradcheck", "train"])
    def test_unreachable_probability_floor_exits_2(self, tmp_path, capsys, command):
        # 200 classes almost never all draw the oracle's 1e-3 probability floor;
        # both the sweep and the gate before training draw the scene's classes
        payload = {**FAST_TRAIN, "scene": {"num_classes": 200}, "gradcheck": {"samples": 1}}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "numerical failure: gradcheck could not draw" in capsys.readouterr().err

    def test_huge_offset_sample_warns_nothing(self, tmp_path, capsys):
        record = {"probs": [0.5, 0.5], "gt_class": 1, "anchor": [0, 0, 2, 2], "gt_box": [0.5, 0.5, 2.5, 2.5]}
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps({**record, "d": [1e200, 0, 0, 0]}) + "\n")
        # a numpy RuntimeWarning would escape main as an exception here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["loss-eval", "--samples", str(samples), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err

    def test_non_object_sample_line_exits_1(self, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_text("[1, 2]\n")
        assert main(["loss-eval", "--samples", str(samples), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "samples line 1" in err
        assert "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=5), children, max_size=5),
    max_leaves=12,
)
_NUMBERS = st.lists(st.floats() | st.integers(-3, 10), max_size=6)
_RECORDS = st.fixed_dictionaries(
    {key: _NUMBERS | _JSON for key in ("probs", "gt_class", "anchor", "gt_box", "d")}
)
# corners and sizes up to the float range's ends, where areas and unions overflow
_ORIGIN = st.floats(-10, 10) | st.sampled_from([0.0, 1e300, -1e300])
_SIZE = st.floats(1e-3, 10) | st.sampled_from([1e-300, 1e154, 1e300, 1e308])
_BOXES = st.tuples(*[_ORIGIN] * 2, *[_SIZE] * 2).map(lambda b: [b[0], b[1], b[0] + b[2], b[1] + b[3]])
# well-formed records with extreme offsets reach the loss itself
_SAMPLES = st.fixed_dictionaries(
    {
        "probs": st.sampled_from([[0.1, 0.7, 0.1, 0.05, 0.05], [0.5, 0.5], [0.0, 1.0, 0.0]]),
        "gt_class": st.integers(-1, 2),
        "anchor": _BOXES,
        "gt_box": _BOXES,
        "d": st.lists(st.floats(-5, 5) | st.floats(), min_size=4, max_size=4),
    }
)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_EXTREME_SAMPLE = {"probs": [0.5, 0.5], "gt_class": 1, "anchor": [0, 0, 2, 2], "d": [0, 0, 0, 0]}


@settings(max_examples=300, deadline=None)
@given(value=_JSON | _RECORDS | _SAMPLES)
# the union squared overflows in the IoU gradient; once, NaN was written
@example(value={**_EXTREME_SAMPLE, "gt_box": [0, 0, 1e308, 1e308]})
@example(value={**_EXTREME_SAMPLE, "anchor": [1e300, 0, 3e300, 1], "gt_box": [1.5e300, 0.5, 3.5e300, 1.5]})
def test_any_json_sample_line_exits_0_1_or_2(tmp_path_factory, value):
    tmp = tmp_path_factory.mktemp("loss_eval")
    samples = tmp / "samples.jsonl"
    samples.write_text(json.dumps(value) + "\n")
    code = main(["loss-eval", "--samples", str(samples), "--out", str(tmp / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
    if code == EXIT_OK:
        # every breakdown written is valid JSON: no NaN or Infinity
        for line in (tmp / "out" / "breakdowns.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=_no_constant)


# --- config-file fuzzer --------------------------------------------------------

_EXTREME = st.sampled_from(
    [0, -1, 10**400, -(10**400), 1e308, -1e308, 5e-324, 1e-300, float("inf"), float("-inf"), float("nan")]
)
_JUNK = st.none() | st.booleans() | st.text(max_size=3) | st.just([]) | st.just({"x": 1})
# keys whose size sets the run time or the memory: integers stay small, and
# floats are either moderate or extreme enough to be rejected
_SMALL_INT = st.integers(-1, 3)
_SCENE_FLOAT = st.floats(1.0, 8.0) | _EXTREME
_COSTLY = {
    ("optimizer", "steps"): _SMALL_INT,
    ("optimizer", "gradcheck_samples"): _SMALL_INT,
    ("gradcheck", "samples"): _SMALL_INT,
    ("scene", "num_scenes"): _SMALL_INT,
    ("scene", "num_classes"): st.integers(-1, 6),
    ("scene", "objects_per_scene"): st.lists(st.integers(-1, 4), max_size=3),
    ("scene", "anchor_spacing"): _SCENE_FLOAT,
}
_BLOCKS = cli._BLOCK_KEYS


def _typed(expected) -> st.SearchStrategy:
    """Values of the schema type, extremes included."""
    if get_origin(expected) is list:
        return st.lists(_typed(get_args(expected)[0]), max_size=3)
    if expected is int:
        return st.integers() | _EXTREME.filter(lambda v: isinstance(v, int))
    if expected is float:
        return st.floats() | st.integers(-3, 3) | _EXTREME
    if expected is bool:
        return st.booleans()
    return st.sampled_from(["standard", "harmonic", "harmonic_det", "x"])


def _entries(junk: bool) -> st.SearchStrategy:
    """A few (block, key, value) settings: real keys with values of their
    type, extremes included; with ``junk``, also values of other types,
    unknown keys, blocks that are not objects and a bad seed."""
    entries = [
        st.tuples(st.just(name), st.just(key), _COSTLY.get((name, key), _typed(t)))
        for name, schema in _BLOCKS.items()
        for key, t in sorted(schema.items())
    ]
    if junk:
        entries += [
            st.tuples(
                st.sampled_from([(n, k) for n in _BLOCKS for k in [*_BLOCKS[n], "junk"]]), _JUNK
            ).map(lambda pair: (*pair[0], pair[1])),
            st.tuples(st.sampled_from(sorted(_BLOCKS)), st.none(), _JUNK),
            st.tuples(st.sampled_from(["seed", "junk"]), st.none(), _SMALL_INT | _EXTREME | _JUNK),
        ]
    return st.lists(st.one_of(entries), max_size=3)


def _config(entries: list) -> dict:
    drawn: dict = {}
    for name, key, value in entries:
        if key is None:
            drawn[name] = value
        elif isinstance(drawn.setdefault(name, {}), dict):
            drawn[name][key] = value
    return drawn


_CONFIG = _entries(junk=False).map(_config) | _entries(junk=True).map(_config)
# fast settings a draw overrides key by key
_BASE = {
    "gradcheck": {"gradcheck": {"samples": 2}},
    "surface": {},
    "train": FAST_TRAIN,
    "refine": FAST_REFINE,
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_BASE)), drawn=_CONFIG)
# overflows in the gradient gate's references and differences, in the
# training kernel and in refine's update: a numpy warning, which the test
# session turns into an error, must not escape main
@example(command="train", drawn={"hyperparams": {"alpha": 1e308}, "optimizer": {"gradcheck_samples": 16}})
@example(command="gradcheck", drawn={"hyperparams": {"alpha": 1e308}, "gradcheck": {"samples": 16}})
@example(command="train", drawn={"hyperparams": {"alpha": 1e308}, "optimizer": {"gradcheck_samples": 0}})
@example(command="refine", drawn={"optimizer": {"learning_rate": 1e308}})
def test_any_config_file_exits_0_1_or_2(tmp_path_factory, command, drawn):
    """main reports config and numerical errors as exit 1 and 2; any other
    exception escapes it as a traceback and fails this test."""
    base = _BASE[command]
    payload = {**base, **drawn}
    for name, block in drawn.items():
        if isinstance(block, dict) and isinstance(base.get(name), dict):
            payload[name] = {**base[name], **block}
    tmp = tmp_path_factory.mktemp("config")
    cfg = write_config(tmp, payload)
    code = main([command, "--config", cfg, "--out", str(tmp / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)


def _merged(base: dict, drawn: dict) -> dict:
    """``drawn`` over ``base``, block by block where both hold an object."""
    payload = {**base, **drawn}
    for name, block in drawn.items():
        if isinstance(block, dict) and isinstance(base.get(name), dict):
            payload[name] = {**base[name], **block}
    return payload


# one file for every command, carrying each command's fast settings
_SHARED_BASE = {**_BASE["gradcheck"], **_BASE["surface"], **FAST_TRAIN}


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """main's exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(drawn=_CONFIG)
def test_every_command_gives_a_config_file_one_verdict(tmp_path_factory, drawn):
    """gradcheck, surface and loss-eval share every default, so they reject a
    file alike and with one message. train and refine differ from them only in
    scene and optimizer defaults, so they reject whatever the others reject
    with a message outside the scene block."""
    tmp = tmp_path_factory.mktemp("verdict")
    cfg = write_config(tmp, _merged(_SHARED_BASE, drawn))
    samples = tmp / "samples.jsonl"
    samples.write_text("")

    def run(command: str, *flags: str) -> tuple[int, str]:
        return _run_quietly([command, "--config", cfg, *flags, "--out", str(tmp / command)])

    shared = [run("gradcheck"), run("surface"), run("loss-eval", "--samples", str(samples))]
    rejected = {code == EXIT_VALIDATION for code, _ in shared}
    assert len(rejected) == 1, shared
    if rejected == {True}:
        assert len({err for _, err in shared}) == 1, shared
        if "config.scene" not in shared[0][1]:
            for command in ("train", "refine"):
                assert run(command)[0] == EXIT_VALIDATION, (command, shared[0][1])


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"surface": {"mode": "x"}}, "config.surface.mode: expected standard|harmonic, got 'x'"),
        ({"gradcheck": {"samples": 0}}, "config.gradcheck.samples: must be >= 1, got 0"),
        ({"optimizer": {"steps": 0}}, "config.optimizer: steps must be >= 1, got 0"),
        ({"hyperparams": {"alpha": -1}}, "config.hyperparams: alpha must be >= 0, got -1"),
        # the gradient gate's draw floor is judged against the scene's class count
        (
            {"scene": {"num_classes": 1000}},
            "config.scene.num_classes: 1000 class probabilities summing to 1 cannot all reach "
            "the gradient gate's draw floor 0.001",
        ),
        # the fit check bounds jitter at ln(16 / 3), and with it every box area
        (
            {"scene": {"jitter": 1.68}},
            "config.scene: objects up to 16.10 cannot fit the 16 x 16 canvas",
        ),
        # loss settings that are constants of the loss family
        ({"hyperparams": {"prob_floor": 0.05}}, "config.hyperparams.prob_floor: unknown key"),
        ({"hyperparams": {"harmonic_mode": "smooth_l1"}}, "config.hyperparams.harmonic_mode: unknown key"),
        ({"hyperparams": {"tc_through_iou": False}}, "config.hyperparams.tc_through_iou: unknown key"),
        (
            {"hyperparams": {"gamma": 2600, "allow_gamma_above_one": True}},
            "config.hyperparams.allow_gamma_above_one: unknown key",
        ),
        ({"hyperparams": {"gamma": 1.5}}, "config.hyperparams: gamma=1.5 breaks HIoU monotonicity; it must be <= 1"),
        # the class count is the scene's
        ({"hyperparams": {"num_classes": 3}}, "config.hyperparams.num_classes: unknown key"),
    ],
)
def test_every_command_rejects_a_bad_block_alike(tmp_path, payload, message):
    """Each of these blocks was once checked by some commands only."""
    cfg = write_config(tmp_path, payload)
    for command, flags in [
        ("gradcheck", []),
        ("loss-eval", ["--samples", "never-read.jsonl"]),
        ("surface", []),
        ("train", []),
        ("refine", []),
    ]:
        out = tmp_path / command
        assert _run_quietly([command, "--config", cfg, *flags, "--out", str(out)]) == (
            EXIT_VALIDATION,
            f"error: {message}\n",
        )
        # rejected before the output directory or run_meta.json is written
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "refine"])
def test_widest_jitter_the_canvas_fits_runs(tmp_path, command):
    """At the largest jitter the fit check accepts, just under ln(16 / 3),
    unclipped objects span 0.56 to 15.9 units and canvas-clipped ones can be
    far thinner, yet every area and union stays finite and positive, so both
    commands run without a warning."""
    scene = {"num_scenes": 4, "objects_per_scene": [2, 4], "anchor_spacing": 0.5, "jitter": 1.67}
    cfg = write_config(tmp_path, {"scene": scene, "optimizer": {"steps": 50}})
    assert _run_quietly([command, "--config", cfg, "--out", str(tmp_path / "out")]) == (EXIT_OK, "")


def test_scene_draw_off_the_canvas_runs_every_command(tmp_path):
    """At seed 0 this jitter clips an object of train's and of refine's
    scenes off the canvas; it is drawn again, so the config gets one verdict."""
    cfg = write_config(tmp_path, {"scene": {"jitter": 0.9}})
    for command in ("train", "refine", "gradcheck", "surface"):
        argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
        assert _run_quietly(argv) == (EXIT_OK, ""), command


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"gradcheck": {"samples": 20}})
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert report["passed"] is True
        assert all(e["max_err"] < 1e-5 for e in report["entries"])
        # the fixed tolerance, in the report's tolerance keys and on stdout
        assert report["tolerance"] == 1e-5
        assert [e["tolerance"] for e in report["entries"]] == [1e-5] * 8
        assert capsys.readouterr().out.endswith("gradcheck: PASS (tolerance 1e-05)\n")

    def test_zero_tolerance_fails_numerically(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "GRADCHECK_TOLERANCE", 0.0)
        cfg = write_config(tmp_path, {"gradcheck": {"samples": 5}})
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert report["passed"] is False
        assert report["tolerance"] == 0.0

    def test_every_operation_listed_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"gradcheck": {"samples": 5}})
        out = tmp_path / "out"
        main(["gradcheck", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "gradcheck_report.json").read_text())
        ops = [e["op"] for e in report["entries"]]
        assert len(ops) == len(set(ops)) == 8
        # the batch entry counts its batch draws, in the report and on stdout
        assert [e["samples"] for e in report["entries"]] == [5] * 7 + [4]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:8]] == ["samples="] * 8
        assert [line.split()[2] for line in lines[:8]] == ["5"] * 7 + ["4"]

    def test_scene_class_count_sets_the_draws(self, tmp_path):
        # the entries a 3-class hyperparams block gave before the class
        # count moved to the scene block, bit for bit, over the gate's 4
        # batch draws
        payload = {"scene": {"num_classes": 3}, "gradcheck": {"samples": 20}}
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", write_config(tmp_path, payload), "--out", str(out)]) == EXIT_OK
        entries = json.loads((out / "gradcheck_report.json").read_text())["entries"]
        assert [(e["op"], e["max_err"].hex(), e["worst_draw"]) for e in entries] == [
            ("iou_grad", "0x1.8cf2020000000p-33", 17),
            ("decode_jacobian", "0x1.9aebdc6f081bcp-31", 0),
            ("harmonic_cls_grad", "0x1.c3cd400000000p-32", 16),
            ("harmonic_reg_grad", "0x1.32d1a80000000p-31", 9),
            ("full_loc_loss", "0x1.6af484b01f69cp-32", 0),
            ("tc_loss", "0x1.e877000000000p-35", 11),
            ("harmonic_det_loss", "0x1.6f1b280000000p-31", 15),
            ("batch_objective", "0x1.aa8ab80000000p-33", 2),
        ]


    @pytest.mark.parametrize(
        "block, key",
        [
            ({"samples": 0}, "samples"),
            ({"samples": -3}, "samples"),
        ],
    )
    def test_empty_sweep_is_a_config_error(self, tmp_path, capsys, block, key):
        cfg = write_config(tmp_path, {"gradcheck": block})
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"config.gradcheck.{key}: must be >= 1, got {block[key]}" in captured.err
        assert "PASS" not in captured.out
        assert not (out / "gradcheck_report.json").exists()


class TestLossEvalCommand:
    def sample_line(self):
        return {
            "probs": [0.1, 0.7, 0.1, 0.05, 0.05],
            "gt_class": 1,
            "anchor": [0, 0, 2, 2],
            "gt_box": [0.5, 0.5, 2.5, 2.5],
            "d": [0.1, 0.2, 0.0, -0.1],
        }

    def test_empty_file_gives_empty_output(self, tmp_path):
        samples = tmp_path / "samples.jsonl"
        samples.write_text("")
        out = tmp_path / "out"
        assert main(["loss-eval", "--samples", str(samples), "--out", str(out)]) == EXIT_OK
        assert (out / "breakdowns.jsonl").read_text() == ""

    def test_perfect_sample_has_zero_total(self, tmp_path):
        record = {
            "probs": [0, 1, 0, 0, 0],
            "gt_class": 1,
            "anchor": [0, 0, 2, 2],
            "gt_box": [0, 0, 2, 2],
            "d": [0, 0, 0, 0],
        }
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out"
        assert main(["loss-eval", "--samples", str(samples), "--out", str(out)]) == EXIT_OK
        breakdown = json.loads((out / "breakdowns.jsonl").read_text())
        assert abs(breakdown["total"]) < 1e-8

    def test_line_count_preserved(self, tmp_path):
        samples = tmp_path / "samples.jsonl"
        samples.write_text("".join(json.dumps(self.sample_line()) + "\n" for _ in range(7)))
        out = tmp_path / "out"
        assert main(["loss-eval", "--samples", str(samples), "--out", str(out)]) == EXIT_OK
        lines = (out / "breakdowns.jsonl").read_text().splitlines()
        assert len(lines) == 7

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps(self.sample_line()) + "\n{broken\n")
        out = tmp_path / "out"
        assert main(["loss-eval", "--samples", str(samples), "--out", str(out)]) == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read samples file {path}: [Errno 2]"),
            (b"\xff\xfe{}\n", "cannot read samples file {path}: 'utf-8' codec can't decode"),
            (b'{"probs": [1.0]}\n', "samples line 1: sample record missing fields"),
            # json.loads raises RecursionError, not JSONDecodeError, past its depth
            (b"[" * 100_000 + b"\n", "samples line 1: maximum recursion depth exceeded"),
        ],
        ids=["missing", "non-utf8", "short-record", "deeply-nested"],
    )
    def test_bad_samples_file_exits_1_before_writing(self, tmp_path, content, message):
        samples = tmp_path / "samples.jsonl"
        if content is not None:
            samples.write_bytes(content)
        out = tmp_path / "out"
        code, err = _run_quietly(["loss-eval", "--samples", str(samples), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert err.startswith("error: " + message.format(path=samples))
        assert not out.exists()

    @pytest.mark.parametrize(
        "anchor, gt_box",
        [
            # the union squared overflows in the IoU gradient
            ([0, 0, 2, 2], [0, 0, 1e308, 1e308]),
            ([1e300, 0, 3e300, 1], [1.5e300, 0.5, 3.5e300, 1.5]),
        ],
        ids=["gt-box-1e308", "boxes-near-1e300"],
    )
    def test_non_finite_breakdown_exits_2_before_writing(self, tmp_path, anchor, gt_box):
        samples = tmp_path / "samples.jsonl"
        record = {**self.sample_line(), "anchor": anchor, "gt_box": gt_box}
        samples.write_text(json.dumps(self.sample_line()) + "\n" + json.dumps(record) + "\n")
        out = tmp_path / "out"
        # a numpy RuntimeWarning would escape main as an exception here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run_quietly(["loss-eval", "--samples", str(samples), "--out", str(out)])
        assert (code, err) == (EXIT_NUMERICAL, "numerical failure: samples line 2: grad_d is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, expected",
        [
            # finite, well-ordered boxes whose areas overflow to inf
            (
                {"anchor": [1e300, 1e300, 3e300, 3e300], "gt_box": [1.5e300, 1.5e300, 3.5e300, 3.5e300]},
                (EXIT_NUMERICAL, "numerical failure: samples line 1: iou_value must lie in [0, 1], got nan\n"),
            ),
            # areas that underflow to 0
            (
                {"anchor": [0, 0, 1e-200, 1e-200], "gt_box": [0, 0, 1.2e-200, 1.2e-200]},
                (
                    EXIT_NUMERICAL,
                    "numerical failure: samples line 1: iou gradient undefined for a degenerate union\n",
                ),
            ),
            # a size ratio of the regression target that underflows to 0
            (
                {"anchor": [0, 0, 1e300, 1e300], "gt_box": [0, 0, 1e-300, 1e-300], "d": [0, 0, 0, 0]},
                (
                    EXIT_NUMERICAL,
                    "numerical failure: samples line 1: regression target d_hat: "
                    "tw = log(gt width / anchor width) leaves the float range: 1e-300 / 1e+300 = 0.0\n",
                ),
            ),
            # a shift ratio of the regression target that overflows
            (
                {"anchor": [0, 0, 1e-300, 1e-300], "gt_box": [0, 0, 1e300, 1e300], "d": [0, 0, 0, 0]},
                (
                    EXIT_NUMERICAL,
                    "numerical failure: samples line 1: regression target d_hat: "
                    "tx = (gt center x - anchor center x) / anchor width leaves the float range: "
                    "5e+299 / 1e-300 = inf\n",
                ),
            ),
            # a size offset that does not decode is the record's own fault
            (
                {"d": [0.1, 0.2, 20.0, -0.1]},
                (EXIT_VALIDATION, "error: samples line 1: size offsets (20.0, -0.1) exceed the exp cap 16.0\n"),
            ),
        ],
        ids=[
            "areas-overflow", "areas-underflow", "target-size-underflow", "target-shift-overflow",
            "past-the-decode-cap",
        ],
    )
    def test_failed_breakdown_is_numerical_and_bad_offsets_a_validation_error(
        self, tmp_path, change, expected
    ):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps({**self.sample_line(), **change}) + "\n")
        out = tmp_path / "out"
        # a numpy RuntimeWarning would escape main as an exception here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_quietly(["loss-eval", "--samples", str(samples), "--out", str(out)]) == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("gt_class", 1.7, "sample.gt_class: expected an integer, got 1.7"),
            ("gt_class", True, "sample.gt_class: expected an integer, got True"),
            ("gt_class", "1", "sample.gt_class: expected an integer, got '1'"),
            ("d", [False, 0, 0, 0], "sample.d[0]: expected a number, got False"),
            ("probs", [0.1, "0.7", 0.1, 0.05, 0.05], "sample.probs[1]: expected a number, got '0.7'"),
        ],
    )
    def test_mistyped_field_exits_1_naming_it(self, tmp_path, field, value, path):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps({**self.sample_line(), field: value}) + "\n")
        out = tmp_path / "out"
        code, err = _run_quietly(["loss-eval", "--samples", str(samples), "--out", str(out)])
        assert (code, err) == (EXIT_VALIDATION, f"error: samples line 1: {path}\n")
        assert not out.exists()


class TestSurfaceCommand:
    def test_standard_grad_independent_of_loc(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": {"mode": "standard"}})
        out = tmp_path / "out"
        assert main(["surface", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "surface.csv")
        by_p: dict[str, set[str]] = {}
        for row in rows:
            by_p.setdefault(row["p"], set()).add(row["grad"])
        assert all(len(grads) == 1 for grads in by_p.values())

    def test_harmonic_spot_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["surface", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "surface.csv")
        hits = [
            row
            for row in rows
            if abs(float(row["p"]) - 0.5) < 1e-9 and float(row["loc"]) == 0.0
        ]
        assert len(hits) == 1
        assert float(hits[0]["grad"]) == pytest.approx(-4.0, abs=1e-6)

    def test_grid_size(self, tmp_path):
        out = tmp_path / "out"
        assert main(["surface", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "surface.csv")
        # the fixed grid, loc-major: 13 loc values of 20 p values each
        assert [(float(r["p"]), float(r["loc"])) for r in rows] == [
            (p, loc) for loc in np.linspace(0.0, 1.2, 13) for p in np.linspace(0.05, 1.0, 20)
        ]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["surface", "--out", str(out1)]) == EXIT_OK
        assert main(["surface", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "surface.csv").read_bytes() == (out2 / "surface.csv").read_bytes()


class TestTrainCommand:
    def test_outputs_exist_with_hash_headers(self, tmp_path):
        cfg = write_config(tmp_path, FAST_TRAIN)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("trainlog.csv", "scatter.csv"):
            header, _ = read_csv_rows(out / name)
            assert "seed=0" in header
        summary = json.loads((out / "aic_summary.json").read_text())
        assert set(summary["ap"]["per_threshold"]) == {"0.5", "0.6", "0.7", "0.8", "0.9"}
        assert "mean" in summary["ap"]
        assert summary["aic_sum"] == pytest.approx(
            summary["aic_mean"] * summary["num_positives"], rel=1e-9
        )
        det_lines = (out / "detections.jsonl").read_text().splitlines()
        assert "config_hash" in det_lines[0]

    def test_detection_rows_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, FAST_TRAIN)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "detections.jsonl").read_text().splitlines()[1:]
        rows = [json.loads(line) for line in lines]
        # each line is json.dumps of its record, and scatter.csv repeats the
        # score text of each detection, row for row
        assert lines == [json.dumps(r, sort_keys=True) for r in rows]
        _, scatter = read_csv_rows(out / "scatter.csv")
        assert [r["score"] for r in scatter] == [repr(r["score"]) for r in rows]
        # building the arrays checks every row's box and score
        dets = DetectionArrays(*([r[k] for r in rows] for k in ("box", "class_id", "score", "scene")))
        assert dets.scene.tolist() == [r["scene"] for r in rows]
        assert set(dets.scene.tolist()) == {0, 1}
        assert dets.boxes.tolist() == [r["box"] for r in rows]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, FAST_TRAIN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--seed", "4", "--out", str(out1)]) == EXIT_OK
        assert main(["train", "--config", cfg, "--seed", "4", "--out", str(out2)]) == EXIT_OK
        for name in ("trainlog.csv", "detections.jsonl", "scatter.csv", "aic_summary.json", "run_meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_divergence_exit_code(self, tmp_path):
        payload = dict(FAST_TRAIN)
        payload["optimizer"] = {**FAST_TRAIN["optimizer"], "learning_rate": 1e9, "gradcheck_samples": 0}
        cfg = write_config(tmp_path, payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_zero_gradcheck_samples_skips_the_gate(self, tmp_path):
        payload = {**FAST_TRAIN, "optimizer": {**FAST_TRAIN["optimizer"], "gradcheck_samples": 0}}
        cfg = write_config(tmp_path, payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_divergence_message_names_step_and_check(self, tmp_path, capsys):
        payload = dict(FAST_TRAIN)
        payload["optimizer"] = {**FAST_TRAIN["optimizer"], "learning_rate": 1e9, "gradcheck_samples": 0}
        cfg = write_config(tmp_path, payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert "step 1: size offsets past the decode log cap" in capsys.readouterr().err


# the scene and optimizer settings of the train_default and train_dense
# benchmark workloads, the gate off
_EVAL_SETUPS = {
    "train_default": (cli._TRAIN_SCENE_DEFAULTS, {"gradcheck_samples": 0}),
    "train_dense": (
        {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
        {"steps": 20, "log_every": 5, "loss_mode": "standard", "gradcheck_samples": 0},
    ),
}


@pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
@pytest.mark.parametrize("setup", sorted(_EVAL_SETUPS))
def test_evaluation_equals_the_object_reference(setup, trained):
    """The array evaluation keeps the rows the object pipeline keeps, in its
    order, and gives its AP payload and scatter rows, floats equal bit for
    bit. Untrained, every score ties, so the order rests on tie-breaking."""
    scene_kw, opt_kw = _EVAL_SETUPS[setup]
    scene_set = generate_scenes(SceneConfig(seed=3, **scene_kw))
    model = ToyModel.zeros(scene_set.total_anchors, scene_set.config.num_classes)
    if trained:
        model, _ = train_toy(scene_set, model, OptimizerConfig(**opt_kw), HyperParams())
    ap, kept, best_iou = cli._evaluate_trained(scene_set, model)
    ref_ap, ref_kept, ref_rows = eval_reference.evaluate(
        scene_set, model, cli.NMS_THRESHOLD, list(DEFAULT_AP_THRESHOLDS)
    )
    rows = zip(kept.boxes.tolist(), kept.class_id.tolist(), kept.score.tolist(), kept.scene.tolist())
    assert repr(list(rows)) == repr(
        [([d.box.x1, d.box.y1, d.box.x2, d.box.y2], d.class_id, d.score, d.scene) for d in ref_kept]
    )
    assert repr(ap) == repr(ref_ap)
    assert repr(list(zip(kept.score.tolist(), best_iou.tolist()))) == repr(ref_rows)
    if not trained:
        assert len(set(kept.score.tolist())) == 1


# float pools the writer tests draw from: repeats, -0.0 beside 0.0,
# subnormals, values near 1e300 and their neighbours
_EXTREMES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.0000000000000002e300]
_COORD = st.sampled_from(_EXTREMES + [0.5, 3.0]) | st.floats(-1e300, 1e300)
_UNIT = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _kept_rows(draw):
    """Kept detections and best IoUs whose values come from small pools,
    so that one float repeats across rows and columns."""
    coords = draw(st.lists(_COORD, min_size=1, max_size=6))
    units = draw(st.lists(_UNIT, min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    boxes = []
    for _ in range(n):
        x1, x2 = sorted(draw(st.sampled_from(coords)) for _ in range(2))
        y1, y2 = sorted(draw(st.sampled_from(coords)) for _ in range(2))
        boxes.append([x1, y1, x2, y2])
    ints = st.integers(0, 10**6)
    kept = DetectionArrays(
        np.array(boxes, dtype=float).reshape(n, 4),
        draw(st.lists(ints, min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)),
        draw(st.lists(ints, min_size=n, max_size=n)),
    )
    return kept, np.array(draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(rows=_kept_rows())
def test_evaluation_lines_render_each_row_as_json_dumps_and_repr(rows):
    """The lines of detections.jsonl and scatter.csv, row by row, whatever
    floats repeat between rows and columns."""
    kept, best_iou = rows
    det_lines, scatter_rows = cli._evaluation_lines(kept, best_iou)
    scores = kept.score.tolist()
    records = zip(kept.boxes.tolist(), kept.class_id.tolist(), kept.scene.tolist(), scores)
    assert det_lines == [
        json.dumps({"box": b, "class_id": c, "scene": s, "score": p}, sort_keys=True) + "\n"
        for b, c, s, p in records
    ]
    assert scatter_rows == [f"{p!r},{u!r}\n" for p, u in zip(scores, best_iou.tolist())]


# sha256 of train's detections.jsonl and scatter.csv at seed 0: at the CLI
# defaults, and at the train_dense benchmark workload's config
_TRAIN_DIGESTS = {
    "defaults": (
        {},
        "16c4b2bf630b9c055c7a0b23af5d549a2fde471632a185b7b0d8764c4af13422",
        "44db0cd251723ae0e513ad5900839ef0c616ac028edae3b17300d29295ce2dcf",
    ),
    "train_dense": (
        {
            "scene": {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
            "optimizer": {"steps": 20, "log_every": 5, "loss_mode": "standard"},
        },
        "b630b2d7cfe02e10ab1f4793f5e538b46d9633b9bd4c6702860799d82baae194",
        "5e8a58ac41ee37b2f2c1c8c8b3f25204cc5e1349bbf808e79ccbe2e766641fdc",
    ),
}


@pytest.mark.parametrize("setup", sorted(_TRAIN_DIGESTS))
def test_train_evaluation_files_keep_their_bytes(tmp_path, setup):
    payload, detections, scatter = _TRAIN_DIGESTS[setup]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, payload)
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    files = ("detections.jsonl", "scatter.csv")
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files]
    assert digests == [detections, scatter]


class TestRefineCommand:
    def test_zero_learning_rate_gives_zero_gains(self, tmp_path):
        payload = {
            "scene": FAST_REFINE["scene"],
            "optimizer": {"steps": 3, "learning_rate": 0.0},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["refine", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "refine_gains.csv")
        for row in rows:
            if int(row["count"]) > 0:
                assert abs(float(row["mean_gain_iou"])) < 1e-12
                assert abs(float(row["mean_gain_hiou"])) < 1e-12

    def test_bins_match_default_edges(self, tmp_path):
        cfg = write_config(tmp_path, FAST_REFINE)
        out = tmp_path / "out"
        assert main(["refine", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "refine_gains.csv")
        assert len(rows) == 10
        assert float(rows[0]["bin_lo"]) == 0.0
        assert float(rows[-1]["bin_hi"]) == 1.0

    def test_iou_histogram_written(self, tmp_path):
        cfg = write_config(tmp_path, FAST_REFINE)
        out = tmp_path / "out"
        assert main(["refine", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "iou_histogram.csv")
        assert len(rows) == 5
        assert float(rows[0]["bin_lo"]) == 0.5
        assert sum(int(r["count"]) for r in rows) > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, FAST_REFINE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["refine", "--config", cfg, "--seed", "2", "--out", str(out1)]) == EXIT_OK
        assert main(["refine", "--config", cfg, "--seed", "2", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "refine_gains.csv").read_bytes() == (out2 / "refine_gains.csv").read_bytes()
