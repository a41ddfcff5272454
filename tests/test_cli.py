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

from hardet import cli, gate
from hardet.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from hardet.harness import ToyModel, generate_scenes, train_toy
from hardet.losses import gradient_surface
from hardet.metrics import AP_THRESHOLDS, DetectionArrays

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
        # beta_e_stop_grad, freeze_factors and the scene's class count and
        # positive IoU threshold are library fields; the gradient gate's
        # tolerance and batch draws, the canvas, the anchor side, the surface
        # grid and train's NMS and AP thresholds are constants; surface writes
        # both gradient tables
        assert {name: set(keys) for name, keys in cli._BLOCK_KEYS.items()} == {
            "hyperparams": {"alpha", "gamma", "margin"},
            "scene": {"anchor_spacing", "num_scenes", "objects_per_scene", "jitter"},
            "optimizer": {"learning_rate", "steps", "log_every", "loss_mode", "gradcheck_samples"},
            "gradcheck": {"samples"},
        }
        assert set(cli._TOP_KEYS) == {"seed", *cli._BLOCK_KEYS}
        # the settable keys, counting seed
        assert 1 + sum(map(len, cli._BLOCK_KEYS.values())) == 14

    @pytest.mark.parametrize(
        "block, key",
        [
            ("gradcheck", "tolerance"),
            ("gradcheck", "batch_draws"),
            ("optimizer", "gradcheck_tolerance"),
            ("scene", "canvas"),
            ("scene", "anchor_scales"),
            ("scene", "num_classes"),
            ("scene", "positive_iou_threshold"),
            ("surface", "mode"),
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
            ("surface", None),
        ],
    )
    def test_removed_gate_key_is_unknown_to_every_command(self, tmp_path, block, key):
        # the gate's tolerance and batch draws, the canvas, the anchor side,
        # the surface grid and train's thresholds are constants, and
        # beta_e_stop_grad and the scene's class count and positive IoU
        # threshold are library fields; 1e-5, 4, 5, [16, 16], [3], 0.5, 20,
        # True, the AP thresholds and "harmonic" are their own values, so a
        # config that restates them is rejected too
        values = (
            0.0, 1e-5, 4, 5, 0.5, 20, True, [16.0, 16.0], [3.0], list(AP_THRESHOLDS), "harmonic", {},
        )
        # the train and surface blocks are gone whole, so each is the unknown key
        path = f"{block}.{key}" if block in cli._BLOCK_KEYS else block
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

    @pytest.mark.parametrize("command", ["gradcheck", "loss-eval", "surface", "train", "refine"])
    def test_seed_flag_overrides_config(self, tmp_path, command):
        # main builds every command's config with cli.command_setup: with no
        # config file, with one, and with --seed over the file's seed
        samples = tmp_path / "samples.jsonl"
        samples.write_text("")
        flags = ["--samples", str(samples)] if command == "loss-eval" else []
        payload = {"seed": 1, **FAST_TRAIN}
        cfg = write_config(tmp_path, payload)
        configs = {}
        for k, (extra, file_cfg, seed) in enumerate(
            [([], {}, None), (["--config", cfg], payload, None), (["--config", cfg, "--seed", "9"], payload, 9)]
        ):
            out = tmp_path / f"out{k}"
            assert main([command, *extra, *flags, "--out", str(out)]) == EXIT_OK
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["config"] == cli.command_setup(command, file_cfg, seed)[0]
            configs[k] = meta["config"]
        assert [c["seed"] for c in configs.values()] == [0, 1, 9]
        # train and refine merge their own defaults under the file; the
        # other commands take none
        defaults = configs[0]["scene"], configs[0]["optimizer"]
        assert defaults == {
            "train": ({"anchor_spacing": 3.0, "jitter": 0.12}, {}),
            "refine": (
                {"num_scenes": 60, "objects_per_scene": [3, 5], "jitter": 0.18},
                {"learning_rate": 0.002, "steps": 20},
            ),
        }.get(command, ({}, {}))


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
            # a command line argparse rejects: its usage and message, and
            # the validation code, not argparse's 2, the numerical one here
            ("bogus", {}, [], "hardet: error: argument command: invalid choice: 'bogus'"),
            ("train", {}, ["--bogus"], "hardet: error: unrecognized arguments: --bogus"),
            ("train", {}, ["--seed", "abc"], "hardet train: error: argument --seed: invalid int value: 'abc'"),
            ("loss-eval", {}, [], "hardet loss-eval: error: the following arguments are required: --samples"),
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

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hardet train")

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
        monkeypatch.setattr(gate, "GRADCHECK_TOLERANCE", 0.0)
        cfg = write_config(tmp_path, FAST_TRAIN)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gradcheck failed for ")
        assert "batch_objective: max error " in err
        assert "> tolerance 0.000e+00 at draw " in err
        assert "Traceback" not in err
        assert not (out / "trainlog.csv").exists()

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
        ({"gradcheck": {"samples": 0}}, "config.gradcheck.samples: must be >= 1, got 0"),
        ({"optimizer": {"steps": 0}}, "config.optimizer: steps must be >= 1, got 0"),
        ({"hyperparams": {"alpha": -1}}, "config.hyperparams: alpha must be >= 0, got -1"),
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
        monkeypatch.setattr(gate, "GRADCHECK_TOLERANCE", 0.0)
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

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"gradcheck": {"samples": gate.MAX_GATE_SAMPLES + 1}},
                f"config.gradcheck.samples: must be <= {gate.MAX_GATE_SAMPLES}, "
                f"got {gate.MAX_GATE_SAMPLES + 1}",
            ),
            (
                {"optimizer": {"gradcheck_samples": gate.MAX_GATE_SAMPLES + 1}},
                f"config.optimizer: gradcheck_samples must be <= {gate.MAX_GATE_SAMPLES}, "
                f"got {gate.MAX_GATE_SAMPLES + 1}",
            ),
        ],
    )
    def test_oversized_sweep_is_a_config_error_before_any_draw(
        self, tmp_path, capsys, monkeypatch, payload, message
    ):
        def sampler(*args):
            raise AssertionError("the gate drew before its sample count was checked")

        monkeypatch.setattr(gate, "random_positive_sample", sampler)
        cfg = write_config(tmp_path, payload)
        for command in ("gradcheck", "train"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()


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
        out = tmp_path / "out"
        assert main(["surface", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "surface.csv")
        by_p: dict[str, set[str]] = {}
        for row in rows:
            by_p.setdefault(row["p"], set()).add(row["grad_standard"])
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
        assert float(hits[0]["grad_harmonic"]) == pytest.approx(-4.0, abs=1e-6)

    def test_columns_are_both_gradient_tables(self, tmp_path):
        # one run writes the standard and the harmonic table side by side,
        # each value the repr of gradient_surface's entry at the row's (loc, p)
        out = tmp_path / "out"
        assert main(["surface", "--out", str(out)]) == EXIT_OK
        lines = (out / "surface.csv").read_text().splitlines()
        assert lines[1] == "p,loc,grad_standard,grad_harmonic"
        _, rows = read_csv_rows(out / "surface.csv")
        for mode in ("standard", "harmonic"):
            grid = gradient_surface(mode)
            assert [r[f"grad_{mode}"] for r in rows] == [repr(float(g)) for g in grid.ravel()]

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


# the train configs of the train_default and train_dense benchmark
# workloads, the gate off
_EVAL_SETUPS = {
    "train_default": {"optimizer": {"gradcheck_samples": 0}},
    "train_dense": {
        "scene": {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
        "optimizer": {"steps": 20, "log_every": 5, "loss_mode": "standard", "gradcheck_samples": 0},
    },
}


@pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
@pytest.mark.parametrize("setup", sorted(_EVAL_SETUPS))
def test_evaluation_equals_the_object_reference(setup, trained):
    """The array evaluation keeps the rows the object pipeline keeps, in its
    order, and gives its AP payload and scatter rows, floats equal bit for
    bit. Untrained, every score ties, so the order rests on tie-breaking."""
    _, scene, hp, opt = cli.command_setup("train", _EVAL_SETUPS[setup], seed=3)
    scene_set = generate_scenes(scene)
    model = ToyModel.zeros(scene_set.total_anchors, scene_set.config.num_classes)
    if trained:
        model, _ = train_toy(scene_set, model, opt, hp)
    ap, kept, best_iou = cli._evaluate_trained(scene_set, model)
    ref_ap, ref_kept, ref_rows = eval_reference.evaluate(
        scene_set, model, cli.NMS_THRESHOLD, AP_THRESHOLDS
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


# every command's run in the golden-output test, as (command, config file);
# train_dense's and refine_long's configs are the benchmark workloads'
_GOLDEN_SAMPLES = Path(__file__).parent / "golden_samples.jsonl"
_GOLDEN_RUNS = {
    "gradcheck": ("gradcheck", {}),
    "loss-eval": ("loss-eval", {}),
    "surface": ("surface", {}),
    "train": ("train", {}),
    "train_standard": ("train", {"optimizer": {"loss_mode": "standard"}}),
    "train_dense": (
        "train",
        {
            "scene": {"num_scenes": 16, "anchor_spacing": 1.0, "jitter": 0.12},
            "optimizer": {"steps": 20, "log_every": 5, "loss_mode": "standard"},
        },
    ),
    "refine": ("refine", {}),
    "refine_long": ("refine", {"optimizer": {"steps": 100}}),
}

# sha256 of every file each golden run writes, by (run, seed); stdout is left
# out, as loss-eval prints its output path. A change that moves an output byte
# records the table anew and says which files moved and why
_GOLDEN_DIGESTS = {
    ("gradcheck", 0): {
        "gradcheck_report.json": "bbbf2f7320f672b164e7e7f93f94728900be7648dfc0cb910c5de2b7846efce7",
        "run_meta.json": "a8036693a41553f55a318ab6095e3e358f8de8aaee73feefac037e38e0b21ed1",
    },
    ("gradcheck", 3): {
        "gradcheck_report.json": "444a8d5ebbd799a515b99412f37f874aefbfe33662325718fe35249c070a0b16",
        "run_meta.json": "f0eac548e5bd6d810f25bc7bca2dc41196f06c4a526a135b0f24514a3e7e5db3",
    },
    ("loss-eval", 0): {
        "breakdowns.jsonl": "f420bfb97c119d1efb1e5d3cebd93379fb048714be06d859d2c4c368a20d24b0",
        "run_meta.json": "02366cba39eb61cd4788d8ad00a6e8ea7f71679d40d4d2f430d91c38257c2993",
    },
    ("loss-eval", 3): {
        "breakdowns.jsonl": "f420bfb97c119d1efb1e5d3cebd93379fb048714be06d859d2c4c368a20d24b0",
        "run_meta.json": "dfa8dcab70b9a9b186bfb16c3cd3bcd20406a85907ae068d676297ec960b5f03",
    },
    ("surface", 0): {
        "run_meta.json": "dfe00585fe07ccb5b870f01a46761cebdf10679242d250d85f2e17cbd7cb6c3c",
        "surface.csv": "e79c1d1bd7ec954999a002b2271bec3e146608f957a741a02963217575467a17",
    },
    ("surface", 3): {
        "run_meta.json": "eb59f2347df49cf7516cd7c617f96a9f314614911cce87c7f17522cf11bb63b8",
        "surface.csv": "adce2cc2101236c1ce01b38e8f9b31f419ad723c84fa4feb87769d6d3c1efbab",
    },
    ("train", 0): {
        "aic_summary.json": "3e18aea4250515cdebc30e243dd0ad294e946276906888e9e7bf72b6835150e2",
        "detections.jsonl": "5decd15f9bb064d1e629b5066930fe80d1b7d1eb0321e04253870be9c7e5feb0",
        "run_meta.json": "6ecf5339c8885199cff18a21a3e7f2421c29d6e0099f903df5a9e394068d95a3",
        "scatter.csv": "873cc72f1915aa8626196948ee4552e1a164a9896bf838fb10c5b1cb2e6b022b",
        "trainlog.csv": "1bd7f0eb5bfc2cb698ca67ce7a8f4e8eddece68a717a3cbe08c6c28dee9549f1",
    },
    ("train", 3): {
        "aic_summary.json": "1f4350660f93e80a2fdd17c2fa8cf734a59064c959fd6bba7c3990c4ee31e757",
        "detections.jsonl": "de838eca76141f5a90dae7a7e9682dffbbd1577736db70bc40457efdc2b5dea2",
        "run_meta.json": "15786317b1634ca9035db45a44b271c846cfff06296b26547c2b44b1f76f6e24",
        "scatter.csv": "160e8422dd34d6b7545136aa46bebc4dcc905a80fd77481eee8f4324221fdd4f",
        "trainlog.csv": "6393ce821490499646ee51d45aab729fc154daca46f5aefe86fabb347e0828d5",
    },
    ("train_standard", 0): {
        "aic_summary.json": "c5141f3e1bb1427fbe5ca36e75f646d189be037c1b9ba44a3a22c0708bc4eb36",
        "detections.jsonl": "6fc9cd9846cc69c4bb8fc6a3a44ecdf9be1d771da17f546a3a7c63226fd45631",
        "run_meta.json": "54f0cc1acb10528237a2d0f18fb411ca3b7b433764f83db675597e1800887248",
        "scatter.csv": "39a272ce0286b9320450bf9462937358b9ff18d4db476d610fd7608a436a0b42",
        "trainlog.csv": "0b6a670b98b54c8255f8fd344e0c48edf10e826f40f1e60dee48582f91341705",
    },
    ("train_standard", 3): {
        "aic_summary.json": "674af03da87055bc82ad422a04923195aef7b54c864b6d70105b9200608c6bc0",
        "detections.jsonl": "4a1020c2d4caf846a2bd3dc3b73165d084f49b8f928087319ecfaf2ad5d320e5",
        "run_meta.json": "9ce6e4280d60c6ff917396cb645afabe4bf468ac5a43e46517e582fffb8ef364",
        "scatter.csv": "60b30e731b6bb28391371aaf83143b979b75fb1ea2534991e76d704eaccd19f7",
        "trainlog.csv": "871b18235b8fb62e6e99544120155fa8ccd57f193a38c7f649dee3ad8d50b177",
    },
    ("train_dense", 0): {
        "aic_summary.json": "97c6828fd65398d6de2fee2a0647b6b366af6fb5662d88ca6c91b6fa5c22d835",
        "detections.jsonl": "9a894a4f1023fd07d5f857325385039e44fcebdbdff5de7734cebcf449f6cdcc",
        "run_meta.json": "a1258c512610ec2c14e6f0eaab5bfda8a4a5daff9b5c104c37dd40d12d887170",
        "scatter.csv": "7a3c3f660e1f4a072100d61d6bca92c1ed8218c542ccf8dafc052959ae422457",
        "trainlog.csv": "9519aaf62cfbcf0076aac5a33c7619ad9ca000d075574b0e80b44d42cd2d28fa",
    },
    ("train_dense", 3): {
        "aic_summary.json": "8e551c8b0366955b946fdeefe7a92f2686c5e0d7c0dff668770500a65c458950",
        "detections.jsonl": "5811a1a3e5b0063883dca59a4ea02ac966302b9e9653affae0134e063cb4726a",
        "run_meta.json": "f5b6ff40040577698544dd8c6f47cef448b492be7a7888022c3fe140167ed085",
        "scatter.csv": "53df5abc24c7fd49880494ef1adb65cd46490c35bff09f0ce58ac36f1f864f24",
        "trainlog.csv": "ca7f8ea3467f3b70d132394a8d81fdbe250ea110f94d1509bb442b05e507529b",
    },
    ("refine", 0): {
        "iou_histogram.csv": "69cbb830cd0edf8386ee4789414e9286335b8e9b3f179c3604d7356cc9182fa1",
        "refine_gains.csv": "a8c47a09e00a383670f0eb79c90e62b727985e09d0912657e1408865375e566c",
        "run_meta.json": "4995e30372c3519d0da1d888aa2b7ede19cb3603836a4a37e913f61436885bda",
    },
    ("refine", 3): {
        "iou_histogram.csv": "9eb96e0e8f6a6e4624f7b2e07d4c0133613e00f8583c90867c4c46330bd26719",
        "refine_gains.csv": "b0ce9bec09f8a47a8c280a3434b56c484196198f2ee5bf1842ee6334dd8b5967",
        "run_meta.json": "67699ae6a847ce883911c007251af4d85586149bbf86bf15d79e0481fd83ce31",
    },
    ("refine_long", 0): {
        "iou_histogram.csv": "27f595ea1924e3db63a1cb156f6b8e69a2129b5ab9e9a09acd41885e29193515",
        "refine_gains.csv": "232e221daf3cba42460a1717770afbd5621a8f9cc26bcfe1ba485777fdcb6676",
        "run_meta.json": "5b5748dd1ef9eaad2de98aa04530669c796696ce3c6b6adce140063fdd5e16b8",
    },
    ("refine_long", 3): {
        "iou_histogram.csv": "e044722a2c702c9f0299bb756794731fff3134402cb80b7b5774407b74381356",
        "refine_gains.csv": "8489127713f5ac1e28abefb87a7282385d99d6054030cd2714f0f8d49d841760",
        "run_meta.json": "615fe0ed43af335ec641a78488642d0a82c4e9dbf3e0a1be45bab4829887fb50",
    },
}


@pytest.mark.parametrize("seed", [0, 3])
def test_every_command_keeps_its_output_bytes(tmp_path, capsys, seed):
    for name, (command, payload) in _GOLDEN_RUNS.items():
        out = tmp_path / name
        argv = [command, "--config", write_config(tmp_path, payload, f"{name}.json")]
        if command == "loss-eval":
            argv += ["--samples", str(_GOLDEN_SAMPLES)]
        assert main([*argv, "--seed", str(seed), "--out", str(out)]) == EXIT_OK, name
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == _GOLDEN_DIGESTS[name, seed], name


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
