"""Command-line behavior: exit codes, output files, determinism."""

import csv
import json
from pathlib import Path

import pytest

from hardet.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

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

    def test_missing_file(self, tmp_path):
        code = main(["surface", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, **FAST_TRAIN})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--seed", "9", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 9


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"gradcheck": {"samples": 20, "batch_draws": 1}})
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert report["passed"] is True
        assert all(e["max_err"] < 1e-5 for e in report["entries"])

    def test_zero_tolerance_fails_numerically(self, tmp_path):
        cfg = write_config(
            tmp_path, {"gradcheck": {"samples": 5, "tolerance": 0.0, "batch_draws": 1}}
        )
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert report["passed"] is False

    def test_every_operation_listed_once(self, tmp_path):
        cfg = write_config(tmp_path, {"gradcheck": {"samples": 5, "batch_draws": 1}})
        out = tmp_path / "out"
        main(["gradcheck", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "gradcheck_report.json").read_text())
        ops = [e["op"] for e in report["entries"]]
        assert len(ops) == len(set(ops)) == 8


    @pytest.mark.parametrize(
        "block, key",
        [({"samples": 0}, "samples"), ({"samples": -3}, "samples"), ({"batch_draws": -1}, "batch_draws")],
    )
    def test_empty_sweep_is_a_config_error(self, tmp_path, capsys, block, key):
        cfg = write_config(tmp_path, {"gradcheck": block})
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"config.gradcheck.{key}" in captured.err
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
        cfg = write_config(tmp_path, {"surface": {"p_steps": 7, "loc_steps": 5}})
        out = tmp_path / "out"
        assert main(["surface", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv_rows(out / "surface.csv")
        assert len(rows) == 35

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["surface", "--out", str(out1)]) == EXIT_OK
        assert main(["surface", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "surface.csv").read_bytes() == (out2 / "surface.csv").read_bytes()

    def test_bad_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": {"p_min": -0.5}})
        assert main(["surface", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


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

    def test_class_count_mismatch_rejected(self, tmp_path):
        payload = {"hyperparams": {"num_classes": 3}, "scene": {"num_classes": 5}, **{"optimizer": FAST_TRAIN["optimizer"]}}
        cfg = write_config(tmp_path, payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


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
