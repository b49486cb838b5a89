import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from suturekit import bench, cli, pose_estimator
from suturekit.cli import TABLES, build_parser, check_config, config_hash, main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def run_cli(args):
    return main(args)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParsing:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_config_hash_stable_and_order_free(self):
        a = config_hash({"a": 1, "b": 2})
        b = config_hash({"b": 2, "a": 1})
        assert a == b
        assert len(a) == 12
        assert a != config_hash({"a": 1, "b": 3})


class TestExitCodes:
    def test_missing_config_file_is_usage_error(self, tmp_path):
        code = run_cli(
            ["control-sim", "--config", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["control-sim", "--config", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_train_without_dataset_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = run_cli(["calib", "train", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: dataset not found at "
                                           f"{out / 'calib_dataset.csv'}; "
                                           f"run 'calib gen' first\n")
        assert not out.exists()

    def test_eval_without_model_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = run_cli(["calib", "eval", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: model not found at "
                                           f"{out / 'calib_model.json'}; "
                                           f"run 'calib train' first\n")
        assert not out.exists()

    @pytest.mark.parametrize("step", ["train", "eval"])
    def test_out_dir_under_a_file_wins_over_a_missing_input(self, tmp_path, capsys, step):
        # the input is checked where the step reads it, inside the out-dir
        (tmp_path / "a_file").write_text("")
        assert run_cli(["calib", step, "--out-dir", str(tmp_path / "a_file" / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ") and err.count("\n") == 1

    def test_degenerate_depth_range_is_one_error_line(self, tmp_path):
        """Depths of 1e-300 m draw no pose in view; stderr holds the
        NoInViewPose line and no numpy warning."""
        cfg = write_config(tmp_path / "c.json", {"depth_range_m": [1e-300, 1e-299]})
        out = tmp_path / "out"
        run = run_module("pose-bench", "--config", cfg, "--scenes", "1", "--out-dir", str(out))
        assert run.returncode == 1
        assert run.stderr.startswith("error [pose-bench]: NoInViewPose: ")
        assert run.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, out_dir", [
        ("a_dir", "out"),          # --config names a directory
        ("latin1.json", "out"),    # the config file is not UTF-8
        (None, "a_file"),          # --out-dir names an existing file
        (None, "a_file/out"),      # --out-dir names a path under a file
    ])
    def test_unreadable_config_or_out_dir_is_usage_error(self, tmp_path, capsys, config,
                                                         out_dir):
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"seed": 1, "note": "é"}'.encode("latin-1"))
        (tmp_path / "a_file").write_text("")
        args = ["pose-bench", "--scenes", "1", "--out-dir", str(tmp_path / out_dir)]
        if config is not None:
            args += ["--config", str(tmp_path / config)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / (config or out_dir)) in err
        assert not (tmp_path / "out").exists()

    def test_train_on_split_smaller_than_batch_is_exit_one(self, tmp_path):
        # 270 samples leave 243 training rows, short of one 256-row batch
        cfg = write_config(tmp_path / "c.json", {"count": 270, "hidden_sizes": [8]})
        assert run_cli(["calib", "gen", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert run_cli(["calib", "train", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert not (tmp_path / "calib_model.json").exists()

    @pytest.mark.parametrize("train_cfg, field", [
        ({"batch_size": 0}, "batch_size"),
        ({"hidden_sizes": [0]}, "hidden_sizes"),
        ({"learning_rate": -1, "epochs": 1}, "learning_rate"),
    ], ids=["batch_size", "hidden_sizes", "learning_rate"])
    def test_train_config_out_of_range_is_exit_one(self, tmp_path, capsys, train_cfg, field):
        cfg = write_config(tmp_path / "c.json", {"count": 300, **train_cfg})
        assert run_cli(["calib", "gen", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert run_cli(["calib", "train", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "calib_model.json").exists()

    def test_diverging_training_is_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "count": 600, "hidden_sizes": [8], "epochs": 5, "batch_size": 64,
            "learning_rate": 1e10,
        })
        assert run_cli(["calib", "gen", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert run_cli(["calib", "train", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "NonFiniteLoss: training diverged at epoch" in capsys.readouterr().err
        assert not (tmp_path / "calib_model.json").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"noise_px": -1}, "noise_px must be a finite number >= 0, got -1.0"),
        ({"noise_px": float("nan")}, "noise_px must be a finite number >= 0, got nan"),
        ({"delta_range_deg": float("nan")}, "delta_range must be a finite number >= 0, got nan"),
        ({"delta_range_deg": -5}, "delta_range must be a finite number >= 0, got -0.08"),
    ], ids=["noise_px-negative", "noise_px-nan", "delta_range_deg-nan",
            "delta_range_deg-negative"])
    def test_calib_config_out_of_range_is_exit_one(self, workdir, tmp_path, capsys, cfg,
                                                   message):
        path = write_config(tmp_path / "c.json", cfg)
        gen, ev = tmp_path / "gen", tmp_path / "eval"
        ev.mkdir()
        (ev / "calib_model.json").write_bytes((workdir / "calib_model.json").read_bytes())
        assert run_cli(["calib", "gen", "--config", path, "--out-dir", str(gen)]) == 1
        assert run_cli(["calib", "eval", "--config", path, "--out-dir", str(ev)]) == 1
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert not gen.exists()
        assert [p.name for p in ev.iterdir()] == ["calib_model.json"]

    @pytest.mark.parametrize("how", ["config", "flag"])
    @pytest.mark.parametrize("command, needs", [
        (["pose-bench", "--scenes", "1"], None),
        (["suture-run"], None),
        (["calib", "gen"], None),
        (["calib", "train"], "calib_dataset.csv"),
        (["calib", "eval"], "calib_model.json"),
    ], ids=["pose-bench", "suture-run", "calib-gen", "calib-train", "calib-eval"])
    def test_negative_seed_is_exit_one(self, workdir, tmp_path, capsys, command, needs, how):
        out = tmp_path / "out"
        out.mkdir()
        if needs:  # the step's input, so that it gets as far as the seed
            (out / needs).write_bytes((workdir / needs).read_bytes())
        seed = (["--config", write_config(tmp_path / "c.json", {"seed": -1})]
                if how == "config" else ["--seed", "-1"])
        assert run_cli(command + seed + ["--out-dir", str(out)]) == 1
        assert "ValueError: seed must be >= 0, got -1" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ([needs] if needs else [])

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command, cfg, message", [
        (["pose-bench"], {"seed": -1}, "seed must be >= 0, got -1"),
        (["suture-run"], {"line_width": 0.5}, "line_width must be a finite number >= 1, got 0.5"),
    ], ids=["pose-bench", "suture-run"])
    def test_exit_one_removes_only_the_out_dirs_it_made(self, tmp_path, capsys, command, cfg,
                                                        message, existing):
        """A failed run removes the --out-dir and its parents that it made
        and left empty; a directory that was there before stays."""
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "new" / "out"
        if existing:
            out.mkdir(parents=True)
        assert run_cli(command + ["--config", path, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert out.is_dir() == (tmp_path / "new").is_dir() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"] + ["new"] * existing

    def test_exit_one_keeps_an_out_dir_it_wrote_to(self, tmp_path, monkeypatch):
        def failing(rows):
            raise RuntimeError("after the CSV")

        monkeypatch.setattr(bench, "aggregate_rows", failing)
        out = tmp_path / "out"
        assert run_cli(["pose-bench", "--scenes", "1", "--out-dir", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["pose_bench.csv"]

    def test_control_sim_accepts_a_negative_seed(self, tmp_path):
        # control-sim draws nothing, so any integer seed will do
        assert run_cli(["control-sim", "--seed", "-1", "--out-dir", str(tmp_path)]) == 0

    def test_calib_eval_test_count_below_one_is_exit_one(self, workdir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "calib_model.json").write_bytes((workdir / "calib_model.json").read_bytes())
        path = write_config(tmp_path / "c.json", {"test_count": 0})
        assert run_cli(["calib", "eval", "--config", path, "--out-dir", str(out)]) == 1
        assert "ValueError: test_count must be >= 1, got 0" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["calib_model.json"]

    @pytest.mark.parametrize("rows, cols, message", [
        (slice(2), slice(None), "has no data rows (20 columns)"),
        (slice(None), slice(13), "has 13 columns; a dataset has 12 + 2N for N >= 1"),
    ], ids=["header-only", "13-columns"])
    def test_malformed_dataset_is_exit_one(self, workdir, tmp_path, capsys, rows, cols,
                                           message):
        lines = (workdir / "calib_dataset.csv").read_text().splitlines()[rows]
        out = tmp_path / "out"
        out.mkdir()
        path = out / "calib_dataset.csv"
        path.write_text("".join(",".join(line.split(",")[cols]) + "\n" for line in lines))
        assert run_cli(["calib", "train", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [calib]: ValueError: {path} {message}")
        assert err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["calib_dataset.csv"]

    def test_scenes_only_on_pose_bench(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["calib", "gen", "--scenes", "5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    # the estimator's knobs became constants: an estimator object, with any
    # of its former keys, is an unknown key (axis_sample_count 10 once
    # passed a scene 1.2 mm off as converged)
    @pytest.mark.parametrize("command, estimator", [
        (["pose-bench", "--scenes", "1"], {"axis_sample_count": 10}),
        (["suture-run"], {"max_steps": 50, "reject_mean_sq_px": 9.0}),
    ], ids=["pose-bench", "suture-run"])
    def test_unknown_estimator_key_is_config_error(self, tmp_path, capsys, command, estimator):
        cfg = write_config(tmp_path / "c.json", {"estimator": estimator})
        code = run_cli(command + ["--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"unknown {command[0]} keys: estimator" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command, cfg, message", [
        (["pose-bench"], {"scenes": 1, "occlusion_fraction": [0.3]},
         "unknown pose-bench keys: occlusion_fraction"),
        (["calib", "gen"], {"count": 300, "epoch": 3}, "unknown calib keys: epoch"),
        (["control-sim"], {"scenes": 2}, "unknown control-sim keys: scenes"),
        (["suture-run"], {"shape": {"radius": 8.0}}, "unknown shape keys: radius"),
        # settings that became constants, at the top level too
        (["pose-bench"], {"min_view_angle_rad": float("nan")},
         "unknown pose-bench keys: min_view_angle_rad"),
        (["pose-bench"], {"mask_pixel_cap": 1000}, "unknown pose-bench keys: mask_pixel_cap"),
        (["suture-run"], {"empty_view_penalty": 1e3},
         "unknown suture-run keys: empty_view_penalty"),
        # one algebraic seed replaced the best seed_count grid seeds
        (["pose-bench"], {"seed_count": 0}, "unknown pose-bench keys: seed_count"),
    ], ids=["pose-bench", "calib", "control-sim", "shape", "min_view_angle_rad",
            "mask_pixel_cap", "empty_view_penalty", "seed_count"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert run_cli(command + ["--config", path, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("command, cfg, message", [
        (["pose-bench"], {"scenes": "two"}, 'scenes must be an integer, got "two"'),
        (["pose-bench"], {"scenes": 1.5}, "scenes must be an integer"),
        (["pose-bench"], {"depth_range_m": [0.1]}, "depth_range_m must be a list of 2"),
        (["suture-run"], {"shape": 8.0}, "shape must be an object, got 8.0"),
        (["suture-run"], {"shape": {"radius_mm": "8"}}, "shape.radius_mm must be a number"),
        (["suture-run"], {"compensate": 1}, "compensate must be true or false"),
        (["calib", "gen"], {"count": "many"}, 'count must be an integer, got "many"'),
        (["calib", "train"], {"hidden_sizes": [8, "x"]}, "hidden_sizes must be a list"),
        (["control-sim"], {"kp": [0.5, 0.5]}, "kp must be a number or a list of 6"),
        (["control-sim"], {"seed": True}, "seed must be an integer, got true"),
    ], ids=["scenes-str", "scenes-float", "depth-range", "shape", "shape-field", "compensate",
            "count", "hidden-sizes", "kp", "seed"])
    def test_wrong_value_type_is_config_error(self, tmp_path, capsys, command, cfg, message):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert run_cli(command + ["--config", path, "--out-dir", str(out)]) == 2
        assert f"config key {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path):
        path = write_config(tmp_path / "c.json", [1, 2])
        assert run_cli(["control-sim", "--config", path, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "config", sorted(p.name for p in CONFIGS.glob("*.json")), ids=lambda n: n
    )
    def test_shipped_config_keys_are_accepted(self, config):
        command = next(c for c in TABLES if config.replace("_", "-").startswith(c))
        cfg = json.loads((CONFIGS / config).read_text())
        assert set(cfg) <= set(TABLES[command])
        check_config(cfg, TABLES[command], command)  # and every value has the right type

    @pytest.mark.parametrize("cfg, message", [
        ({"scenes": 0}, "scenes must be >= 1"),
        ({"occlusion_fractions": []}, "occlusion_fractions must be one or more numbers"),
        ({"occlusion_fractions": [0.0, -0.3]}, "occlusion_fractions must be one or more"),
        ({"shape": {"radius_mm": float("nan")}}, "radius must be a finite number > 0, got nan"),
        ({"shape": {"radius_mm": float("inf")}}, "radius must be a finite number > 0, got inf"),
        ({"line_width": float("nan")}, "line_width must be a finite number >= 1, got nan"),
        ({"line_width": 0.5}, "line_width must be a finite number >= 1, got 0.5"),
        ({"line_width": 1e300}, "line_width must be at most 16 px, got 1e+300"),
        ({"line_width": 16.5}, "line_width must be at most 16 px, got 16.5"),
        ({"depth_range_m": [0.2, 0.08]}, "depth_range must be finite with 0 < lo < hi"),
        ({"depth_range_m": [0.08, float("inf")]}, "depth_range must be finite with 0 < lo"),
        ({"baseline_mm": float("nan")}, "baseline_mm must be finite and not 0, got nan"),
        ({"baseline_mm": 1e400}, "baseline_mm must be finite and not 0, got inf"),
        ({"baseline_mm": 0}, "baseline_mm must be finite and not 0, got 0.0"),
        ({"shape": {"arc_angle_deg": 0}}, "arc_angle_deg must be in (0, 360), got 0.0"),
        ({"shape": {"arc_angle_deg": 400}}, "arc_angle_deg must be in (0, 360), got 400.0"),
    ], ids=["scenes", "no-fractions", "negative-fraction", "radius-nan", "radius-inf",
            "line_width-nan", "line_width-below-one", "line_width-huge",
            "line_width-above-bound", "depth-range-reversed",
            "depth-range-infinite", "baseline-nan", "baseline-huge", "baseline-zero",
            "arc-angle-zero", "arc-angle-above-full-turn"])
    def test_pose_bench_config_out_of_range_is_exit_one(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert run_cli(["pose-bench", "--config", path, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_suture_run_line_width_out_of_range_is_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {"line_width": float("nan")})
        out = tmp_path / "out"
        assert run_cli(["suture-run", "--config", path, "--out-dir", str(out)]) == 1
        assert "line_width must be a finite number >= 1, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"line_width": 1e300}, "line_width must be at most 16 px, got 1e+300"),
        ({"line_width": 16.5}, "line_width must be at most 16 px, got 16.5"),
        ({"injected_bias_deg": float("nan")}, "injected_bias_deg must be finite, got nan"),
        ({"injected_bias_deg": float("inf")}, "injected_bias_deg must be finite, got inf"),
        ({"shape": {"arc_angle_deg": 0}}, "arc_angle_deg must be in (0, 360), got 0.0"),
        ({"shape": {"arc_angle_deg": 400}}, "arc_angle_deg must be in (0, 360), got 400.0"),
    ], ids=["line_width-huge", "line_width-above-bound", "bias-nan", "bias-inf",
            "arc-angle-zero", "arc-angle-above-full-turn"])
    def test_suture_run_config_out_of_range_is_exit_one(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert run_cli(["suture-run", "--config", path, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_suture_run_bias_beyond_the_calibration_bound(self, tmp_path, capsys):
        # calibrate_direct searches offsets within 10 deg per joint, so a
        # 12 deg bias fails the compensated run; the uncompensated one does
        # not calibrate
        comp, uncomp = tmp_path / "comp", tmp_path / "uncomp"
        for out, compensate in ((comp, True), (uncomp, False)):
            cfg = {"injected_bias_deg": 12, "compensate": compensate}
            path = write_config(tmp_path / f"{out.name}.json", cfg)
            assert run_cli(["suture-run", "--config", path, "--out-dir", str(out)]) == int(compensate)
        assert ("error [suture-run]: CalibrationError: offset of size 0.2094 leaves the "
                "bound 0.1745") in capsys.readouterr().err
        assert not comp.exists()
        assert [p.name for p in uncomp.iterdir()] == ["suture_report.json"]

    @pytest.mark.parametrize("command", ["pose-bench", "suture-run"])
    def test_needle_too_large_for_the_scene_is_exit_one(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "c.json", {"shape": {"radius_mm": 100}})
        out = tmp_path / "out"
        assert run_cli([command, "--config", path, "--out-dir", str(out)]) == 1
        assert (f"error [{command}]: NoInViewPose: no needle pose of radius 100 mm at depths "
                "[0.08, 0.2] m was in view of both cameras in 500 draws") in capsys.readouterr().err
        assert not out.exists()

    def test_control_sim_without_servo_steps_is_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", {"max_steps": 0})
        out = tmp_path / "out"
        assert run_cli(["control-sim", "--config", path, "--out-dir", str(out)]) == 1
        assert "max_steps must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"tol": 0}, "tol must be a finite number above 0, got 0.0"),
        ({"tol": -1}, "tol must be a finite number above 0, got -1.0"),
        ({"tol": float("nan")}, "tol must be a finite number above 0, got nan"),
        ({"tol": float("inf")}, "tol must be a finite number above 0, got inf"),
        ({"kp": float("nan")}, "kp must be finite"),
        ({"ki": [0.2, 0.2, float("inf"), 0.2, 0.2, 0.2]}, "ki must be finite"),
        ({"q_des_deg": [float("nan"), 0, 0, 0, 0, 0]}, "q_des, dq_hat and q_act0 must be"),
        ({"q3_des_mm": float("inf")}, "q_des, dq_hat and q_act0 must be finite"),
    ], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "kp-nan", "ki-inf",
            "q_des_deg-nan", "q3_des_mm-inf"])
    def test_control_sim_out_of_range_is_exit_one(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert run_cli(["control-sim", "--config", path, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_is_exit_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"shape": {"radius_mm": -1.0}})
        code = run_cli(["pose-bench", "--config", cfg, "--out-dir", str(tmp_path),
                        "--scenes", "1"])
        assert code == 1


# a value other than the library's (or the CLI-only) default for every key
# of every table; nested keys are written "table.key"
NON_DEFAULT = {
    "seed": 7, "scenes": 3, "occlusion_fractions": [0.0, 0.3], "line_width": 2.0,
    "baseline_mm": 25.0, "depth_range_m": [0.1, 0.15],
    "shape.radius_mm": 8.0, "shape.arc_angle_deg": 150.0,
    "count": 500, "delta_range_deg": 4.0, "noise_px": 0.5, "epochs": 3, "batch_size": 64,
    "learning_rate": 0.01, "hidden_sizes": [8], "test_count": 50,
    "beta": 0.5, "kp": 0.4, "ki": [0.1] * 6, "q_des_deg": [1, 2, 3, 4, 5, 6],
    "q3_des_mm": 100.0, "max_steps": 50, "tol": 1e-6,
    "injected_bias_deg": 3.0, "compensate": False,
}

# per command: the library function that receives the config, and how many
# of its calls to record (control-sim servos twice, PI off then PI on)
RECEIVERS = {
    ("pose-bench",): (bench, "run_pose_bench", 1),
    ("calib", "gen"): (cli, "generate_dataset", 1),
    ("calib", "train"): (cli, "mlp_train", 1),
    ("calib", "eval"): (cli, "generate_dataset", 1),
    ("control-sim",): (cli, "servo_to", 2),
    ("suture-run",): (bench, "run_suture", 1),
}

# control-sim accepts seed, as every subcommand does, but draws nothing
IGNORED = {("control-sim", "seed")}


def _table_keys():
    for command, table in TABLES.items():
        for key, (kind, _, _) in table.items():
            nested = kind if isinstance(kind, dict) else {None: None}
            for sub in nested:
                yield command, key if sub is None else f"{key}.{sub}"


def _received(monkeypatch, out_dir, command, cfg):
    """The arguments that `command` passes to its library receiver on `cfg`,
    as text; the receiver raises once they are recorded."""
    module, name, count = RECEIVERS[command]
    calls = []

    def record(*args, **kwargs):
        with np.printoptions(floatmode="unique"):
            calls.append(repr((args, kwargs)))
        if len(calls) == count:
            raise RuntimeError("recorded")

    monkeypatch.setattr(module, name, record)
    monkeypatch.setattr(cli, "read_dataset_csv", lambda path: None)
    monkeypatch.setattr(cli, "load_mlp", lambda path: None)
    out_dir.mkdir(exist_ok=True)
    for artifact in ("calib_dataset.csv", "calib_model.json"):  # train and eval need them
        (out_dir / artifact).touch()
    path = write_config(out_dir / "c.json", cfg)
    assert main([*command, "--config", path, "--out-dir", str(out_dir)]) == 1
    assert len(calls) == count
    return calls


@pytest.mark.parametrize("table, key", list(_table_keys()))
def test_every_key_reaches_the_library(monkeypatch, tmp_path, table, key):
    """Setting a key to a non-default value changes what the library receives
    in at least one step of its subcommand: no key is accepted but ignored."""
    outer, _, inner = key.partition(".")
    cfg = {outer: {inner: NON_DEFAULT[key]}} if inner else {outer: NON_DEFAULT[key]}
    changed = [
        _received(monkeypatch, tmp_path / "default", command, {})
        != _received(monkeypatch, tmp_path / "set", command, cfg)
        for command in RECEIVERS if command[0] == table
    ]
    assert any(changed) == ((table, key) not in IGNORED)


def test_calib_gen_draws_at_the_seed_and_eval_at_seed_plus_one(monkeypatch, tmp_path):
    """calib eval's test set is drawn at seed + 1, disjoint from gen's."""
    seeds = []

    def generate(*args, **kwargs):
        seeds.append(kwargs["rng_seed"])
        raise RuntimeError("recorded")

    monkeypatch.setattr(cli, "generate_dataset", generate)
    monkeypatch.setattr(cli, "load_mlp", lambda path: None)
    (tmp_path / "calib_model.json").touch()
    path = write_config(tmp_path / "c.json", {"seed": 7})
    for step in ("gen", "eval"):
        assert main(["calib", step, "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert seeds == [7, 8]


def run_module(*args):
    """`python -m suturekit.cli`, the path the console script takes too, in
    a fresh interpreter with numpy's default warning filters."""
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "suturekit.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point(tmp_path):
    """The module entry point exits with main's code and reports a usage
    error without a traceback."""
    assert run_module("--help").returncode == 0
    out = run_module("pose-bench", "--config", str(tmp_path), "--out-dir", str(tmp_path / "out"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


# the configs of criterion 9 (tests/test_acceptance.py); calib's is workdir's
CRITERION_9 = {"pose-bench": {"scenes": 2}, "control-sim": {},
               "suture-run": {"injected_bias_deg": 3.0}}


def test_config_hash_placement(workdir, tmp_path):
    """Each CSV starts with a `# config_hash=... units=...` line, the JSON
    summaries carry a config_hash key instead, and the trained model no hash."""
    dirs = [workdir]
    for command, cfg in CRITERION_9.items():
        dirs.append(tmp_path / command)
        dirs[-1].mkdir()
        path = write_config(dirs[-1] / "cfg.json", cfg)
        assert run_cli([command, "--config", path, "--out-dir", str(dirs[-1])]) == 0
    hashes = {}
    for d in dirs:
        h = config_hash(json.loads((d / "cfg.json").read_text()))
        hashes.update((f, h) for f in d.iterdir() if f.name != "cfg.json")
    assert sorted(f.name for f in hashes) == [
        "calib_dataset.csv", "calib_eval.csv", "calib_loss_curve.csv", "calib_model.json",
        "control_summary.json", "control_trace.csv", "pose_bench.csv",
        "pose_bench_summary.json", "suture_report.json",
    ]
    for f, h in hashes.items():
        text = f.read_text()
        if f.suffix == ".csv":
            assert text.startswith(f"# config_hash={h} units="), f.name
        elif f.name == "calib_model.json":
            assert "config_hash" not in text and h not in text
        else:
            assert text.startswith("{") and json.loads(text)["config_hash"] == h, f.name


class TestControlSim:
    def test_outputs_and_header(self, tmp_path):
        code = run_cli(["control-sim", "--out-dir", str(tmp_path)])
        assert code == 0
        trace = tmp_path / "control_trace.csv"
        summary = tmp_path / "control_summary.json"
        assert trace.exists() and summary.exists()
        first = trace.read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and "units=m_rad" in first
        payload = json.loads(summary.read_text())
        assert "config_hash" in payload
        reduction = np.array(payload["reduction_percent"])
        assert np.all(reduction >= 98.0)

    def test_byte_identical_across_runs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_cli(["control-sim", "--out-dir", str(d)]) == 0
        for name in ("control_trace.csv", "control_summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("calib")
    cfg = write_config(
        d / "cfg.json",
        {"count": 300, "epochs": 3, "hidden_sizes": [32, 16], "test_count": 100},
    )
    for args in (["calib", "gen"], ["calib", "train"], ["calib", "eval"]):
        assert run_cli(args + ["--config", cfg, "--out-dir", str(d)]) == 0
    return d


class TestCalibFlow:
    def test_artifacts_exist(self, workdir):
        for name in (
            "calib_dataset.csv", "calib_model.json", "calib_loss_curve.csv",
            "calib_eval.csv",
        ):
            assert (workdir / name).exists()

    def test_dataset_row_count(self, workdir):
        lines = (workdir / "calib_dataset.csv").read_text().splitlines()
        assert len(lines) == 302  # header comment + column row + 300 samples

    def test_eval_table_shape(self, workdir):
        lines = (workdir / "calib_eval.csv").read_text().splitlines()
        assert len(lines) == 8  # comment + columns + 6 joints
        assert lines[2].startswith("q1,deg,")
        assert lines[4].startswith("q3,mm,")

    def test_units_tags(self, workdir):
        for name, units in (("calib_dataset.csv", "deg_mm"), ("calib_eval.csv", "deg_mm"),
                            ("calib_loss_curve.csv", "none")):
            first = (workdir / name).read_text().splitlines()[0]
            assert first.endswith(f" units={units}")

    def test_seed_override_changes_dataset(self, workdir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"count": 50})
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["calib", "gen", "--config", cfg, "--out-dir", str(a)]) == 0
        assert run_cli(["calib", "gen", "--config", cfg, "--seed", "5",
                        "--out-dir", str(b)]) == 0
        assert (a / "calib_dataset.csv").read_text() != (b / "calib_dataset.csv").read_text()


class TestPoseBench:
    def test_small_run_outputs(self, tmp_path):
        code = run_cli(["pose-bench", "--scenes", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "pose_bench.csv").read_text().splitlines()
        assert rows[0].endswith(" units=m_rad")
        assert rows[1].split(",")[0] == "scene_id"
        assert len(rows) == 3
        record = dict(zip(rows[1].split(","), rows[2].split(",")))
        assert list(record)[-2:] == ["seed", "converged"]
        assert record["converged"] == "1"
        summary = json.loads((tmp_path / "pose_bench_summary.json").read_text())
        agg = summary["by_occlusion"]["0.00"]
        assert agg["scenes"] == 1
        assert agg["pos_err_mm_mean"] < 1.0

    def test_negative_baseline_is_a_mirrored_rig(self, tmp_path):
        # the right camera left of the left one: a valid rig, not an error
        cfg = write_config(tmp_path / "c.json", {"scenes": 2, "baseline_mm": -20})
        assert run_cli(["pose-bench", "--config", cfg, "--seed", "0",
                        "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "pose_bench.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2
        for r in rows:
            assert r["converged"] == "1"
            assert float(r["pos_err_m"]) <= 1e-3, r
            assert float(r["ang_err_rad"]) <= np.radians(3.0), r

    def test_scenes_beyond_default_depth_range(self, tmp_path):
        # depth_range_m only places the scenes; the seed is triangulated from
        # the masks, so needles beyond the 0.2 m default must come back right
        cfg = write_config(tmp_path / "c.json", {"scenes": 2, "depth_range_m": [0.3, 0.4]})
        assert run_cli(["pose-bench", "--config", cfg, "--seed", "0",
                        "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "pose_bench.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 2
        for r in rows:
            assert r["converged"] == "1"
            assert float(r["pos_err_m"]) <= 1e-3, r
            assert float(r["ang_err_rad"]) <= np.radians(3.0), r

    @pytest.mark.parametrize("seed, scenes, failed, error", [
        (0, 50, 49, "2 mask points triangulated"),
        (2, 23, 22, "theta1=3.104"),
    ], ids=["no-seed", "seed-outside-the-domain"])
    def test_scene_without_a_pose_is_a_flagged_row(self, tmp_path, monkeypatch, seed, scenes,
                                                   failed, error):
        # at 90 % occlusion the last scene of each run gets no pose: too few
        # triangulated points, or a seed whose theta1 the descent cannot move
        # back into the domain (a ThetaOutOfRange, raised by estimate as NoSeed)
        raised = []
        estimate = bench.estimate

        def recording(*args):
            try:
                return estimate(*args)
            except pose_estimator.NoSeed as e:
                raised.append(str(e))
                raise

        monkeypatch.setattr(bench, "estimate", recording)
        cfg = write_config(tmp_path / "c.json", {"occlusion_fractions": [0.9]})
        assert run_cli(["pose-bench", "--config", cfg, "--seed", str(seed),
                        "--scenes", str(scenes), "--out-dir", str(tmp_path)]) == 0
        assert len(raised) == 1 and error in raised[0]
        lines = (tmp_path / "pose_bench.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert len(rows) == scenes
        assert [int(r["scene_id"]) for r in rows if r["pos_err_m"] == "nan"] == [failed]
        assert {k: rows[failed][k] for k in ("ang_err_rad", "J_final", "steps", "converged")} \
            == {"ang_err_rad": "nan", "J_final": "nan", "steps": "0", "converged": "0"}
        text = (tmp_path / "pose_bench_summary.json").read_text()
        assert "NaN" not in text
        agg = json.loads(text)["by_occlusion"]["0.90"]
        posed = [r for r in rows if r["pos_err_m"] != "nan"]
        assert agg["scenes"] == scenes
        # the CSV keeps 10 significant digits
        assert agg["pos_err_mm_mean"] == pytest.approx(
            1e3 * np.mean([float(r["pos_err_m"]) for r in posed]), rel=1e-8)
        assert agg["converged_fraction"] == np.mean([r["converged"] == "1" for r in rows])

    def test_far_scenes_without_a_seed_vector_are_flagged_rows(self, tmp_path, monkeypatch):
        # at 5-10 m scene 2's seed chord re-projects to one pixel, which
        # pose_to_params raises as DegenerateRays and estimate as NoSeed;
        # scene 4 triangulates too few points
        raised = []
        estimate = bench.estimate

        def recording(*args):
            try:
                return estimate(*args)
            except pose_estimator.NoSeed as e:
                raised.append(str(e))
                raise

        monkeypatch.setattr(bench, "estimate", recording)
        cfg = write_config(tmp_path / "c.json", {"depth_range_m": [5, 10]})
        assert run_cli(["pose-bench", "--config", cfg, "--seed", "0", "--scenes", "6",
                        "--out-dir", str(tmp_path)]) == 0
        assert raised == ["the seed pose has no parameter vector: inter-ray angle 0.0 <= 1e-06",
                          "2 mask points triangulated, 3 needed"]
        lines = (tmp_path / "pose_bench.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 6
        assert [int(r["scene_id"]) for r in rows if r["pos_err_m"] == "nan"] == [2, 4]
        assert rows[2]["converged"] == rows[4]["converged"] == "0"

    def test_no_pose_at_all_gives_null_errors(self):
        rows = [bench.PoseBenchRow(i, np.nan, np.nan, np.nan, 0, 0.9, 0, False) for i in range(2)]
        agg = bench.aggregate_rows(rows)["0.90"]
        assert agg == {"scenes": 2, "pos_err_mm_mean": None, "pos_err_mm_std": None,
                       "ang_err_deg_mean": None, "ang_err_deg_std": None,
                       "converged_fraction": 0.0}
