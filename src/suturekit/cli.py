"""Command-line orchestration of the experiments.

Subcommands: pose-bench, calib gen|train|eval, control-sim, suture-run.
Configs are JSON with CLI overrides; every output file starts with a header
line carrying the config hash, and all outputs are byte-identical across
runs with the same seed. Each CSV header also names its units: deg_mm for
the calibration dataset and table, m_rad for the pose-bench and control
traces, none for the loss curve (losses in scaled space).

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .calibration import (
    FeatureModel,
    TrainConfig,
    evaluate_calibration,
    generate_dataset,
    load_mlp,
    mlp_train,
    read_dataset_csv,
    save_model,
    write_dataset_csv,
)
from .control import NotConverged, PiGains, PlantModel, servo_to, steady_state_error
from .needle import NeedleShape
from .pose_estimator import SCENE_DEPTH_RANGE, EstimatorConfig
from .psm_kinematics import KinematicModel, PRISMATIC_INDEX


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(p) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config JSON must be an object")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _header(cfg_hash: str, units: str) -> str:
    return f"# config_hash={cfg_hash} units={units}"


def _write_csv(path: Path, cfg_hash: str, units: str, columns, rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(_header(cfg_hash, units) + "\n")
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def _write_json(path: Path, cfg_hash: str, payload: dict) -> None:
    payload = {"config_hash": cfg_hash, **payload}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# top-level keys each subcommand reads; the three calib steps share one file
CONFIG_KEYS = {
    "pose-bench": {"seed", "scenes", "occlusion_fractions", "line_width", "baseline_mm",
                   "depth_range_m", "min_view_angle_rad", "shape", "estimator"},
    "calib": {"seed", "count", "delta_range_deg", "noise_px", "epochs", "batch_size",
              "learning_rate", "hidden_sizes", "test_count"},
    "control-sim": {"seed", "beta", "kp", "ki", "q_des_deg", "q3_des_mm", "max_steps", "tol"},
    "suture-run": {"seed", "line_width", "injected_bias_deg", "compensate", "shape",
                   "estimator"},
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(test, length=None):
    return lambda v: (isinstance(v, list) and length in (None, len(v))
                      and all(test(x) for x in v))


_INTEGER = ("an integer", _is_integer)
_NUMBER = ("a number", _is_number)
_GAINS = ("a number or a list of 6 numbers",
          lambda v: _is_number(v) or _list_of(_is_number, 6)(v))

# what each config value must be, by key; a nested table stands for a JSON
# object with those keys only
CONFIG_VALUES = {
    "seed": _INTEGER,
    "scenes": _INTEGER,
    "occlusion_fractions": ("a list of numbers", _list_of(_is_number)),
    "line_width": _NUMBER,
    "baseline_mm": _NUMBER,
    "depth_range_m": ("a list of 2 numbers", _list_of(_is_number, 2)),
    "min_view_angle_rad": _NUMBER,
    "shape": {"radius_mm": _NUMBER, "arc_angle_deg": _NUMBER},
    "estimator": {f.name: _INTEGER if f.type == "int" else _NUMBER
                  for f in dataclasses.fields(EstimatorConfig)},
    "count": _INTEGER,
    "delta_range_deg": _NUMBER,
    "noise_px": _NUMBER,
    "epochs": _INTEGER,
    "batch_size": _INTEGER,
    "learning_rate": _NUMBER,
    "hidden_sizes": ("a list of integers", _list_of(_is_integer)),
    "test_count": _INTEGER,
    "beta": _NUMBER,
    "kp": _GAINS,
    "ki": _GAINS,
    "q_des_deg": ("a list of 6 numbers", _list_of(_is_number, 6)),
    "q3_des_mm": _NUMBER,
    "max_steps": _INTEGER,
    "tol": _NUMBER,
    "injected_bias_deg": _NUMBER,
    "compensate": ("true or false", lambda v: isinstance(v, bool)),
}


def _check_keys(d: dict, known, where: str) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _check_values(d: dict, kinds: dict, prefix: str = "") -> None:
    """Raise ConfigError naming the first key whose value has the wrong
    type; nested objects are checked for unknown keys too."""
    for key, value in d.items():
        kind = kinds[key]
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key} must be an object, "
                                  f"got {json.dumps(value)}")
            _check_keys(value, kind, key)
            _check_values(value, kind, f"{prefix}{key}.")
        elif not kind[1](value):
            raise ConfigError(f"config key {prefix}{key} must be {kind[0]}, "
                              f"got {json.dumps(value)}")


def _check_config(cfg: dict, command: str) -> None:
    _check_keys(cfg, CONFIG_KEYS[command], command)
    _check_values(cfg, CONFIG_VALUES)


def _estimator_config(d: dict) -> EstimatorConfig:
    return EstimatorConfig(**d.get("estimator", {}))


def _shape(d: dict) -> NeedleShape:
    s = d.get("shape", {})
    return NeedleShape(s.get("radius_mm", 10.0) / 1000.0,
                       np.radians(s.get("arc_angle_deg", 180.0)))


# --- pose-bench -------------------------------------------------------------

def cmd_pose_bench(cfg: dict, out_dir: Path) -> int:
    pb = bench.PoseBenchConfig(
        scenes=int(cfg.get("scenes", 100)),
        rng_seed=int(cfg.get("seed", 0)),
        occlusion_fractions=tuple(cfg.get("occlusion_fractions", [0.0])),
        line_width=float(cfg.get("line_width", 1.0)),
        shape=_shape(cfg),
        estimator=_estimator_config(cfg),
        baseline=float(cfg.get("baseline_mm", 20.0)) / 1000.0,
        depth_range=tuple(cfg.get("depth_range_m", SCENE_DEPTH_RANGE)),
        min_view_angle=float(cfg.get("min_view_angle_rad", 0.3)),
    )
    h = config_hash(cfg)
    rows = bench.run_pose_bench(pb)
    _write_csv(
        out_dir / "pose_bench.csv",
        h,
        "m_rad",
        ["scene_id", "pos_err_m", "ang_err_rad", "J_final", "steps",
         "occlusion_frac", "seed", "converged"],
        [
            [r.scene_id, f"{r.pos_err_m:.9e}", f"{r.ang_err_rad:.9e}",
             f"{r.J_final:.6e}", r.steps, f"{r.occlusion_frac:.2f}", r.seed,
             int(r.converged)]
            for r in rows
        ],
    )
    summary = bench.aggregate_rows(rows)
    _write_json(out_dir / "pose_bench_summary.json", h, {"by_occlusion": summary})
    for occ, agg in summary.items():
        print(
            f"occlusion {occ}: pos {agg['pos_err_mm_mean']:.3f} mm, "
            f"ang {agg['ang_err_deg_mean']:.3f} deg over {agg['scenes']} scenes"
        )
    return 0


# --- calib ------------------------------------------------------------------

def _calib_parts():
    model = KinematicModel()
    camera = bench.default_mono_camera()
    fm = FeatureModel()
    return model, camera, fm


def cmd_calib_gen(cfg: dict, out_dir: Path) -> int:
    model, camera, fm = _calib_parts()
    h = config_hash(cfg)
    data = generate_dataset(
        model, camera, fm,
        count=int(cfg.get("count", 10000)),
        delta_range=np.radians(float(cfg.get("delta_range_deg", 5.0))),
        noise_px=float(cfg.get("noise_px", 0.0)),
        rng_seed=int(cfg.get("seed", 0)),
    )
    write_dataset_csv(data, out_dir / "calib_dataset.csv", _header(h, "deg_mm"))
    print(f"wrote {len(data)} samples to {out_dir / 'calib_dataset.csv'}")
    return 0


def cmd_calib_train(cfg: dict, out_dir: Path) -> int:
    dataset_path = out_dir / "calib_dataset.csv"
    if not dataset_path.exists():
        print(f"error: dataset not found at {dataset_path}; run 'calib gen' first",
              file=sys.stderr)
        return 2
    h = config_hash(cfg)
    data = read_dataset_csv(dataset_path)
    tc = TrainConfig(
        hidden_sizes=tuple(cfg.get("hidden_sizes", [400, 300, 200])),
        epochs=int(cfg.get("epochs", 200)),
        batch_size=int(cfg.get("batch_size", 256)),
        learning_rate=float(cfg.get("learning_rate", 1e-3)),
        rng_seed=int(cfg.get("seed", 0)),
    )
    result = mlp_train(data, tc)
    save_model(result.model, out_dir / "calib_model.json")
    _write_csv(
        out_dir / "calib_loss_curve.csv",
        h,
        "none",
        ["epoch", "train_loss", "val_loss"],
        [
            [i + 1, f"{tl:.9e}", f"{vl:.9e}"]
            for i, (tl, vl) in enumerate(zip(result.train_loss, result.val_loss))
        ],
    )
    print(f"final train loss {result.train_loss[-1]:.3e}, "
          f"val loss {result.val_loss[-1]:.3e}")
    return 0


def cmd_calib_eval(cfg: dict, out_dir: Path) -> int:
    model_path = out_dir / "calib_model.json"
    if not model_path.exists():
        print(f"error: model not found at {model_path}; run 'calib train' first",
              file=sys.stderr)
        return 2
    h = config_hash(cfg)
    model, camera, fm = _calib_parts()
    mlp = load_mlp(model_path)
    test = generate_dataset(
        model, camera, fm,
        count=int(cfg.get("test_count", 1000)),
        delta_range=np.radians(float(cfg.get("delta_range_deg", 5.0))),
        noise_px=float(cfg.get("noise_px", 0.0)),
        rng_seed=int(cfg.get("seed", 0)) + 1,  # disjoint from training data
        validate=False,
    )
    table = evaluate_calibration(mlp, test)
    rows = []
    for j in range(6):
        mean, std = table[j]
        if j == PRISMATIC_INDEX:
            rows.append([f"q{j+1}", "mm", f"{mean * 1e3:.6f}", f"{std * 1e3:.6f}"])
        else:
            rows.append([f"q{j+1}", "deg", f"{np.degrees(mean):.6f}",
                         f"{np.degrees(std):.6f}"])
    _write_csv(out_dir / "calib_eval.csv", h, "deg_mm",
               ["joint", "unit", "mean_abs_err", "std_abs_err"], rows)
    for r in rows:
        print(f"{r[0]}: {r[2]} +- {r[3]} {r[1]}")
    return 0


# --- control-sim ------------------------------------------------------------

def cmd_control_sim(cfg: dict, out_dir: Path) -> int:
    h = config_hash(cfg)
    plant = PlantModel(beta=float(cfg.get("beta", 0.8)))
    gains_on = PiGains(
        kp=np.asarray(cfg.get("kp", 0.5), dtype=float),
        ki=np.asarray(cfg.get("ki", 0.2), dtype=float),
    )
    gains_off = PiGains(kp=np.zeros(6), ki=np.zeros(6))
    q_des = np.radians(np.asarray(cfg.get("q_des_deg", [10, -5, 0, 20, 15, -10]),
                                  dtype=float))
    q_des[PRISMATIC_INDEX] = float(cfg.get("q3_des_mm", 120.0)) / 1000.0
    max_steps = int(cfg.get("max_steps", 400))

    traces = {}
    converged = {}
    for label, gains in (("pi_off", gains_off), ("pi_on", gains_on)):
        try:
            tr = servo_to(plant, gains, np.zeros(6), q_des,
                          max_steps=max_steps, tol=float(cfg.get("tol", 1e-8)))
            converged[label] = True
        except NotConverged as e:
            tr = e.trace
            converged[label] = False
        traces[label] = tr

    rows = []
    for label, tr in traces.items():
        for k, step in enumerate(tr.steps):
            for j in range(6):
                rows.append([
                    label, k, j + 1,
                    f"{q_des[j]:.9e}", f"{step['q_cmd'][j]:.9e}",
                    f"{step['q_act'][j]:.9e}", f"{step['q_msr'][j]:.9e}",
                    f"{step['q_msr_comp'][j]:.9e}", f"{step['err'][j]:.9e}",
                ])
    _write_csv(out_dir / "control_trace.csv", h, "m_rad",
               ["run", "step", "j", "q_des", "q_cmd", "q_act", "q_msr",
                "q_msr_comp", "err"], rows)

    err_off = steady_state_error(traces["pi_off"])
    err_on = steady_state_error(traces["pi_on"])
    with np.errstate(divide="ignore", invalid="ignore"):
        reduction = np.where(err_off > 0, 100.0 * (1.0 - err_on / err_off), 0.0)
    _write_json(out_dir / "control_summary.json", h, {
        "steady_state_err_off": err_off.tolist(),
        "steady_state_err_on": err_on.tolist(),
        "reduction_percent": reduction.tolist(),
        "converged": converged,
    })
    print("error reduction per joint (%):",
          ", ".join(f"{r:.2f}" for r in reduction))
    return 0


# --- suture-run -------------------------------------------------------------

def cmd_suture_run(cfg: dict, out_dir: Path) -> int:
    h = config_hash(cfg)
    sr = bench.SutureRunConfig(
        rng_seed=int(cfg.get("seed", 0)),
        shape=_shape(cfg),
        estimator=_estimator_config(cfg),
        line_width=float(cfg.get("line_width", 1.0)),
        injected_bias_deg=float(cfg.get("injected_bias_deg", 0.0)),
        compensate=bool(cfg.get("compensate", True)),
    )
    report = bench.run_suture(sr)
    _write_json(out_dir / "suture_report.json", h, {
        "pose_est_pos_err_mm": report.pose_est_pos_err_m * 1e3,
        "pose_est_ang_err_deg": float(np.degrees(report.pose_est_ang_err_rad)),
        "dq_hat_err_deg": float(np.degrees(report.dq_hat_err_rad)),
        "max_circle_dev_mm": report.max_circle_dev_m * 1e3,
        "exit_miss_mm": report.exit_miss_m * 1e3,
        "waypoints_executed": report.waypoints_executed,
        "servo_converged": report.servo_converged,
        "note": "end-to-end metrics are self-defined (no published reference)",
    })
    print(f"max circle deviation {report.max_circle_dev_m * 1e3:.3f} mm, "
          f"exit miss {report.exit_miss_m * 1e3:.3f} mm")
    return 0


# --- entry point ------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override rng seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="suturekit")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("pose-bench")).add_argument(
        "--scenes", type=int, help="override scene count"
    )
    for name in ("control-sim", "suture-run"):
        _add_common(sub.add_parser(name))
    calib = sub.add_parser("calib")
    calib_sub = calib.add_subparsers(dest="subcommand", required=True)
    for name in ("gen", "train", "eval"):
        _add_common(calib_sub.add_parser(name))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_config(cfg, args.command)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "scenes", None) is not None:
        cfg["scenes"] = args.scenes
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dispatch = {
        ("pose-bench", None): cmd_pose_bench,
        ("control-sim", None): cmd_control_sim,
        ("suture-run", None): cmd_suture_run,
        ("calib", "gen"): cmd_calib_gen,
        ("calib", "train"): cmd_calib_train,
        ("calib", "eval"): cmd_calib_eval,
    }
    fn = dispatch[(args.command, getattr(args, "subcommand", None))]
    try:
        return fn(cfg, out_dir)
    except Exception as e:  # runtime failure
        print(f"error [{args.command}]: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
