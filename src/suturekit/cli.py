"""Command-line orchestration of the experiments.

Subcommands: pose-bench, calib gen|train|eval, control-sim, suture-run.
Configs are JSON with CLI overrides. Each subcommand declares its keys once,
in its table in TABLES: the JSON type of the value, the library keyword it
sets and its unit conversion. An absent key is not passed on, so the
library's own default holds; the only defaults kept here are those with no
library home (calib eval's test_count and seed + 1, control-sim's
q_des_deg_mm, max_steps and tol). All outputs are byte-identical across runs
with the same seed. Each CSV starts with a `# config_hash=... units=...`
header line; the JSON summaries (pose_bench_summary.json,
control_summary.json, suture_report.json) carry a config_hash key instead,
and calib_model.npz, the trained network, carries no hash: it is a NumPy
archive of named float64 arrays (input_mean, input_std, output_mean,
output_std, weights_i, biases_i) that np.load reads, refusing pickled data.
The units are deg_mm (psm_kinematics.to_deg_mm) for the calibration dataset
and table, m_rad for the pose-bench and control traces, none for the loss
curve (losses in scaled space). In pose_bench.csv m_rad covers the error
columns; J_final, the chamfer objective, is in squared pixels.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error (a config
that is missing, unreadable or invalid, an output directory that cannot be
created, or a calib step run before the one that makes its input). A failed
run leaves no output directory that it made and wrote nothing to.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import bench
from .calibration import (
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
from .psm_kinematics import PRISMATIC_INDEX, from_deg_mm, to_deg_mm


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 (byte {e.start}: {e.reason})") from e
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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(test, length=None):
    return lambda v: (isinstance(v, list) and length in (None, len(v))
                      and all(test(x) for x in v))


# value kinds: (what the error message says it must be, test, cast)
_INTEGER = ("an integer", _is_integer, int)
_NUMBER = ("a number", _is_number, float)
_BOOL = ("true or false", lambda v: isinstance(v, bool), bool)
_NUMBERS = ("a list of numbers", _list_of(_is_number), tuple)
_INTEGERS = ("a list of integers", _list_of(_is_integer), tuple)
_PAIR = ("a list of 2 numbers", _list_of(_is_number, 2), tuple)
_JOINTS = ("a list of 6 numbers", _list_of(_is_number, 6), tuple)
_GAINS = ("a number or a list of 6 numbers",
          lambda v: _is_number(v) or _list_of(_is_number, 6)(v), lambda v: v)


def _mm(v):
    return v / 1000.0


def _checked(key, text, test, convert=None):
    """A conversion that keeps a value passing `test` and raises a ValueError
    naming `key` and showing the value for one that fails, where the library
    would name another keyword or nothing; `convert` then changes its unit."""
    def check(v):
        if not test(v):
            raise ValueError(f"{key} must be {text}, got {v}")
        return v if convert is None else convert(v)
    return check


def _at_least(low, key):
    return _checked(key, f">= {low}", lambda v: v >= low)


# Config tables: key -> (value kind, library keyword, unit conversion). A
# conversion may also reject an out-of-range value by the key's name. A
# nested table stands for a JSON object with those keys only; its conversion
# builds the library object from the object's keyword arguments. A keyword
# of None marks a key that the command reads itself.
_SHAPE = ({"radius_mm": (_NUMBER, "radius", _mm),
           "arc_angle_deg": (_NUMBER, "arc_angle", _checked(
               "arc_angle_deg", "in (0, 360)", lambda v: 0 < v < 360, np.radians))},
          "shape", lambda kw: dataclasses.replace(bench.DEFAULT_SHAPE, **kw))
_SEED = (_INTEGER, "rng_seed", _at_least(0, "seed"))  # numpy's rngs take no negative seed
_LINE_WIDTH = (_NUMBER, "line_width", None)  # pixels

TABLES = {
    "pose-bench": {
        "seed": _SEED,
        "scenes": (_INTEGER, "scenes", None),
        "occlusion_fractions": (_NUMBERS, "occlusion_fractions", None),
        "line_width": _LINE_WIDTH,
        # a negative baseline is a mirrored rig, which the estimator handles
        "baseline_mm": (_NUMBER, "baseline", _checked(
            "baseline_mm", "finite and not 0", lambda v: v != 0 and np.isfinite(v), _mm)),
        "depth_range_m": (_PAIR, "depth_range", None),
        "shape": _SHAPE,
    },
    # the three calib steps share one file
    "calib": {
        "seed": _SEED,
        "count": (_INTEGER, "count", None),
        "delta_range_deg": (_NUMBER, "delta_range", np.radians),
        "noise_px": (_NUMBER, "noise_px", None),
        "epochs": (_INTEGER, "epochs", None),
        "batch_size": (_INTEGER, "batch_size", None),
        "learning_rate": (_NUMBER, "learning_rate", None),
        "hidden_sizes": (_INTEGERS, "hidden_sizes", None),
        "test_count": (_INTEGER, "count", _at_least(1, "test_count")),
    },
    "control-sim": {
        "seed": (_INTEGER, None, None),  # accepted like everywhere; nothing is drawn
        "beta": (_NUMBER, "beta", None),
        "kp": (_GAINS, "kp", None),
        "ki": (_GAINS, "ki", None),
        "q_des_deg_mm": (_JOINTS, "q_des", _checked(
            "q_des_deg_mm", "finite", lambda v: np.isfinite(v).all(), from_deg_mm)),
        "max_steps": (_INTEGER, "max_steps", None),
        "tol": (_NUMBER, "tol", None),
    },
    "suture-run": {
        "seed": _SEED,
        "line_width": _LINE_WIDTH,
        "injected_bias_deg": (_NUMBER, "injected_bias_deg", None),
        "compensate": (_BOOL, "compensate", None),
        "shape": _SHAPE,
    },
}


def check_config(cfg: dict, table: dict, where: str, prefix: str = "") -> None:
    """Raise ConfigError naming the first unknown key, then the first key
    whose value has the wrong JSON type; nested objects are walked too."""
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
    for key, value in cfg.items():
        kind = table[key][0]
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix}{key} must be an object, "
                                  f"got {json.dumps(value)}")
            check_config(value, kind, key, f"{prefix}{key}.")
        elif not kind[1](value):
            raise ConfigError(f"config key {prefix}{key} must be {kind[0]}, "
                              f"got {json.dumps(value)}")


def _kwargs(cfg: dict, table: dict, keys=None) -> dict:
    """Library keyword arguments for the keys of `cfg` that are in `keys`
    (default: all of `table`), cast and converted to library units."""
    out = {}
    for key in table if keys is None else keys:
        if key not in cfg:
            continue
        kind, keyword, convert = table[key]
        if isinstance(kind, dict):
            value = _kwargs(cfg[key], kind)
        else:
            value = kind[2](cfg[key])
        out[keyword] = value if convert is None else convert(value)
    return out


# --- pose-bench -------------------------------------------------------------

def cmd_pose_bench(cfg: dict, h: str, out_dir: Path) -> None:
    pb = bench.PoseBenchConfig(**_kwargs(cfg, TABLES["pose-bench"]))
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
        if agg["pos_err_mm_mean"] is None:
            print(f"occlusion {occ}: no pose in {agg['scenes']} scenes")
            continue
        print(
            f"occlusion {occ}: pos {agg['pos_err_mm_mean']:.3f} mm, "
            f"ang {agg['ang_err_deg_mean']:.3f} deg over {agg['scenes']} scenes"
        )


# --- calib ------------------------------------------------------------------

def _calib_input(out_dir: Path, name: str, what: str, step: str) -> Path:
    """out_dir / name, the input that calib step `step` writes; a
    ConfigError if it is missing."""
    path = out_dir / name
    if not path.exists():
        raise ConfigError(f"{what} not found at {path}; run '{step}' first")
    return path


def cmd_calib_gen(cfg: dict, h: str, out_dir: Path) -> None:
    model, camera, fm = bench.calibration_parts()
    keys = ("seed", "count", "delta_range_deg", "noise_px")
    data = generate_dataset(model, camera, fm, **_kwargs(cfg, TABLES["calib"], keys))
    write_dataset_csv(data, out_dir / "calib_dataset.csv", _header(h, "deg_mm"))
    print(f"wrote {len(data)} samples to {out_dir / 'calib_dataset.csv'}")


def cmd_calib_train(cfg: dict, h: str, out_dir: Path) -> None:
    path = _calib_input(out_dir, "calib_dataset.csv", "dataset", "calib gen")
    keys = ("seed", "hidden_sizes", "epochs", "batch_size", "learning_rate")
    tc = TrainConfig(**_kwargs(cfg, TABLES["calib"], keys))
    # no name for the dataset here, so mlp_train can free it once scaled
    result = mlp_train(read_dataset_csv(path), tc)
    save_model(result.model, out_dir / "calib_model.npz")
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


def cmd_calib_eval(cfg: dict, h: str, out_dir: Path) -> None:
    mlp = load_mlp(_calib_input(out_dir, "calib_model.npz", "model", "calib train"))
    model, camera, fm = bench.calibration_parts()
    # CLI-only defaults: 1000 test samples, drawn at seed + 1 so they are
    # disjoint from the training data
    keys = ("seed", "test_count", "delta_range_deg", "noise_px")
    kwargs = {"count": 1000, **_kwargs(cfg, TABLES["calib"], keys)}
    kwargs["rng_seed"] = kwargs.get("rng_seed", 0) + 1
    test = generate_dataset(model, camera, fm, **kwargs)
    table = evaluate_calibration(mlp, test)
    rows = [[f"q{j+1}", "mm" if j == PRISMATIC_INDEX else "deg", f"{mean:.6f}", f"{std:.6f}"]
            for j, (mean, std) in enumerate(to_deg_mm(table.T).T)]
    _write_csv(out_dir / "calib_eval.csv", h, "deg_mm",
               ["joint", "unit", "mean_abs_err", "std_abs_err"], rows)
    for r in rows:
        print(f"{r[0]}: {r[2]} +- {r[3]} {r[1]}")


# --- control-sim ------------------------------------------------------------

def cmd_control_sim(cfg: dict, h: str, out_dir: Path) -> None:
    table = TABLES["control-sim"]
    plant = PlantModel(**_kwargs(cfg, table, ("beta",)))
    gains_on = PiGains(**_kwargs(cfg, table, ("kp", "ki")))
    gains_off = PiGains(kp=np.zeros(6), ki=np.zeros(6))
    # CLI-only defaults: the target, and a longer, tighter servo run than
    # servo_to's own 200 steps at 1e-6
    servo = {"q_des": from_deg_mm([10, -5, 120, 20, 15, -10]), "max_steps": 400, "tol": 1e-8,
             **_kwargs(cfg, table, ("q_des_deg_mm", "max_steps", "tol"))}

    # pi_off keeps the disturbance as its steady error and so never meets tol:
    # `converged` ends as the last run's flag, pi_on's
    traces = {}
    for label, gains in (("pi_off", gains_off), ("pi_on", gains_on)):
        try:
            traces[label], converged = servo_to(plant, gains, np.zeros(6), **servo), True
        except NotConverged as e:
            traces[label], converged = e.trace, False

    rows = []
    for label, tr in traces.items():
        columns = (tr.q_cmd, tr.q_act, tr.q_msr, tr.q_msr_comp, tr.err)
        for k in tr.steps:
            for j in range(6):
                rows.append([label, k, j + 1, f"{servo['q_des'][j]:.9e}",
                             *(f"{c[k, j]:.9e}" for c in columns)])
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
    if converged:  # until then, pi_on's final steps hold a transient
        print("error reduction per joint (%):",
              ", ".join(f"{r:.2f}" for r in reduction))
    else:
        print(f"no steady state: pi_on did not converge in {servo['max_steps']} steps")


# --- suture-run -------------------------------------------------------------

def cmd_suture_run(cfg: dict, h: str, out_dir: Path) -> None:
    sr = bench.SutureRunConfig(**_kwargs(cfg, TABLES["suture-run"]))
    report = bench.run_suture(sr)
    _write_json(out_dir / "suture_report.json", h, {
        "pose_est_pos_err_mm": report.pose_est_pos_err_m * 1e3,
        "pose_est_ang_err_deg": float(np.degrees(report.pose_est_ang_err_rad)),
        "dq_hat_err_deg": float(np.degrees(report.dq_hat_err_rad)),
        "max_circle_dev_mm": report.max_circle_dev_m * 1e3,
        "max_path_dev_mm": report.max_path_dev_m * 1e3,
        "exit_miss_mm": report.exit_miss_m * 1e3,
        "waypoints_executed": report.waypoints_executed,
        "servo_converged": report.servo_converged,
        "note": "end-to-end metrics are self-defined (no published reference)",
    })
    print(f"max circle deviation {report.max_circle_dev_m * 1e3:.3f} mm, path deviation "
          f"{report.max_path_dev_m * 1e3:.3f} mm, exit miss {report.exit_miss_m * 1e3:.3f} mm")


# --- entry point ------------------------------------------------------------

def _command(sub, name: str, run):
    """Declare subcommand `name`, run by `run`, with the options all share."""
    p = sub.add_parser(name)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override rng seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(run=run)
    return p


@functools.cache  # one parser per process, built on first use
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="suturekit")
    sub = ap.add_subparsers(dest="command", required=True)
    _command(sub, "pose-bench", cmd_pose_bench).add_argument(
        "--scenes", type=int, help="override scene count"
    )
    _command(sub, "control-sim", cmd_control_sim)
    _command(sub, "suture-run", cmd_suture_run)
    calib = sub.add_parser("calib").add_subparsers(dest="subcommand", required=True)
    _command(calib, "gen", cmd_calib_gen)
    _command(calib, "train", cmd_calib_train)
    _command(calib, "eval", cmd_calib_eval)
    return ap


@contextlib.contextmanager
def _out_dir(path: str):
    """The output directory, made if missing. If the body raises, each
    directory made here is removed again, deepest first, while it is empty;
    one that existed before is never touched."""
    out_dir = Path(path)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # an existing file, or a path under one
        raise ConfigError(f"cannot create output directory {path}: {e.strerror}") from e
    try:
        yield out_dir
    except BaseException:
        for d in made:
            try:
                d.rmdir()  # fails on a directory that is not empty
            except OSError:
                break
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        check_config(cfg, TABLES[args.command], args.command)
        for key, value in vars(args).items():  # the flags that override config keys
            if key in ("seed", "scenes") and value is not None:
                cfg[key] = value
        with _out_dir(args.out_dir) as out_dir:
            args.run(cfg, config_hash(cfg), out_dir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error [{args.command}]: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
