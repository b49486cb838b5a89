"""The benchmark workloads: pose, calib and suture.

Each workload has three steps:

- `prepare(seed, seconds, workdir)` is set-up: it writes the CLI configs
  and builds what the timed section needs, and returns a plan.
- `ops(plan)` lists the timed operations as (name, function) pairs.  Each
  calls the `suturekit` CLI entry point (`cli.main`) or public library
  functions and returns (exit code, error text); `timed` runs one.
- `check(plan, ops)` reads the artifacts back and returns the accuracy
  numbers, the latencies of the repeated operations and the acceptance
  checks (with the criteria's unchanged bounds).

The amount of work depends only on the seed and `seconds`, never on how
fast the program runs, so two commits are timed on the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from suturekit import bench, calibration, cli, psm_kinematics

# Nominal seconds per repeated operation, used only to size a run.
POSE_SCENE_S = 4.0
SUTURE_RUN_S = 5.0


def call_cli(argv):
    """One CLI invocation: (exit code or None, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the CLI should catch these itself
        return None, f"{type(e).__name__}: {e}"
    return rc, err.getvalue().strip()


def timed(op, fn):
    """Run one operation; fn returns (exit code or None, error text)."""
    t0 = time.perf_counter()
    try:
        rc, error = fn()
    except Exception as e:
        rc, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    ok = rc == 0
    return {"op": op, "s": seconds, "ok": ok,
            "error": None if ok else (error or f"exit code {rc}")}


def _write_config(directory: Path, cfg: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "cfg.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        f.readline()  # "# config_hash=..." header
        return list(csv.DictReader(f))


def _ms(seconds):
    return [1e3 * s for s in seconds]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- scene choice -----------------------------------------------------------

def _arc_length_px(scene_seed, rig, body):
    """Projected length of the needle, both views summed, in the scene
    suture-run draws from `scene_seed` (the needle is its first draw, from
    default_rng([seed, 0]), with the default rig and scene range)."""
    rng = np.random.default_rng([scene_seed, 0])
    pts = bench.random_needle_pose(rng, rig, bench.DEFAULT_SHAPE).apply(body)
    return sum(np.linalg.norm(np.diff(cam.project_many(pts)[0], axis=0), axis=1).sum()
               for cam in rig.cameras)


def size_spread_seeds(seed, n):
    """n scene seeds whose needles span the range of projected sizes.

    The mask size sets the cost of every objective evaluation, so scenes
    drawn at random make run times spread with the draw.  suture-run has no
    scene-range setting, so from a pool of 10 n scenes derived from `seed`
    this takes the ones at the size quantiles (j + 0.5) / n, smallest first.
    """
    rig = bench.default_rig()
    body = bench.DEFAULT_SHAPE.arc_points_body(
        np.linspace(0.0, bench.DEFAULT_SHAPE.arc_angle, 64))
    pool = sorted(range(seed * 1000, seed * 1000 + 10 * n),
                  key=lambda s: _arc_length_px(s, rig, body))
    return [pool[int((j + 0.5) * len(pool) / n)] for j in range(n)]


# --- pose-bench -------------------------------------------------------------

def _pose_accuracy(rows):
    """rows: (position error mm, angle error deg, converged) per scene."""
    pos = [p for p, _, _ in rows]
    ang = [a for _, a, _ in rows]
    return {
        "pos_err_mm_mean": (statistics.fmean(pos), "mm"),
        "ang_err_deg_mean": (statistics.fmean(ang), "deg"),
        "ang_err_deg_max": (max(ang), "deg"),
        "within_1mm_frac": (statistics.fmean(c and p <= 1.0 for p, _, c in rows), "ratio"),
    }


class Pose:
    """`suturekit pose-bench`, one scene per call, on clean 1-px masks and
    with a 30 % contiguous occlusion in both views (criteria 1 and 2).

    Scene depths are stratified: for each condition, call k samples its
    scene from the k-th of n equal slices of the CLI's default depth range,
    so every run covers near and far needles alike.  Clean and occluded
    calls alternate.
    """

    CONDITIONS = (("clean", 0.0), ("occluded", 0.3))
    DEPTH_RANGE_M = (0.08, 0.2)  # the CLI's default

    def prepare(self, seed, seconds, workdir: Path):
        n = max(2, round(seconds / (2 * POSE_SCENE_S)))
        lo, hi = self.DEPTH_RANGE_M
        width = (hi - lo) / n
        plan = []
        for k in range(n):
            for c, (label, occlusion) in enumerate(self.CONDITIONS):
                cfg = {"scenes": 1, "seed": seed * 1000 + 2 * k + c,
                       "occlusion_fractions": [occlusion],
                       "depth_range_m": [lo + k * width, lo + (k + 1) * width]}
                d = workdir / f"scene{k:02d}-{label}"
                plan.append((label, _write_config(d, cfg), d))
        return plan

    def ops(self, plan):
        return [(f"pose-bench {label}",
                 lambda cfg=cfg, d=d: call_cli(
                     ["pose-bench", "--config", cfg, "--out-dir", d]))
                for label, cfg, d in plan]

    def check(self, plan, ops):
        rows = {label: [] for label, _ in self.CONDITIONS}
        for (label, _, d), op in zip(plan, ops):
            if not op["ok"]:
                continue
            summary = json.loads((d / "pose_bench_summary.json").read_text())
            converged = all(v["converged_fraction"] == 1.0
                            for v in summary["by_occlusion"].values())
            if not converged:
                op["ok"], op["error"] = False, "NoConvergence"
            for row in _read_csv(d / "pose_bench.csv"):
                rows[label].append((float(row["pos_err_m"]) * 1e3,
                                    math.degrees(float(row["ang_err_rad"])), converged))
        acc = {}
        for label, r in rows.items():
            if r:
                acc.update({f"{label}.{k}": v for k, v in _pose_accuracy(r).items()})
        scene_s = [op["s"] for op in ops]
        acc["scene_s_p50"] = (statistics.median(scene_s), "s")

        def value(key, default):
            return acc[key][0] if key in acc else default

        checks = {
            "criterion 1 (clean): mean position error <= 0.5 mm":
                value("clean.pos_err_mm_mean", math.inf) <= 0.5,
            "criterion 1 (clean): mean angular error <= 2.0 deg":
                value("clean.ang_err_deg_mean", math.inf) <= 2.0,
            "criterion 1 (clean): 100 scenes within 600 s":
                100 * statistics.fmean(op["s"] for op, (label, _, _) in zip(ops, plan)
                                       if label == "clean") <= 600.0,
            "criterion 2 (occluded): >= 90 % of scenes within 1 mm":
                value("occluded.within_1mm_frac", 0.0) >= 0.9,
        }
        return acc, checks


# --- calib ------------------------------------------------------------------

class Calib:
    """`suturekit calib gen|train|eval` on the 10k dataset and the default
    network at a reduced epoch count, then direct solves under the
    criterion-3 protocol (fk, feature detection and `calibrate_direct` per
    trial)."""

    def prepare(self, seed, seconds, workdir: Path):
        cfg = {
            "count": 10000,
            "delta_range_deg": 5.0,
            "noise_px": 0.0,
            "seed": seed,
            "epochs": max(1, round(0.75 * seconds)),
            "batch_size": 256,
            "learning_rate": 0.001,
            "hidden_sizes": [400, 300, 200],
            "test_count": 1000,
        }
        model = psm_kinematics.KinematicModel()
        camera = bench.default_mono_camera()
        fm = calibration.FeatureModel()
        trials = []
        for i in range(max(100, 10 * round(seconds))):
            rng = np.random.default_rng([100, seed, i])
            q_msr = calibration.DEFAULT_QMSR_REGION.sample(rng)
            dq = rng.uniform(-np.radians(5.0), np.radians(5.0), 6)
            dq[psm_kinematics.PRISMATIC_INDEX] /= model.prismatic_scale
            trials.append((q_msr, dq))
        return {"cfg": _write_config(workdir, cfg), "dir": workdir, "model": model,
                "camera": camera, "fm": fm, "trials": trials, "errors": []}

    def _solve(self, plan, q_msr, dq):
        model = plan["model"]
        px = calibration.detect_features(
            plan["camera"], psm_kinematics.fk(model, q_msr + dq), plan["fm"])
        dq_hat = calibration.calibrate_direct(
            model, plan["camera"], plan["fm"], q_msr, px, np.radians(10.0))
        err = np.abs(dq_hat - dq)
        err[psm_kinematics.PRISMATIC_INDEX] *= model.prismatic_scale
        plan["errors"].append(float(err.max()))
        return 0, None

    def ops(self, plan):
        """The three CLI steps, with the direct solves spread between them
        so that their latency samples span the whole run."""
        steps = [(f"calib {step}",
                  lambda step=step: call_cli(["calib", step, "--config", plan["cfg"],
                                              "--out-dir", plan["dir"]]))
                 for step in ("gen", "train", "eval")]
        solves = [("direct solve", lambda t=t: self._solve(plan, *t))
                  for t in plan["trials"]]
        chunk = -(-len(solves) // 4)
        out = []
        for i in range(4):
            out += solves[i * chunk:(i + 1) * chunk]
            if i < 3:
                out.append(steps[i])
        return out

    def check(self, plan, ops):
        d = plan["dir"]
        acc, checks = {}, {}
        steps = [op for op in ops if op["op"].startswith("calib ")]
        if all(op["ok"] for op in steps):
            curve = _read_csv(d / "calib_loss_curve.csv")
            finite = all(math.isfinite(float(r[k])) for r in curve
                         for k in ("train_loss", "val_loss"))
            checks["reduced-epoch MLP: every loss finite"] = bool(curve) and finite
            table = _read_csv(d / "calib_eval.csv")
            rev = [float(r["mean_abs_err"]) for r in table if r["unit"] == "deg"]
            prism = [float(r["mean_abs_err"]) for r in table if r["unit"] == "mm"]
            acc["mlp_mae_rev_deg_max"] = (max(rev), "deg")
            acc["mlp_mae_prism_mm"] = (prism[0], "mm")
        else:
            checks["calib gen, train and eval exit 0"] = False
        solves = [op["s"] for op in ops if op["op"] == "direct solve" and op["ok"]]
        errors = plan["errors"]
        worst = max(errors, default=math.inf)
        acc["direct_solve_ms_p50"] = (statistics.median(_ms(solves)), "ms")
        acc["direct_solve_ms_p90"] = (_p90(_ms(solves)), "ms")
        acc["direct_ok_frac"] = (
            sum(e < 1e-6 for e in errors) / len(plan["trials"]), "ratio")
        checks["criterion 3: worst direct offset error < 1e-6"] = (
            len(errors) == len(plan["trials"]) and worst < 1e-6)
        return acc, checks


# --- suture-run -------------------------------------------------------------

class Suture:
    """`suturekit suture-run` with a 3 degree injected bias, compensated on
    scenes from `size_spread_seeds`, and uncompensated on the middle one.

    Criterion 10 compares one compensated run with one uncompensated run of
    the same scene; the other scenes add perception variety to the
    compensated checks (circle deviation, servo convergence) and more
    independent samples to the timings.
    """

    def prepare(self, seed, seconds, workdir: Path):
        seeds = size_spread_seeds(seed, max(1, round(seconds / SUTURE_RUN_S) - 1))
        plan = []
        for k, scene_seed in enumerate(seeds):
            runs = [("comp", True)] + ([("uncomp", False)] if k == len(seeds) // 2 else [])
            for label, compensate in runs:
                d = workdir / f"scene{k:02d}-{label}"
                cfg = {"seed": scene_seed, "line_width": 1.0,
                       "injected_bias_deg": 3.0, "compensate": compensate}
                plan.append((label, _write_config(d, cfg), d))
        return plan

    def ops(self, plan):
        return [(f"suture-run {label}",
                 lambda cfg=cfg, d=d: call_cli(
                     ["suture-run", "--config", cfg, "--out-dir", d]))
                for label, cfg, d in plan]

    def check(self, plan, ops):
        reports = {"comp": [], "uncomp": []}
        for (label, _, d), op in zip(plan, ops):
            report = None
            if op["ok"]:
                report = json.loads((d / "suture_report.json").read_text())
                if not report["servo_converged"]:
                    op["ok"], op["error"] = False, "servo run did not converge"
            reports[label].append((d.name.split("-")[0], report))
        comp, uncomp = dict(reports["comp"]), dict(reports["uncomp"])
        ok10 = all(c is not None and c["max_circle_dev_mm"] <= 0.5 and c["servo_converged"]
                   for c in comp.values())
        for scene, u in uncomp.items():
            c = comp[scene]
            ok10 &= (u is not None and c is not None
                     and u["exit_miss_mm"] / max(c["exit_miss_mm"], 1e-6) >= 5.0)
        done = [c for c in comp.values() if c is not None]
        scene_s = [op["s"] for op in ops]
        acc = {"scene_s_p50": (statistics.median(scene_s), "s")}
        if done:
            acc["suture.pos_err_mm_mean"] = (
                statistics.fmean(c["pose_est_pos_err_mm"] for c in done), "mm")
            acc["suture.ang_err_deg_mean"] = (
                statistics.fmean(c["pose_est_ang_err_deg"] for c in done), "deg")
            acc["max_circle_dev_mm"] = (max(c["max_circle_dev_mm"] for c in done), "mm")
        checks = {"criterion 10: circle deviation <= 0.5 mm and servo converged on every "
                  "compensated run; uncompensated exit miss >= 5x compensated": ok10}
        return acc, checks


WORKLOADS = {
    "pose": Pose(),
    "calib": Calib(),
    "suture": Suture(),
}
