"""Span tracer behind the benchmark's per-layer metrics.

`Tracer.install` replaces public suturekit functions with timing wrappers at
every module attribute that holds them, so callers that imported a function
by name (`bench.estimate`, `cli.generate_dataset`, ...) are traced too.
Each call records a span (name, start, end, parent index) in memory; the
spans are written out once, when the run ends.  A layer's self time is its
span time minus the time of its direct child spans.  A few hot, tiny
functions are only counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _mask_pixels(ev):
    return max((len(m) for m in ev.mask_px), default=0)


# --- hooks: per-call quantities read from arguments and results -----------

def _on_evaluate(t, args, kwargs, result, exc):
    ev, vecs = args[0], np.atleast_2d(args[1])
    rows = len(vecs)
    t.add("evaluate.rows", rows)
    if result is not None:
        t.add("evaluate.nonfinite_rows", int(np.count_nonzero(~np.isfinite(result))))
    d2_bytes = _mask_pixels(ev) * rows * ev.config.axis_sample_count * 8
    t.peak("evaluate.d2_bytes", d2_bytes)


def _on_estimate(t, args, kwargs, result, exc):
    if result is not None:
        t.add("estimate.steps", result[2])
    elif getattr(exc, "result", None) is not None:
        t.add("estimate.steps", exc.result[2])


def _on_rasterize(t, args, kwargs, result, exc):
    if result is not None:
        t.add("rasterize.mask_px", len(result))


def _on_generate_dataset(t, args, kwargs, result, exc):
    if result is not None:
        t.add("generate_dataset.samples", len(result))


def _on_mlp_train(t, args, kwargs, result, exc):
    if result is not None:
        t.add("mlp_train.epochs", len(result.train_loss))


def _on_pose_from_pixels(t, args, kwargs, result, exc):
    if result is not None:
        t.add("pose_from_pixels.iterations", result.iterations)


def _on_servo_to(t, args, kwargs, result, exc):
    trace = result if result is not None else getattr(exc, "trace", None)
    if trace is not None:
        t.add("servo_to.steps", len(trace.steps))


def _on_plan(t, args, kwargs, result, exc):
    if result is not None:
        t.add("plan.waypoints", sum(len(seg.waypoints) for seg in result))


def _written_bytes(key, path_arg):
    def hook(t, args, kwargs, result, exc):
        path = args[path_arg] if len(args) > path_arg else None
        if path is not None and os.path.exists(path):
            t.add(key, os.path.getsize(path))
    return hook


# (module, attribute, span name, hook); "Class.method" patches the class.
SPANS = [
    ("suturekit.cli", "main", "cli.main", None),
    ("suturekit.cli", "_write_csv", "cli.write", _written_bytes("cli.write.bytes", 0)),
    ("suturekit.cli", "_write_json", "cli.write", _written_bytes("cli.write.bytes", 0)),
    ("suturekit.calibration", "save_model", "cli.write",
     _written_bytes("cli.write.bytes", 1)),
    ("suturekit.bench", "run_pose_bench", "bench.run_pose_bench", None),
    ("suturekit.bench", "run_suture", "bench.run_suture", None),
    ("suturekit.bench", "random_needle_pose", "bench.random_needle_pose", None),
    ("suturekit.pose_estimator", "estimate", "pose_estimator.estimate", _on_estimate),
    ("suturekit.pose_estimator", "SceneEvaluator.evaluate", "pose_estimator.evaluate",
     _on_evaluate),
    ("suturekit.pose_estimator", "objective", "pose_estimator.objective", None),
    ("suturekit.needle", "rasterize", "needle.rasterize", _on_rasterize),
    ("suturekit.calibration", "generate_dataset", "calibration.generate_dataset",
     _on_generate_dataset),
    ("suturekit.calibration", "validate_region", "calibration.validate_region", None),
    ("suturekit.calibration", "mlp_train", "calibration.mlp_train", _on_mlp_train),
    ("suturekit.calibration", "mlp_backprop", "calibration.mlp_backprop", None),
    ("suturekit.calibration", "evaluate_calibration", "calibration.evaluate_calibration",
     None),
    ("suturekit.calibration", "calibrate_direct", "calibration.calibrate_direct", None),
    ("suturekit.calibration", "pose_from_pixels", "calibration.pose_from_pixels",
     _on_pose_from_pixels),
    ("suturekit.calibration", "write_dataset_csv", "calibration.dataset_csv",
     _written_bytes("dataset_csv.bytes", 1)),
    ("suturekit.calibration", "read_dataset_csv", "calibration.dataset_csv", None),
    ("suturekit.psm_kinematics", "fk", "psm_kinematics.fk", None),
    ("suturekit.psm_kinematics", "ik", "psm_kinematics.ik", None),
    ("suturekit.psm_kinematics", "constrained_ik", "psm_kinematics.constrained_ik", None),
    ("suturekit.psm_kinematics", "verify_unique", "psm_kinematics.verify_unique", None),
    ("suturekit.control", "servo_to", "control.servo_to", _on_servo_to),
    ("suturekit.planning", "plan_suture_pass", "planning.plan_suture_pass", _on_plan),
]

# Called per point, thousands of times per operation: counted only.
COUNTS = [
    ("suturekit.geometry", "PinholeCamera.project", "geometry.project"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.counters = defaultdict(float)
        self.calls = defaultdict(int)
        self._undo = []

    def add(self, key, value):
        self.counters[key] += value

    def peak(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    # --- installation ------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, "__dict__", {}).get(meth)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; layer reported as 0",
                      file=sys.stderr)
                return
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module_name}.{attr} not found; layer reported as 0",
                  file=sys.stderr)
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("suturekit"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        for module_name, attr, name, hook in SPANS:
            self._patch(module_name, attr,
                        lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # --- aggregation -------------------------------------------------------

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)}.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent) in enumerate(spans):
            rec = out[name]
            rec[0] += 1
            rec[2] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec[1] += t1 - t0
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Spans as CSV (index, name, start, end, parent), times relative to
        the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Timing and work counters per layer; 0 for layers the workload does
    not reach."""
    tot = tracer.totals()
    c = tracer.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    ev_rows = c["evaluate.rows"]
    epochs = c["mlp_train.epochs"]
    servo_calls = calls("control.servo_to")
    return {
        "pose_estimator.estimate.s": (incl("pose_estimator.estimate"), "s"),
        "pose_estimator.estimate.self_s": (self_s("pose_estimator.estimate"), "s"),
        "pose_estimator.evaluate.calls": (calls("pose_estimator.evaluate"), "count"),
        "pose_estimator.evaluate.rows": (ev_rows, "count"),
        "pose_estimator.evaluate.s": (incl("pose_estimator.evaluate"), "s"),
        "pose_estimator.evaluate.us_per_row":
            (1e6 * ratio(incl("pose_estimator.evaluate"), ev_rows), "us"),
        "pose_estimator.evaluate.share_of_estimate":
            (ratio(incl("pose_estimator.evaluate"), incl("pose_estimator.estimate")),
             "ratio"),
        "pose_estimator.evaluate.d2_mb": (c["evaluate.d2_bytes"] / 2**20, "MB"),
        "pose_estimator.evaluate.nonfinite_rows_frac":
            (ratio(c["evaluate.nonfinite_rows"], ev_rows), "ratio"),
        "pose_estimator.steps":
            (ratio(c["estimate.steps"], calls("pose_estimator.estimate")), "count"),
        "pose_estimator.objective.s": (incl("pose_estimator.objective"), "s"),
        "needle.rasterize.calls": (calls("needle.rasterize"), "count"),
        "needle.rasterize.s": (incl("needle.rasterize"), "s"),
        "needle.mask_px":
            (ratio(c["rasterize.mask_px"], calls("needle.rasterize")), "px"),
        "bench.random_needle_pose.s": (incl("bench.random_needle_pose"), "s"),
        "calibration.generate_dataset.s": (incl("calibration.generate_dataset"), "s"),
        "calibration.generate_dataset.samples_per_s":
            (ratio(c["generate_dataset.samples"], incl("calibration.generate_dataset")),
             "1/s"),
        "calibration.validate_region.s": (incl("calibration.validate_region"), "s"),
        "calibration.mlp_train.s": (incl("calibration.mlp_train"), "s"),
        "calibration.epoch_s": (ratio(incl("calibration.mlp_train"), epochs), "s"),
        "calibration.mlp_backprop.s": (incl("calibration.mlp_backprop"), "s"),
        "calibration.mlp_train.self_s": (self_s("calibration.mlp_train"), "s"),
        "calibration.evaluate_calibration.s":
            (incl("calibration.evaluate_calibration"), "s"),
        "calibration.calibrate_direct.s": (incl("calibration.calibrate_direct"), "s"),
        "calibration.pose_from_pixels.iterations":
            (ratio(c["pose_from_pixels.iterations"], calls("calibration.pose_from_pixels")),
             "count"),
        "calibration.dataset_csv.s": (incl("calibration.dataset_csv"), "s"),
        "calibration.dataset_csv.bytes": (c["dataset_csv.bytes"], "B"),
        "psm_kinematics.fk.calls": (calls("psm_kinematics.fk"), "count"),
        "psm_kinematics.fk.s": (incl("psm_kinematics.fk"), "s"),
        "psm_kinematics.ik.calls": (calls("psm_kinematics.ik"), "count"),
        "psm_kinematics.ik.s": (incl("psm_kinematics.ik"), "s"),
        "psm_kinematics.constrained_ik.s": (incl("psm_kinematics.constrained_ik"), "s"),
        "psm_kinematics.verify_unique.s": (incl("psm_kinematics.verify_unique"), "s"),
        "control.servo_to.calls": (servo_calls, "count"),
        "control.servo_to.s": (incl("control.servo_to"), "s"),
        "control.servo_steps_per_waypoint": (ratio(c["servo_to.steps"], servo_calls), "count"),
        "planning.plan_suture_pass.s": (incl("planning.plan_suture_pass"), "s"),
        "planning.waypoints":
            (ratio(c["plan.waypoints"], calls("planning.plan_suture_pass")), "count"),
        "geometry.project.calls": (tracer.calls["geometry.project"], "count"),
        "cli.write.s": (incl("cli.write"), "s"),
        "cli.write.bytes": (c["cli.write.bytes"], "B"),
    }
