"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured numbers.

These tests run the full-scale protocols (hundreds of scenes, full MLP
training) and take several minutes each; the unit-test files cover the same
code paths at small scale.
"""

import filecmp
import time

import numpy as np
import pytest

from suturekit import bench
from suturekit.calibration import (
    DEFAULT_QMSR_REGION,
    FeatureModel,
    TrainConfig,
    calibrate_direct,
    detect_features,
    evaluate_calibration,
    generate_dataset,
    mlp_train,
)
from suturekit.cli import main as cli_main
from suturekit.control import NotConverged, PiGains, PlantModel, servo_to, steady_state_error
from suturekit.geometry import RigidPose, rotation_geodesic
from suturekit.needle import NeedleShape
from suturekit.planning import (
    SuturePorts,
    linear_trajectory,
    needle_tip_body,
    plan_suture_pass,
    suture_circle,
)
from suturekit.psm_kinematics import (
    KinematicModel,
    PRISMATIC_INDEX,
    fk,
    ik,
)

from conftest import random_rotation
from test_calibration import gradient_check, identity_scaler
from test_kinematics import fk_oracle, random_in_limit
from suturekit.calibration import mlp_init


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} — {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_pose_estimation_accuracy(self):
        t0 = time.time()
        rows = bench.run_pose_bench(bench.PoseBenchConfig(scenes=100))
        elapsed = time.time() - t0
        pos_mm = np.mean([r.pos_err_m for r in rows]) * 1e3
        ang_deg = np.degrees(np.mean([r.ang_err_rad for r in rows]))
        ok = pos_mm <= 0.5 and ang_deg <= 2.0 and elapsed <= 600.0
        report(
            1, ok,
            f"100 noiseless scenes: mean position error {pos_mm:.4f} mm "
            f"(<= 0.5), mean angular error {ang_deg:.4f} deg (<= 2.0), "
            f"runtime {elapsed:.0f} s (<= 600)",
        )

    def test_criterion_2_occlusion_robustness(self):
        rows = bench.run_pose_bench(
            bench.PoseBenchConfig(scenes=100, occlusion_fractions=(0.3,))
        )
        good = np.mean([r.converged and r.pos_err_m <= 1e-3 for r in rows])
        ok = good >= 0.9
        report(
            2, ok,
            f"30% contiguous occlusion in both views: {100 * good:.0f}% of 100 "
            f"scenes converged within 1.0 mm (>= 90%)",
        )

    def test_criterion_3_calibration_oracle(self):
        model = KinematicModel()
        camera = bench.default_mono_camera()
        fm = FeatureModel()
        bound = np.radians(10.0)
        worst = 0.0
        for i in range(1000):
            rng = np.random.default_rng([100, i])
            q_msr = DEFAULT_QMSR_REGION.sample(rng)
            dq = rng.uniform(-np.radians(5.0), np.radians(5.0), 6)
            dq[PRISMATIC_INDEX] /= model.prismatic_scale
            px = detect_features(camera, fk(model, q_msr + dq), fm)
            dq_hat = calibrate_direct(model, camera, fm, q_msr, px, bound)
            err = np.abs(dq_hat - dq)
            err[PRISMATIC_INDEX] *= model.prismatic_scale
            worst = max(worst, float(err.max()))
        ok = worst < 1e-6
        report(
            3, ok,
            f"noiseless direct calibration over 1000 trials: worst offset "
            f"error {worst:.2e} rad (< 1e-6)",
        )

    def test_criterion_4_calibration_mlp(self):
        model = KinematicModel()
        camera = bench.default_mono_camera()
        fm = FeatureModel()
        t0 = time.time()
        train = generate_dataset(model, camera, fm, count=10000, rng_seed=0)
        held_out = generate_dataset(model, camera, fm, count=2000, rng_seed=1)
        result = mlp_train(train, TrainConfig())
        elapsed = time.time() - t0
        table = evaluate_calibration(result.model, held_out)
        mae = table[:, 0]
        rev = np.delete(np.arange(6), PRISMATIC_INDEX)
        worst_deg = float(np.degrees(mae[rev].max()))
        prism_mm = float(mae[PRISMATIC_INDEX] * 1e3)
        ok = worst_deg <= 0.5 and prism_mm <= 0.5 and elapsed <= 900.0
        report(
            4, ok,
            f"MLP on 10k samples: worst revolute MAE {worst_deg:.4f} deg "
            f"(<= 0.5), prismatic MAE {prism_mm:.4f} mm (<= 0.5), "
            f"runtime {elapsed:.0f} s (<= 900)",
        )

    def test_criterion_5_control_error_reduction(self):
        plant = PlantModel()
        q_des = np.array([0.17, -0.09, 0.12, 0.35, 0.26, -0.17])
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, PiGains(kp=np.zeros(6), ki=np.zeros(6)),
                     np.zeros(6), q_des, max_steps=400)
        err_off = steady_state_error(exc.value.trace)
        trace_on = servo_to(plant, PiGains(), np.zeros(6), q_des, max_steps=400)
        err_on = steady_state_error(trace_on)
        reduction = 100.0 * (1.0 - err_on / err_off)
        ok = bool(np.all(reduction >= 98.0))
        report(
            5, ok,
            f"PI vs PI-off steady-state error reduction per joint: "
            f"min {reduction.min():.2f}% (>= 98%)",
        )

    def test_criterion_6_kinematics(self):
        model = KinematicModel()
        rng = np.random.default_rng(200)
        worst_fk = 0.0
        worst_ik = 0.0
        for _ in range(1000):
            q = random_in_limit(model, rng)
            pose, oracle = fk(model, q), fk_oracle(model, q)
            worst_fk = max(
                worst_fk,
                float(np.abs(pose.rotation - oracle.rotation).max()),
                float(np.abs(pose.translation - oracle.translation).max()),
            )
            sols = ik(model, pose)
            worst_ik = max(worst_ik, min(float(np.abs(s - q).max()) for s in sols))
        ok = worst_fk < 1e-12 and worst_ik < 1e-9
        report(
            6, ok,
            f"1000 random configurations: fk vs transform-product oracle "
            f"{worst_fk:.2e} (< 1e-12), ik(fk(q)) membership {worst_ik:.2e} "
            f"(< 1e-9)",
        )

    def test_criterion_7_trajectory_geometry(self):
        shape = NeedleShape(0.01)
        rng = np.random.default_rng(300)
        worst_radius = worst_incidence = worst_pos_step = worst_rot_step = 0.0
        for _ in range(50):
            n = rng.normal(size=3)
            n[2] = abs(n[2]) + 0.5
            n /= np.linalg.norm(n)
            chord_dir = np.cross(n, rng.normal(size=3))
            chord_dir /= np.linalg.norm(chord_dir)
            chord = rng.uniform(0.004, 0.019)
            center = rng.normal(0.0, 0.05, 3)
            ports = SuturePorts(
                center - 0.5 * chord * chord_dir, center + 0.5 * chord * chord_dir, n
            )
            circle = suture_circle(ports, shape)
            offset = RigidPose(np.eye(3), np.array([0.0, 0.0, 0.004]))
            grasp = RigidPose(random_rotation(rng), center + rng.normal(0.0, 0.03, 3))
            segments = plan_suture_pass(grasp, ports, shape, offset)
            tip_b = needle_tip_body(shape)
            for seg in segments[1:3]:
                for wp in seg.waypoints:
                    tip = wp.pose.apply(tip_b)
                    worst_radius = max(
                        worst_radius,
                        abs(np.linalg.norm(tip - circle.center) - shape.radius),
                    )
            entry_tip = segments[1].waypoints[0].pose.apply(tip_b)
            exit_tip = segments[2].waypoints[-1].pose.apply(tip_b)
            worst_incidence = max(
                worst_incidence,
                float(np.linalg.norm(entry_tip - ports.entry)),
                float(np.linalg.norm(exit_tip - ports.exit)),
            )
            a = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
            b = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
            wps = linear_trajectory(a, b, 0.005, 0.1)
            for wa, wb in zip(wps, wps[1:]):
                dp = np.linalg.norm(wb.pose.translation - wa.pose.translation)
                dr = rotation_geodesic(wa.pose.rotation, wb.pose.rotation)
                worst_pos_step = max(worst_pos_step, dp - 0.005)
                worst_rot_step = max(worst_rot_step, dr - 0.1)
        ok = (
            worst_radius < 1e-9
            and worst_incidence < 1e-9
            and worst_pos_step < 1e-12
            and worst_rot_step < 1e-12
        )
        report(
            7, ok,
            f"50 random plans: circle-radius deviation {worst_radius:.2e} "
            f"(< 1e-9), entry/exit incidence {worst_incidence:.2e} (< 1e-9), "
            f"linear step excess pos {worst_pos_step:.2e} / rot "
            f"{worst_rot_step:.2e} (< 1e-12)",
        )

    def test_criterion_8_mlp_gradient_check(self):
        rng = np.random.default_rng(400)
        m = mlp_init([14, 8, 6], identity_scaler(14), identity_scaler(6), rng)
        xs = rng.normal(size=(32, 14))
        ys = rng.normal(size=(32, 6))
        worst = gradient_check(m, xs, ys, probes=10, rng=rng)
        ok = worst < 1e-4
        report(
            8, ok,
            f"backprop vs central finite differences on a 14-8-6 network, "
            f"10 probes: max relative error {worst:.2e} (< 1e-4)",
        )

    def test_criterion_9_cli_determinism(self, tmp_path):
        import json

        configs = {
            "pose-bench": {"scenes": 2},
            "control-sim": {},
            "suture-run": {"injected_bias_deg": 3.0},
            "calib": {"count": 300, "epochs": 3, "hidden_sizes": [32, 16],
                      "test_count": 100},
        }
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            for cmd, cfg in configs.items():
                d = root / cmd
                d.mkdir(parents=True)
                cfg_path = d / "cfg.json"
                cfg_path.write_text(json.dumps(cfg))
                if cmd == "calib":
                    for step in ("gen", "train", "eval"):
                        assert cli_main(["calib", step, "--config", str(cfg_path),
                                         "--out-dir", str(d)]) == 0
                else:
                    assert cli_main([cmd, "--config", str(cfg_path),
                                     "--out-dir", str(d)]) == 0
            outputs.append(root)
        mismatches = []
        files_checked = 0
        for f in sorted(outputs[0].rglob("*")):
            if not f.is_file() or f.name == "cfg.json":
                continue
            other = outputs[1] / f.relative_to(outputs[0])
            files_checked += 1
            if not filecmp.cmp(f, other, shallow=False):
                mismatches.append(f.name)
        ok = files_checked >= 9 and not mismatches
        report(
            9, ok,
            f"two seeded runs of every CLI command: {files_checked} output "
            f"files byte-identical" + (f"; mismatches: {mismatches}" if mismatches else ""),
        )

    def test_criterion_10_end_to_end_suture(self):
        comp = bench.run_suture(
            bench.SutureRunConfig(injected_bias_deg=3.0, compensate=True)
        )
        uncomp = bench.run_suture(
            bench.SutureRunConfig(injected_bias_deg=3.0, compensate=False)
        )
        dev_mm = comp.max_circle_dev_m * 1e3
        ratio = uncomp.exit_miss_m / max(comp.exit_miss_m, 1e-9)
        ok = dev_mm <= 0.5 and ratio >= 5.0 and comp.servo_converged
        report(
            10, ok,
            f"3 deg injected bias: compensated max circle deviation "
            f"{dev_mm:.4f} mm (<= 0.5) over {comp.waypoints_executed} waypoints, "
            f"uncompensated exit miss {uncomp.exit_miss_m * 1e3:.3f} mm vs "
            f"compensated {comp.exit_miss_m * 1e3:.4f} mm "
            f"({ratio:.0f}x degradation, >= 5x)",
        )
