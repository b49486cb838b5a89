"""Synthetic scenes, default hardware configs and experiment runners.

Everything here is deterministic under a fixed seed: per-scene rng streams
derive from (seed, scene index) so results are independent of execution
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import (
    DEFAULT_QMSR_REGION,
    FeatureModel,
    calibrate_direct,
    detect_features,
)
from .control import NotConverged, PiGains, PlantModel, servo_to
from .geometry import PinholeCamera, RigidPose, StereoRig, quat_to_matrix, rotation_geodesic
from .needle import BinaryMask, NeedleShape, pose_to_params, rasterize
from .planning import (
    SuturePorts,
    needle_tip_body,
    plan_suture_pass,
    suture_circle,
)
from .pose_estimator import KeypointHints, NoConvergence, estimate
from .psm_kinematics import KinematicModel, Unreachable, fk, fk_arrays, ik


DEFAULT_SHAPE = NeedleShape(radius=0.010, arc_angle=np.pi)

# distances in meters from the left camera to the synthetic needles' arc
# centers (random_needle_pose, pose-bench); the estimator assumes no range
SCENE_DEPTH_RANGE = (0.08, 0.2)


def default_rig(baseline: float = 0.02) -> StereoRig:
    """Stereo rig with parallel optical axes along +z, left camera at the
    world origin."""
    left = PinholeCamera(1000.0, 1000.0, 320.0, 240.0, 640, 480)
    right = PinholeCamera(
        1000.0, 1000.0, 320.0, 240.0, 640, 480,
        pose_world_from_camera=RigidPose(np.eye(3), np.array([baseline, 0.0, 0.0])),
    )
    return StereoRig(left, right)


# Pixel sensitivity to rotations of the marker out of the image plane
# scales with (marker size / standoff)^2, so a short standoff is what makes
# the z-axis joints (base yaw, shaft roll, jaw yaw) resolvable per joint. At
# 8 cm the full offset range keeps the marker comfortably in frame.
_MONO_STANDOFF = 0.08


def default_mono_camera() -> PinholeCamera:
    """Monocular calibration camera _MONO_STANDOFF meters from the nominal
    tool tip, aimed at it."""
    tip = fk(KinematicModel(), DEFAULT_QMSR_REGION.center).translation
    d = np.array([1.0, 0.3, 0.5])
    d /= np.linalg.norm(d)
    z = -d  # optical axis points at the tip
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    pose = RigidPose(np.column_stack([x, y, z]), tip + _MONO_STANDOFF * d)
    return PinholeCamera(1200.0, 1200.0, 640.0, 480.0, 1280, 960, pose)


_MARGIN_PX = 12.0  # sampled needles keep this far inside every image border
_MAX_TRIES = 500  # rejection-sampling draws before random_needle_pose gives up


def _in_view(cam: PinholeCamera, pts: np.ndarray) -> bool:
    """Every point projects in front of cam into [margin, size - margin)."""
    px, valid = cam.project_many(pts)
    size = np.array([cam.width, cam.height])
    return bool(valid.all() and np.all((px >= _MARGIN_PX) & (px < size - _MARGIN_PX)))


def random_needle_pose(
    rng: np.random.Generator,
    rig: StereoRig,
    shape: NeedleShape,
    depth_range=SCENE_DEPTH_RANGE,
    min_view_angle: float = 0.3,
) -> RigidPose:
    """Rejection-sample a needle pose fully visible in both views.

    min_view_angle keeps the arc plane away from edge-on viewing, where the
    projection degenerates to a line segment.
    """
    cam = rig.left
    for _ in range(_MAX_TRIES):
        Z = rng.uniform(*depth_range)
        u = rng.uniform(0.25 * cam.width, 0.75 * cam.width)
        v = rng.uniform(0.25 * cam.height, 0.75 * cam.height)
        center = cam.backproject_ray((u, v)) * Z + cam.center
        quat = rng.normal(size=4)
        # quat_to_matrix normalizes again; dropping this first division moves
        # the last bits of R and so every seeded scene
        R = quat_to_matrix(quat / np.linalg.norm(quat))
        T = RigidPose(R, center)
        view_dir = center - cam.center
        view_dir /= np.linalg.norm(view_dir)
        if abs(R[:, 2] @ view_dir) < np.sin(min_view_angle):
            continue
        pts = T.apply(shape.arc_points_body(np.linspace(0, shape.arc_angle, 64)))
        if all(_in_view(c, pts) for c in rig.cameras):
            return T
    raise RuntimeError("could not sample an in-view needle pose")


def observe(
    T: RigidPose, shape: NeedleShape, rig: StereoRig, line_width: float, occlusion=None
) -> tuple[tuple[BinaryMask, BinaryMask], KeypointHints]:
    """Synthetic perception of a needle pose: both views' masks plus the
    exact endpoint pixels of the left view as estimator hints."""
    masks = tuple(rasterize(T, shape, cam, line_width, occlusion) for cam in rig.cameras)
    x_l = pose_to_params(T, shape, rig.left)
    return masks, KeypointHints(left_start=x_l[2:4], left_end=x_l[4:6])


@dataclass(frozen=True)
class PoseBenchConfig:
    scenes: int = 100
    rng_seed: int = 0
    occlusion_fractions: tuple = (0.0,)
    line_width: float = 1.0  # thin masks keep the chamfer evaluation cheap
    shape: NeedleShape = DEFAULT_SHAPE
    baseline: float = 0.02
    depth_range: tuple = SCENE_DEPTH_RANGE  # places the scenes only

    def __post_init__(self):
        if self.scenes < 1:
            raise ValueError(f"scenes must be >= 1, got {self.scenes}")
        lo, hi = self.depth_range
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(
                f"depth_range must be finite with 0 < lo < hi, got {list(self.depth_range)}"
            )
        # a fraction of 1 hides the whole arc and ends in EmptyMasks
        fractions = list(self.occlusion_fractions)
        if not fractions or not all(0.0 <= f < 1.0 for f in fractions):
            raise ValueError(
                f"occlusion_fractions must be one or more numbers in [0, 1), got {fractions}"
            )


@dataclass
class PoseBenchRow:
    scene_id: int
    pos_err_m: float
    ang_err_rad: float
    J_final: float
    steps: int
    occlusion_frac: float
    seed: int
    converged: bool = True


def run_pose_scene(
    scene_id: int, occlusion_frac: float, cfg: PoseBenchConfig, rig: StereoRig
) -> PoseBenchRow:
    rng = np.random.default_rng([cfg.rng_seed, scene_id])
    shape = cfg.shape
    T_true = random_needle_pose(rng, rig, shape, cfg.depth_range)
    occ = None
    if occlusion_frac > 0:
        start = rng.uniform(0.0, 1.0 - occlusion_frac)
        occ = (start, start + occlusion_frac)
    masks, hints = observe(T_true, shape, rig, cfg.line_width, occ)
    converged = True
    try:
        pose, J, steps = estimate(masks, hints, shape, rig)
    except NoConvergence as e:
        pose, J, steps = e.result
        converged = False
    pos_err = float(np.linalg.norm(pose.translation - T_true.translation))
    ang_err = rotation_geodesic(pose.rotation, T_true.rotation)
    return PoseBenchRow(
        scene_id, pos_err, ang_err, J, steps,
        occlusion_frac, cfg.rng_seed, converged,
    )


def run_pose_bench(cfg: PoseBenchConfig) -> list[PoseBenchRow]:
    rig = default_rig(cfg.baseline)
    rows = []
    for occ in cfg.occlusion_fractions:
        for i in range(cfg.scenes):
            rows.append(run_pose_scene(i, occ, cfg, rig))
    return rows


def aggregate_rows(rows: list[PoseBenchRow]) -> dict:
    """Per-occlusion-level mean/std of the error metrics."""
    out = {}
    for occ in sorted({r.occlusion_frac for r in rows}):
        sel = [r for r in rows if r.occlusion_frac == occ]
        pos = np.array([r.pos_err_m for r in sel])
        ang = np.array([r.ang_err_rad for r in sel])
        out[f"{occ:.2f}"] = {
            "scenes": len(sel),
            "pos_err_mm_mean": float(pos.mean() * 1e3),
            "pos_err_mm_std": float(pos.std() * 1e3),
            "ang_err_deg_mean": float(np.degrees(ang.mean())),
            "ang_err_deg_std": float(np.degrees(ang.std())),
            "converged_fraction": float(np.mean([r.converged for r in sel])),
        }
    return out


# --- end-to-end suture run --------------------------------------------------

_SERVO_MAX_STEPS = 300  # per waypoint, at servo_to's default tolerance
_CALIB_BOUND = np.radians(10.0)  # calibrate_direct search bound per joint


@dataclass(frozen=True)
class SutureRunConfig:
    rng_seed: int = 0
    shape: NeedleShape = DEFAULT_SHAPE
    line_width: float = 1.0
    injected_bias_deg: float = 0.0  # per revolute joint, alternating sign
    compensate: bool = True

    def __post_init__(self):
        if not math.isfinite(self.injected_bias_deg):
            raise ValueError(f"injected_bias_deg must be finite, got {self.injected_bias_deg}")


@dataclass
class SutureRunReport:
    pose_est_pos_err_m: float
    pose_est_ang_err_rad: float
    dq_hat_err_rad: float
    max_circle_dev_m: float
    exit_miss_m: float
    waypoints_executed: int
    servo_converged: bool


def _injected_bias(deg: float) -> np.ndarray:
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    dq = np.radians(deg) * signs
    dq[2] = signs[2] * deg * 1e-4  # prismatic bias in meters: 0.1 mm per degree
    return dq


def run_suture(cfg: SutureRunConfig) -> SutureRunReport:
    """Full pipeline on one synthetic scene: perception, needle pose
    estimation, joint calibration, planning and servoed execution. The
    needle tips are scored after execution, in one batched pass."""
    rng = np.random.default_rng([cfg.rng_seed, 0])
    shape = cfg.shape
    rig = default_rig()
    model = KinematicModel()
    fm = FeatureModel()
    mono = default_mono_camera()

    # --- scene: ports on a tilted tissue patch -----------------------------
    # the suture-circle normal is aligned with the instrument shaft so the
    # long needle sweep maps onto the roll joint, whose range covers it
    q_yaw, q_pitch = 0.1, 0.35
    shaft_dir = np.array(
        [
            np.sin(q_yaw) * np.sin(q_pitch),
            -np.cos(q_yaw) * np.sin(q_pitch),
            np.cos(q_pitch),
        ]
    )
    chord_dir = np.cross(np.array([0.0, 0.0, 1.0]), shaft_dir)
    chord_dir /= np.linalg.norm(chord_dir)
    up = np.cross(shaft_dir, chord_dir)  # tissue normal, chord x up = shaft
    chord = 1.2 * shape.radius
    h = float(np.sqrt(shape.radius**2 - (chord / 2.0) ** 2))
    port_center = 0.135 * shaft_dir + h * up  # circle center on the shaft axis
    ports = SuturePorts(
        port_center - 0.5 * chord * chord_dir,
        port_center + 0.5 * chord * chord_dir,
        up,
    )

    # --- plant with hidden bias ------------------------------------------
    delta_q = _injected_bias(cfg.injected_bias_deg)
    plant = PlantModel(delta_q=delta_q)
    gains = PiGains()

    # --- perception + needle pose estimation ----------------------------
    T_needle = random_needle_pose(rng, rig, shape)
    masks, hints = observe(T_needle, shape, rig, cfg.line_width)
    T_est, _, _ = estimate(masks, hints, shape, rig)
    est_pos_err = float(np.linalg.norm(T_est.translation - T_needle.translation))
    est_ang_err = rotation_geodesic(T_est.rotation, T_needle.rotation)

    # --- joint calibration (monocular, noiseless features) ---------------
    if cfg.compensate:
        q_msr_cal = DEFAULT_QMSR_REGION.center
        jaw_true = fk(model, q_msr_cal + delta_q)
        px = detect_features(mono, jaw_true, fm)
        dq_hat = calibrate_direct(model, mono, fm, q_msr_cal, px, _CALIB_BOUND)
    else:
        dq_hat = np.zeros(6)
    dq_err = float(np.max(np.abs(dq_hat - delta_q)))

    # --- plan ------------------------------------------------------------
    # tool grasps the needle with a slight wrist pitch so the sweep stays
    # clear of the q5 = 0 singularity
    cp, sp = np.cos(0.15), np.sin(0.15)
    grasp_offset = RigidPose(
        np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]]),
        np.array([0.0, 0.0, 0.004]),
    )
    q_start = np.array([0.1, 0.05, 0.1, 0.2, 0.4, 0.1])
    grasp_pose = fk(model, q_start)
    segments = plan_suture_pass(grasp_pose, ports, shape, grasp_offset)

    # --- execute the circular segments under servo control ---------------
    q_act = q_start + delta_q  # plant starts at the actual grasp config
    finals = []  # q_act at the end of each executed waypoint
    converged = True
    for seg in segments:
        if seg.label not in ("insertion", "extraction"):
            continue
        for wp in seg.waypoints:
            q_msr_now = q_act - delta_q
            sols = ik(model, wp.tool_pose, q4_hint=float(q_msr_now[3]))
            if not sols:
                raise Unreachable(f"waypoint in segment {seg.label} unreachable")
            q_des = min(sols, key=lambda q: model.joint_distance(q, q_msr_now))
            try:
                trace = servo_to(
                    plant, gains, dq_hat, q_des, q_act0=q_act, max_steps=_SERVO_MAX_STEPS
                )
            except NotConverged as e:
                trace = e.trace
                converged = False
            q_act = trace.q_act[-1]
            finals.append(q_act)

    # --- score the executed needle tips, fk(q) o grasp^-1, in one pass -----
    circle = suture_circle(ports, shape)
    grasp_inv = grasp_offset.inverse()
    R, t = fk_arrays(model, np.array(finals))
    Rn, tn = R @ grasp_inv.rotation, R @ grasp_inv.translation + t
    tips = needle_tip_body(shape) @ np.swapaxes(Rn, -1, -2) + tn
    rel = tips - circle.center
    # vecdot gives the bits of per-row 1-D dots; a matrix-vector product does not
    in_x, in_y, off_plane = (np.vecdot(rel, axis) for axis in
                             (circle.in_plane_x, circle.in_plane_y, circle.normal))
    deviations = np.hypot(np.hypot(in_x, in_y) - circle.radius, off_plane)
    exit_miss = float(np.linalg.norm(tips[-1] - ports.exit))
    return SutureRunReport(
        pose_est_pos_err_m=est_pos_err,
        pose_est_ang_err_rad=est_ang_err,
        dq_hat_err_rad=dq_err,
        max_circle_dev_m=float(np.max(deviations)),
        exit_miss_m=exit_miss,
        waypoints_executed=len(finals),
        servo_converged=converged,
    )
