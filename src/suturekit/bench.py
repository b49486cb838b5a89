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
from .geometry import (PinholeCamera, RigidPose, StereoRig, compose_stack, quat_to_matrix,
                       rotation_geodesic)
from .needle import (
    BinaryMask,
    NeedleError,
    NeedleShape,
    project_endpoints,
    rasterize,
    sample_axis_points,
)
from .planning import (
    SuturePorts,
    needle_tip_body,
    plan_suture_pass,
    suture_circle,
)
from .pose_estimator import EstimatorError, KeypointHints, NoConvergence, estimate
from .psm_kinematics import KinematicModel, Unreachable, fk, fk_arrays, ik, ik_arrays


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


class NoInViewPose(NeedleError):
    """random_needle_pose drew no needle pose in view of both cameras."""


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
    projection degenerates to a line segment. Raises NoInViewPose, naming the
    radius, the depth range and the draw count, when _MAX_TRIES draws give
    no such pose (a needle too large for the image at those depths, say).
    """
    cam = rig.left
    for _ in range(_MAX_TRIES):
        Z = rng.uniform(*depth_range)
        u = rng.uniform(0.25 * cam.width, 0.75 * cam.width)
        v = rng.uniform(0.25 * cam.height, 0.75 * cam.height)
        ray = cam.backproject_ray((u, v))
        center = ray * Z + cam.center
        quat = rng.normal(size=4)
        # quat_to_matrix normalizes again; dropping this first division moves
        # the last bits of R and so every seeded scene
        R = quat_to_matrix(quat / np.linalg.norm(quat))
        T = RigidPose(R, center)
        if abs(R[:, 2] @ ray) < np.sin(min_view_angle):
            continue
        pts = sample_axis_points(T, shape, 64)
        if all(_in_view(c, pts) for c in rig.cameras):
            return T
    raise NoInViewPose(
        f"no needle pose of radius {shape.radius * 1e3:g} mm at depths "
        f"[{depth_range[0]:g}, {depth_range[1]:g}] m was in view of both cameras "
        f"in {_MAX_TRIES} draws")


def observe(
    T: RigidPose, shape: NeedleShape, rig: StereoRig, line_width: float, occlusion=None
) -> tuple[tuple[BinaryMask, BinaryMask], KeypointHints]:
    """Synthetic perception of a needle pose: both views' masks plus the
    exact endpoint pixels of the left view as estimator hints."""
    masks = tuple(rasterize(T, shape, cam, line_width, occlusion) for cam in rig.cameras)
    _, (start, end) = project_endpoints(T, shape, rig.left)
    return masks, KeypointHints(left_start=start, left_end=end)


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
    except NoConvergence as e:  # a rejected pose is still scored
        pose, J, steps = e.result
        converged = False
    except EstimatorError:  # no pose: NaN errors and J, no steps
        return PoseBenchRow(scene_id, math.nan, math.nan, math.nan, 0,
                            occlusion_frac, cfg.rng_seed, False)
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
    """Per-occlusion-level mean/std of the errors over the scenes with a pose
    (None if none has one), and the converged fraction over every scene."""
    out = {}
    for occ in sorted({r.occlusion_frac for r in rows}):
        sel = [r for r in rows if r.occlusion_frac == occ]
        posed = [r for r in sel if not math.isnan(r.pos_err_m)]
        pos = np.array([r.pos_err_m for r in posed])
        ang = np.array([r.ang_err_rad for r in posed])
        out[f"{occ:.2f}"] = {
            "scenes": len(sel),
            "pos_err_mm_mean": float(pos.mean() * 1e3) if posed else None,
            "pos_err_mm_std": float(pos.std() * 1e3) if posed else None,
            "ang_err_deg_mean": float(np.degrees(ang.mean())) if posed else None,
            "ang_err_deg_std": float(np.degrees(ang.std())) if posed else None,
            "converged_fraction": float(np.mean([r.converged for r in sel])),
        }
    return out


# --- end-to-end suture run --------------------------------------------------

_TICKS_PER_TARGET = 8  # at 4, criterion 10's worst target tick is 0.484 mm off; 0.141 at 8
_SERVO_HOLD_STEPS = 300  # after the reference ends, at servo_to's default tolerance
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
    max_path_dev_m: float
    exit_miss_m: float
    waypoints_executed: int
    servo_converged: bool


def _injected_bias(deg: float) -> np.ndarray:
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    dq = np.radians(deg) * signs
    dq[2] = signs[2] * deg * 1e-4  # prismatic bias in meters: 0.1 mm per degree
    return dq


@dataclass(frozen=True)
class SutureScene:
    """One suture-run scene: the ports on the tissue, the needle the cameras
    see, the plant's hidden joint bias and the measured joint values the
    instrument starts at."""

    ports: SuturePorts
    needle: RigidPose
    delta_q: np.ndarray
    q_start: np.ndarray


def suture_scene(cfg: SutureRunConfig) -> SutureScene:
    """Ports on a tilted tissue patch, the injected bias and a needle drawn
    by random_needle_pose from default_rng([rng_seed, 0]). Only the needle
    depends on the seed."""
    shape = cfg.shape
    # the suture-circle normal is aligned with the instrument shaft, the tool
    # z axis at yaw 0.1 and pitch 0.35 rad with the wrist at zero, so the
    # long needle sweep maps onto the roll joint, whose +-257.8 deg range
    # does not cover the sweep: at criterion 10's compensated 3 deg bias the
    # roll climbs from 38 deg at the entry port to 254.3 deg, turns 355.6 deg
    # back to -101.3 deg between targets 56 and 57 of the executed path,
    # needle in tissue, and ends at -38 deg (ROADMAP.md, item 11)
    shaft_dir = fk(KinematicModel(), np.array([0.1, 0.35, 0.0, 0.0, 0.0, 0.0])).rotation[:, 2]
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
    delta_q = _injected_bias(cfg.injected_bias_deg)
    needle = random_needle_pose(np.random.default_rng([cfg.rng_seed, 0]), default_rig(), shape)
    return SutureScene(ports, needle, delta_q, np.array([0.1, 0.05, 0.1, 0.2, 0.4, 0.1]))


def perceive(needle: RigidPose, shape: NeedleShape, line_width: float) -> RigidPose:
    """The pose estimate from the default rig's two masks of the needle."""
    rig = default_rig()
    masks, hints = observe(needle, shape, rig, line_width)
    return estimate(masks, hints, shape, rig)[0]


def calibrate(delta_q: np.ndarray) -> np.ndarray:
    """The joint offset estimate from one noiseless image of the jaw marker,
    taken by the monocular calibration camera at DEFAULT_QMSR_REGION.center."""
    model = KinematicModel()
    mono = default_mono_camera()
    fm = FeatureModel()
    q_msr = DEFAULT_QMSR_REGION.center
    px = detect_features(mono, fk(model, q_msr + delta_q), fm)
    return calibrate_direct(model, mono, fm, q_msr, px, _CALIB_BOUND)


def plan(scene: SutureScene, shape: NeedleShape) -> tuple[RigidPose, np.ndarray, int]:
    """The grasp offset (the tool pose in the needle frame), the (n, 6) joint
    targets that move the tool, holding the needle at that grasp, through
    plan_suture_pass's approach, insertion and extraction from the tool pose
    at q_start, and the approach's target count.

    The grasp is composed once with the stacked needle poses of the pass,
    and one ik_arrays call solves the tool poses this gives. Each target is
    then the solution nearest (joint_distance) the target before it, the
    first nearest q_start; of equally near solutions, the lexicographically
    first. A row at a wrist singularity is solved again by ik with the roll
    of the target before it as the hint. Unreachable names the segment of
    the first waypoint, in path order, whose wrist point is at or behind the
    remote center of motion or that has no in-limit solution."""
    model = KinematicModel()
    # tool grasps the needle with a slight wrist pitch so the sweep stays
    # clear of the q5 = 0 singularity
    cp, sp = np.cos(0.15), np.sin(0.15)
    grasp_offset = RigidPose(
        np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]]),
        np.array([0.0, 0.0, 0.004]),
    )
    segments = plan_suture_pass(fk(model, scene.q_start), scene.ports, shape, grasp_offset)
    needles = [(seg.label, wp.pose) for seg in segments for wp in seg.waypoints]
    R, t = compose_stack(np.stack([p.rotation for _, p in needles]),
                         np.stack([p.translation for _, p in needles]), grasp_offset)
    joints, starts, reachable, hinted = ik_arrays(model, R, t)
    rows, starts = joints.tolist(), starts.tolist()
    q, path = scene.q_start.tolist(), []
    for i, (label, _) in enumerate(needles):
        if not reachable[i]:
            raise Unreachable(f"waypoint in segment {label} unreachable: "
                              "wrist point at or behind the remote center of motion")
        sols = ([s.tolist() for s in ik(model, RigidPose(R[i], t[i]), q4_hint=q[3])] if hinted[i]
                else rows[starts[i]:starts[i + 1]])
        if not sols:
            raise Unreachable(f"waypoint in segment {label} unreachable: "
                              "no solution within the joint limits")
        q = min(sols, key=lambda s: model.joint_distance(s, q))
        path.append(q)
    return grasp_offset, np.array(path), len(segments[0].waypoints)


def execute(scene: SutureScene, dq_hat: np.ndarray, path: np.ndarray) -> tuple[np.ndarray, bool]:
    """One servo_to run of the biased plant from the actual joints q_start +
    delta_q, dq_hat fed forward, along a reference linear in joint space from
    q_start through each target of path in _TICKS_PER_TARGET ticks. Returns
    every tick's actual joints (ticks, 6) and whether the run converged."""
    starts = np.vstack((scene.q_start, path[:-1]))[:, None]
    f = np.arange(1, _TICKS_PER_TARGET + 1)[:, None] / _TICKS_PER_TARGET
    ref = ((1.0 - f) * starts + f * path[:, None]).reshape(-1, 6)
    try:
        trace = servo_to(PlantModel(delta_q=scene.delta_q), PiGains(), dq_hat, ref,
                         q_act0=scene.q_start + scene.delta_q,
                         max_steps=len(ref) + _SERVO_HOLD_STEPS)
    except NotConverged as e:
        return e.trace.q_act, False
    return trace.q_act, True


def score(
    ports: SuturePorts, shape: NeedleShape, grasp_offset: RigidPose, q: np.ndarray
) -> tuple[np.ndarray, float]:
    """Scores the needle tips, fk(q) o grasp^-1, of (n, 6) joint rows in one
    pass: each tip's distance from the suture circle, and the last tip's
    distance from the exit port."""
    circle = suture_circle(ports, shape)
    R, t = compose_stack(*fk_arrays(KinematicModel(), q), grasp_offset.inverse())
    tips = needle_tip_body(shape) @ np.swapaxes(R, -1, -2) + t
    rel = tips - circle.center
    # vecdot gives the bits of per-row 1-D dots; a matrix-vector product does not
    in_x, in_y, off_plane = (np.vecdot(rel, axis) for axis in
                             (circle.in_plane_x, circle.in_plane_y, circle.normal))
    deviations = np.hypot(np.hypot(in_x, in_y) - circle.radius, off_plane)
    return deviations, float(np.linalg.norm(tips[-1] - ports.exit))


def run_suture(cfg: SutureRunConfig) -> SutureRunReport:
    """The whole pipeline on one synthetic scene, as a chain of stages that
    pass plain data: suture_scene, perceive (stereo masks and needle pose
    estimate), calibrate (the joint offset; zeros when not compensating),
    plan (the joint path; RigidPose.from_stack checked each pose it takes
    from plan_suture_pass once), execute (one servo run) and score, from the
    tick that reaches the first insertion target on: max_circle_dev_m is the
    worst at the ticks reaching an insertion or extraction target,
    max_path_dev_m the worst of all, exit_miss_m the last tick's."""
    scene = suture_scene(cfg)
    T_est = perceive(scene.needle, cfg.shape, cfg.line_width)
    dq_hat = calibrate(scene.delta_q) if cfg.compensate else np.zeros(6)
    grasp_offset, path, n_approach = plan(scene, cfg.shape)
    q_act, converged = execute(scene, dq_hat, path)
    reach = np.arange(n_approach + 1, len(path) + 1) * _TICKS_PER_TARGET - 1  # target ticks
    deviations, exit_miss = score(scene.ports, cfg.shape, grasp_offset, q_act[reach[0]:])
    return SutureRunReport(
        pose_est_pos_err_m=float(np.linalg.norm(T_est.translation - scene.needle.translation)),
        pose_est_ang_err_rad=rotation_geodesic(T_est.rotation, scene.needle.rotation),
        dq_hat_err_rad=float(np.max(np.abs(dq_hat - scene.delta_q))),
        max_circle_dev_m=float(np.max(deviations[reach - reach[0]])),
        max_path_dev_m=float(np.max(deviations)),
        exit_miss_m=exit_miss,
        waypoints_executed=len(path),
        servo_converged=converged,
    )
