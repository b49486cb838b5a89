"""Stereo needle pose estimation.

Minimizes the two-view reprojection offset error: for each foreground mask
pixel, the squared distance to the nearest reprojected needle axis point,
summed over the mask pixels of both views (one-directional, untruncated).
Optimization runs in the 6-DOF parameter space [theta1, theta2, kp_st,
kp_ed] with central finite-difference gradients and Adam-style updates,
multi-started over the dihedral angle.

Every objective value comes from one vectorized scene evaluator (raw array
math over batches of parameter vectors, no pose objects), so the thousands
of finite-difference probes per run stay cheap; the public objective() is a
one-row call into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera, RigidPose, StereoRig
from .needle import (
    BinaryMask,
    NeedleParams,
    NeedleShape,
    needle_frames,
    params_to_pose,
)


class EstimatorError(Exception):
    pass


class EmptyMasks(EstimatorError):
    """Both views have empty foreground."""


class NoConvergence(EstimatorError):
    """Best objective across seeds exceeded the reject threshold.

    Carries the offending (pose, report, steps) so callers can still
    inspect it.
    """

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


@dataclass(frozen=True)
class ObjectiveReport:
    value: float
    per_view_value: tuple[float, float]
    mask_pixels_used: tuple[int, int]


@dataclass(frozen=True)
class EstimatorConfig:
    max_steps: int = 800
    explore_steps: int = 120  # short budget per seed before the best is refined
    axis_sample_count: int = 200
    mask_pixel_cap: int = 2000
    fd_step_px: float = 0.5
    fd_step_angle: float = 1e-3
    lr_angle: float = 0.02
    lr_px: float = 0.5
    lr_final_fraction: float = 0.01
    seed_count: int = 4
    convergence_tol: float = 1e-2  # squared pixels over the plateau window
    convergence_rel_tol: float = 2e-3  # ... or this fraction of the current best
    plateau_window: int = 50
    empty_view_penalty: float = 1e4  # squared pixels per mask pixel
    reject_mean_sq_px: float = 25.0  # reject when J / n_pixels exceeds this
    depth_range: tuple[float, float] = (0.08, 0.2)  # mid-chord seeding, meters

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        for s in (self.fd_step_px, self.fd_step_angle, self.lr_angle, self.lr_px):
            if s <= 0:
                raise ValueError("step sizes must be positive")


def _subsample(fg: np.ndarray, cap: int) -> np.ndarray:
    if len(fg) <= cap:
        return fg
    stride = int(np.ceil(len(fg) / cap))
    return fg[::stride]


def _chamfer(
    mask_px: np.ndarray, points_px: np.ndarray, visible: np.ndarray, penalty: float
) -> np.ndarray:
    """Per batch row: sum over mask pixels of the squared distance to the
    nearest visible point.

    mask_px (M, 2); points_px (B, N, 2), one point set per row, ignored
    where visible (B, N) is False. A row with no visible point pays
    penalty per mask pixel. Returns (B,).
    """
    B, N = visible.shape
    M = len(mask_px)
    if M == 0:
        return np.zeros(B)
    px = np.where(visible[..., None], points_px, 1e9).reshape(-1, 2)  # far sentinel
    # squared distances mask x points: one BLAS product, then in-place
    # assembly of |m|^2 + |p|^2 - 2 m.p to avoid large temporaries
    d2 = mask_px @ px.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", mask_px, mask_px)[:, None]
    d2 += np.einsum("ij,ij->i", px, px)[None, :]
    best = d2.reshape(M, B, N).min(axis=2)  # (M, B)
    return np.where(visible.any(axis=1), best.sum(axis=0), penalty * M)


class SceneEvaluator:
    """Vectorized objective over batches of raw parameter vectors.

    Precomputes per-scene constants (capped mask pixels, camera extrinsics,
    arc body samples) once; per_view() then runs pure array math plus one
    distance product per view.
    """

    def __init__(self, masks, shape: NeedleShape, rig: StereoRig, config: EstimatorConfig):
        if all(len(m) == 0 for m in masks):
            raise EmptyMasks("both views have empty masks")
        self.shape = shape
        self.rig = rig
        self.config = config
        self.mask_px = [
            _subsample(m.foreground, config.mask_pixel_cap).astype(float) for m in masks
        ]
        self._views = []
        for cam in rig.cameras:
            inv = cam.pose_world_from_camera.inverse()
            self._views.append((inv.rotation, inv.translation, cam.fx, cam.fy, cam.cx, cam.cy))
        body = shape.arc_points_body(np.linspace(0.0, shape.arc_angle, config.axis_sample_count))
        self._body_xy = body[:, :2]  # arc is planar, z = 0 in the body frame

    def per_view(self, vecs: np.ndarray) -> np.ndarray:
        """Per-view objective values, shape (B, 2); inf outside the domain."""
        centers, e1, u_ax, _, _, valid = needle_frames(vecs, self.shape, self.rig.left)
        B = len(valid)
        N = len(self._body_xy)
        xb, yb = self._body_xy[:, 0], self._body_xy[:, 1]
        # world arc points, (B, N, 3)
        pts = (
            centers[:, None, :]
            + xb[None, :, None] * e1[:, None, :]
            + yb[None, :, None] * u_ax[:, None, :]
        ).reshape(-1, 3)
        out = np.empty((B, len(self._views)))
        for k, ((Rc, tc, fx, fy, cx, cy), mpx) in enumerate(zip(self._views, self.mask_px)):
            pc = pts @ Rc.T + tc
            z = pc[:, 2]
            good = z > 1e-12
            px = np.empty((B * N, 2))
            px[good, 0] = cx + fx * pc[good, 0] / z[good]
            px[good, 1] = cy + fy * pc[good, 1] / z[good]
            out[:, k] = _chamfer(
                mpx, px.reshape(B, N, 2), good.reshape(B, N),
                self.config.empty_view_penalty,
            )
        out[~valid] = np.inf
        return out

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Objective values for a (B, 6) batch (per_view summed); inf
        outside the domain."""
        return self.per_view(vecs).sum(axis=1)

    def report(self, vec: np.ndarray) -> ObjectiveReport:
        """Objective report for one parameter vector."""
        per_view = tuple(float(v) for v in self.per_view(vec)[0])
        return ObjectiveReport(
            value=sum(per_view),
            per_view_value=per_view,
            mask_pixels_used=tuple(len(mp) for mp in self.mask_px),
        )


def objective(
    x: NeedleParams,
    masks: tuple[BinaryMask, BinaryMask],
    shape: NeedleShape,
    rig: StereoRig,
    config: EstimatorConfig = EstimatorConfig(),
) -> ObjectiveReport:
    """Two-view chamfer objective at parameter vector x.

    Raises EmptyMasks, or DegenerateRays / ThetaOutOfRange outside the
    parameter domain.
    """
    ev = SceneEvaluator(masks, shape, rig, config)
    params_to_pose(x, shape, rig.left)  # raises where per_view would give inf
    return ev.report(x.as_vector())


def _fd_steps(config) -> np.ndarray:
    return np.array(
        [config.fd_step_angle, config.fd_step_angle] + [config.fd_step_px] * 4
    )


def _fd_batch(vec: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Stack [vec, vec +- step_i e_i] for one batched gradient evaluation."""
    B = np.tile(vec, (13, 1))
    for i in range(6):
        B[1 + 2 * i, i] += steps[i]
        B[2 + 2 * i, i] -= steps[i]
    return B


def _gradient_from_batch(f: np.ndarray, steps: np.ndarray) -> np.ndarray:
    g = np.zeros(6)
    for i in range(6):
        fp, fm = f[1 + 2 * i], f[2 + 2 * i]
        if np.isfinite(fp) and np.isfinite(fm):
            g[i] = (fp - fm) / (2.0 * steps[i])
        elif np.isfinite(fp):
            g[i] = (fp - f[0]) / steps[i]
        elif np.isfinite(fm):
            g[i] = (f[0] - fm) / steps[i]
    return g


def gradient(
    x: NeedleParams,
    masks,
    shape: NeedleShape,
    rig: StereoRig,
    config: EstimatorConfig = EstimatorConfig(),
) -> np.ndarray:
    """Central finite-difference gradient of the objective in x-space."""
    ev = SceneEvaluator(masks, shape, rig, config)
    steps = _fd_steps(config)
    f = ev.evaluate(_fd_batch(x.as_vector(), steps))
    return _gradient_from_batch(f, steps)


def _run_seed(vec0, ev: SceneEvaluator, config: EstimatorConfig, max_steps: int):
    """One Adam descent from a seed; returns (best_vec, best_J, steps)."""
    lr_base = np.array([config.lr_angle, config.lr_angle] + [config.lr_px] * 4)
    decay = config.lr_final_fraction ** (1.0 / max_steps)
    steps_fd = _fd_steps(config)
    vec = vec0.copy()
    m = np.zeros(6)
    v = np.zeros(6)
    best_vec = vec.copy()
    best_J = float(ev.evaluate(vec)[0])
    window_best = best_J
    alpha_max = np.pi  # theta1 clamp refined per-evaluation by the domain check
    steps = 0
    for k in range(max_steps):
        f = ev.evaluate(_fd_batch(vec, steps_fd))
        g = _gradient_from_batch(f, steps_fd)
        t = k + 1
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        vec = vec - (lr_base * decay ** k) * mhat / (np.sqrt(vhat) + 1e-8)
        vec[0] = np.clip(vec[0], 1e-4, alpha_max)
        vec[1] = vec[1] % (2.0 * np.pi)
        J = float(ev.evaluate(vec)[0])
        if not np.isfinite(J):
            # stepped outside the theta1 domain; pull back toward the best
            vec = 0.5 * (vec + best_vec)
            J = float(ev.evaluate(vec)[0])
        steps = t
        if J < best_J:
            best_J = J
            best_vec = vec.copy()
        if t % config.plateau_window == 0:
            tol = max(config.convergence_tol, config.convergence_rel_tol * abs(best_J))
            if window_best - best_J < tol:
                break
            window_best = best_J
    return best_vec, best_J, steps


@dataclass(frozen=True)
class KeypointHints:
    """Start/end needle endpoint pixels per view (left used for seeding)."""

    left_start: np.ndarray
    left_end: np.ndarray
    right_start: np.ndarray | None = None
    right_end: np.ndarray | None = None


def _triangulated_depth(rig: StereoRig, left_px, right_px) -> float:
    """Mid-chord depth (anchor frame) from stereo keypoint pairs.

    Midpoint triangulation of each endpoint: closest point between the two
    back-projected rays.
    """
    pts = []
    for lp, rp in zip(left_px, right_px):
        o1, d1 = rig.left.center, rig.left.backproject_ray(lp)
        o2, d2 = rig.right.center, rig.right.backproject_ray(rp)
        # least-squares along-ray parameters for the common perpendicular
        b = d1 @ d2
        w = o1 - o2
        denom = 1.0 - b * b
        if denom < 1e-12:
            return np.nan
        t1 = (b * (d2 @ w) - (d1 @ w)) / denom
        t2 = ((d2 @ w) - b * (d1 @ w)) / denom
        pts.append(0.5 * (o1 + t1 * d1 + o2 + t2 * d2))
    mid = np.mean(pts, axis=0)
    fwd = rig.left.pose_world_from_camera.rotation[:, 2]
    return float((mid - rig.left.center) @ fwd)


def _theta1_candidates(
    shape: NeedleShape, anchor: PinholeCamera, kp_st, kp_ed, target_depth: float
) -> list[float]:
    """theta1 values whose mid-chord depth is closest to target.

    Depth is a single-humped function of theta1, so a target depth below
    the peak is hit on two branches; both are returned (grid search on
    each side of the peak).
    """
    kps = np.concatenate([kp_st, kp_ed])
    alpha = float(needle_frames(np.concatenate([[0.0, 0.0], kps]), shape, anchor).alpha[0])
    t1 = np.linspace(1e-3, np.pi - alpha - 1e-3, 512)
    grid = np.column_stack([t1, np.zeros_like(t1), np.tile(kps, (len(t1), 1))])
    mid = needle_frames(grid, shape, anchor).mid
    depth = (mid - anchor.center) @ anchor.pose_world_from_camera.rotation[:, 2]
    peak = int(np.argmax(depth))
    out = []
    for sl in (slice(0, peak + 1), slice(peak, None)):
        err = np.abs(depth[sl] - target_depth)
        out.append(float(t1[sl][np.argmin(err)]))
    if abs(out[0] - out[1]) < 1e-6:
        out = out[:1]
    return out


def estimate(
    masks: tuple[BinaryMask, BinaryMask],
    hints: KeypointHints,
    shape: NeedleShape,
    rig: StereoRig,
    config: EstimatorConfig = EstimatorConfig(),
) -> tuple[RigidPose, ObjectiveReport, int]:
    """Multi-start estimation of the needle pose from stereo masks.

    Keypoints are seeded at the anchor-view hints, theta1 so the mid-chord
    depth spans the configured scene range, theta2 uniformly over [0, 2*pi).
    Each seed gets a short exploration budget; only the winner is refined
    to max_steps, since losing basins otherwise burn the whole budget on
    sub-pixel improvements. Deterministic for fixed inputs (no rng).
    """
    ev = SceneEvaluator(masks, shape, rig, config)
    kp_st = np.asarray(hints.left_start, dtype=float)
    kp_ed = np.asarray(hints.left_end, dtype=float)

    # seed theta1 so mid-chord depth spans the scene range; with stereo
    # hints the triangulated depth replaces the span (raw grid J is a poor
    # basin predictor because J is extremely steep in theta1)
    lo, hi = config.depth_range
    if hints.right_start is not None and hints.right_end is not None:
        d = _triangulated_depth(
            rig,
            (kp_st, kp_ed),
            (np.asarray(hints.right_start, float), np.asarray(hints.right_end, float)),
        )
        depths = [float(np.clip(d, lo, hi))] if np.isfinite(d) else list(
            np.linspace(lo, hi, 4)
        )
    else:
        depths = list(np.linspace(lo, hi, 4))
    theta2s = np.arange(16) * 2.0 * np.pi / 16
    cands = np.array(
        [
            [t1, th2, *kp_st, *kp_ed]
            for d in depths
            for t1 in _theta1_candidates(shape, rig.left, kp_st, kp_ed, d)
            for th2 in theta2s
        ]
    )
    scores = np.concatenate(
        [ev.evaluate(cands[i : i + 32]) for i in range(0, len(cands), 32)]
    )
    order = np.argsort(scores)[: config.seed_count]

    best = None
    total_steps = 0
    for i in order:
        vec, J, steps = _run_seed(cands[i], ev, config, config.explore_steps)
        total_steps += steps
        if best is None or J < best[1]:
            best = (vec, J)

    vec, J, steps = _run_seed(best[0], ev, config, config.max_steps)
    total_steps += steps
    pose = params_to_pose(NeedleParams.from_vector(vec), shape, rig.left)
    report = ev.report(vec)
    n_px = max(1, sum(report.mask_pixels_used))
    if report.value / n_px > config.reject_mean_sq_px:
        raise NoConvergence(
            f"mean squared pixel error {report.value / n_px:.2f} exceeds "
            f"{config.reject_mean_sq_px}",
            result=(pose, report, total_steps),
        )
    return pose, report, total_steps
