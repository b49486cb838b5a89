"""Stereo needle pose estimation.

Minimizes the two-view reprojection offset error: for each foreground mask
pixel, the squared distance to the nearest reprojected needle axis point,
summed over the mask pixels of both views (one-directional, untruncated).
Optimization runs in the 6-DOF parameter space [theta1, theta2, kp_st,
kp_ed] by Levenberg-Marquardt on point-to-line residuals, multi-started over
the dihedral angle. Every objective value comes from one vectorized scene
evaluator (array math over batches of parameter vectors, no pose objects).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera, RigidPose, StereoRig
from .needle import BinaryMask, NeedleShape, needle_frames, params_to_pose

# mid-chord depths in meters that the left-only seeding grid spans; synthetic
# scenes (bench.random_needle_pose, pose-bench) default to the same range
SCENE_DEPTH_RANGE = (0.08, 0.2)

# forward-difference steps of the residual Jacobian: theta1, theta2 in
# radians, then the four keypoint coordinates in pixels
_JAC_STEPS = np.array([1e-6, 1e-6, 1e-4, 1e-4, 1e-4, 1e-4])


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
    max_steps: int = 100  # Levenberg-Marquardt iterations per seed
    axis_sample_count: int = 200
    mask_pixel_cap: int = 2000
    seed_count: int = 4
    empty_view_penalty: float = 1e4  # squared pixels per mask pixel
    reject_mean_sq_px: float = 25.0  # reject when J / n_pixels exceeds this

    def __post_init__(self):
        # axis_sample_count below 4 leaves the point-to-line Jacobian singular
        for name, low in (("max_steps", 1), ("axis_sample_count", 4),
                          ("mask_pixel_cap", 1), ("seed_count", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("empty_view_penalty", "reject_mean_sq_px"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def _subsample(fg: np.ndarray, cap: int) -> np.ndarray:
    if len(fg) <= cap:
        return fg
    stride = int(np.ceil(len(fg) / cap))
    return fg[::stride]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances (M, K) between point sets a (M, 2) and b (K, 2): one
    BLAS product, then |a|^2 + |b|^2 - 2 a.b in place (no large temporaries)."""
    d2 = a @ b.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", a, a)[:, None]
    d2 += np.einsum("ij,ij->i", b, b)[None, :]
    return d2


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
    best = _sq_dists(mask_px, px).reshape(M, B, N).min(axis=2)  # (M, B)
    return np.where(visible.any(axis=1), best.sum(axis=0), penalty * M)


class SceneEvaluator:
    """Vectorized objective over batches of raw parameter vectors.

    Precomputes per-scene constants (capped mask pixels, arc body samples)
    once; project() then runs pure array math, and per_view() adds one
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
        body = shape.arc_points_body(np.linspace(0.0, shape.arc_angle, config.axis_sample_count))
        self._body_xy = body[:, :2]  # arc is planar, z = 0 in the body frame

    def project(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arc samples of a (B, 6) batch in every view.

        Returns pixels (B, V, N, 2), NaN where a sample is not in front of
        the camera; visibility (B, V, N); and domain validity (B,).
        """
        centers, e1, u_ax, _, _, valid = needle_frames(vecs, self.shape, self.rig.left)
        xb, yb = self._body_xy[:, :1], self._body_xy[:, 1:]  # (N, 1) each
        pts = centers[:, None] + xb * e1[:, None] + yb * u_ax[:, None]  # (B, N, 3) world
        px, vis = zip(*(cam.project_many(pts) for cam in self.rig.cameras))
        return np.stack(px, axis=1), np.stack(vis, axis=1), valid

    def per_view(self, vecs: np.ndarray) -> np.ndarray:
        """Per-view objective values, shape (B, 2); inf outside the domain."""
        px, vis, valid = self.project(vecs)
        out = np.column_stack([
            _chamfer(mpx, px[:, k], vis[:, k], self.config.empty_view_penalty)
            for k, mpx in enumerate(self.mask_px)
        ])
        out[~valid] = np.inf
        return out

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Objective values for a (B, 6) batch (per_view summed); inf
        outside the domain."""
        return self.per_view(vecs).sum(axis=1)

    def residuals(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Point-to-line residuals at one parameter vector and their
        Jacobian, shapes (R,) and (R, 6).

        Per view, each mask pixel is paired with its nearest visible arc
        sample. Its residual is the offset from that sample projected on
        the sample's normal (tangent from np.gradient over the samples);
        a pixel paired with an arc end keeps both offset coordinates, as
        two rows after the one-row pixels. The Jacobian holds pairing and
        normals fixed and forward-differences the projected samples by
        _JAC_STEPS. Non-finite rows are dropped, so R may be 0.
        """
        px = self.project(np.vstack([vec, vec + np.diag(_JAC_STEPS)]))[0]
        dpx = (px[1:] - px[0]) / _JAC_STEPS[:, None, None, None]  # (6, V, N, 2)
        rows, jac = [np.empty(0)], [np.empty((0, 6))]
        for k, mpx in enumerate(self.mask_px):
            p = px[0, k]
            near = _sq_dists(mpx, np.nan_to_num(p, nan=1e9)).argmin(axis=1)  # far sentinel
            tan = np.gradient(p, axis=0)
            normal = np.stack([-tan[:, 1], tan[:, 0]], axis=1)
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            off = mpx - p[near]  # (M, 2)
            dp = dpx[:, k, near].transpose(1, 2, 0)  # (M, 2, 6)
            end = (near == 0) | (near == len(p) - 1)
            n = normal[near[~end]]
            rows += [np.einsum("mi,mi->m", off[~end], n), off[end].reshape(-1)]
            jac += [-np.einsum("mi,mij->mj", n, dp[~end]), -dp[end].reshape(-1, 6)]
        r, A = np.concatenate(rows), np.concatenate(jac)
        keep = np.isfinite(r) & np.isfinite(A).all(axis=1)
        return r[keep], A[keep]

    def report(self, vec: np.ndarray) -> ObjectiveReport:
        """Objective report for one parameter vector."""
        per_view = tuple(float(v) for v in self.per_view(vec)[0])
        return ObjectiveReport(
            value=sum(per_view),
            per_view_value=per_view,
            mask_pixels_used=tuple(len(mp) for mp in self.mask_px),
        )


def _descend(vec: np.ndarray, ev: SceneEvaluator, max_steps: int):
    """One Levenberg-Marquardt descent from a seed; returns (vec, J, steps).

    Damping is Marquardt-scaled by diag(A^T A). A step is kept only if the
    chamfer objective J drops (out-of-domain steps evaluate to inf); a
    rejected step grows the damping x4, up to 10 tries, an accepted one
    shrinks it /3. Stops when no damped step lowers J, when the relative
    drop is <= 1e-10, when no residual row is left, or after max_steps
    iterations.
    """
    J = float(ev.evaluate(vec)[0])
    lam = 1e-3
    steps = 0
    while steps < max_steps:
        r, A = ev.residuals(vec)
        if len(r) == 0:
            break
        steps += 1
        H = A.T @ A
        g = A.T @ r
        for _ in range(10):
            trial = vec + np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            J_trial = float(ev.evaluate(trial)[0])
            if J_trial < J:
                break
            lam *= 4.0
        else:
            break
        lam /= 3.0
        vec, J, J_prev = trial, J_trial, J
        if J_prev - J <= 1e-10 * J_prev:
            break
    return vec, J, steps


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
    return float(rig.left.world_to_camera(np.mean(pts, axis=0))[2])


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
    depth = anchor.world_to_camera(needle_frames(grid, shape, anchor).mid)[:, 2]
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
    depth is the one triangulated from the stereo hints (a 4-point grid over
    SCENE_DEPTH_RANGE when there are no right hints or the triangulated depth
    is not finite and positive), theta2 uniformly over [0, 2*pi).
    The seed_count best-scoring seeds each run one Levenberg-Marquardt
    descent to convergence, and the lowest objective wins. Returns (pose,
    report, steps), steps counting the descent iterations of all seeds.
    Deterministic for fixed inputs (no rng).
    """
    ev = SceneEvaluator(masks, shape, rig, config)
    kp_st = np.asarray(hints.left_start, dtype=float)
    kp_ed = np.asarray(hints.left_end, dtype=float)

    # seed theta1 at the triangulated mid-chord depth, unclipped (raw grid J
    # is a poor basin predictor because J is extremely steep in theta1); a
    # depth <= 0, e.g. from swapped left/right hints, falls back to the grid
    d = np.nan
    if hints.right_start is not None and hints.right_end is not None:
        d = _triangulated_depth(
            rig,
            (kp_st, kp_ed),
            (np.asarray(hints.right_start, float), np.asarray(hints.right_end, float)),
        )
    depths = [d] if 0.0 < d < np.inf else list(np.linspace(*SCENE_DEPTH_RANGE, 4))
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

    runs = [_descend(cands[i], ev, config.max_steps) for i in order]
    vec = min(runs, key=lambda run: run[1])[0]
    total_steps = sum(run[2] for run in runs)
    pose = params_to_pose(vec, shape, rig.left)
    report = ev.report(vec)
    n_px = max(1, sum(report.mask_pixels_used))
    if report.value / n_px > config.reject_mean_sq_px:
        raise NoConvergence(
            f"mean squared pixel error {report.value / n_px:.2f} exceeds "
            f"{config.reject_mean_sq_px}",
            result=(pose, report, total_steps),
        )
    return pose, report, total_steps
