"""Stereo needle pose estimation.

Minimizes the two-view reprojection offset error: for each foreground mask
pixel, the squared distance to the nearest reprojected needle axis point,
summed over the mask pixels of both views (one-directional, untruncated).
Optimization runs in the 6-DOF parameter space [theta1, theta2, kp_st,
kp_ed] by Levenberg-Marquardt on point-to-line residuals, multi-started over
the dihedral angle. The seeds' descents run in lockstep, batching their
residual and objective calls, and each seed's result equals, bit for bit,
a descent from that seed alone. Every objective value comes from one
vectorized scene evaluator (array math over batches of parameter vectors,
no pose objects), and a row's value never depends on the rows batched with
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PinholeCamera, RigidPose, StereoRig
from .needle import BinaryMask, NeedleShape, needle_frames, params_to_pose

# mid-chord depths in meters that the left-only seeding grid spans; synthetic
# scenes (bench.random_needle_pose, pose-bench) default to the same range
SCENE_DEPTH_RANGE = (0.08, 0.2)

# mask pixels scored per view; a larger mask is strided down to at most this
_MASK_PIXEL_CAP = 2000
# squared pixels charged per mask pixel of a view that no arc sample reaches
_EMPTY_VIEW_PENALTY = 1e4

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
    seed_count: int = 4
    reject_mean_sq_px: float = 25.0  # reject when J / n_pixels exceeds this

    def __post_init__(self):
        # axis_sample_count below 4 leaves the point-to-line Jacobian singular
        for name, low in (("max_steps", 1), ("axis_sample_count", 4), ("seed_count", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.reject_mean_sq_px > 0:
            raise ValueError(f"reject_mean_sq_px must be > 0, got {self.reject_mean_sq_px}")


def _subsample(fg: np.ndarray) -> np.ndarray:
    if len(fg) <= _MASK_PIXEL_CAP:
        return fg
    stride = int(np.ceil(len(fg) / _MASK_PIXEL_CAP))
    return fg[::stride]


def _mask_rows(mask_px: np.ndarray) -> np.ndarray:
    """Left operand of the distance product, built once per scene: rows
    [-2u, -2v, u^2 + v^2, 1] (M, 4) of the mask pixels (M, 2)."""
    sq = np.einsum("ij,ij->i", mask_px, mask_px)
    return np.column_stack([-2.0 * mask_px, sq, np.ones(len(mask_px))])


def _sq_dists(mask_rows: np.ndarray, points: np.ndarray):
    """Squared distances from the mask pixels (as _mask_rows) to each point
    set of a (B, N, 2) batch: yields one (M, N) array per set, in order.

    Each is one BLAS product with the columns [x, y, 1, x^2 + y^2], i.e.
    -2 m.p + |m|^2 + |p|^2 summed in that order; it depends on that set
    alone. Scaling by -2 is exact, so this rounds like -2 (m.p) followed
    by the two in-place additions, on a BLAS that sums the inner dimension
    in index order (checked bitwise with OpenBLAS 0.3.31).
    """
    cols = np.empty(points.shape[:-1] + (4,))
    cols[..., :2] = points
    cols[..., 2] = 1.0
    cols[..., 3] = np.einsum("...ij,...ij->...i", points, points)
    for c in np.swapaxes(cols, -1, -2):
        yield mask_rows @ c


def _chamfer(mask_rows: np.ndarray, points_px: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Per batch row: sum over mask pixels of the squared distance to the
    nearest visible point.

    mask_rows from _mask_rows (M pixels); points_px (B, N, 2), one point
    set per row, ignored where visible (B, N) is False. A row with no
    visible point pays _EMPTY_VIEW_PENALTY per mask pixel. Each row is
    summed on its own, as a one-row call sums it. Returns (B,).
    """
    M = len(mask_rows)
    if M == 0:
        return np.zeros(len(visible))
    px = np.where(visible[..., None], points_px, 1e9)  # far sentinel
    best = np.stack([d2.min(axis=1) for d2 in _sq_dists(mask_rows, px)])  # (B, M)
    return np.where(visible.any(axis=1), best.sum(axis=1), _EMPTY_VIEW_PENALTY * M)


class SceneEvaluator:
    """Vectorized objective over batches of raw parameter vectors.

    Precomputes per-scene constants (capped mask pixels and their distance
    terms, arc body samples) once; project() then runs pure array math, and
    per_view() adds one distance product per view and row.
    """

    def __init__(self, masks, shape: NeedleShape, rig: StereoRig, config: EstimatorConfig):
        if all(len(m) == 0 for m in masks):
            raise EmptyMasks("both views have empty masks")
        self.shape = shape
        self.rig = rig
        self.config = config
        self.mask_px = [_subsample(m.foreground).astype(float) for m in masks]
        self._mask_rows = [_mask_rows(m) for m in self.mask_px]
        body = shape.arc_points_body(np.linspace(0.0, shape.arc_angle, config.axis_sample_count))
        self._body_xy = body[:, :2]  # arc is planar, z = 0 in the body frame

    def project(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arc samples of a (..., 6) batch in every view.

        Returns pixels (..., V, N, 2), NaN where a sample is not in front of
        the camera; visibility (..., V, N); and domain validity (...).
        """
        centers, e1, u_ax, _, _, valid = needle_frames(vecs, self.shape, self.rig.left)
        xb, yb = self._body_xy[:, :1], self._body_xy[:, 1:]  # (N, 1) each
        pts = centers[..., None, :] + xb * e1[..., None, :] + yb * u_ax[..., None, :]
        px, vis = zip(*(cam.project_many(pts) for cam in self.rig.cameras))
        return np.stack(px, axis=-3), np.stack(vis, axis=-2), valid

    def per_view(self, vecs: np.ndarray) -> np.ndarray:
        """Per-view objective values, shape (B, 2); inf outside the domain.

        Each row is projected and scored as a batch of its own, so its value
        is bitwise the one a one-row call gives, whatever the batch.
        """
        px, vis, valid = self.project(np.atleast_2d(vecs)[:, None])
        out = np.column_stack([
            _chamfer(rows, px[:, 0, k], vis[:, 0, k])
            for k, rows in enumerate(self._mask_rows)
        ])
        out[~valid[:, 0]] = np.inf
        return out

    def evaluate(self, vecs: np.ndarray) -> np.ndarray:
        """Objective values for a (B, 6) batch (per_view summed); inf
        outside the domain."""
        return self.per_view(vecs).sum(axis=1)

    def residuals(self, vecs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Point-to-line residuals at each row of an (S, 6) batch and their
        Jacobians: one (r (R,), A (R, 6)) pair per row.

        Per view, each mask pixel is paired with its nearest visible arc
        sample. Its residual is the offset from that sample projected on
        the sample's normal (tangent from np.gradient over the samples);
        a pixel paired with an arc end keeps both offset coordinates, as
        two rows after the one-row pixels. The Jacobian holds pairing and
        normals fixed and forward-differences the projected samples by
        _JAC_STEPS. Non-finite rows are dropped, so R may be 0. The rows
        share one projection of S x 7 vectors and the array work after the
        pairing; each row's pair is bitwise the one a one-row call returns.
        """
        vecs = np.atleast_2d(vecs)[:, None]
        px = self.project(np.concatenate([vecs, vecs + np.diag(_JAC_STEPS)], axis=1))[0]
        dpx = (px[:, 1:] - px[:, :1]) / _JAC_STEPS[:, None, None, None]  # (S, 6, V, N, 2)
        parts = []  # per view: one-row residuals, offsets, Jacobians, end flags
        for k, (mpx, mrows) in enumerate(zip(self.mask_px, self._mask_rows)):
            p = px[:, 0, k]  # (S, N, 2)
            near = np.stack([  # (S, M); far sentinel for samples behind the camera
                d2.argmin(axis=1) for d2 in _sq_dists(mrows, np.nan_to_num(p, nan=1e9))
            ])
            tan = np.gradient(p, axis=1)
            normal = np.stack([-tan[..., 1], tan[..., 0]], axis=-1)
            normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
            off = mpx - np.take_along_axis(p, near[..., None], axis=1)  # (S, M, 2)
            n = np.take_along_axis(normal, near[..., None], axis=1)
            dp = np.take_along_axis(dpx[:, :, k], near[:, None, :, None], axis=2)
            dp = dp.transpose(0, 2, 3, 1)  # (S, M, 2, 6)
            end = (near == 0) | (near == p.shape[1] - 1)
            parts.append((np.einsum("smi,smi->sm", off, n),
                          -np.einsum("smi,smij->smj", n, dp), off, -dp, end))
        out = []
        for s in range(len(vecs)):
            rows, jac = [], []
            for r1, j1, off, j2, end in parts:
                e = end[s]
                rows += [r1[s][~e], off[s][e].reshape(-1)]
                jac += [j1[s][~e], j2[s][e].reshape(-1, 6)]
            r, A = np.concatenate(rows), np.concatenate(jac)
            keep = np.isfinite(r) & np.isfinite(A).all(axis=1)
            out.append((r[keep], A[keep]))
        return out

    def report(self, vec: np.ndarray) -> ObjectiveReport:
        """Objective report for one parameter vector."""
        per_view = tuple(float(v) for v in self.per_view(vec)[0])
        return ObjectiveReport(
            value=sum(per_view),
            per_view_value=per_view,
            mask_pixels_used=tuple(len(mp) for mp in self.mask_px),
        )


def _descend(vecs: np.ndarray, ev: SceneEvaluator, max_steps: int):
    """Levenberg-Marquardt descents from an (S, 6) batch of seeds, run in
    lockstep; returns (vecs (S, 6), J (S,), steps (S,)).

    Per seed: damping is Marquardt-scaled by diag(A^T A). A step is kept
    only if the chamfer objective J drops (out-of-domain steps evaluate to
    inf); a rejected step grows the damping x4, up to 10 tries, an accepted
    one shrinks it /3. A seed stops when no damped step lowers J, when the
    relative drop is <= 1e-10, when no residual row is left, or after
    max_steps iterations. Each round makes one residuals call for the seeds
    that start an iteration and one evaluate call for every seed's pending
    trial step. Every seed's (vec, J, steps) is bitwise the one a descent
    from that seed alone returns.
    """
    vecs = np.array(vecs, dtype=float, ndmin=2)
    S = len(vecs)
    J = ev.evaluate(vecs)
    lam = np.full(S, 1e-3)
    steps = np.zeros(S, dtype=int)
    tries = np.zeros(S, dtype=int)  # rejected trials of the current iteration
    H, g = np.zeros((S, 6, 6)), np.zeros((S, 6))
    live = np.ones(S, dtype=bool)  # still descending
    fresh = live.copy()  # starts an iteration: needs residuals at its vec
    diag = np.arange(6)
    while True:
        idx = np.flatnonzero(fresh)
        for i, (r, A) in zip(idx, ev.residuals(vecs[idx]) if len(idx) else []):
            if len(r) == 0:
                live[i] = False
                continue
            steps[i] += 1
            tries[i] = 0
            H[i], g[i] = A.T @ A, A.T @ r
        fresh[:] = False
        idx = np.flatnonzero(live)
        if len(idx) == 0:
            break
        damping = np.zeros((len(idx), 6, 6))
        damping[:, diag, diag] = lam[idx, None] * H[idx][:, diag, diag]
        trials = vecs[idx] + np.linalg.solve(H[idx] + damping, -g[idx][..., None])[..., 0]
        J_trial = ev.evaluate(trials)
        better = J_trial < J[idx]
        rejected = idx[~better]
        lam[rejected] *= 4.0
        tries[rejected] += 1
        live[rejected[tries[rejected] == 10]] = False
        kept = idx[better]
        lam[kept] /= 3.0
        J_prev = J[kept]
        vecs[kept], J[kept] = trials[better], J_trial[better]
        done = (J_prev - J[kept] <= 1e-10 * J_prev) | (steps[kept] >= max_steps)
        live[kept[done]] = False
        fresh[kept[~done]] = True
    return vecs, J, steps


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
    descent to convergence, in lockstep, and the lowest objective wins. Returns (pose,
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
    order = np.argsort(ev.evaluate(cands))[: config.seed_count]

    vecs, J, steps = _descend(cands[order], ev, config.max_steps)
    vec = vecs[np.argmin(J)]
    total_steps = int(steps.sum())
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
