"""Stereo needle pose estimation.

Minimizes the two-view reprojection offset error: for each foreground mask
pixel, the squared distance to the nearest reprojected needle axis point,
summed over the mask pixels of both views (one-directional, untruncated).
The seed is algebraic: the masks' rectified rows are triangulated, a plane
is fitted to the points, and the left keypoint hints' rays meet it at the
chord. One Levenberg-Marquardt descent (lm.solve) on point-to-line
residuals then refines the 6-DOF parameter vector [theta1, theta2, kp_st,
kp_ed]; it stops once a damped step would move no residual by 0.01 px
(_MIN_STEP_PX), after 10 rejected tries, on a singular damped system, with
no residual row left, or after _MAX_ITERATIONS iterations. One scene
evaluator gives the objective value and the residuals of every vector from
one projection and one nearest-sample pairing (array math on vectors, no
pose objects).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lm, needle
from .geometry import GeometryError, RigidPose, StereoRig
from .needle import BinaryMask, NeedleShape, needle_frames, params_to_pose, pose_to_params

# mask pixels scored per view; a larger mask is strided down to at most this
_MASK_PIXEL_CAP = 2000
# arc samples projected per view; below 4 the point-to-line Jacobian is
# singular
_AXIS_SAMPLE_COUNT = 200
# squared pixels charged per mask pixel of a view that no arc sample reaches
_EMPTY_VIEW_PENALTY = 1e4

# forward-difference steps of the residual Jacobian: theta1, theta2 in
# radians, then the four keypoint coordinates in pixels
_JAC_STEPS = np.array([1e-6, 1e-6, 1e-4, 1e-4, 1e-4, 1e-4])

# the descent stops once a damped step is predicted to move no residual by
# this many pixels or more: a hundredth of the pixel grid the masks are on
_MIN_STEP_PX = 0.01
# Levenberg-Marquardt iterations of the descent
_MAX_ITERATIONS = 100
# the estimate is rejected when J per mask pixel exceeds this
_REJECT_MEAN_SQ_PX = 25.0

# rectified mask pixels of one row more than this many pixels apart belong
# to different runs
_RUN_GAP_PX = 1.5


class EstimatorError(Exception):
    pass


class EmptyMasks(EstimatorError):
    """Both views have empty foreground."""


class NoSeed(EstimatorError):
    """The masks and hints do not determine a seed pose: fewer than 3
    triangulated points, (near) parallel hint rays, a hint ray that meets
    the arc plane behind the camera, a baseline along the left axis, or a
    seed outside the parameter domain, where J is inf and the descent
    cannot move."""


class NoConvergence(EstimatorError):
    """The descent ended above the reject threshold.

    Carries the offending (pose, J, steps) so callers can still inspect it.
    """

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


@dataclass(frozen=True)
class KeypointHints:
    """Start/end needle endpoint pixels in the left view."""

    left_start: np.ndarray
    left_end: np.ndarray

    def __post_init__(self):
        for name in ("left_start", "left_end"):
            value = getattr(self, name)
            h = np.asarray(value, dtype=float)
            if h.shape != (2,) or not np.isfinite(h).all():
                raise ValueError(f"{name} must be 2 finite numbers, got {value!r}")
            object.__setattr__(self, name, h)


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


def _sq_dists(mask_rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances (M, N) from the mask pixels (as _mask_rows) to the
    points (N, 2): one product with the columns [x, y, 1, x^2 + y^2]."""
    sq = np.einsum("ij,ij->i", points, points)
    return mask_rows @ np.column_stack([points, np.ones(len(points)), sq]).T


def _nearest(mask_rows: np.ndarray, points_px: np.ndarray,
             visible: np.ndarray) -> tuple[float, np.ndarray]:
    """One view's chamfer value and pairing from one distance product.

    mask_rows from _mask_rows (M pixels); points_px (N, 2), ignored where
    visible (N,) is False. Returns the sum over mask pixels of the squared
    distance to the nearest visible point, and that point's index (M,).
    The value is 0 with no mask pixel; with no visible point every mask
    pixel pays _EMPTY_VIEW_PENALTY (and pairs with a hidden point).
    """
    # far sentinel for hidden points
    d2 = _sq_dists(mask_rows, np.where(visible[:, None], points_px, 1e9))
    near = d2.argmin(axis=1)
    if not visible.any():
        return _EMPTY_VIEW_PENALTY * len(near), near
    return float(d2[np.arange(len(near)), near].sum()), near


class SceneEvaluator:
    """Objective and residuals of raw parameter vectors.

    Precomputes per-scene constants (capped mask pixels and their distance
    terms, arc body samples) once; project() then runs pure array math, and
    trial() adds one distance product per view.
    """

    def __init__(self, masks, shape: NeedleShape, rig: StereoRig):
        if all(len(m) == 0 for m in masks):
            raise EmptyMasks("both views have empty masks")
        self.shape = shape
        self.rig = rig
        self.mask_px = [_subsample(m.foreground).astype(float) for m in masks]
        self._mask_rows = [_mask_rows(m) for m in self.mask_px]
        body = shape.arc_points_body(np.linspace(0.0, shape.arc_angle, _AXIS_SAMPLE_COUNT))
        self._body_xy = body[:, :2]  # arc is planar, z = 0 in the body frame

    def project(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arc samples of a (B, 6) batch in every view; a (6,) vector is a
        batch of one.

        Returns pixels (B, V, N, 2), NaN where a sample is not in front of
        the camera; visibility (B, V, N); and domain validity (B,).
        """
        centers, e1, u_ax, _, valid = needle_frames(vecs, self.shape, self.rig.left)
        xb, yb = self._body_xy[:, :1], self._body_xy[:, 1:]  # (N, 1) each
        pts = centers[..., None, :] + xb * e1[..., None, :] + yb * u_ax[..., None, :]
        px, vis = zip(*(cam.project_many(pts) for cam in self.rig.cameras))
        return np.stack(px, axis=-3), np.stack(vis, axis=-2), valid

    def trial(self, vec: np.ndarray):
        """The chamfer objective J of one vector and a callable for its
        point-to-line residuals, in lm.solve's trial shape.

        J sums the per-view _nearest values; it is inf outside the domain.
        The callable returns residuals r (R,) and their Jacobian A (R, 6),
        also outside the domain. Each mask pixel's residual is its offset
        from the sample it was paired with, projected on the sample's normal
        (tangent from np.gradient over the samples); a pixel paired with an
        arc end keeps both offset coordinates, as two rows after the one-row
        pixels. The Jacobian holds pairing and normals fixed and
        forward-differences the projected samples by _JAC_STEPS, the 6
        probes in one projection. Non-finite rows are dropped, so R may be 0.
        """
        px, vis, valid = self.project(vec)
        px, vis = px[0], vis[0]
        values, pairs = zip(*(_nearest(rows, p, v)
                              for rows, p, v in zip(self._mask_rows, px, vis)))
        J = sum(values) if valid[0] else np.inf

        def linearize():
            probes = self.project(vec + np.diag(_JAC_STEPS))[0]
            dpx = (probes - px) / _JAC_STEPS[:, None, None, None]  # (6, V, N, 2)
            rows, jac = [], []
            for k, (mpx, near) in enumerate(zip(self.mask_px, pairs)):
                p = px[k]  # (N, 2)
                tan = np.gradient(p, axis=0)
                normal = np.column_stack([-tan[:, 1], tan[:, 0]])
                normal /= np.linalg.norm(normal, axis=1, keepdims=True)
                off = mpx - p[near]  # (M, 2)
                n = normal[near]
                dp = dpx[:, k, near].transpose(1, 2, 0)  # (M, 2, 6)
                end = (near == 0) | (near == len(p) - 1)
                rows += [np.einsum("mi,mi->m", off[~end], n[~end]), off[end].reshape(-1)]
                jac += [-np.einsum("mi,mij->mj", n[~end], dp[~end]), -dp[end].reshape(-1, 6)]
            r, A = np.concatenate(rows), np.concatenate(jac)
            keep = np.isfinite(r) & np.isfinite(A).all(axis=1)
            return r[keep], A[keep]

        return J, linearize


def _run_centroids(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and mean u of each run of rectified pixels uv (M, 2), ordered by
    row, then u. A row is v rounded; a run is a stretch of its pixels with
    gaps of at most _RUN_GAP_PX."""
    row = np.rint(uv[:, 1])
    order = np.lexsort((uv[:, 0], row))
    u, row = uv[order, 0], row[order]
    new = np.ones(len(u), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (np.diff(u) > _RUN_GAP_PX)
    run = np.cumsum(new) - 1
    return row[new], np.bincount(run, u) / np.bincount(run)


def _triangulated_points(masks, rig: StereoRig) -> np.ndarray:
    """World points (P, 3) triangulated from the two masks.

    Every mask pixel's ray is rotated into a rectified frame: x along the
    baseline, z the left optical axis made orthogonal to it. Its rectified
    pixel is f (x, y) / z with f the left camera's fy; rays that do not
    point forward in that frame are dropped. On each rectified row that
    both masks reach with the same number of runs, the run centroids are
    paired in order and triangulated from their disparity; pairs of
    non-positive disparity are dropped. Raises NoSeed when the baseline is
    parallel to the left optical axis.
    """
    left = rig.left
    baseline = rig.right.center - left.center
    B = np.linalg.norm(baseline)
    x = baseline / B
    axis = left.pose_world_from_camera.rotation[:, 2]
    z = axis - (axis @ x) * x
    if np.linalg.norm(z) < 1e-6:
        raise NoSeed("the stereo baseline is parallel to the left optical axis")
    z /= np.linalg.norm(z)
    R = np.array([x, np.cross(z, x), z])  # rows: rectified axes in the world frame
    f = left.fy
    runs = []
    for cam, mask in zip(rig.cameras, masks):
        d = cam.backproject_ray(mask.foreground) @ R.T
        d = d[d[:, 2] > 0]
        runs.append(_run_centroids(f * d[:, :2] / d[:, 2:]))
    (row_l, u_l), (row_r, u_r) = runs
    rows_l, n_l = np.unique(row_l, return_counts=True)
    rows_r, n_r = np.unique(row_r, return_counts=True)
    common, i_l, i_r = np.intersect1d(rows_l, rows_r, assume_unique=True, return_indices=True)
    paired = common[n_l[i_l] == n_r[i_r]]  # sorted
    in_l, in_r = (np.searchsorted(paired, row, "right") > np.searchsorted(paired, row)
                  for row in (row_l, row_r))
    u, v, disparity = u_l[in_l], row_l[in_l], u_l[in_l] - u_r[in_r]
    ahead = disparity > 0
    rect = np.column_stack([u, v, np.full(len(u), f)])[ahead] * (B / disparity[ahead])[:, None]
    return left.center + rect @ R


def _seed(masks, hints: KeypointHints, shape: NeedleShape, rig: StereoRig) -> np.ndarray:
    """Algebraic seed vector from the triangulated masks and the left hints.

    The arc plane is the smallest singular vector of the centred
    triangulated points; the two left hint rays meet it at the chord ends.
    e1 is the in-plane normal of the chord that points toward the points,
    and the center lies r cos(arc / 2) behind the chord's middle along it.
    pose_to_params converts that pose, and the keypoints are put back at
    the hints. Raises NoSeed when fewer than 3 points triangulate, the two
    hint rays are at most 1e-6 rad apart (needle.check_ray_angle), a hint
    ray meets the plane behind the camera or pose_to_params fails on the
    pose: for a far needle the pose's chord ends can re-project to one
    pixel or lie behind the camera.
    """
    pts = _triangulated_points(masks, rig)
    if len(pts) < 3:
        raise NoSeed(f"{len(pts)} mask points triangulated, 3 needed")
    c = pts.mean(axis=0)
    normal = np.linalg.svd(pts - c, full_matrices=False)[2][-1]
    kps = np.stack([hints.left_start, hints.left_end])
    origin, rays = rig.left.center, rig.left.backproject_ray(kps)
    try:
        needle.check_ray_angle(needle.inter_ray_angle(*rays))
    except needle.DegenerateRays as e:
        raise NoSeed(f"the hint rays fix no triangle: {e}") from e
    along, across = (c - origin) @ normal, rays @ normal
    if not np.all(along * across > 0):
        raise NoSeed("a hint ray meets the arc plane behind the left camera")
    p_st, p_ed = origin + (along / across)[:, None] * rays
    u = (p_ed - p_st) / np.linalg.norm(p_ed - p_st)
    mid = 0.5 * (p_st + p_ed)
    e1 = np.cross(normal, u)
    e1 *= np.sign(e1 @ (c - mid)) / np.linalg.norm(e1)
    center = mid - shape.radius * np.cos(shape.arc_angle / 2.0) * e1
    try:
        vec = pose_to_params(RigidPose(np.column_stack([e1, u, np.cross(e1, u)]), center),
                             shape, rig.left)
    except (needle.NeedleError, GeometryError) as e:
        raise NoSeed(f"the seed pose has no parameter vector: {e}") from e
    vec[2:] = kps.reshape(-1)
    return vec


def estimate(
    masks: tuple[BinaryMask, BinaryMask],
    hints: KeypointHints,
    shape: NeedleShape,
    rig: StereoRig,
) -> tuple[RigidPose, float, int]:
    """Needle pose from stereo masks and the left keypoint hints.

    One Levenberg-Marquardt descent from the algebraic seed (_seed).
    Returns (pose, J, steps): J is the chamfer objective (squared pixels)
    at the pose, steps the descent's iterations. Raises NoConvergence when
    J per mask pixel exceeds _REJECT_MEAN_SQ_PX, NoSeed when no seed can be
    formed (far needles included, whose seed pose has no parameter vector)
    or the final vector lies outside the parameter domain, and
    EmptyMasks when both masks are empty; it raises no other EstimatorError
    and no NeedleError. Deterministic for fixed inputs (no rng).
    """
    ev = SceneEvaluator(masks, shape, rig)
    vec, J, steps, _ = lm.solve(_seed(masks, hints, shape, rig), ev.trial, _MIN_STEP_PX,
                                _MAX_ITERATIONS)
    try:
        pose = params_to_pose(vec, shape, rig.left)
    except needle.NeedleError as e:  # J is inf there, so no step left the seed
        raise NoSeed(f"the seed lies outside the parameter domain: {e}") from e
    mean_sq_px = J / sum(len(m) for m in ev.mask_px)
    if mean_sq_px > _REJECT_MEAN_SQ_PX:
        raise NoConvergence(
            f"mean squared pixel error {mean_sq_px:.2f} exceeds {_REJECT_MEAN_SQ_PX}",
            result=(pose, J, steps),
        )
    return pose, J, steps
