"""Circular-arc needle geometry and its disentangled 6-DOF parameterization.

The needle is a circular arc of configurable radius and arc angle
(semicircular by default). Its pose is encoded either as a RigidPose or as
the 6-vector [theta1, theta2, kp_st(2), kp_ed(2)]: four pixel coordinates of
the arc endpoints in an anchor camera plus two angles placed relative to the
plane formed by the two back-projected keypoint rays.

Needle body frame: origin at the arc-circle center, x-axis from the center
toward the arc midpoint, y-axis along the chord from start to end, z-axis
the arc-plane normal (x cross y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import NonPositiveDepth, PinholeCamera, RigidPose, StereoRig

_MIN_RAY_ANGLE = 1e-6
_MAX_LINE_WIDTH = 16.0  # pixels; rasterize's docstring gives the reason


class NeedleError(Exception):
    pass


class DegenerateRays(NeedleError):
    """Keypoint back-projection rays are (near) parallel."""


class ThetaOutOfRange(NeedleError):
    pass


@dataclass(frozen=True)
class NeedleShape:
    """Circular-arc needle: radius in meters, arc angle in radians."""

    radius: float
    arc_angle: float = np.pi

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be a finite number > 0, got {self.radius}")
        if not (0 < self.arc_angle <= 2 * np.pi - 1e-6):
            raise ValueError(f"arc_angle must lie in (0, 2*pi - 1e-6], got {self.arc_angle}")

    @property
    def chord_length(self) -> float:
        return 2.0 * self.radius * np.sin(self.arc_angle / 2.0)

    def arc_points_body(self, params: np.ndarray) -> np.ndarray:
        """Arc points in the needle body frame for parameters in [0,
        arc_angle], shape params.shape + (3,); 0 is the start and arc_angle
        the end."""
        s = np.asarray(params, dtype=float) - self.arc_angle / 2.0
        return self.radius * np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1)


@dataclass(frozen=True)
class BinaryMask:
    """Foreground pixel set of one view; coordinates are (u, v) integers."""

    width: int
    height: int
    foreground: np.ndarray  # (N, 2) int

    def __post_init__(self):
        fg = np.asarray(self.foreground, dtype=int).reshape(-1, 2)
        if fg.size:
            if fg[:, 0].min() < 0 or fg[:, 0].max() >= self.width:
                raise ValueError("foreground u out of bounds")
            if fg[:, 1].min() < 0 or fg[:, 1].max() >= self.height:
                raise ValueError("foreground v out of bounds")
            key = np.sort(fg[:, 0] * self.height + fg[:, 1])
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate foreground pixels")
        object.__setattr__(self, "foreground", fg)

    def __len__(self) -> int:
        return len(self.foreground)


# --- ray-plane construction -------------------------------------------------

def inter_ray_angle(d_st: np.ndarray, d_ed: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(np.sum(d_st * d_ed, axis=-1), -1.0, 1.0))


def check_ray_angle(alpha) -> float:
    """One inter-ray angle as a float; DegenerateRays when it is 1e-6 rad or
    less, where the keypoint rays fix no triangle with the chord."""
    if alpha <= _MIN_RAY_ANGLE:
        raise DegenerateRays(f"inter-ray angle {alpha} <= {_MIN_RAY_ANGLE}")
    return float(alpha)


def _cross(a, b):
    """Row cross product of (..., 3) arrays: np.cross's own products and
    differences, so the same bits."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _unit(v):
    """Rows divided by max(norm, 1e-300); the norm sums the squares left to
    right, as np.linalg.norm over a last axis of 3 does."""
    return v / np.maximum(np.sqrt((v * v).sum(-1)), 1e-300)[..., None]


class NeedleFrames(NamedTuple):
    """Batched needle frames; every field has one row per parameter vector."""

    centers: np.ndarray  # (..., 3) arc-circle centers
    e1: np.ndarray  # (..., 3) body x-axis, center toward the arc midpoint
    u_ax: np.ndarray  # (..., 3) body y-axis, the chord from start to end
    alpha: np.ndarray  # (...) inter-ray angle
    valid: np.ndarray  # (...) row lies inside the parameter domain


def needle_frames(vecs: np.ndarray, shape: NeedleShape, anchor: PinholeCamera) -> NeedleFrames:
    """Triangle construction for a (..., 6) batch of [theta1, theta2, kp_st, kp_ed].

    The two keypoint rays and the chord form a triangle with interior angle
    theta1 at the start endpoint; theta2 is the dihedral rotation of the arc
    plane about the chord, measured from the rays plane. Rows outside the
    domain (inter-ray angle <= 1e-6, theta1 outside (0, pi - alpha)) are
    flagged in `valid`, not raised; their frames are finite but meaningless.
    A (6,) vector is a batch of one.
    """
    vecs = np.atleast_2d(np.asarray(vecs, dtype=float))
    th1, th2 = vecs[..., 0], vecs[..., 1]
    # stacked (2, ..., 2) so each keypoint's rays keep the bits of a call of their own
    d_st, d_ed = anchor.backproject_ray(np.stack([vecs[..., 2:4], vecs[..., 4:6]]))
    alpha = inter_ray_angle(d_st, d_ed)
    valid = (alpha > _MIN_RAY_ANGLE) & (th1 > 0.0) & (th1 < np.pi - alpha)
    sa = np.where(alpha > 1e-12, np.sin(alpha), 1.0)
    L = shape.chord_length
    p_ed = anchor.center + (L * np.sin(th1) / sa)[..., None] * d_ed
    p_st = anchor.center + (L * np.sin(alpha + th1) / sa)[..., None] * d_st
    u_ax = _unit(p_ed - p_st)
    w_ref = _unit(_cross(_unit(_cross(d_st, d_ed)), u_ax))
    e1 = np.cos(th2)[..., None] * w_ref + np.sin(th2)[..., None] * _cross(u_ax, w_ref)
    centers = 0.5 * (p_st + p_ed) - shape.radius * np.cos(shape.arc_angle / 2.0) * e1
    return NeedleFrames(centers, e1, u_ax, alpha, valid)


def params_to_pose(vec: np.ndarray, shape: NeedleShape, anchor: PinholeCamera) -> RigidPose:
    """Realize the 6-vector as the needle's rigid pose (needle_frames, B = 1).

    Raises DegenerateRays or ThetaOutOfRange outside the parameter domain.
    """
    f = needle_frames(vec, shape, anchor)
    alpha = check_ray_angle(f.alpha[0])
    if not f.valid[0]:
        raise ThetaOutOfRange(f"theta1={vec[0]} outside (0, pi - {alpha})")
    e1, u = f.e1[0], f.u_ax[0]
    return RigidPose(np.column_stack([e1, u, np.cross(e1, u)]), f.centers[0])


def project_endpoints(
    T: RigidPose, shape: NeedleShape, anchor: PinholeCamera
) -> tuple[np.ndarray, np.ndarray]:
    """The arc's start and end in the world, (2, 3), and their pixels in the
    anchor camera, (2, 2). Raises NonPositiveDepth when an endpoint is at or
    behind the anchor."""
    points = np.stack([T.apply(p) for p in shape.arc_points_body([0.0, shape.arc_angle])])
    pixels, valid = anchor.project_many(points)
    if not valid.all():
        raise NonPositiveDepth("needle endpoint at or behind the anchor camera")
    return points, pixels


def pose_to_params(T: RigidPose, shape: NeedleShape, anchor: PinholeCamera) -> np.ndarray:
    """Invert params_to_pose: recover [theta1, theta2, kp_st, kp_ed].

    Raises NonPositiveDepth when an endpoint is at or behind the anchor.
    """
    (p_st, p_ed), (kp_st, kp_ed) = project_endpoints(T, shape, anchor)
    v_c = anchor.center - p_st
    v_e = p_ed - p_st
    theta1 = float(
        np.arccos(np.clip(v_c @ v_e / (np.linalg.norm(v_c) * np.linalg.norm(v_e)), -1.0, 1.0))
    )

    # at theta2 = 0 the frame's e1 is the rays-plane reference w_ref, and its
    # u_ax the chord direction
    f = needle_frames(np.array([theta1, 0.0, *kp_st, *kp_ed]), shape, anchor)
    check_ray_angle(f.alpha[0])
    w_ref, u = f.e1[0], f.u_ax[0]
    e1 = T.rotation[:, 0]  # body x: center toward the arc midpoint
    theta2 = float(np.arctan2(e1 @ np.cross(u, w_ref), e1 @ w_ref)) % (2.0 * np.pi)
    return np.array([theta1, theta2, *kp_st, *kp_ed])


# --- sampling, reprojection, rasterization ---------------------------------

def sample_axis_points(
    T: RigidPose, shape: NeedleShape, count: int, occlusion=None
) -> np.ndarray:
    """Uniformly spaced world points on the needle arc, shape (N, 3).

    occlusion, when given, is an (lo, hi) arc-fraction interval whose
    samples are excluded.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    params = np.linspace(0.0, shape.arc_angle, count)
    if occlusion is not None:
        lo, hi = occlusion
        frac = params / shape.arc_angle
        params = params[(frac < lo) | (frac > hi)]
    return T.apply(shape.arc_points_body(params))


def reproject(
    T: RigidPose, shape: NeedleShape, rig: StereoRig, count: int, occlusion=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-view pixel sets of the reprojected needle axis points.

    Points behind a camera are dropped per view; each returned array has
    shape (Nk, 2).
    """
    pts = sample_axis_points(T, shape, count, occlusion)
    out = []
    for cam in rig.cameras:
        px, valid = cam.project_many(pts)
        out.append(px[valid])
    return tuple(out)


def rasterize(
    T: RigidPose,
    shape: NeedleShape,
    camera: PinholeCamera,
    line_width: float = 1.0,
    occlusion=None,
) -> BinaryMask:
    """Synthetic fine-mask stand-in: stamp the projected arc into a mask.

    The arc is sampled at ~4 samples per pixel of projected arc length and
    every integer pixel within line_width/2 of a sample is set. line_width is
    capped at 16 px: each sample stamps a (2*ceil(w/2) + 1)^2 pixel square into
    two float64 arrays, so a face-on needle at 0.08 m peaks at 31 MB of RSS at
    w = 1, 58 MB at 16 and 134 MB at 32.
    """
    if not 1 <= line_width < np.inf:
        raise ValueError(f"line_width must be a finite number >= 1, got {line_width}")
    if line_width > _MAX_LINE_WIDTH:
        raise ValueError(f"line_width must be at most {_MAX_LINE_WIDTH:g} px, got {line_width}")
    # coarse pass to estimate projected arc length
    coarse = sample_axis_points(T, shape, 257, occlusion)
    px, valid = camera.project_many(coarse)
    px = px[valid]
    if len(px) < 2:
        return BinaryMask(camera.width, camera.height, np.empty((0, 2), dtype=int))
    arc_px_len = float(np.sum(np.linalg.norm(np.diff(px, axis=0), axis=1)))
    n = max(2, int(np.ceil(4.0 * arc_px_len)))
    dense = sample_axis_points(T, shape, n, occlusion)
    px, valid = camera.project_many(dense)
    px = px[valid]

    radius = line_width / 2.0
    r_int = int(np.ceil(radius))
    offs = np.arange(-r_int, r_int + 1)
    offs = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    cand = np.rint(px)[:, None] + offs  # (n, K, 2) integer-valued candidates
    diff = cand - px[:, None]
    near = np.hypot(diff[..., 0], diff[..., 1]) <= radius
    cu, cv = cand[near].astype(int).T
    inside = (cu >= 0) & (cu < camera.width) & (cv >= 0) & (cv < camera.height)
    key = np.sort(cu[inside] * camera.height + cv[inside])  # sorted by (u, v)
    key = key[np.diff(key, prepend=-1) != 0]  # each pixel once; keys are >= 0
    fg = np.column_stack([key // camera.height, key % camera.height])
    return BinaryMask(camera.width, camera.height, fg)

