"""Rigid poses, pinhole cameras and the stereo rig.

All lengths are meters and all angles radians; degrees/mm appear only at
file/CLI boundaries. Rotations are stored as 3x3 matrices; quaternions are
used only for trajectory interpolation (see planning).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ORTHO_TOL = 1e-8


class GeometryError(Exception):
    pass


class NonPositiveDepth(GeometryError):
    """Point is at or behind the camera's principal plane."""


def _as_array(x, shape):
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class RigidPose:
    """SE(3) transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = _as_array(self.rotation, (3, 3))
        t = _as_array(self.translation, (3,))
        if not np.allclose(R.T @ R, np.eye(3), atol=_ORTHO_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform a 3-vector or an (N, 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidPose") -> "RigidPose":
        return RigidPose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidPose":
        Rt = self.rotation.T
        return RigidPose(Rt, -Rt @ self.translation)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    @staticmethod
    def from_matrix(T: np.ndarray) -> "RigidPose":
        T = _as_array(T, (4, 4))
        return RigidPose(T[:3, :3], T[:3, 3])


def rotation_geodesic(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic angle between two rotation matrices, radians in [0, pi].

    Uses the chordal (arcsin) form for small angles, where arccos of the
    trace loses ~1e-8 of precision.
    """
    f = np.linalg.norm(Ra - Rb) / (2.0 * np.sqrt(2.0))  # sin(theta / 2)
    if f < 0.7:
        return float(2.0 * np.arcsin(min(f, 1.0)))
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True)
class PinholeCamera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose_world_from_camera: RigidPose = field(default_factory=RigidPose.identity)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        # the one camera-from-world transform, computed once; world_to_camera applies it
        object.__setattr__(self, "pose_camera_from_world", self.pose_world_from_camera.inverse())

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.pose_world_from_camera.translation

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Camera-frame coordinates of (..., 3) world points; [..., 2] is the
        depth along the optical axis."""
        return self.pose_camera_from_world.apply(points)

    def project_many(self, points_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pinhole projection of (..., 3) world points, the only one there is.

        Returns (pixels (..., 2), valid (...) bool). Points at depth <= 1e-12
        are invalid and their pixels NaN; valid pixels may lie outside the
        image.
        """
        pc = self.world_to_camera(np.asarray(points_world, dtype=float))
        valid = pc[..., 2] > 1e-12
        z = np.where(valid, pc[..., 2], np.nan)[..., None]
        px = np.array([self.cx, self.cy]) + np.array([self.fx, self.fy]) * pc[..., :2] / z
        return px, valid

    def backproject_ray(self, pixels: np.ndarray) -> np.ndarray:
        """Unit world-frame ray directions through a (2,) pixel or (n, 2)
        pixels; shape (3,) or (n, 3)."""
        p = np.asarray(pixels, dtype=float)
        d = np.stack(
            [(p[..., 0] - self.cx) / self.fx, (p[..., 1] - self.cy) / self.fy,
             np.ones(p.shape[:-1])],
            axis=-1,
        )
        d = d @ self.pose_world_from_camera.rotation.T
        return d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class StereoRig:
    left: PinholeCamera
    right: PinholeCamera

    def __post_init__(self):
        if np.linalg.norm(self.left.center - self.right.center) <= 0:
            raise ValueError("stereo baseline must be positive")

    @property
    def cameras(self) -> tuple[PinholeCamera, PinholeCamera]:
        return (self.left, self.right)

