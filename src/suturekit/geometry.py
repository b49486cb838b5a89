"""Rigid poses, pinhole cameras, the stereo rig and rotation conversions.

All lengths are meters and all angles radians; degrees/mm appear only at
file/CLI boundaries. Rotations are stored as 3x3 matrices. Quaternions
(x, y, z, w) appear only in the two conversions `quat_to_matrix` (random
needle orientations) and `slerp` (free-motion trajectories in planning).
Each repeats scipy's `Rotation` arithmetic operation for operation, with
libm's sin, cos and atan2, so it returns the same bits as
`Rotation.from_quat(q).as_matrix()` and
`Slerp([0, 1], ...)(fractions).as_matrix()` without importing scipy; the
rotation-vector step inside `slerp` matches `Rotation.from_rotvec(v)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# |R^T R - I| <= 1e-8 + 1e-5 |I| elementwise is np.allclose(R.T @ R, I,
# atol=1e-8)'s own rule without its call overhead; RigidPose checks
# finiteness first, so a NaN or inf entry never reaches the product
_EYE3 = np.eye(3)
_ORTHO_BOUND = 1e-8 + 1e-5 * _EYE3


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
        if not np.isfinite(t).all():
            raise ValueError("translation is not finite")
        if not (np.isfinite(R).all() and (np.abs(R.T @ R - _EYE3) <= _ORTHO_BOUND).all()):
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


# Quaternions are (x, y, z, w) tuples of Python floats: one conversion is a
# few dozen scalar operations, cheaper in plain floats than in numpy calls.
Quat = tuple[float, float, float, float]


def _unit_quat(q: Quat) -> Quat:
    x, y, z, w = q
    norm = math.sqrt(x * x + y * y + z * z + w * w)
    if norm == 0:
        raise ValueError("zero-norm quaternion")
    return x / norm, y / norm, z / norm, w / norm


def _quat_product(p: Quat, q: Quat) -> Quat:
    """Normalized Hamilton product p * q."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return _unit_quat((
        pw * qx + qw * px + (py * qz - pz * qy),
        pw * qy + qw * py + (pz * qx - px * qz),
        pw * qz + qw * pz + (px * qy - py * qx),
        pw * qw - px * qx - py * qy - pz * qz,
    ))


def _quat_matrix(q: Quat) -> list[list[float]]:
    """Rows of the rotation matrix of a unit quaternion."""
    x, y, z, w = q
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return [
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ]


def _matrix_quat(R: np.ndarray) -> Quat:
    """Unit quaternion of a rotation matrix (Shepperd's method: build from the
    largest of the diagonal and the trace). R is taken as orthonormal; scipy
    would first project a matrix more than ~1e-12 from orthonormal onto the
    rotations."""
    m = R.tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = [m[0][0], m[1][1], m[2][2], trace]
    i = decision.index(max(decision))
    if i == 3:
        return _unit_quat((m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace))
    j, k = (i + 1) % 3, (i + 2) % 3
    q = [0.0, 0.0, 0.0, m[k][j] - m[j][k]]
    q[i] = 1 - trace + 2 * m[i][i]
    q[j] = m[j][i] + m[i][j]
    q[k] = m[k][i] + m[i][k]
    return _unit_quat(tuple(q))


def _rotvec_quat(x: float, y: float, z: float) -> Quat:
    """Unit quaternion of a rotation vector; a series below 1e-3 rad."""
    angle = math.sqrt(x * x + y * y + z * z)
    if angle <= 1e-3:
        a2 = angle * angle
        scale = 0.5 - a2 / 48 + a2 * a2 / 3840  # sin(angle / 2) / angle
    else:
        scale = math.sin(angle / 2) / angle
    return scale * x, scale * y, scale * z, math.cos(angle / 2)


def _quat_rotvec(q: Quat) -> tuple[float, float, float]:
    """Rotation vector (angle in [0, pi]) of a unit quaternion."""
    x, y, z, w = q
    if (w, x, y, z) < (0.0, 0.0, 0.0, 0.0):  # first nonzero of w, x, y, z negative
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        a2 = angle * angle
        scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880  # angle / sin(angle / 2)
    else:
        scale = angle / math.sin(angle / 2)
    return scale * x, scale * y, scale * z


def quat_to_matrix(quat: np.ndarray) -> np.ndarray:
    """Rotation matrix of an (x, y, z, w) quaternion, normalized first."""
    return np.array(_quat_matrix(_unit_quat(_as_array(quat, (4,)).tolist())))


def slerp(R0: np.ndarray, R1: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotations a fraction of the way along the shortest arc from
    R0 (fraction 0) to R1 (fraction 1)."""
    q0 = _matrix_quat(_as_array(R0, (3, 3)))
    x, y, z, w = q0
    ax, ay, az = _quat_rotvec(_quat_product((-x, -y, -z, w), _matrix_quat(_as_array(R1, (3, 3)))))
    return np.array([
        _quat_matrix(_quat_product(q0, _rotvec_quat(ax * f, ay * f, az * f)))
        for f in np.asarray(fractions, dtype=float).tolist()
    ]).reshape(-1, 3, 3)


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
        # project_many's principal point and focal lengths as arrays, built once
        object.__setattr__(self, "_c", np.array([self.cx, self.cy]))
        object.__setattr__(self, "_f", np.array([self.fx, self.fy]))

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
        px = self._c + self._f * pc[..., :2] / z
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

