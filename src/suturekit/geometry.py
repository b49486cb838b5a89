"""Rigid poses, pinhole cameras, the stereo rig and rotation conversions.

All lengths are meters and all angles radians; degrees/mm appear only at
file/CLI boundaries. Rotations are stored as 3x3 matrices. Quaternions
(x, y, z, w) appear only in the two conversions `quat_to_matrix` (random
needle orientations) and `slerp` (free-motion trajectories in planning).
`quat_to_matrix` repeats scipy's `Rotation` arithmetic operation for
operation, so it returns the same bits as `Rotation.from_quat(q).as_matrix()`
without importing scipy. `slerp` is Shoemake's closed form and agrees with
scipy's `Slerp` to within 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# |R^T R - I| <= 1e-8 + 1e-5 |I| elementwise is np.allclose(R.T @ R, I,
# atol=1e-8)'s own rule without its call overhead; _check_rigid checks
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


def _check_rigid(R: np.ndarray, t: np.ndarray) -> None:
    """RigidPose's four checks, on one pose ((3, 3) and (3,)) or on a stack
    ((n, 3, 3) and (n, 3)) in one vectorized pass: finite translation,
    finite rotation, |R^T R - I| within _ORTHO_BOUND and |det R - 1| <= 1e-6.
    Raises ValueError naming the first check that any pose fails."""
    if not np.isfinite(t).all():
        raise ValueError("translation is not finite")
    if not (np.isfinite(R).all() and (np.abs(R.mT @ R - _EYE3) <= _ORTHO_BOUND).all()):
        raise ValueError("rotation is not orthonormal")
    # reduced in Python floats: a numpy .all() adds ~1 us to a single pose's check
    if not all(abs(d - 1.0) <= 1e-6 for d in np.linalg.det(R.reshape(-1, 3, 3)).tolist()):
        raise ValueError("rotation determinant is not +1")


@dataclass(frozen=True)
class RigidPose:
    """SE(3) transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = _as_array(self.rotation, (3, 3))
        t = _as_array(self.translation, (3,))
        _check_rigid(R, t)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_stack(cls, rotations: np.ndarray, translations: np.ndarray) -> list["RigidPose"]:
        """One pose per row of (n, 3, 3) rotations and (n, 3) translations.
        The rows are checked once, together, by the checks every pose gets;
        each pose holds views of its rows."""
        R = np.asarray(rotations, dtype=float)
        t = np.asarray(translations, dtype=float)
        if R.shape[1:] != (3, 3) or t.shape != (len(R), 3):
            raise ValueError(f"expected shapes (n, 3, 3) and (n, 3), got {R.shape} and {t.shape}")
        _check_rigid(R, t)
        poses = []
        for Ri, ti in zip(R, t):
            pose = object.__new__(cls)  # skips __post_init__: the rows are checked
            object.__setattr__(pose, "rotation", Ri)
            object.__setattr__(pose, "translation", ti)
            poses.append(pose)
        return poses

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform a 3-vector or an (N, 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidPose":
        Rt = self.rotation.T
        return RigidPose(Rt, -Rt @ self.translation)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T


def compose_stack(R: np.ndarray, t: np.ndarray, offset: RigidPose) -> tuple[np.ndarray, np.ndarray]:
    """Poses given as arrays, one ((3, 3), (3,)) or a stack ((n, 3, 3),
    (n, 3)), each composed with `offset` on its right: (R R_o, R t_o + t)."""
    return R @ offset.rotation, R @ offset.translation + t


def rotation_geodesic(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic angle between two rotation matrices, radians in [0, pi].

    Uses the chordal (arcsin) form for small angles, where arccos of the
    trace loses ~1e-8 of precision.
    """
    f = np.linalg.norm(Ra - Rb) / (2.0 * np.sqrt(2.0))  # sin(theta / 2)
    if f < 0.7:
        return float(2.0 * np.arcsin(f))
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


def quat_to_matrix(quat: np.ndarray) -> np.ndarray:
    """Rotation matrix of an (x, y, z, w) quaternion, normalized first."""
    return np.array(_quat_matrix(_unit_quat(_as_array(quat, (4,)).tolist())))


def slerp(R0: np.ndarray, R1: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotations a fraction f along the shortest arc from R0 (f = 0)
    to R1 (f = 1): Shoemake's normalized sin((1 - f) omega) q0 + sin(f omega) q1,
    q0 . q1 = cos(omega) >= 0, with weights (1 - f, f) below omega = 1e-6."""
    x0, y0, z0, w0 = _matrix_quat(_as_array(R0, (3, 3)))
    x1, y1, z1, w1 = _matrix_quat(_as_array(R1, (3, 3)))
    dot = x0 * x1 + y0 * y1 + z0 * z1 + w0 * w1
    if dot < 0:  # q1 and -q1 are the same rotation; -q1 is the short way round
        x1, y1, z1, w1, dot = -x1, -y1, -z1, -w1, -dot
    omega = math.acos(min(dot, 1.0))
    rows = []
    for f in np.asarray(fractions, dtype=float).tolist():
        if omega < 1e-6:
            a, b = 1.0 - f, f
        else:
            a, b = math.sin((1.0 - f) * omega), math.sin(f * omega)
        q = (a * x0 + b * x1, a * y0 + b * y1, a * z0 + b * z1, a * w0 + b * w1)
        rows.append(_quat_matrix(_unit_quat(q)))
    return np.array(rows).reshape(-1, 3, 3)


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
        """Unit world-frame ray directions through (..., 2) pixels; shape
        (..., 3)."""
        p = (np.asarray(pixels, dtype=float) - self._c) / self._f
        d = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
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

