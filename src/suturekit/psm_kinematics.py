"""Forward and closed-form inverse kinematics for a 6-DOF RCM manipulator.

Chain (base frame at the remote center of motion):
  q1  yaw about base z
  q2  pitch about the rotated x axis
  q3  prismatic insertion along the rotated z axis (plus a fixed shaft
      offset)
  q4  instrument roll about the shaft axis
      fixed link pitch_to_yaw along the shaft
  q5  wrist pitch about the local x axis
      fixed link yaw_to_tip along the local z axis
  q6  wrist yaw about the local z axis

The z-x-z wrist decomposition keeps the chain position-decoupled: the point
at the end of the pitch_to_yaw link is recoverable from the tool pose alone,
which yields q1..q3 by trigonometry and q4..q6 by Euler extraction with both
wrist branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import RigidPose

# Joint value vectors are plain float ndarrays of shape (6,).
JointVector = np.ndarray

REVOLUTE = np.array([True, True, False, True, True, True])
PRISMATIC_INDEX = 2

# yaw width stays below pi so the mirrored shoulder branch is always out of
# limits; the instrument roll spans far past 2*pi to drive long needle sweeps
_DEFAULT_LIMITS = np.array(
    [
        [-1.5, 1.5],
        [-0.9, 0.9],
        [0.01, 0.24],
        [-4.5, 4.5],
        [-1.5, 1.5],
        [-2.2, 2.2],
    ]
)


class KinematicsError(Exception):
    pass


class Unreachable(KinematicsError):
    """Wrist point at/behind the RCM or insertion cannot reach it."""


def _rz(t):
    """Rotations about z by angles of any shape, shape t.shape + (3, 3)."""
    c, s = np.cos(t), np.sin(t)
    R = np.zeros(np.shape(t) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1] = c, -s, s, c
    R[..., 2, 2] = 1.0
    return R


def _rx(t):
    """Rotations about x by angles of any shape, shape t.shape + (3, 3)."""
    c, s = np.cos(t), np.sin(t)
    R = np.zeros(np.shape(t) + (3, 3))
    R[..., 1, 1], R[..., 1, 2], R[..., 2, 1], R[..., 2, 2] = c, -s, s, c
    R[..., 0, 0] = 1.0
    return R


@dataclass(frozen=True)
class KinematicModel:
    shaft_offset: float = 0.0  # added to q3 along the insertion axis
    pitch_to_yaw: float = 0.0091
    yaw_to_tip: float = 0.0102
    joint_limits: np.ndarray = field(default_factory=lambda: _DEFAULT_LIMITS.copy())
    prismatic_scale: float = 10.0  # rad per meter, for mixed-unit joint norms

    def __post_init__(self):
        if self.pitch_to_yaw < 0 or self.yaw_to_tip < 0:
            raise ValueError("wrist link lengths must be >= 0")
        lim = np.asarray(self.joint_limits, dtype=float).reshape(6, 2)
        if np.any(lim[:, 0] >= lim[:, 1]):
            raise ValueError("joint limits must satisfy lo < hi")
        object.__setattr__(self, "joint_limits", lim)
        # (lo, hi) float pairs: ik compares Python floats against them
        object.__setattr__(self, "_limit_pairs", tuple(map(tuple, lim.tolist())))

    def joint_distance(self, qa: JointVector, qb: JointVector) -> float:
        """Per-joint infinity norm with the prismatic entry in radian
        equivalents (prismatic_scale rad/m)."""
        d = np.abs(np.asarray(qa, dtype=float) - np.asarray(qb, dtype=float))
        d[PRISMATIC_INDEX] *= self.prismatic_scale
        return float(np.max(d))


def fk_arrays(model: KinematicModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tool-tip rotations (..., 3, 3) and translations (..., 3) for joint
    values of shape (..., 6): the one forward-kinematics chain."""
    q = np.asarray(q, dtype=float)
    R12 = _rz(q[..., 0]) @ _rx(q[..., 1])
    d = R12[..., :, 2]  # shaft direction
    s = model.shaft_offset + q[..., 2]
    R5 = R12 @ _rz(q[..., 3]) @ _rx(q[..., 4])
    R = R5 @ _rz(q[..., 5])
    t = (s + model.pitch_to_yaw)[..., None] * d + model.yaw_to_tip * R5[..., :, 2]
    return R, t


def fk(model: KinematicModel, q: JointVector) -> RigidPose:
    """Tool-tip pose for the given joint values."""
    return RigidPose(*fk_arrays(model, q))


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def ik(model: KinematicModel, target: RigidPose, q4_hint: float = 0.0) -> list[JointVector]:
    """All closed-form joint solutions within the joint limits (to 1e-9)
    that reach the target tool pose.

    Enumerates the shoulder branch pair and both wrist-pitch branches. At a
    wrist singularity (|sin q5| < 1e-9) q4 is frozen at q4_hint and the
    residual assigned to q6. Output sorted lexicographically by joint values.
    """
    R = target.rotation
    w = target.translation - model.yaw_to_tip * R[:, 2]
    nw = float(np.linalg.norm(w))
    s = nw - model.pitch_to_yaw
    if s <= 1e-12:
        raise Unreachable("wrist point at or behind the remote center of motion")
    q3 = s - model.shaft_offset
    dx, dy, dz = (w / nw).tolist()  # Python floats; min/max clip them as np.clip does

    sols: list[tuple[float, ...]] = []
    shoulder = []
    q2a = float(np.arccos(min(max(dz, -1.0), 1.0)))
    if abs(np.sin(q2a)) < 1e-12:
        # shaft along base z: q1 undetermined, freeze at 0
        shoulder.append((0.0, q2a))
    else:
        shoulder.append((float(np.arctan2(dx, -dy)), q2a))
        shoulder.append((float(np.arctan2(-dx, dy)), -q2a))

    for q1, q2 in shoulder:
        Rw = ((_rz(q1) @ _rx(q2)).T @ R).tolist()  # = Rz(q4) Rx(q5) Rz(q6)
        cb = min(max(Rw[2][2], -1.0), 1.0)
        sb = float(np.hypot(Rw[0][2], Rw[1][2]))
        if sb < 1e-9:
            # the angle is q4 + q6 at q5 = 0 and q4 - q6 at q5 = pi
            angle = float(np.arctan2(Rw[1][0], Rw[0][0]))
            q6 = _wrap(angle - q4_hint) if cb > 0 else _wrap(q4_hint - angle)
            branches = [(q4_hint, 0.0 if cb > 0 else np.pi, q6)]
        else:
            b = float(np.arctan2(sb, cb))
            a = float(np.arctan2(Rw[0][2], -Rw[1][2]))
            c = float(np.arctan2(Rw[2][0], Rw[2][1]))
            branches = [(a, b, c), (_wrap(a + np.pi), -b, _wrap(c + np.pi))]
        for q4, q5, q6 in branches:
            # revolute ranges wider than 2*pi admit shifted copies of the
            # wrapped solution: each joint's in-limit values, then their product
            candidates = []
            for j, (v, (lo, hi)) in enumerate(zip((q1, q2, q3, q4, q5, q6), model._limit_pairs)):
                values = (v,) if j == PRISMATIC_INDEX else (v, v - 2.0 * np.pi, v + 2.0 * np.pi)
                candidates.append([x for x in values if lo - 1e-9 <= x <= hi + 1e-9])
                if not candidates[-1]:
                    break  # the product is empty; skip the remaining joints
            sols += itertools.product(*candidates)
    sols.sort()
    return [np.array(v) for v in sols]

