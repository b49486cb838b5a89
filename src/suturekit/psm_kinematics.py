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
wrist branches. ik_arrays does so for a whole stack of tool poses at once;
ik is its one-pose call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import RigidPose

# Joint value vectors are plain float ndarrays of shape (6,).
JointVector = np.ndarray

REVOLUTE = np.array([True, True, False, True, True, True])
PRISMATIC_INDEX = 2


def to_deg_mm(q) -> np.ndarray:
    """(..., 6) joint values from rad/m to the deg/mm of calib_dataset.csv."""
    return np.where(REVOLUTE, np.degrees(q), np.multiply(q, 1000.0))


def from_deg_mm(q) -> np.ndarray:
    """(..., 6) joint values from deg/mm to rad/m, the inverse of to_deg_mm."""
    return np.where(REVOLUTE, np.radians(q), np.divide(q, 1000.0))


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

    def joint_distance(self, qa, qb) -> float:
        """Per-joint infinity norm of qa - qb, two sequences of six floats,
        with the prismatic entry in radian equivalents (prismatic_scale
        rad/m). On lists of Python floats a call takes about a microsecond."""
        d = [abs(a - b) for a, b in zip(qa, qb, strict=True)]
        d[PRISMATIC_INDEX] *= self.prismatic_scale
        return float(max(d))


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


def ik_arrays(
    model: KinematicModel,
    rotations: np.ndarray,
    translations: np.ndarray,
    q4_hint: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All closed-form joint solutions within the joint limits (to 1e-9)
    that reach each tool pose of a stack, (n, 3, 3) rotations and (n, 3)
    translations, in one set of numpy calls over every row.

    Both shoulder branches and both wrist-pitch branches of each row are
    solved together. A shaft along base z (|sin q2| < 1e-12) leaves q1
    undetermined: it is frozen at 0, one shoulder branch. At a wrist
    singularity (|sin q5| < 1e-9) q4 is frozen at q4_hint and the residual
    assigned to q6, one wrist branch. Revolute ranges wider than 2*pi admit
    shifted copies of a wrapped solution: a branch's solutions are the
    product of each joint's in-limit values among v, v - 2*pi and v + 2*pi.

    Returns (joints, starts, reachable, hinted): the (k, 6) solutions, row
    i's being joints[starts[i]:starts[i + 1]], sorted lexicographically;
    per row, whether the wrist point lies beyond the remote center of
    motion (a row where it does not has no solutions), and whether a wrist
    singularity made the solutions depend on q4_hint.
    """
    R = np.asarray(rotations, dtype=float)
    t = np.asarray(translations, dtype=float)
    n = len(t)
    w = t - model.yaw_to_tip * R[:, :, 2]
    nw = np.sqrt(np.vecdot(w, w))  # the bits of np.linalg.norm of each row
    s = nw - model.pitch_to_yaw
    reachable = s > 1e-12
    d = w / np.where(reachable, nw, 1.0)[:, None]  # no division by a zero distance
    q2a = np.arccos(np.clip(d[:, 2], -1.0, 1.0))
    along_z = np.abs(np.sin(q2a)) < 1e-12
    # shoulder branches, (2, n)
    q1 = np.where(along_z, 0.0, np.stack([np.arctan2(d[:, 0], -d[:, 1]),
                                          np.arctan2(-d[:, 0], d[:, 1])]))
    q2 = np.stack([q2a, -q2a])
    Rw = np.swapaxes(_rz(q1) @ _rx(q2), -1, -2) @ R  # = Rz(q4) Rx(q5) Rz(q6)
    cb = np.clip(Rw[..., 2, 2], -1.0, 1.0)
    sb = np.hypot(Rw[..., 0, 2], Rw[..., 1, 2])
    singular = sb < 1e-9
    a = np.arctan2(Rw[..., 0, 2], -Rw[..., 1, 2])
    b = np.arctan2(sb, cb)
    c = np.arctan2(Rw[..., 2, 0], Rw[..., 2, 1])
    # the singular angle is q4 + q6 at q5 = 0 and q4 - q6 at q5 = pi
    angle = np.arctan2(Rw[..., 1, 0], Rw[..., 0, 0])
    up = cb > 0
    # wrist branches over shoulder branches, (2, 2, n)
    q4 = np.stack([np.where(singular, q4_hint, a), _wrap(a + np.pi)])
    q5 = np.stack([np.where(singular, np.where(up, 0.0, np.pi), b), -b])
    q6 = np.stack([np.where(singular, _wrap(np.where(up, angle - q4_hint, q4_hint - angle)), c),
                   _wrap(c + np.pi)])
    shape = (2, 2, n)
    base = np.stack([np.broadcast_to(q1, shape), np.broadcast_to(q2, shape),
                     np.broadcast_to(s - model.shaft_offset, shape), q4, q5, q6], axis=-1)
    shoulder_ok = reachable & np.stack([np.ones(n, dtype=bool), ~along_z])
    valid = np.stack([shoulder_ok, shoulder_ok & ~singular])
    # (n, shoulder, wrist) order, as the branches are enumerated
    base, valid = base.transpose(2, 1, 0, 3).reshape(-1, 6), valid.transpose(2, 1, 0).reshape(-1)
    copies = np.stack([base, base - 2.0 * np.pi, base + 2.0 * np.pi], axis=-1)  # (4n, 6, 3)
    lo, hi = model.joint_limits[:, :1], model.joint_limits[:, 1:]
    ok = (lo - 1e-9 <= copies) & (copies <= hi + 1e-9) & valid[:, None, None]
    ok[:, PRISMATIC_INDEX, 1:] = False
    # the product, joint by joint: each partial solution times its next joint's values
    branch, picks = np.arange(len(base)), []
    for j in range(6):
        keep, pick = np.nonzero(ok[branch, j])
        branch, picks = branch[keep], [p[keep] for p in picks] + [pick]
    joints = copies[branch[:, None], np.arange(6), np.stack(picks, axis=-1)]
    row = branch // 4
    order = np.lexsort((*joints.T[::-1], row))  # stable, as list.sort of tuples is
    starts = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    return joints[order], starts, reachable, np.any(shoulder_ok & singular, axis=0)


def ik(model: KinematicModel, target: RigidPose, q4_hint: float = 0.0) -> list[JointVector]:
    """ik_arrays of one tool pose: its solutions, sorted lexicographically.
    Raises Unreachable when the wrist point is at or behind the remote
    center of motion."""
    joints, _, reachable, _ = ik_arrays(model, target.rotation[None], target.translation[None],
                                        q4_hint)
    if not reachable[0]:
        raise Unreachable("wrist point at or behind the remote center of motion")
    return list(joints)
