import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from suturekit import bench
from suturekit.psm_kinematics import PRISMATIC_INDEX, Unreachable


@pytest.fixture(scope="session")
def rig():
    return bench.default_rig()


@pytest.fixture(scope="session")
def shape():
    return bench.DEFAULT_SHAPE


@pytest.fixture(scope="session")
def mono_camera():
    return bench.default_mono_camera()


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak of the memory that tracemalloc saw
    allocated during the call, in bytes, the result included."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_rotation(rng):
    q = rng.normal(size=4)
    return Rotation.from_quat(q / np.linalg.norm(q)).as_matrix()


def pinhole_oracle(cam, p):
    """Independent pinhole projection of one world point: homogeneous
    K [R | t] X with [R | t] the inverted 4x4 camera pose."""
    K = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    Rt = np.linalg.inv(cam.pose_world_from_camera.matrix())[:3]
    x = K @ Rt @ np.append(p, 1.0)
    return x[:2] / x[2]


def _rot(axis, a):
    c, s = float(np.cos(a)), float(np.sin(a))
    R = np.eye(3)
    i, j = {"x": (1, 2), "z": (0, 1)}[axis]
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def reference_ik(model, target, q4_hint=0.0):
    """The per-pose closed form on Python floats, one branch at a time, as
    ik computed it before ik_arrays: the oracle for the bits of both."""
    R = target.rotation
    w = target.translation - model.yaw_to_tip * R[:, 2]
    nw = float(np.linalg.norm(w))
    s = nw - model.pitch_to_yaw
    if s <= 1e-12:
        raise Unreachable("wrist point at or behind the remote center of motion")
    dx, dy, dz = (w / nw).tolist()
    q2a = float(np.arccos(min(max(dz, -1.0), 1.0)))
    if abs(np.sin(q2a)) < 1e-12:
        shoulder = [(0.0, q2a)]
    else:
        shoulder = [(float(np.arctan2(dx, -dy)), q2a), (float(np.arctan2(-dx, dy)), -q2a)]
    sols = []
    for q1, q2 in shoulder:
        Rw = ((_rot("z", q1) @ _rot("x", q2)).T @ R).tolist()
        cb = min(max(Rw[2][2], -1.0), 1.0)
        sb = float(np.hypot(Rw[0][2], Rw[1][2]))
        if sb < 1e-9:
            angle = float(np.arctan2(Rw[1][0], Rw[0][0]))
            q6 = _wrap(angle - q4_hint) if cb > 0 else _wrap(q4_hint - angle)
            branches = [(q4_hint, 0.0 if cb > 0 else np.pi, q6)]
        else:
            a = float(np.arctan2(Rw[0][2], -Rw[1][2]))
            b = float(np.arctan2(sb, cb))
            c = float(np.arctan2(Rw[2][0], Rw[2][1]))
            branches = [(a, b, c), (_wrap(a + np.pi), -b, _wrap(c + np.pi))]
        for q4, q5, q6 in branches:
            values = []
            for j, v in enumerate((q1, q2, s - model.shaft_offset, q4, q5, q6)):
                lo, hi = model.joint_limits[j].tolist()
                copies = (v,) if j == PRISMATIC_INDEX else (v, v - 2.0 * np.pi, v + 2.0 * np.pi)
                values.append([x for x in copies if lo - 1e-9 <= x <= hi + 1e-9])
            sols += itertools.product(*values)
    sols.sort()
    return [np.array(v) for v in sols]
