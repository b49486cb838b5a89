import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from suturekit import bench


@pytest.fixture(scope="session")
def rig():
    return bench.default_rig()


@pytest.fixture(scope="session")
def shape():
    return bench.DEFAULT_SHAPE


@pytest.fixture(scope="session")
def mono_camera():
    return bench.default_mono_camera()


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
