import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suturekit.geometry import (
    PinholeCamera,
    RigidPose,
    StereoRig,
    rotation_geodesic,
)

from conftest import pinhole_oracle, random_rotation


def simple_camera(pose=None):
    kwargs = {} if pose is None else {"pose_world_from_camera": pose}
    return PinholeCamera(500.0, 500.0, 320.0, 240.0, 640, 480, **kwargs)


def rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def project_one(cam, p):
    px, valid = cam.project_many(np.array([p], dtype=float))
    assert valid.all()
    return px[0]


class TestProjection:
    def test_principal_axis_point(self):
        cam = simple_camera()
        assert np.allclose(project_one(cam, [0.0, 0.0, 1.0]), [320.0, 240.0])

    def test_off_axis_point(self):
        cam = simple_camera()
        assert np.allclose(project_one(cam, [0.2, 0.0, 1.0]), [420.0, 240.0])

    def test_depth_invariance_of_direction(self):
        cam = simple_camera()
        assert np.allclose(project_one(cam, [0.4, 0.0, 2.0]), [420.0, 240.0])

    @pytest.mark.parametrize("z", [0.0, -0.5])
    def test_non_positive_depth(self, z):
        cam = simple_camera()
        px, valid = cam.project_many(np.array([[0.1, 0.0, z]]))
        assert valid.tolist() == [False]
        assert np.isnan(px).all()

    def test_project_many_matches_oracle(self):
        rng = np.random.default_rng(0)
        cam = simple_camera(RigidPose(random_rotation(rng), rng.normal(size=3)))
        pts = cam.pose_world_from_camera.apply(
            np.column_stack([rng.normal(size=(50, 2)) * 0.1, rng.uniform(0.2, 2.0, 50)])
        )
        px, valid = cam.project_many(pts)
        assert valid.all()
        for p, row in zip(pts, px):
            assert np.allclose(row, pinhole_oracle(cam, p), atol=1e-9)
        # leading axes are kept: (5, 10, 3) points give (5, 10, 2) pixels
        px_b, valid_b = cam.project_many(pts.reshape(5, 10, 3))
        assert px_b.shape == (5, 10, 2) and valid_b.shape == (5, 10)
        assert np.allclose(px_b.reshape(-1, 2), [pinhole_oracle(cam, p) for p in pts], atol=1e-9)

    def test_world_to_camera_depth(self):
        rng = np.random.default_rng(1)
        cam = simple_camera(RigidPose(random_rotation(rng), rng.normal(size=3)))
        pts = rng.normal(size=(20, 3))
        R = cam.pose_world_from_camera.rotation
        assert np.allclose(cam.world_to_camera(pts)[:, 2], (pts - cam.center) @ R[:, 2],
                           atol=1e-12)

    def test_project_many_flags_behind(self):
        cam = simple_camera()
        px, valid = cam.project_many(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        assert valid.tolist() == [True, False]
        assert np.isnan(px[1]).all()


class TestBackprojection:
    def test_principal_point_ray(self):
        cam = simple_camera()
        assert np.allclose(cam.backproject_ray([320.0, 240.0]), [0.0, 0.0, 1.0])

    def test_45_degree_ray(self):
        cam = simple_camera()
        ray = cam.backproject_ray([320.0 + 500.0, 240.0])
        assert np.allclose(ray, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))

    @given(
        u=st.floats(1.0, 639.0),
        v=st.floats(1.0, 479.0),
        depth=st.floats(0.05, 5.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_random_camera(self, u, v, depth, seed):
        rng = np.random.default_rng(seed)
        cam = simple_camera(RigidPose(random_rotation(rng), rng.normal(size=3)))
        ray = cam.backproject_ray([u, v])
        point = cam.center + depth * ray
        assert np.allclose(pinhole_oracle(cam, point), [u, v], atol=1e-6)
        # an (n, 2) batch gives the single-pixel rays row by row
        pixels = np.array([[u, v], [640.0 - u, 480.0 - v]])
        rays = cam.backproject_ray(pixels)
        assert rays.shape == (2, 3)
        assert np.allclose(rays, [cam.backproject_ray(px) for px in pixels], atol=1e-15)


class TestRigidPose:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(RigidPose.identity().apply(p), p)

    def test_compose_translations(self):
        a = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        b = RigidPose(np.eye(3), np.array([0.0, 2.0, 0.0]))
        assert np.allclose(a.compose(b).translation, [1.0, 2.0, 0.0])

    def test_compose_rotation_then_translation(self):
        a = RigidPose(rot_z(np.pi / 2.0), np.zeros(3))
        b = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(a.compose(b).translation, [0.0, 1.0, 0.0], atol=1e-12)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(3)
        a = RigidPose(random_rotation(rng), rng.normal(size=3))
        ident = a.compose(a.inverse())
        assert np.allclose(ident.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(ident.translation, 0.0, atol=1e-12)

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(4)
        a = RigidPose(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        hom = a.matrix() @ np.append(p, 1.0)
        assert np.allclose(a.apply(p), hom[:3], atol=1e-12)

    def test_long_chain_stays_orthonormal(self):
        rng = np.random.default_rng(5)
        acc = RigidPose.identity()
        for _ in range(1000):
            acc = acc.compose(RigidPose(random_rotation(rng), rng.normal(size=3)))
            R = acc.rotation
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidPose(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidPose(R, np.zeros(3))


class TestRotationGeodesic:
    def test_identity_is_zero(self):
        assert rotation_geodesic(np.eye(3), np.eye(3)) == 0.0

    @pytest.mark.parametrize("angle", [1e-9, 1e-6, 0.3, 1.0, 2.5, np.pi - 1e-6])
    def test_recovers_z_rotation_angle(self, angle):
        got = rotation_geodesic(np.eye(3), rot_z(angle))
        assert abs(got - angle) < 1e-7 * max(1.0, angle)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        Ra, Rb = random_rotation(rng), random_rotation(rng)
        assert np.isclose(rotation_geodesic(Ra, Rb), rotation_geodesic(Rb, Ra))


class TestStereoRig:
    def test_zero_baseline_rejected(self):
        cam = simple_camera()
        with pytest.raises(ValueError):
            StereoRig(cam, cam)

    def test_cameras_property(self):
        left = simple_camera()
        right = simple_camera(RigidPose(np.eye(3), np.array([0.02, 0.0, 0.0])))
        rig = StereoRig(left, right)
        assert rig.cameras == (left, right)


class TestValidation:
    def test_bad_focal_length(self):
        with pytest.raises(ValueError):
            PinholeCamera(0.0, 500.0, 320.0, 240.0, 640, 480)
