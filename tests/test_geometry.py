import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from suturekit.geometry import (
    PinholeCamera,
    RigidPose,
    StereoRig,
    quat_to_matrix,
    rotation_geodesic,
    slerp,
)
from suturekit.geometry import _quat_matrix, _rotvec_quat

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

    def test_orthonormality_check_is_allclose(self):
        """RigidPose accepts exactly the rotations np.allclose(R.T @ R, I,
        atol=1e-8) accepts (with a +1 determinant), on matrices whose R^T R
        deviates from I across the 1e-8 off-diagonal and the 1e-8 + 1e-5
        diagonal bounds."""
        rng = np.random.default_rng(11)
        matrices = []
        for scale in np.linspace(0.98, 1.02, 81):
            Q = random_rotation(rng)
            a = scale * 1e-8  # shear: (R^T R)[0, 1] = a
            shear = np.eye(3)
            shear[0, 1] = a
            s = scale * (1e-8 + 1e-5)  # (R^T R) diagonal 1 + s and ~1 - s
            stretch = np.diag([np.sqrt(1.0 + s), 1.0 / np.sqrt(1.0 + s), 1.0])
            matrices += [shear, Q @ shear, stretch, Q @ stretch]
        accepted = []
        for R in matrices:
            expected = bool(np.allclose(R.T @ R, np.eye(3), atol=1e-8)
                            and abs(np.linalg.det(R) - 1.0) <= 1e-6)
            try:
                RigidPose(R, np.zeros(3))
                got = True
            except ValueError:
                got = False
            assert got == expected
            accepted.append(got)
        assert 0 < sum(accepted) < len(accepted)  # both sides of the bounds

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, value):
        R = np.eye(3)
        R[1, 2] = value
        with pytest.raises(ValueError, match="not orthonormal"):
            RigidPose(R, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, value):
        with pytest.raises(ValueError, match="translation is not finite"):
            RigidPose(np.eye(3), np.array([value, 0.0, 0.0]))


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


def scipy_slerp(R0, R1, fractions):
    return Slerp([0.0, 1.0], Rotation.from_matrix(np.stack([R0, R1])))(fractions).as_matrix()


def axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    return Rotation.from_rotvec(angle * axis / np.linalg.norm(axis)).as_matrix()


def rotvec_matrix(v):
    """Rotation matrix of a rotation vector through `slerp`'s own step."""
    return np.array(_quat_matrix(_rotvec_quat(*v.tolist())))


class TestRotationConversions:
    """The rotation conversions return scipy's bits (scipy is the test oracle)."""

    def test_quat_to_matrix_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = rng.normal(size=4) * rng.uniform(0.1, 10.0)  # both normalize first
            assert np.array_equal(quat_to_matrix(q), Rotation.from_quat(q).as_matrix())

    def test_quat_to_matrix_rejects_zero_quaternion(self):
        with pytest.raises(ValueError, match="zero-norm"):
            quat_to_matrix(np.zeros(4))

    @pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-7, 3e-4, 1e-3, 1.0000001e-3, 0.3, 2.0,
                                       np.pi - 1e-9, np.pi, 5.0])
    def test_rotvec_quat_matches_scipy(self, angle):
        rng = np.random.default_rng(1)
        for _ in range(50):
            axis = rng.normal(size=3)
            v = angle * axis / np.linalg.norm(axis)
            assert np.array_equal(rotvec_matrix(v), Rotation.from_rotvec(v).as_matrix())

    def test_rotvec_series_below_1e3_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = rng.normal(size=3) * 10.0 ** rng.uniform(-9, -3.3)
            assert np.array_equal(rotvec_matrix(v), Rotation.from_rotvec(v).as_matrix())

    def test_slerp_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            R0, R1 = random_rotation(rng), random_rotation(rng)
            fractions = np.linspace(0.0, 1.0, int(rng.integers(2, 20)))
            assert np.array_equal(slerp(R0, R1, fractions), scipy_slerp(R0, R1, fractions))

    def test_slerp_of_identical_rotations_stays_put(self):
        rng = np.random.default_rng(4)
        fractions = np.linspace(0.0, 1.0, 5)
        for _ in range(20):
            R = random_rotation(rng)
            got = slerp(R, R, fractions)
            assert np.array_equal(got, scipy_slerp(R, R, fractions))
            assert np.allclose(got, R, atol=1e-15)

    @pytest.mark.parametrize("angle", [1e-9, 1e-6, 1e-4, 9e-4, 2e-3])
    def test_slerp_over_short_arcs_matches_scipy(self, angle):
        # arcs below 1e-3 rad take the series branch of the rotation-vector step
        rng = np.random.default_rng(6)
        fractions = np.linspace(0.0, 1.0, 5)
        for _ in range(20):
            R0 = random_rotation(rng)
            R1 = axis_angle(rng.normal(size=3), angle) @ R0
            assert np.array_equal(slerp(R0, R1, fractions), scipy_slerp(R0, R1, fractions))

    def test_slerp_between_exact_half_turns_matches_scipy(self):
        # relative quaternions with w == 0 exactly: the sign of the first
        # nonzero of x, y, z decides which way the half turn goes
        turns = [np.diag(d) for d in ([1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
        fractions = np.linspace(0.0, 1.0, 5)
        for R0 in turns:
            for R1 in turns:
                assert np.array_equal(slerp(R0, R1, fractions), scipy_slerp(R0, R1, fractions))

    @pytest.mark.parametrize("axis", [[0, 0, 1], [1, 1, 0], [1, -2, 0.5], [-1, 0, 0]])
    @pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-6, 1e-2])
    def test_slerp_near_half_turn_matches_scipy(self, axis, gap):
        R0 = random_rotation(np.random.default_rng(5))
        R1 = axis_angle(axis, np.pi - gap) @ R0
        fractions = np.linspace(0.0, 1.0, 7)
        got = slerp(R0, R1, fractions)
        assert np.array_equal(got, scipy_slerp(R0, R1, fractions))
        assert rotation_geodesic(got[3], R0) == pytest.approx((np.pi - gap) / 2, abs=1e-7)

    @pytest.mark.parametrize("tilt", [0.3, 1e-2, 1e-5])
    def test_slerp_flips_a_relative_quaternion_with_negative_w(self, tilt):
        # half turns about axes on either side of (1, -1, 0): the matrix-to-
        # quaternion step builds R0's from its x diagonal and R1's from its y
        # diagonal, which lands them in opposite hemispheres
        R0 = axis_angle([1.0, tilt - 1.0, 0.0], np.pi)
        R1 = axis_angle([1.0 - tilt, -1.0, 0.0], np.pi)
        relative = Rotation.from_matrix(R0).inv() * Rotation.from_matrix(R1)
        assert relative.as_quat()[3] < 0  # so the short arc needs the negated quaternion
        fractions = np.linspace(0.0, 1.0, 9)
        got = slerp(R0, R1, fractions)
        assert np.array_equal(got, scipy_slerp(R0, R1, fractions))
        assert np.allclose(got[-1], R1, atol=1e-14)
        arc = rotation_geodesic(R0, R1)
        assert arc < np.pi / 2
        assert rotation_geodesic(got[4], R0) == pytest.approx(arc / 2, abs=1e-9)


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
