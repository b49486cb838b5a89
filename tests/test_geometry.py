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

    @pytest.mark.parametrize("batch", [(), (9,), (2, 9)], ids=str)
    def test_rotated_rays_match_the_per_component_formula(self, batch):
        rng = np.random.default_rng(len(batch))
        cam = PinholeCamera(
            812.5, 790.25, 301.7, 255.3, 640, 480,
            pose_world_from_camera=RigidPose(random_rotation(rng), rng.normal(size=3)),
        )
        p = rng.uniform(0.0, 640.0, batch + (2,))
        d = np.stack([(p[..., 0] - cam.cx) / cam.fx, (p[..., 1] - cam.cy) / cam.fy,
                      np.ones(batch)], axis=-1) @ cam.pose_world_from_camera.rotation.T
        expected = d / np.linalg.norm(d, axis=-1, keepdims=True)
        assert cam.backproject_ray(p).tobytes() == expected.tobytes()


class TestRigidPose:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(RigidPose.identity().apply(p), p)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(3)
        a = RigidPose(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(a.matrix() @ a.inverse().matrix(), np.eye(4), atol=1e-12)
        assert np.allclose(a.inverse().apply(a.apply(np.eye(3))), np.eye(3), atol=1e-12)

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(4)
        a = RigidPose(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        hom = a.matrix() @ np.append(p, 1.0)
        assert np.allclose(a.apply(p), hom[:3], atol=1e-12)

    def test_long_chain_stays_orthonormal(self):
        """A product of 1000 random rotations stays well inside the check's
        bound, so chained poses are still poses."""
        rng = np.random.default_rng(5)
        acc = RigidPose.identity()
        for _ in range(1000):
            step = RigidPose(random_rotation(rng), rng.normal(size=3))
            acc = RigidPose(acc.rotation @ step.rotation,
                            acc.rotation @ step.translation + acc.translation)
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


def valid_stack(n=7, seed=12):
    rng = np.random.default_rng(seed)
    return np.stack([random_rotation(rng) for _ in range(n)]), rng.normal(size=(n, 3))


def shear(a):
    """A matrix whose R^T R has the off-diagonal entry a, and det 1."""
    R = np.eye(3)
    R[0, 1] = a
    return R


class TestFromStack:
    def test_poses_bit_equal_to_per_pose_construction(self):
        R, t = valid_stack()
        poses = RigidPose.from_stack(R, t)
        assert len(poses) == len(R)
        for pose, Ri, ti in zip(poses, R, t):
            one = RigidPose(Ri, ti)
            assert pose.rotation.tobytes() == one.rotation.tobytes()
            assert pose.translation.tobytes() == one.translation.tobytes()
            assert type(pose) is RigidPose and repr(pose) == repr(one)

    def test_empty_stack(self):
        assert RigidPose.from_stack(np.zeros((0, 3, 3)), np.zeros((0, 3))) == []

    # (rotation, translation) of one bad pose, with the message RigidPose raises
    BAD = {
        "nan-translation": (np.eye(3), [0.0, np.nan, 0.0], "translation is not finite"),
        "inf-translation": (np.eye(3), [np.inf, 0.0, 0.0], "translation is not finite"),
        "nan-rotation": (np.where(np.eye(3) == 1, np.nan, 0.0), np.zeros(3), "not orthonormal"),
        "inf-rotation": (shear(-np.inf), np.zeros(3), "not orthonormal"),
        "shear-past-bound": (shear(1.01e-8), np.zeros(3), "not orthonormal"),
        "reflection": (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "determinant is not"),
        "scaled-past-det": (np.eye(3) * (1.0 + 1e-6), np.zeros(3), "determinant is not"),
    }

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("case", BAD)
    def test_one_bad_pose_raises_the_single_pose_message(self, case, row):
        bad_R, bad_t, message = self.BAD[case]
        with pytest.raises(ValueError, match=message) as single:
            RigidPose(bad_R, np.asarray(bad_t))
        R, t = valid_stack()
        R[row], t[row] = bad_R, bad_t
        with pytest.raises(ValueError, match=message) as stacked:
            RigidPose.from_stack(R, t)
        assert str(stacked.value) == str(single.value)

    def test_accepts_exactly_what_rigid_pose_accepts(self):
        """Across both sides of the orthonormality bound (shears of about
        1e-8) and of the determinant bound (scalings of about 1e-6 / 3), a
        matrix in a valid stack is accepted exactly when RigidPose accepts it."""
        R, t = valid_stack()
        accepted = []
        for scale in np.linspace(0.9, 1.1, 21):
            for bad in (shear(scale * 1e-8), np.eye(3) * (1.0 + scale * 1e-6 / 3.0)):
                try:
                    RigidPose(bad, np.zeros(3))
                    single = True
                except ValueError:
                    single = False
                R[4] = bad
                try:
                    RigidPose.from_stack(R, t)
                    stacked = True
                except ValueError:
                    stacked = False
                assert stacked == single
                accepted.append(single)
        assert 0 < sum(accepted) < len(accepted)

    @pytest.mark.parametrize("shapes", [((3, 3), (1, 3)), ((2, 3, 3), (3, 3)),
                                        ((2, 3, 3), (2, 2)), ((2, 2, 3), (2, 3))])
    def test_rejects_wrong_shapes(self, shapes):
        R_shape, t_shape = shapes
        with pytest.raises(ValueError, match="expected shapes"):
            RigidPose.from_stack(np.zeros(R_shape), np.zeros(t_shape))


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


def assert_close_to_scipy_slerp(R0, R1, fractions):
    got = slerp(R0, R1, fractions)
    assert np.abs(got - scipy_slerp(R0, R1, fractions)).max() <= 1e-14
    return got


class TestRotationConversions:
    """scipy is the test oracle: `quat_to_matrix` returns its bits, and
    `slerp` agrees with its `Slerp` to within 1e-14."""

    def test_quat_to_matrix_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = rng.normal(size=4) * rng.uniform(0.1, 10.0)  # both normalize first
            assert np.array_equal(quat_to_matrix(q), Rotation.from_quat(q).as_matrix())

    def test_quat_to_matrix_rejects_zero_quaternion(self):
        with pytest.raises(ValueError, match="zero-norm"):
            quat_to_matrix(np.zeros(4))

    def test_slerp_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            R0, R1 = random_rotation(rng), random_rotation(rng)
            assert_close_to_scipy_slerp(R0, R1, np.linspace(0.0, 1.0, int(rng.integers(2, 20))))

    def test_slerp_of_identical_rotations_stays_put(self):
        rng = np.random.default_rng(4)
        fractions = np.linspace(0.0, 1.0, 5)
        for _ in range(20):
            R = random_rotation(rng)
            got = assert_close_to_scipy_slerp(R, R, fractions)
            assert np.abs(got - R).max() <= 1e-15

    @pytest.mark.parametrize("angle", [1e-12, 1e-9, 1e-6, 1e-4, 9e-4, 2e-3])
    def test_slerp_over_short_arcs_matches_scipy(self, angle):
        # arcs below 1e-6 rad interpolate the quaternions linearly
        rng = np.random.default_rng(6)
        fractions = np.linspace(0.0, 1.0, 5)
        for _ in range(20):
            R0 = random_rotation(rng)
            R1 = axis_angle(rng.normal(size=3), angle) @ R0
            assert_close_to_scipy_slerp(R0, R1, fractions)

    def test_slerp_between_exact_half_turns_takes_a_shortest_arc(self):
        # q0 . q1 == 0 exactly: both ways round are shortest arcs, so the
        # check is the arc, not scipy's choice of side
        turns = [np.diag(d) for d in ([1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
        n = 5
        for R0 in turns:
            for R1 in turns:
                if R0 is R1:
                    continue
                got = slerp(R0, R1, np.linspace(0.0, 1.0, n))
                assert np.array_equal(got[0], R0) and np.array_equal(got[-1], R1)
                for a, b in zip(got[:-1], got[1:]):
                    assert rotation_geodesic(a, b) == pytest.approx(np.pi / (n - 1), abs=1e-12)

    @pytest.mark.parametrize("axis", [[0, 0, 1], [1, 1, 0], [1, -2, 0.5], [-1, 0, 0]])
    @pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-6, 1e-2])
    def test_slerp_near_half_turn_matches_scipy(self, axis, gap):
        R0 = random_rotation(np.random.default_rng(5))
        R1 = axis_angle(axis, np.pi - gap) @ R0
        fractions = np.linspace(0.0, 1.0, 7)
        got = slerp(R0, R1, fractions)
        if gap > 0:  # a rounded half turn (gap 0) has two shortest arcs, as above
            assert_close_to_scipy_slerp(R0, R1, fractions)
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
        got = assert_close_to_scipy_slerp(R0, R1, np.linspace(0.0, 1.0, 9))
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
