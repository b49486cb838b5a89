import numpy as np
import pytest

from suturekit.geometry import RigidPose
from suturekit.psm_kinematics import (
    KinematicModel,
    PRISMATIC_INDEX,
    Unreachable,
    fk,
    fk_arrays,
    ik,
)


def _hom(R=None, t=None):
    T = np.eye(4)
    if R is not None:
        T[:3, :3] = R
    if t is not None:
        T[:3, 3] = t
    return T


def _rz4(a):
    c, s = np.cos(a), np.sin(a)
    return _hom(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


def _rx4(a):
    c, s = np.cos(a), np.sin(a)
    return _hom(np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]))


def fk_oracle(model, q):
    """Independent transform-product forward kinematics."""
    T = (
        _rz4(q[0])
        @ _rx4(q[1])
        @ _hom(t=[0.0, 0.0, model.shaft_offset + q[2]])
        @ _rz4(q[3])
        @ _hom(t=[0.0, 0.0, model.pitch_to_yaw])
        @ _rx4(q[4])
        @ _hom(t=[0.0, 0.0, model.yaw_to_tip])
        @ _rz4(q[5])
    )
    return RigidPose(T[:3, :3], T[:3, 3])


def random_in_limit(model, rng, wrist_margin=1e-3):
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    while True:
        q = rng.uniform(lo, hi)
        if abs(q[4]) > wrist_margin:  # keep away from the wrist singularity
            return q


class TestForwardKinematics:
    def test_matches_transform_product_oracle(self):
        model = KinematicModel()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            q = random_in_limit(model, rng, wrist_margin=0.0)
            a, b = fk(model, q), fk_oracle(model, q)
            assert np.allclose(a.rotation, b.rotation, atol=1e-12)
            assert np.allclose(a.translation, b.translation, atol=1e-12)

    def test_batch_matches_single_calls_bitwise(self):
        model = KinematicModel()
        rng = np.random.default_rng(4)
        Q = np.array([random_in_limit(model, rng, wrist_margin=0.0) for _ in range(200)])
        R, t = fk_arrays(model, Q)
        assert R.shape == (200, 3, 3) and t.shape == (200, 3)
        for q, Ri, ti in zip(Q, R, t):
            pose = fk(model, q)
            assert np.array_equal(Ri, pose.rotation)
            assert np.array_equal(ti, pose.translation)

    def test_single_configuration_is_a_validated_pose(self):
        model = KinematicModel()
        q = np.array([0.2, -0.3, 0.1, 1.0, 0.4, -0.5])
        pose = fk(model, q)
        assert isinstance(pose, RigidPose)
        assert np.allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)
        with pytest.raises(ValueError):
            fk(model, np.tile(q, (2, 1)))  # a batch is not one pose

    def test_pure_insertion_moves_along_z(self):
        model = KinematicModel(pitch_to_yaw=0.0, yaw_to_tip=0.0)
        pose = fk(model, np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0]))
        assert np.allclose(pose.translation, [0.0, 0.0, 0.1], atol=1e-15)
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)

    def test_shaft_offset_adds_to_insertion(self):
        model = KinematicModel(shaft_offset=0.05, pitch_to_yaw=0.0, yaw_to_tip=0.0)
        pose = fk(model, np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0]))
        assert np.isclose(pose.translation[2], 0.15)


class TestInverseKinematics:
    def test_roundtrip_membership(self):
        model = KinematicModel()
        rng = np.random.default_rng(1)
        for _ in range(300):
            q = random_in_limit(model, rng)
            sols = ik(model, fk(model, q))
            assert sols, "no in-limit solution for an in-limit configuration"
            best = min(np.max(np.abs(s - q)) for s in sols)
            assert best < 1e-9

    def test_solutions_reach_target(self):
        model = KinematicModel()
        rng = np.random.default_rng(2)
        for _ in range(100):
            target = fk(model, random_in_limit(model, rng))
            for s in ik(model, target):
                assert model.in_limits(s)
                reached = fk(model, s)
                assert np.allclose(reached.rotation, target.rotation, atol=1e-9)
                assert np.allclose(reached.translation, target.translation, atol=1e-12)

    def test_at_most_two_solutions_with_narrow_limits(self):
        limits = np.array(
            [[-1.5, 1.5], [-0.9, 0.9], [0.01, 0.24], [-2.2, 2.2], [-1.5, 1.5], [-2.2, 2.2]]
        )
        model = KinematicModel(joint_limits=limits)
        rng = np.random.default_rng(3)
        counts = set()
        for _ in range(200):
            target = fk(model, random_in_limit(model, rng))
            sols = ik(model, target)
            assert 1 <= len(sols) <= 2
            counts.add(len(sols))
        assert 2 in counts  # both wrist branches regularly admissible

    def test_wide_roll_range_adds_shifted_copies(self):
        model = KinematicModel()
        q = np.array([0.1, 0.2, 0.1, 3.5, 0.4, 0.1])
        sols = ik(model, fk(model, q))
        q4s = sorted(s[3] for s in sols)
        assert any(abs(v - 3.5) < 1e-9 for v in q4s)
        assert any(abs(v - (3.5 - 2.0 * np.pi)) < 1e-9 for v in q4s)

    def test_singular_wrist_uses_hint(self):
        model = KinematicModel()
        q = np.array([0.2, 0.3, 0.1, 0.7, 0.0, 0.4])
        sols = ik(model, fk(model, q), q4_hint=0.7)
        assert sols and all(s[3] == 0.7 for s in sols)  # q4 frozen at the hint
        match = min(sols, key=lambda s: np.max(np.abs(s - q)))
        assert np.allclose(match, q, atol=1e-9)

    def test_unreachable_at_rcm(self):
        model = KinematicModel()
        target = RigidPose(np.eye(3), np.array([0.0, 0.0, model.yaw_to_tip]))
        with pytest.raises(Unreachable):
            ik(model, target)


class TestModelUtilities:
    def test_joint_distance_prismatic_scaling(self):
        model = KinematicModel()
        qa, qb = np.zeros(6), np.zeros(6)
        qb[PRISMATIC_INDEX] = 0.01
        assert np.isclose(model.joint_distance(qa, qb), 0.1)

    def test_in_limits_boundary_tolerance(self):
        model = KinematicModel()
        q = model.joint_limits[:, 1].copy()
        assert model.in_limits(q)
        q[0] += 1e-6
        assert not model.in_limits(q)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            KinematicModel(joint_limits=np.zeros((6, 2)))
