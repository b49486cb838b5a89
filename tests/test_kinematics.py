import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from suturekit.geometry import RigidPose
from suturekit.psm_kinematics import (
    _DEFAULT_LIMITS,
    KinematicModel,
    PRISMATIC_INDEX,
    REVOLUTE,
    Unreachable,
    fk,
    fk_arrays,
    from_deg_mm,
    ik,
    ik_arrays,
    to_deg_mm,
)

from conftest import reference_ik


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
        lo, hi = model.joint_limits.T
        rng = np.random.default_rng(2)
        for _ in range(100):
            target = fk(model, random_in_limit(model, rng))
            for s in ik(model, target):
                assert np.all(s >= lo - 1e-9) and np.all(s <= hi + 1e-9)
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

    @pytest.mark.parametrize("case", ["random", "roll_near_limit", "wrist_pitch_near_zero"])
    def test_matches_brute_force_shift_product(self, case):
        """ik returns exactly the in-limit members of the product of
        {-2 pi, 0, +2 pi} shifts over the revolute joints of the wrapped
        branch solutions, bit for bit and in sorted order. The wrapped
        solutions are ik's under revolute limits of [-pi, pi]."""
        model = KinematicModel()
        wrapped = model.joint_limits.copy()
        wrapped[REVOLUTE] = [-np.pi, np.pi]
        wrapped_model = KinematicModel(joint_limits=wrapped)
        lo, hi = model.joint_limits.T
        shifts = (-2.0 * np.pi, 0.0, 2.0 * np.pi)
        revolute = np.flatnonzero(REVOLUTE)
        rng = np.random.default_rng(["random", "roll_near_limit",
                                     "wrist_pitch_near_zero"].index(case))
        for _ in range(40):
            q = random_in_limit(model, rng, wrist_margin=0.0)
            if case == "roll_near_limit":
                # on either side of the 1e-9 limit tolerance
                q[3] = rng.choice([-1.0, 1.0]) * (4.5 + rng.uniform(-2e-9, 2e-9))
            if case == "wrist_pitch_near_zero":
                q[4] = rng.choice([0.0, 1e-12, -1e-7, 1e-4])
            hint = (q[3] + np.pi) % (2.0 * np.pi) - np.pi  # the wrapped roll
            target = fk(model, q)
            expected = []
            for base in ik(wrapped_model, target, q4_hint=hint):
                for combo in itertools.product(shifts, repeat=len(revolute)):
                    v = [float(x) for x in base]
                    for j, shift in zip(revolute, combo):
                        if shift:
                            v[j] += shift
                    v = np.array(v)
                    if np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9):
                        expected.append(v)
            expected.sort(key=tuple)
            got = ik(model, target, q4_hint=hint)
            assert got, "no in-limit solution for an in-limit configuration"
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("limits", ["default", "narrow", "wide-insertion"])
    def test_batch_matches_per_pose_ik_bitwise(self, limits):
        """ik_arrays over one stack equals ik of each pose on its own, and
        both equal the per-pose reference, bit for bit and in order, with a
        hint per row: random configurations, rolls on either side of the
        1e-9 limit tolerance, wrist pitches at and near the singularity,
        shafts along base z and one wrist point behind the remote center of
        motion, which has no solutions."""
        model = KinematicModel(joint_limits={
            "default": _DEFAULT_LIMITS,
            # the model of test_at_most_two_solutions_with_narrow_limits
            "narrow": np.vstack([_DEFAULT_LIMITS[:3], [-2.2, 2.2], _DEFAULT_LIMITS[4:]]),
            # an insertion range wider than 2 pi takes no shifted copies
            "wide-insertion": np.vstack([_DEFAULT_LIMITS[:2], [0.01, 20.0], _DEFAULT_LIMITS[3:]]),
        }[limits])
        rng = np.random.default_rng(7)
        rows = [random_in_limit(model, rng) for _ in range(300)]
        for roll in (4.5 + 2e-9, 4.5 - 2e-9, -4.5 + 2e-9, -4.5 - 2e-9):
            q = random_in_limit(model, rng)
            q[3] = roll
            rows.append(q)
        for pitch in (0.0, 1e-12, -1e-7):
            for shaft_z in (False, True):
                q = random_in_limit(model, rng)
                q[4] = pitch
                if shaft_z:
                    q[1] = 0.0
                rows.append(q)
        rows.insert(150, np.array([0.2, 0.1, 0.05, 0.3, 0.4, 0.5]))  # moved behind the RCM below
        R, t = fk_arrays(model, np.array(rows))
        t[150] = model.yaw_to_tip * R[150, :, 2]  # the wrist point at the RCM itself
        hints = rng.uniform(-np.pi, np.pi, len(rows))
        joints, starts, reachable, hinted = ik_arrays(model, R, t, hints)
        assert starts.shape == (len(rows) + 1,) and starts[-1] == len(joints)
        assert reachable.tolist() == [i != 150 for i in range(len(rows))]
        for i in range(len(rows)):
            pose = RigidPose(R[i], t[i])
            got = joints[starts[i]:starts[i + 1]]
            if i == 150:
                assert len(got) == 0
                with pytest.raises(Unreachable):
                    ik(model, pose, q4_hint=float(hints[i]))
                continue
            expected = reference_ik(model, pose, q4_hint=float(hints[i]))
            for sols in (got, ik(model, pose, q4_hint=float(hints[i]))):
                assert len(sols) == len(expected)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(sols, expected))
            # hinted marks the rows whose solutions follow the hint
            other = ik(model, pose, q4_hint=float(hints[i]) + 0.5)
            moved = len(other) != len(expected) or any(
                a.tobytes() != b.tobytes() for a, b in zip(other, expected))
            assert moved == (bool(hinted[i]) and bool(expected or other))
        assert 0 < hinted.sum() < len(rows)
        counts = np.diff(starts)
        assert {1, 2} <= set(counts.tolist())  # shifted roll copies or both wrist branches

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

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            KinematicModel(joint_limits=np.zeros((6, 2)))


class TestDegMm:
    """to_deg_mm and from_deg_mm give the bits of the per-column expressions
    that the dataset CSV, calib eval and control-sim once wrote by hand."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.just(6))))
    @np.errstate(over="ignore", under="ignore")  # both sides overflow alike
    def test_same_bits_as_the_expressions_replaced(self, q):
        deg_mm, rad_m = q.copy(), q.copy()
        deg_mm[:, REVOLUTE] = np.degrees(deg_mm[:, REVOLUTE])
        deg_mm[:, PRISMATIC_INDEX] *= 1000.0
        rad_m[:, REVOLUTE] = np.radians(rad_m[:, REVOLUTE])
        rad_m[:, PRISMATIC_INDEX] /= 1000.0
        assert to_deg_mm(q).tobytes() == deg_mm.tobytes()
        assert from_deg_mm(q).tobytes() == rad_m.tobytes()
        # calib eval's (6, 2) table, converted column by column
        shown = np.degrees(q[:2].T)
        shown[PRISMATIC_INDEX] = q[:2].T[PRISMATIC_INDEX] * 1e3
        assert to_deg_mm(q[:2]).T.tobytes() == shown.tobytes()

    def test_control_defaults(self):
        disturbance = np.full(6, np.radians(1.5))
        disturbance[PRISMATIC_INDEX] = 0.1e-3
        assert from_deg_mm([1.5, 1.5, 0.1, 1.5, 1.5, 1.5]).tobytes() == disturbance.tobytes()
        target = np.radians(np.array([10, -5, 0, 20, 15, -10], dtype=float))
        target[PRISMATIC_INDEX] = 120.0 / 1000.0
        assert from_deg_mm([10, -5, 120, 20, 15, -10]).tobytes() == target.tobytes()
