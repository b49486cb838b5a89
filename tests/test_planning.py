import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suturekit import bench, geometry
from suturekit.control import NotConverged, PiGains, PlantModel, servo_to
from suturekit.geometry import RigidPose, rotation_geodesic
from suturekit.needle import NeedleShape
from suturekit import planning, psm_kinematics
from suturekit.planning import (
    ChordTooLong,
    DegenerateNormal,
    SuturePorts,
    circular_trajectory,
    linear_trajectory,
    needle_tip_body,
    plan_suture_pass,
    suture_circle,
)
from suturekit.psm_kinematics import KinematicModel, Unreachable, fk

from conftest import random_rotation, reference_ik

SHAPE = NeedleShape(0.01)
OFFSET = RigidPose(np.eye(3), np.array([0.0, 0.0, 0.004]))


def tip_angle(circle, wp):
    """Circle angle of the waypoint's needle tip, from atan2 in the circle
    frame, taken within half a turn of the deepest point."""
    d = wp.pose.apply(needle_tip_body(SHAPE)) - circle.center
    a = np.arctan2(d @ circle.in_plane_y, d @ circle.in_plane_x) - planning._THETA_DEEPEST
    return planning._THETA_DEEPEST + (a + np.pi) % (2.0 * np.pi) - np.pi


def make_ports(chord=0.012, normal=(0.0, 0.0, 1.0), center=(0.0, 0.0, 0.0)):
    center = np.asarray(center, dtype=float)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    chord_dir = np.array([1.0, 0.0, 0.0])
    if abs(chord_dir @ n) > 0.9:
        chord_dir = np.array([0.0, 1.0, 0.0])
    chord_dir = chord_dir - (chord_dir @ n) * n
    chord_dir /= np.linalg.norm(chord_dir)
    return SuturePorts(center - 0.5 * chord * chord_dir, center + 0.5 * chord * chord_dir, n)


class TestSuturePorts:
    def test_coincident_ports_rejected(self):
        p = np.array([0.01, 0.0, 0.0])
        with pytest.raises(ValueError):
            SuturePorts(p, p.copy(), np.array([0.0, 0.0, 1.0]))

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            SuturePorts(np.zeros(3), np.array([0.01, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]))

    def test_normal_parallel_to_chord_rejected(self):
        with pytest.raises(DegenerateNormal):
            SuturePorts(np.zeros(3), np.array([0.01, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestSutureCircle:
    def test_ports_on_circle(self):
        ports = make_ports()
        c = suture_circle(ports, SHAPE)
        for p in (ports.entry, ports.exit):
            assert np.isclose(np.linalg.norm(p - c.center), SHAPE.radius, atol=1e-12)
        assert np.allclose(c.point(c.theta_entry), ports.entry, atol=1e-12)
        assert np.allclose(c.point(c.theta_exit), ports.exit, atol=1e-12)

    def test_center_below_tissue(self):
        ports = make_ports()
        c = suture_circle(ports, SHAPE)
        mid = 0.5 * (ports.entry + ports.exit)
        assert (mid - c.center) @ ports.tissue_normal > 0

    def test_sweep_formula(self):
        L = 0.012
        ports = make_ports(chord=L)
        c = suture_circle(ports, SHAPE)
        expected = 2.0 * np.pi - 2.0 * np.arcsin(L / (2.0 * SHAPE.radius))
        assert np.isclose(c.theta_exit - c.theta_entry, expected, atol=1e-12)

    def test_near_diameter_sweep_approaches_half_turn(self):
        ports = make_ports(chord=2.0 * SHAPE.radius - 1e-7)
        c = suture_circle(ports, SHAPE)
        assert np.isclose(c.theta_exit - c.theta_entry, np.pi, atol=0.01)

    def test_chord_too_long(self):
        with pytest.raises(ChordTooLong):
            suture_circle(make_ports(chord=0.021), SHAPE)

    def test_tilted_normal_projected_into_plane(self):
        ports = make_ports(normal=(0.3, 0.0, 1.0))
        c = suture_circle(ports, SHAPE)
        # plane contains the chord; in-plane basis orthonormal
        assert np.isclose(c.in_plane_x @ c.in_plane_y, 0.0, atol=1e-12)
        assert np.isclose(np.linalg.norm(c.normal), 1.0, atol=1e-12)

    @given(
        chord=st.floats(0.003, 0.019),
        nx=st.floats(-0.8, 0.8),
        ny=st.floats(-0.8, 0.8),
        cz=st.floats(-0.1, 0.1),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_property(self, chord, nx, ny, cz):
        n = np.array([nx, ny, 1.0])
        ports = make_ports(chord=chord, normal=n, center=(0.01, -0.02, cz))
        c = suture_circle(ports, SHAPE)
        thetas = np.linspace(c.theta_entry, c.theta_exit, 33)
        pts = c.point(thetas)
        assert np.allclose(np.linalg.norm(pts - c.center, axis=1), SHAPE.radius, atol=1e-9)
        # the deepest point bisects the sweep, where plan_suture_pass splits it
        assert np.allclose(pts[16], c.center - SHAPE.radius * c.in_plane_y, atol=1e-12)
        assert np.isclose(0.5 * (c.theta_entry + c.theta_exit), planning._THETA_DEEPEST,
                          rtol=0.0, atol=1e-12)


class TestCircularTrajectory:
    def test_waypoints_keep_tip_on_circle(self):
        ports = make_ports()
        c = suture_circle(ports, SHAPE)
        tip_b = needle_tip_body(SHAPE)
        thetas = np.linspace(c.theta_entry, c.theta_exit, 33)
        wps = circular_trajectory(c, SHAPE, thetas)
        for wp, theta in zip(wps, thetas):
            tip = wp.pose.apply(tip_b)
            assert np.isclose(tip_angle(c, wp), theta, atol=1e-9)
            assert np.allclose(tip, c.point(theta), atol=1e-9)
            assert np.allclose(wp.pose.translation, c.center, atol=1e-12)

    def test_entry_and_exit_incidence(self):
        ports = make_ports()
        c = suture_circle(ports, SHAPE)
        tip_b = needle_tip_body(SHAPE)
        wps = circular_trajectory(c, SHAPE, np.linspace(c.theta_entry, c.theta_exit, 17))
        assert np.allclose(wps[0].pose.apply(tip_b), ports.entry, atol=1e-9)
        assert np.allclose(wps[-1].pose.apply(tip_b), ports.exit, atol=1e-9)

    def test_tip_tangent_to_travel_direction(self):
        ports = make_ports(normal=(0.2, 0.1, 1.0))
        c = suture_circle(ports, SHAPE)
        tip_b = needle_tip_body(SHAPE)
        h = 1e-6
        for theta in np.linspace(c.theta_entry + 0.1, c.theta_exit - 0.1, 7):
            wa = circular_trajectory(c, SHAPE, np.array([theta - h, theta + h]))
            vel = wa[-1].pose.apply(tip_b) - wa[0].pose.apply(tip_b)
            vel /= np.linalg.norm(vel)
            radial = wa[0].pose.apply(tip_b) - c.center
            radial /= np.linalg.norm(radial)
            assert abs(vel @ radial) < 1e-3
            assert abs(vel @ c.normal) < 1e-9

    def test_matches_per_angle_construction_bitwise(self):
        """One pass over all angles gives the bits of building each needle
        pose on its own from the angle."""
        ports = make_ports(normal=(0.2, -0.1, 1.0))
        circle = suture_circle(ports, SHAPE)
        thetas = np.linspace(circle.theta_entry, circle.theta_exit, 17)
        wps = circular_trajectory(circle, SHAPE, thetas)
        for theta, wp in zip(thetas, wps):
            a = float(theta) - SHAPE.arc_angle / 2.0
            x_n = np.cos(a) * circle.in_plane_x + np.sin(a) * circle.in_plane_y
            y_n = -np.sin(a) * circle.in_plane_x + np.cos(a) * circle.in_plane_y
            pose = RigidPose(np.column_stack([x_n, y_n, circle.normal]), circle.center)
            assert wp.pose.rotation.tobytes() == pose.rotation.tobytes()
            assert wp.pose.translation.tobytes() == pose.translation.tobytes()


class TestLinearTrajectory:
    def test_start_equals_goal(self):
        pose = RigidPose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        wps = linear_trajectory(pose, pose, 0.01, 0.1)
        assert len(wps) == 1

    def test_pure_translation_spacing(self):
        a = RigidPose.identity()
        b = RigidPose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        wps = linear_trajectory(a, b, 0.01, 0.1)
        assert len(wps) == 11
        xs = np.array([w.pose.translation[0] for w in wps])
        assert np.allclose(np.diff(xs), 0.01, atol=1e-12)

    def test_rotation_midpoint_of_half_turn(self):
        c, s = np.cos(np.pi - 1e-9), np.sin(np.pi - 1e-9)
        Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        wps = linear_trajectory(
            RigidPose.identity(), RigidPose(Rz, np.zeros(3)), 1.0, np.pi / 2.0
        )
        mid = wps[len(wps) // 2].pose.rotation
        assert np.isclose(rotation_geodesic(np.eye(3), mid), np.pi / 2.0, atol=1e-6)

    def test_step_bounds_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
            b = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
            wps = linear_trajectory(a, b, 0.005, 0.1)
            for wa, wb in zip(wps, wps[1:]):
                dp = np.linalg.norm(wb.pose.translation - wa.pose.translation)
                dr = rotation_geodesic(wa.pose.rotation, wb.pose.rotation)
                assert dp <= 0.005 + 1e-12
                assert dr <= 0.1 + 1e-9

    def test_endpoints_exact(self):
        rng = np.random.default_rng(1)
        a = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
        b = RigidPose(random_rotation(rng), rng.normal(0.0, 0.05, 3))
        wps = linear_trajectory(a, b, 0.005, 0.1)
        assert np.array_equal(wps[0].pose.matrix(), a.matrix())
        assert np.array_equal(wps[-1].pose.matrix(), b.matrix())

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            linear_trajectory(RigidPose.identity(), RigidPose.identity(), 0.0, 0.1)


def held(tool, grasp_offset):
    """The needle pose that a tool at `tool` holds at grasp_offset, composed
    on its own as R_t R_g^T and t_t - R_t R_g^T t_g."""
    R = tool.rotation @ grasp_offset.rotation.T
    return RigidPose(R, tool.translation - R @ grasp_offset.translation)


def tool_of(needle, grasp_offset):
    """The tool pose holding `needle` at grasp_offset, composed on its own as
    R_n R_g and R_n t_g + t_n."""
    return RigidPose(needle.rotation @ grasp_offset.rotation,
                     needle.rotation @ grasp_offset.translation + needle.translation)


GRASP = RigidPose(random_rotation(np.random.default_rng(2)), np.array([0.02, 0.01, 0.05]))


@pytest.fixture(scope="module")
def plan():
    ports = make_ports(normal=(0.1, 0.0, 1.0))
    return ports, plan_suture_pass(GRASP, ports, SHAPE, OFFSET)


class TestPlanSuturePass:
    def test_segment_labels(self, plan):
        _, segments = plan
        assert [s.label for s in segments] == [
            "approach", "insertion", "extraction",
        ]

    def test_junction_continuity(self, plan):
        """The approach ends on the insertion's first pose, and the
        extraction goes on from the insertion's last pose by one step of its
        own spacing about the circle center."""
        _, segments = plan
        approach, insertion, extraction = (s.waypoints for s in segments)
        assert approach[-1].pose is insertion[0].pose
        a, b, c = insertion[-1].pose, extraction[0].pose, extraction[1].pose
        assert np.linalg.norm(a.translation - b.translation) < 1e-12
        assert np.isclose(rotation_geodesic(a.rotation, b.rotation),
                          rotation_geodesic(b.rotation, c.rotation), rtol=0.0, atol=1e-9)

    def test_approach_interpolates_the_needle_from_the_one_held(self, plan):
        """The approach is the needle poses of linear_trajectory from the
        needle that the tool at the grasp pose holds to the entry pose, less
        that first one, so its first step leaves the held needle within the
        step limits."""
        _, segments = plan
        start = held(GRASP, OFFSET)
        wps = linear_trajectory(start, segments[1].waypoints[0].pose,
                                planning._MAX_STEP_POS, planning._MAX_STEP_ROT)
        approach = segments[0].waypoints
        assert len(approach) == len(wps) - 1 > 1
        for a, b in zip(approach, wps[1:]):
            assert np.allclose(a.pose.matrix(), b.pose.matrix(), rtol=0.0, atol=1e-12)
        first = approach[0].pose
        assert 0.0 < np.linalg.norm(first.translation - start.translation) <= planning._MAX_STEP_POS
        assert rotation_geodesic(first.rotation, start.rotation) <= planning._MAX_STEP_ROT

    def test_the_entry_is_the_only_repeated_pose(self, plan):
        """The approach ends on the insertion's first pose, the entry, and no
        other two consecutive waypoints of the pass are equal."""
        _, segments = plan
        poses = [wp.pose for seg in segments for wp in seg.waypoints]
        repeats = [i for i, (a, b) in enumerate(zip(poses, poses[1:]))
                   if np.array_equal(a.matrix(), b.matrix())]
        assert repeats == [len(segments[0].waypoints) - 1]

    def test_monotone_arc_parameters(self, plan):
        ports, segments = plan
        circle = suture_circle(ports, SHAPE)
        for seg in segments[1:3]:
            params = [tip_angle(circle, wp) for wp in seg.waypoints]
            assert np.all(np.diff(params) > 0)

    def test_insertion_spans_entry_to_deepest(self, plan):
        ports, segments = plan
        circle = suture_circle(ports, SHAPE)
        ins, ext = segments[1], segments[2]
        assert np.isclose(tip_angle(circle, ins.waypoints[0]), circle.theta_entry)
        assert np.isclose(tip_angle(circle, ins.waypoints[-1]), planning._THETA_DEEPEST)
        assert tip_angle(circle, ext.waypoints[0]) > planning._THETA_DEEPEST
        assert np.isclose(tip_angle(circle, ext.waypoints[-1]), circle.theta_exit)

    def test_circle_waypoints_split_at_the_deepest_point(self, plan):
        """The insertion ends on the deepest point and the extraction holds
        the rest of the sweep, so the two hold _CIRCLE_WAYPOINTS together."""
        _, segments = plan
        assert [len(s.waypoints) for s in segments[1:]] == [32, 32]
        assert sum(len(s.waypoints) for s in segments[1:]) == planning._CIRCLE_WAYPOINTS


def test_plan_builds_only_the_executed_path(monkeypatch):
    """At criterion 10's scene the waypoints plan_suture_pass returns,
    summed over its segments, are the targets bench.plan executes."""
    returned = []

    def recording(*args):
        segments = plan_suture_pass(*args)
        returned.append(sum(len(s.waypoints) for s in segments))
        return segments

    monkeypatch.setattr(bench, "plan_suture_pass", recording)
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    _, path, _ = bench.plan(bench.suture_scene(cfg), cfg.shape)
    assert returned == [len(path)]


def test_run_suture_unreachable_waypoint_is_typed(monkeypatch):
    """A model whose insertion range excludes every waypoint fails the one
    batched ik call on all rows; the approach is planned first, so its
    first waypoint is the first unreachable one."""
    limits = KinematicModel().joint_limits.copy()
    limits[2] = [0.3, 0.4]
    monkeypatch.setattr(bench, "KinematicModel",
                        lambda: KinematicModel(joint_limits=limits))
    with pytest.raises(Unreachable, match="waypoint in segment approach unreachable: no solution"):
        bench.run_suture(bench.SutureRunConfig(compensate=False))


def reference_plan(q_start, segments, grasp_offset):
    """bench.plan's path as the per-waypoint loop it replaced: the per-pose
    reference ik of each tool pose (tool_of the waypoint's needle pose) with
    the roll of the target before as the hint, then the
    first of the sorted solutions nearest that target, by the per-joint
    infinity norm with the insertion in radian equivalents. Returns the
    path and the approach's target count, or the label of the segment of
    the first waypoint it cannot reach."""
    model = KinematicModel()
    scale = np.ones(6)
    scale[2] = model.prismatic_scale
    q, path = q_start, []
    for seg in segments:
        for wp in seg.waypoints:
            try:
                sols = reference_ik(model, tool_of(wp.pose, grasp_offset), q4_hint=float(q[3]))
            except Unreachable:
                return seg.label
            if not sols:
                return seg.label
            q = min(sols, key=lambda s: float(np.max(np.abs(s - q) * scale)))
            path.append(q)
    return np.array(path), len(segments[0].waypoints)


def test_plan_matches_the_per_waypoint_reference():
    """bench.plan equals the per-waypoint reference bit for bit at
    criterion 10's scene and at 20 reachable random start joints, where
    some targets are not the first of their row's solutions; a draw the
    reference cannot reach raises Unreachable naming the same segment."""
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    model = KinematicModel()
    scene = bench.suture_scene(cfg)
    grasp_offset = bench.plan(scene, cfg.shape)[0]
    rng = np.random.default_rng(11)
    scenes, later_picks = [scene], 0
    while len(scenes) < 21:
        q_start = rng.uniform(*model.joint_limits.T)
        q_start[4] = rng.uniform(0.1, 1.0)  # away from the wrist singularity
        sc = dataclasses.replace(scene, q_start=q_start)
        segments = plan_suture_pass(fk(model, q_start), sc.ports, cfg.shape, grasp_offset)
        reference = reference_plan(q_start, segments, grasp_offset)
        if isinstance(reference, str):
            with pytest.raises(Unreachable, match=f"waypoint in segment {reference} unreachable"):
                bench.plan(sc, cfg.shape)
            continue
        scenes.append(sc)
    for sc in scenes:
        segments = plan_suture_pass(fk(model, sc.q_start), sc.ports, cfg.shape, grasp_offset)
        ref_path, ref_approach = reference_plan(sc.q_start, segments, grasp_offset)
        _, path, n_approach = bench.plan(sc, cfg.shape)
        assert n_approach == ref_approach
        assert path.tobytes() == ref_path.tobytes()
        sols = [reference_ik(model, tool_of(wp.pose, grasp_offset))
                for seg in segments for wp in seg.waypoints]
        later_picks += sum(not np.array_equal(q, s[0]) for q, s in zip(path, sols))
    assert later_picks > 0


def test_plan_makes_one_batched_ik_call(monkeypatch):
    """At criterion 10's scene bench.plan solves all its tool poses in one
    ik_arrays call and calls the per-pose ik for none of them, since no
    waypoint is at the wrist singularity."""
    calls, rows = [], []

    def recording(model, rotations, translations, *args):
        calls.append(len(rotations))
        return psm_kinematics.ik_arrays(model, rotations, translations, *args)

    def per_pose(*args, **kwargs):
        rows.append(args)
        return psm_kinematics.ik(*args, **kwargs)

    monkeypatch.setattr(bench, "ik_arrays", recording)
    monkeypatch.setattr(bench, "ik", per_pose)
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    _, path, _ = bench.plan(bench.suture_scene(cfg), cfg.shape)
    assert calls == [len(path)]
    assert rows == []


def test_plan_solves_the_needle_poses_composed_with_the_grasp(monkeypatch):
    """ik_arrays receives, bit for bit, each needle pose that
    plan_suture_pass returns composed with bench.plan's grasp offset."""
    planned, received = [], []

    def recording_plan(*args):
        planned.extend(wp.pose for seg in plan_suture_pass(*args) for wp in seg.waypoints)
        return plan_suture_pass(*args)

    def recording_ik(model, rotations, translations):
        received.append((rotations.copy(), translations.copy()))
        return psm_kinematics.ik_arrays(model, rotations, translations)

    monkeypatch.setattr(bench, "plan_suture_pass", recording_plan)
    monkeypatch.setattr(bench, "ik_arrays", recording_ik)
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    grasp_offset, path, _ = bench.plan(bench.suture_scene(cfg), cfg.shape)
    ((rotations, translations),) = received
    tools = [tool_of(p, grasp_offset) for p in planned]
    assert len(tools) == len(path)
    assert rotations.tobytes() == np.stack([p.rotation for p in tools]).tobytes()
    assert translations.tobytes() == np.stack([p.translation for p in tools]).tobytes()


def test_plan_path_repeats_a_target_only_at_the_entry():
    """At criterion 10's scene no target of bench.plan's path is within
    1e-9 of the one before it, q_start before the first, except the
    insertion's first: the entry repeat, the servo's settle before the
    tissue."""
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    scene = bench.suture_scene(cfg)
    _, path, n_approach = bench.plan(scene, cfg.shape)
    steps = np.abs(np.diff(np.vstack([scene.q_start, path]), axis=0)).max(axis=1)
    assert np.flatnonzero(steps < 1e-9).tolist() == [n_approach]
    assert steps[n_approach] == 0.0


def test_plan_solves_wrist_singular_rows_with_the_roll_before(monkeypatch):
    """Rows at the wrist singularity take the roll of the target chosen
    before them as their hint, through ik, and the path still equals the
    per-waypoint reference."""
    model = KinematicModel()
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    scene = bench.suture_scene(cfg)
    qs = [scene.q_start + [0.0, 0.0, 0.0, 0.3 * i, 0.0, 0.0] for i in range(8)]
    for i in (2, 3, 6):
        qs[i][4] = 0.0
    labels = ["approach"] * 3 + ["insertion"] * 3 + ["extraction"] * 2
    grasp_offset = bench.plan(scene, cfg.shape)[0]
    segments = [planning.TrajectorySegment(label, [planning.Waypoint(held(fk(model, q), grasp_offset))])
                for label, q in zip(labels, qs)]
    monkeypatch.setattr(bench, "plan_suture_pass", lambda *args: segments)
    hints = []

    def per_pose(model, target, q4_hint=0.0):
        hints.append(q4_hint)
        return psm_kinematics.ik(model, target, q4_hint=q4_hint)

    monkeypatch.setattr(bench, "ik", per_pose)
    _, path, n_approach = bench.plan(scene, cfg.shape)
    ref_path, ref_approach = reference_plan(scene.q_start, segments, grasp_offset)
    assert n_approach == ref_approach == 1
    assert path.tobytes() == ref_path.tobytes()
    assert hints == [path[1][3], path[2][3], path[5][3]]


@pytest.mark.parametrize("first", ["behind", "no-solution"])
def test_plan_raises_at_the_first_failing_waypoint(monkeypatch, first):
    """Unreachable names the segment of the first failing waypoint in path
    order and its cause, whichever cause comes first: a wrist point at the
    remote center of motion (whose zero distance makes numpy warn, and
    warnings are errors here, if it is divided by) or a pose with no
    solution within the joint limits."""
    model = KinematicModel()
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    scene = bench.suture_scene(cfg)
    good = fk(model, scene.q_start)
    at_rcm = RigidPose(good.rotation, model.yaw_to_tip * good.rotation[:, 2])
    q_far = scene.q_start.copy()
    q_far[2] = 0.3  # beyond the insertion limit
    too_deep = fk(model, q_far)
    bad = {"behind": at_rcm, "no-solution": too_deep}
    second = {"behind": too_deep, "no-solution": at_rcm}[first]
    grasp_offset = bench.plan(scene, cfg.shape)[0]
    good, bad, second = (held(p, grasp_offset) for p in (good, bad[first], second))
    segments = [planning.TrajectorySegment("approach", [planning.Waypoint(good)]),
                planning.TrajectorySegment("insertion", [planning.Waypoint(good),
                                                         planning.Waypoint(bad)]),
                planning.TrajectorySegment("extraction", [planning.Waypoint(second)])]
    monkeypatch.setattr(bench, "plan_suture_pass", lambda *args: segments)
    cause = {"behind": "wrist point at or behind the remote center of motion",
             "no-solution": "no solution within the joint limits"}[first]
    with pytest.raises(Unreachable, match=f"^waypoint in segment insertion unreachable: {cause}$"):
        bench.plan(scene, cfg.shape)


def reach_ticks(n_approach, n_targets):
    """The ticks whose reference reaches each insertion and extraction target."""
    k = bench._TICKS_PER_TARGET
    return [(i + 1) * k - 1 for i in range(n_approach, n_targets)]


@pytest.mark.parametrize("compensate", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_run_suture_scores_match_per_tick_reference(seed, compensate):
    """run_suture's report equals, field for field and bit for bit, scoring
    each tick that the plan and execute stages reach on its own, from the
    tick that reaches the first insertion target: fk, compose with the
    inverse grasp, apply to the body tip, then 1-D dots with the circle
    axes."""
    cfg = bench.SutureRunConfig(rng_seed=seed, injected_bias_deg=3.0, compensate=compensate)
    report = bench.run_suture(cfg)

    scene = bench.suture_scene(cfg)
    dq_hat = bench.calibrate(scene.delta_q) if compensate else np.zeros(6)
    grasp_offset, path, n_approach = bench.plan(scene, cfg.shape)
    q_act, _ = bench.execute(scene, dq_hat, path)
    model = KinematicModel()
    circle = suture_circle(scene.ports, cfg.shape)
    tip_b = needle_tip_body(cfg.shape)
    grasp_inv = grasp_offset.inverse()
    reach = reach_ticks(n_approach, len(path))
    deviations = {}
    for tick in range(reach[0], len(q_act)):
        T = fk(model, q_act[tick])
        R = T.rotation @ grasp_inv.rotation
        t = T.rotation @ grasp_inv.translation + T.translation
        tip = tip_b @ R.T + t
        rel = tip - circle.center
        in_x = rel @ circle.in_plane_x
        in_y = rel @ circle.in_plane_y
        off_plane = rel @ circle.normal
        deviations[tick] = float(np.hypot(np.hypot(in_x, in_y) - circle.radius, off_plane))
    reference = dataclasses.replace(
        report,
        max_circle_dev_m=max(deviations[tick] for tick in reach),
        max_path_dev_m=max(deviations.values()),
        exit_miss_m=float(np.linalg.norm(tip - scene.ports.exit)),
        waypoints_executed=len(path),
    )
    # repr shows each float's shortest round-trip digits and its type
    assert repr(report) == repr(reference)
    deviations_batched, _ = bench.score(scene.ports, cfg.shape, grasp_offset, q_act[reach[0]:])
    assert deviations_batched.tolist() == list(deviations.values())


def test_execute_runs_every_reference_tick_when_the_hold_does_not_converge(monkeypatch):
    """With a hold of two ticks the run does not converge: NotConverged,
    raised once, is the only signal, so the report says not converged, yet
    every reference tick runs and the trace is that of a direct servo_to
    call on the reference from q_start through every target."""
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    scene = bench.suture_scene(cfg)
    dq_hat = bench.calibrate(scene.delta_q)
    _, path, _ = bench.plan(scene, cfg.shape)
    monkeypatch.setattr(bench, "_SERVO_HOLD_STEPS", 2)
    report = bench.run_suture(cfg)
    assert not report.servo_converged
    assert report.waypoints_executed == len(path)

    calls = []

    def counting_servo(*args, **kwargs):
        calls.append(kwargs["max_steps"])
        return servo_to(*args, **kwargs)

    monkeypatch.setattr(bench, "servo_to", counting_servo)
    q_act, converged = bench.execute(scene, dq_hat, path)
    k = bench._TICKS_PER_TARGET
    assert not converged
    assert calls == [len(path) * k + 2]
    assert len(q_act) == len(path) * k + 2
    reference, start = [], scene.q_start
    for target in path:
        reference += [(1.0 - j / k) * start + (j / k) * target for j in range(1, k + 1)]
        start = target
    with pytest.raises(NotConverged) as exc:
        servo_to(PlantModel(delta_q=scene.delta_q), PiGains(), dq_hat, np.array(reference),
                 q_act0=scene.q_start + scene.delta_q, max_steps=len(reference) + 2)
    assert exc.value.trace.q_act.tobytes() == q_act.tobytes()


def test_criterion_10_path_stays_on_the_circle_outside_the_roll_unwind():
    """Criterion 10's compensated run, scored at every tick from the one
    that reaches the first insertion target: within 0.25 mm of the circle
    (0.141 mm measured) except where the roll unwinds between the one pair
    of consecutive targets more than 20 deg apart in roll, from the tick
    reaching the earlier target to 2 k ticks after the later one."""
    cfg = bench.SutureRunConfig(injected_bias_deg=3.0)
    report = bench.run_suture(cfg)
    scene = bench.suture_scene(cfg)
    grasp_offset, path, n_approach = bench.plan(scene, cfg.shape)
    q_act, converged = bench.execute(scene, bench.calibrate(scene.delta_q), path)
    assert converged
    k = bench._TICKS_PER_TARGET
    first = reach_ticks(n_approach, len(path))[0]
    deviations, _ = bench.score(scene.ports, cfg.shape, grasp_offset, q_act[first:])
    (jump,) = np.flatnonzero(np.abs(np.diff(path[:, 3])) > np.radians(20.0))
    unwind = np.arange(len(q_act))
    unwind = (unwind >= (jump + 1) * k - 1) & (unwind <= (jump + 2) * k - 1 + 2 * k)
    assert np.max(deviations[~unwind[first:]]) <= 0.25e-3
    # the roll turns 355.6 deg within one target with the needle in tissue
    # (ROADMAP.md, item 11); 3.134 mm measured
    assert report.max_path_dev_m <= 3.5e-3
    assert report.max_path_dev_m == np.max(deviations)


def test_plan_checks_each_planned_pose_once(monkeypatch):
    """Every pose plan_suture_pass builds passes RigidPose's checks exactly
    once: the rows the check function sees during the call add up to the
    distinct poses returned plus two it does not return, the inverse grasp
    offset and the needle that the tool at the grasp pose holds."""
    checked = []
    check = geometry._check_rigid

    def counting(R, t):
        checked.append(len(np.reshape(t, (-1, 3))))
        check(R, t)

    monkeypatch.setattr(geometry, "_check_rigid", counting)
    ports = make_ports(normal=(0.1, 0.0, 1.0))
    offset = RigidPose(random_rotation(np.random.default_rng(8)), np.array([0.0, 0.001, 0.004]))
    grasp = RigidPose(random_rotation(np.random.default_rng(9)), np.array([0.02, 0.01, 0.05]))
    checked.clear()
    segments = plan_suture_pass(grasp, ports, SHAPE, offset)
    poses = {id(wp.pose): wp.pose for seg in segments for wp in seg.waypoints}
    assert id(grasp) not in poses
    assert sum(checked) == len(poses) + 2
    # and RigidPose(R, t) still checks every pose it is given
    checked.clear()
    RigidPose(grasp.rotation, grasp.translation)
    assert checked == [1]


@pytest.mark.parametrize("seed", [0, 1])
def test_suture_scene_circle_is_centred_on_the_shaft_axis(seed):
    """suture_scene's circle has its centre on the instrument shaft at yaw
    0.1 and pitch 0.35 rad (fk's z axis through the remote center of motion,
    the base origin), 0.135 m from that center, and its normal along the
    shaft."""
    cfg = bench.SutureRunConfig(rng_seed=seed)
    circle = suture_circle(bench.suture_scene(cfg).ports, cfg.shape)
    shaft = fk(KinematicModel(), np.array([0.1, 0.35, 0.0, 0.0, 0.0, 0.0])).rotation[:, 2]
    along = circle.center @ shaft
    # each within a few ulps; the normal is 2.2e-16 off at seeds 0 and 1
    assert abs(along - 0.135) <= 1e-15
    assert np.linalg.norm(circle.center - along * shaft) <= 1e-15
    assert np.linalg.norm(circle.normal - shaft) <= 1e-15
