import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from suturekit.bench import PoseBenchConfig, observe, random_needle_pose, run_pose_bench
from suturekit import lm, pose_estimator
from suturekit.needle import (BinaryMask, DegenerateRays, needle_frames, params_to_pose,
                              pose_to_params, reproject)
from suturekit.pose_estimator import (
    _AXIS_SAMPLE_COUNT,
    _MAX_ITERATIONS,
    _MIN_STEP_PX,
    EmptyMasks,
    KeypointHints,
    NoConvergence,
    NoSeed,
    SceneEvaluator,
    _mask_rows,
    _nearest,
    _seed,
    _triangulated_points,
    estimate,
)
from suturekit.geometry import (
    NonPositiveDepth,
    PinholeCamera,
    RigidPose,
    StereoRig,
    rotation_geodesic,
)


def make_scene(rig, shape, seed=0, occlusion=None, line_width=1.0):
    rng = np.random.default_rng([seed, 0])
    T = random_needle_pose(rng, rig, shape)
    masks, hints = observe(T, shape, rig, line_width, occlusion)
    return T, masks, pose_to_params(T, shape, rig.left), hints


def brute_force_objective(x, masks, shape, rig):
    """Independent oracle: exact pairwise squared distances (cdist) from the
    evaluator's capped mask pixels to the pose-object reprojection of x."""
    mask_px = SceneEvaluator(masks, shape, rig).mask_px
    reproj = reproject(params_to_pose(x, shape, rig.left), shape, rig, _AXIS_SAMPLE_COUNT)
    return sum(
        float(cdist(mp, rp, "sqeuclidean").min(axis=1).sum())
        for mp, rp in zip(mask_px, reproj)
        if len(mp)
    )


def descend(vec, ev, max_iterations=_MAX_ITERATIONS):
    """estimate's descent from vec: (vec, J, steps)."""
    return lm.solve(vec, ev.trial, _MIN_STEP_PX, max_iterations)[:3]


def rotated_rig(baseline=0.02):
    """A stereo rig turned away from the world axes, so that back-projection
    multiplies by a rotation that is not the identity."""
    R = Rotation.from_rotvec([0.2, -0.3, 0.1]).as_matrix()
    return StereoRig(*(
        PinholeCamera(1000.0, 1000.0, 320.0, 240.0, 640, 480, RigidPose(R, R @ [x, 0.0, 0.0]))
        for x in (0.0, baseline)
    ))


class TestChamfer:
    def test_single_pair(self):
        mask = _mask_rows(np.array([[0.0, 0.0]]))
        value, near = _nearest(mask, np.array([[3.0, 4.0]]), np.ones(1, bool))
        assert value == 25.0 and near.tolist() == [0]

    def test_picks_nearest_point(self):
        mask = np.array([[0.0, 0.0], [10.0, 0.0]])
        pts = np.array([[1.0, 0.0], [9.0, 0.0]])
        value, near = _nearest(_mask_rows(mask), pts, np.ones(2, bool))
        assert value == 2.0 and near.tolist() == [0, 1]

    def test_empty_mask_is_zero(self):
        mask = _mask_rows(np.empty((0, 2)))
        value, near = _nearest(mask, np.array([[1.0, 2.0]]), np.ones(1, bool))
        assert value == 0.0 and len(near) == 0

    def test_empty_points_pays_penalty(self):
        # hidden points at the mask pixels are ignored, for the value and the
        # pairing; visible, they explain both mask pixels exactly
        mask = _mask_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert _nearest(mask, pts, np.zeros(2, bool))[0] == 2e4
        assert _nearest(mask, pts, np.array([True, False]))[1].tolist() == [0, 0]
        value, near = _nearest(mask, pts, np.ones(2, bool))
        assert value == 0.0 and near.tolist() == [0, 1]


class TestObjective:
    def test_small_at_ground_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=1)
        ev = SceneEvaluator(masks, shape, rig)
        n = sum(len(m) for m in ev.mask_px)
        assert ev.trial(x_true)[0] / n < 2.0  # sub-pixel mean squared offset

    def test_grows_away_from_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=2)
        ev = SceneEvaluator(masks, shape, rig)
        shifted = x_true + np.array([0.0, 0.0, 15.0, 15.0, 15.0, 15.0])
        assert ev.trial(shifted)[0] > 5.0 * ev.trial(x_true)[0]

    def test_empty_masks_raise(self, rig, shape):
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        with pytest.raises(EmptyMasks):
            SceneEvaluator((empty, empty), shape, rig)

    def test_one_empty_view_pays_penalty_free_pass(self, rig, shape):
        # an empty view contributes zero (no mask pixels to explain): J is
        # the oracle's left-view sum alone
        _, masks, x_true, _ = make_scene(rig, shape, seed=3)
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        J = SceneEvaluator((masks[0], empty), shape, rig).trial(x_true)[0]
        assert 0.0 < J == pytest.approx(
            brute_force_objective(x_true, (masks[0], empty), shape, rig), rel=1e-9)

    def test_subset_mask_never_increases_objective(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=4)
        full = SceneEvaluator(masks, shape, rig).trial(x_true)[0]
        half = BinaryMask(640, 480, masks[0].foreground[::2])
        reduced = SceneEvaluator((half, masks[1]), shape, rig).trial(x_true)[0]
        assert reduced <= full


class TestSceneEvaluator:
    def test_matches_objective(self, rig, shape):
        # oracle is the brute-force cdist chamfer, not the evaluator itself:
        # guards the |m|^2 + |p|^2 - 2 m.p expansion against cancellation
        _, masks, x_true, _ = make_scene(rig, shape, seed=5)
        ev = SceneEvaluator(masks, shape, rig)
        for dx in (0.0, 3.0, -7.0):
            x = x_true + np.array([0.0, 0.0, dx, dx, dx, dx])
            assert ev.trial(x)[0] == pytest.approx(
                brute_force_objective(x, masks, shape, rig), rel=1e-9
            )

    def test_invalid_theta1_is_inf(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=7)
        ev = SceneEvaluator(masks, shape, rig)
        bad = x_true.copy()
        bad[0] = 3.3
        assert np.isinf(ev.trial(bad)[0])


class TestResiduals:
    STEPS = np.array([1e-5, 1e-5, 1e-3, 1e-3, 1e-3, 1e-3])  # oracle central differences

    @staticmethod
    def oracle(vec, mask_px, shape, rig, steps):
        """Residuals and Jacobian from the pose-object reprojection: cdist
        nearest samples, np.gradient normals, central differences of the
        reprojection projected on the normals."""

        def reproj(v):
            T = params_to_pose(v, shape, rig.left)
            return reproject(T, shape, rig, _AXIS_SAMPLE_COUNT)

        base = reproj(vec)
        shifted = [(reproj(vec + h * e), reproj(vec - h * e)) for h, e in zip(steps, np.eye(6))]
        rows, jac = [], []
        for k, (mp, p) in enumerate(zip(mask_px, base)):
            dp = np.stack(
                [(plus[k] - minus[k]) / (2.0 * h) for h, (plus, minus) in zip(steps, shifted)],
                axis=-1,
            )  # (N, 2, 6)
            near = cdist(mp, p, "sqeuclidean").argmin(axis=1)
            tan = np.gradient(p, axis=0)
            normal = np.stack([-tan[:, 1], tan[:, 0]], axis=1)
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            end = (near == 0) | (near == len(p) - 1)
            for i in np.flatnonzero(~end):
                n = normal[near[i]]
                rows.append((mp[i] - p[near[i]]) @ n)
                jac.append(-n @ dp[near[i]])
            for i in np.flatnonzero(end):
                rows.extend(mp[i] - p[near[i]])
                jac.extend(-dp[near[i]])
        return np.array(rows), np.array(jac)

    @pytest.mark.parametrize("seed", [8, 16, 17])
    def test_matches_independent_oracle(self, rig, shape, seed):
        _, masks, x_true, _ = make_scene(rig, shape, seed=seed, occlusion=(0.4, 0.5))
        ev = SceneEvaluator(masks, shape, rig)
        vec = x_true + np.array([0.05, 0.1, 2.0, -2.0, 1.5, 1.0])
        r, A = ev.trial(vec)[1]()
        r_ref, A_ref = self.oracle(vec, ev.mask_px, shape, rig, self.STEPS)
        assert r.shape == r_ref.shape and A.shape == (len(r), 6)
        assert len(r) > sum(len(m) for m in ev.mask_px)  # some pixels pair with arc ends
        assert np.abs(r - r_ref).max() < 1e-9
        scale = np.abs(A_ref).max(axis=0)
        assert (np.abs(A - A_ref).max(axis=0) <= 1e-4 * scale).all()


class TestDescent:
    def test_seed_never_worsens(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=9)
        ev = SceneEvaluator(masks, shape, rig)
        vec0 = x_true + np.array([0.05, 0.3, 2.0, -2.0, 1.0, -1.0])
        J0 = ev.trial(vec0)[0]
        vec, J_best, steps = descend(vec0, ev)
        assert J_best <= J0 and J_best == ev.trial(vec)[0]
        assert 1 <= steps <= _MAX_ITERATIONS

    def test_start_at_truth_stays_at_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=10)
        ev = SceneEvaluator(masks, shape, rig)
        vec0 = x_true
        best_vec, J_best, _ = descend(vec0, ev, 200)
        assert J_best <= ev.trial(vec0)[0]
        assert np.abs(best_vec[2:] - vec0[2:]).max() < 2.0  # keypoints stay put

    def test_no_residual_rows_ends_descent(self, rig, shape, monkeypatch):
        _, masks, x_true, _ = make_scene(rig, shape, seed=9)
        ev = SceneEvaluator(masks, shape, rig)
        trial = ev.trial
        monkeypatch.setattr(
            ev, "trial", lambda vec: (trial(vec)[0], lambda: (np.empty(0), np.empty((0, 6)))))
        vec0 = x_true
        vec, J, steps = descend(vec0, ev)
        assert steps == 0 and np.array_equal(vec, vec0)
        assert J == trial(vec0)[0]

    def test_max_steps_ends_descent(self, rig, shape, monkeypatch):
        # a seed far enough from the truth that neither a step below
        # _MIN_STEP_PX nor ten rejected tries ends the descent within 3
        # iterations
        _, masks, x_true, hints = make_scene(rig, shape, seed=9)
        vec0 = x_true + np.array([0.1, 1.0, 3.0, -2.0, 2.0, 1.0])
        monkeypatch.setattr(pose_estimator, "_seed", lambda *args: vec0)

        def run():
            try:
                return estimate(masks, hints, shape, rig)
            except NoConvergence as e:
                return e.result

        _, J, steps = run()
        monkeypatch.setattr(pose_estimator, "_MAX_ITERATIONS", 3)
        _, J3, steps3 = run()
        assert steps3 == 3 and steps > 3 and J < J3

    def test_restart_from_result_evaluates_once(self, rig, shape, monkeypatch):
        # the first damped step from a converged vector is below _MIN_STEP_PX,
        # so only the start value is evaluated
        _, masks, x_true, _ = make_scene(rig, shape, seed=9)
        ev = SceneEvaluator(masks, shape, rig)
        vec1, J1, _ = descend(x_true + np.array([0.05, 0.3, 2.0, -2.0, 1.0, -1.0]), ev)
        calls = []
        trial = ev.trial
        monkeypatch.setattr(ev, "trial", lambda vec: calls.append(vec) or trial(vec))
        vec, J, _ = descend(vec1, ev)
        assert len(calls) == 1 and np.array_equal(calls[0], vec1)
        assert np.array_equal(vec, vec1) and J == J1

    def test_singular_damped_system_ends_descent(self, rig, shape):
        # just outside the domain the theta2 column of the Jacobian is zero,
        # so H + lam diag(H) is singular
        _, masks, x_true, _ = make_scene(rig, shape, seed=3)
        ev = SceneEvaluator(masks, shape, rig)
        vec0 = x_true.copy()
        vec0[0] = np.pi - needle_frames(x_true, shape, rig.left).alpha[0] + 0.01
        vec, J, steps = descend(vec0, ev)
        assert np.array_equal(vec, vec0) and J == np.inf and steps == 1

    def test_evaluate_calls_per_scene(self, monkeypatch):
        # criterion 1's configuration; a count, so it does not depend on timing
        calls = []
        trial = SceneEvaluator.trial
        monkeypatch.setattr(SceneEvaluator, "trial",
                            lambda self, vec: calls.append(1) or trial(self, vec))
        run_pose_bench(PoseBenchConfig(scenes=10))
        assert len(calls) / 10 <= 8


class TestEstimate:
    def test_accurate_on_clean_scene(self, rig, shape):
        T_true, masks, _, hints = make_scene(rig, shape, seed=11)
        pose, _, steps = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 5e-4
        assert rotation_geodesic(pose.rotation, T_true.rotation) < np.radians(2.0)
        assert steps > 0

    def test_deterministic(self, rig, shape):
        _, masks, _, hints = make_scene(rig, shape, seed=12)
        a, Ja, sa = estimate(masks, hints, shape, rig)
        b, Jb, sb = estimate(masks, hints, shape, rig)
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.rotation, b.rotation)
        assert Ja == Jb and sa == sb

    def test_J_is_the_objective_at_the_result(self, rig, shape, monkeypatch):
        # the descent's own cost, not a second evaluation, and bit for bit
        # what the evaluator gives at the vector the descent ends on
        _, masks, _, hints = make_scene(rig, shape, seed=12, occlusion=(0.2, 0.5))
        solved = []
        solve = lm.solve
        monkeypatch.setattr(lm, "solve", lambda *args: solved.append(solve(*args)) or solved[-1])
        _, J, steps = estimate(masks, hints, shape, rig)
        vec, _, iterations, _ = solved[0]
        assert J == SceneEvaluator(masks, shape, rig).trial(vec)[0] and steps == iterations

    def test_without_right_hints(self, rig, shape):
        # the right view enters through its mask only
        T_true, masks, x_l, _ = make_scene(rig, shape, seed=13)
        hints = KeypointHints(left_start=x_l[2:4], left_end=x_l[4:6])
        pose, _, _ = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 1e-3

    @pytest.mark.parametrize("occlusion", [None, (0.35, 0.65)], ids=["clean", "occluded"])
    def test_turned_rig(self, shape, occlusion):
        rig = rotated_rig()
        for seed in range(4):
            T_true, masks, _, hints = make_scene(rig, shape, seed=seed, occlusion=occlusion)
            pose, _, _ = estimate(masks, hints, shape, rig)
            assert np.linalg.norm(pose.translation - T_true.translation) <= 1e-3, seed
            assert rotation_geodesic(pose.rotation, T_true.rotation) <= np.radians(3.0), seed

    def test_seed_orientation_error(self, rig, shape):
        errors = []
        for seed in range(10):
            T_true, masks, _, hints = make_scene(rig, shape, seed=seed)
            T_seed = params_to_pose(_seed(masks, hints, shape, rig), shape, rig.left)
            errors.append(rotation_geodesic(T_seed.rotation, T_true.rotation))
        assert np.degrees(np.mean(errors)) <= 1.0 and np.degrees(max(errors)) <= 3.0

    def test_seed_keypoints_are_the_hints(self, rig, shape):
        _, masks, _, hints = make_scene(rig, shape, seed=3)
        vec = _seed(masks, hints, shape, rig)
        assert vec[2:].tolist() == [*hints.left_start, *hints.left_end]

    def test_one_empty_view_raises(self, rig, shape):
        # the objective alone would accept this: one view leaves the depth free
        _, masks, _, hints = make_scene(rig, shape, seed=0)
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        for pair in ((masks[0], empty), (empty, masks[1])):
            with pytest.raises(NoSeed, match="0 mask points triangulated"):
                estimate(pair, hints, shape, rig)

    @pytest.mark.parametrize("gap_px", [0.0, 1e-9, 1e-4])
    def test_coincident_hints_raise(self, rig, shape, gap_px):
        _, masks, _, hints = make_scene(rig, shape, seed=0)
        start = hints.left_start
        with pytest.raises(NoSeed, match="hint rays are"):
            estimate(masks, KeypointHints(start, start + [gap_px, 0.0]), shape, rig)

    def test_an_edge_on_chord_reaches_the_estimator(self, rig, shape):
        """A chord along the left camera's line of sight projects both
        endpoints to one pixel: observe returns them as they are, and
        estimate, not observe, rejects the scene with its own error."""
        R = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        masks, hints = observe(RigidPose(R, np.array([0.0, 0.0, 0.1])), shape, rig, 1.0)
        assert hints.left_start.tolist() == hints.left_end.tolist() == [320.0, 240.0]
        with pytest.raises(NoSeed):
            estimate(masks, hints, shape, rig)

    @pytest.mark.parametrize("scene, cause", [(2, DegenerateRays), (151, NonPositiveDepth)])
    def test_a_far_needle_without_a_seed_vector_raises_no_seed(self, rig, shape, scene, cause):
        """At 5-10 m the seed pose's chord can re-project to one pixel or
        put an end behind the camera; pose_to_params's error becomes NoSeed."""
        T = random_needle_pose(np.random.default_rng([0, scene]), rig, shape, (5.0, 10.0))
        masks, hints = observe(T, shape, rig, 1.0)
        with pytest.raises(NoSeed, match="the seed pose has no parameter vector") as exc:
            estimate(masks, hints, shape, rig)
        assert type(exc.value.__cause__) is cause

    def test_baseline_along_the_optical_axis_raises(self, shape):
        cams = [PinholeCamera(1000.0, 1000.0, 320.0, 240.0, 640, 480,
                              RigidPose(np.eye(3), np.array([0.0, 0.0, z]))) for z in (0.0, 0.02)]
        mask = BinaryMask(640, 480, np.array([[300, 240], [301, 240], [302, 241]]))
        with pytest.raises(NoSeed, match="baseline is parallel"):
            _triangulated_points((mask, mask), StereoRig(*cams))

    @pytest.mark.parametrize("bad", [[np.nan, 240.0], [np.inf, 240.0], [300.0, 240.0, 1.0]],
                             ids=["nan", "inf", "shape-3"])
    @pytest.mark.parametrize("field", ["left_start", "left_end"])
    def test_bad_hint_raises(self, field, bad):
        good = {"left_start": [300.0, 240.0], "left_end": [340.0, 240.0]}
        with pytest.raises(ValueError, match=f"{field} must be 2 finite numbers"):
            KeypointHints(**{**good, field: bad})

    def test_occluded_scene(self, rig, shape):
        T_true, masks, _, hints = make_scene(rig, shape, seed=14, occlusion=(0.3, 0.6))
        pose, _, _ = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 1e-3

    def test_reject_threshold_raises_with_result(self, rig, shape, monkeypatch):
        _, masks, _, hints = make_scene(rig, shape, seed=15)
        monkeypatch.setattr(pose_estimator, "_REJECT_MEAN_SQ_PX", 1e-12)
        monkeypatch.setattr(pose_estimator, "_MAX_ITERATIONS", 10)
        with pytest.raises(NoConvergence, match="exceeds 1e-12") as exc:
            estimate(masks, hints, shape, rig)
        pose, J, steps = exc.value.result
        assert J >= 0.0 and 0 < steps <= 10

    def test_empty_masks_raise(self, rig, shape):
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        hints = KeypointHints(
            left_start=np.array([300.0, 240.0]), left_end=np.array([340.0, 240.0])
        )
        with pytest.raises(EmptyMasks):
            estimate((empty, empty), hints, shape, rig)


def _noisy_2px(hints, rng):
    start, end = (h + rng.normal(0.0, 2.0, 2) for h in (hints.left_start, hints.left_end))
    return KeypointHints(start, end)


# id, random_needle_pose kwargs, line width, occlusion fraction, hint transform;
# the hints are the left view's only, so the two left_only rows are plain
# scenes, kept for their depths
STRESS_SCENARIOS = [
    ("left_only_hints", {}, 1.0, 0.0, None),
    ("hint_noise_2px", {}, 1.0, 0.0, _noisy_2px),
    ("line_width_3", {}, 3.0, 0.0, None),
    ("near_edge_on", {"min_view_angle": 0.1}, 1.0, 0.0, None),
    ("occlusion_50", {}, 1.0, 0.5, None),
    # beyond bench.SCENE_DEPTH_RANGE, the default scene distances
    ("depth_beyond_seeding", {"depth_range": (0.22, 0.3)}, 1.0, 0.0, None),
    ("left_only_beyond_seeding", {"depth_range": (0.3, 0.4)}, 1.0, 0.0, None),
]


class TestStress:
    @pytest.mark.parametrize(
        "pose_kw, line_width, occ_frac, perturb",
        [s[1:] for s in STRESS_SCENARIOS],
        ids=[s[0] for s in STRESS_SCENARIOS],
    )
    def test_within_bounds(self, rig, shape, pose_kw, line_width, occ_frac, perturb):
        # bound per scene: <= 1 mm, <= 3 deg, no NoConvergence
        for i in range(5):
            rng = np.random.default_rng([7, i])
            T_true = random_needle_pose(rng, rig, shape, **pose_kw)
            occ = None
            if occ_frac > 0:
                start = rng.uniform(0.0, 1.0 - occ_frac)
                occ = (start, start + occ_frac)
            masks, hints = observe(T_true, shape, rig, line_width, occ)
            if perturb is not None:
                hints = perturb(hints, rng)
            pose, _, _ = estimate(masks, hints, shape, rig)
            assert np.linalg.norm(pose.translation - T_true.translation) <= 1e-3, i
            assert rotation_geodesic(pose.rotation, T_true.rotation) <= np.radians(3.0), i
