import dataclasses
import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from suturekit.bench import observe, random_needle_pose
from suturekit import pose_estimator
from suturekit.needle import BinaryMask, params_to_pose, pose_to_params, reproject
from suturekit.pose_estimator import (
    EmptyMasks,
    EstimatorConfig,
    KeypointHints,
    NoConvergence,
    SceneEvaluator,
    _chamfer,
    _descend,
    _mask_rows,
    _triangulated_depth,
    estimate,
)
from suturekit.geometry import (
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


def brute_force_objective(x, masks, shape, rig, cfg):
    """Independent oracle: exact pairwise squared distances (cdist) from the
    evaluator's capped mask pixels to the pose-object reprojection of x."""
    mask_px = SceneEvaluator(masks, shape, rig, cfg).mask_px
    reproj = reproject(params_to_pose(x, shape, rig.left), shape, rig, cfg.axis_sample_count)
    return sum(
        float(cdist(mp, rp, "sqeuclidean").min(axis=1).sum())
        for mp, rp in zip(mask_px, reproj)
        if len(mp)
    )


def solo_descent(ev, vec, max_steps):
    """Reference for _descend: the Levenberg-Marquardt loop for one seed,
    written plainly with one-row evaluator calls. Returns (vec, J, steps,
    the rule that stopped it)."""
    J = ev.evaluate(vec)[0]
    lam = 1e-3
    steps = 0
    while steps < max_steps:
        [(r, A)] = ev.residuals(vec[None])
        if len(r) == 0:
            return vec, J, steps, "no residual rows"
        steps += 1
        H = A.T @ A
        g = A.T @ r
        for _ in range(10):
            trial = vec + np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            J_trial = ev.evaluate(trial)[0]
            if J_trial < J:
                break
            lam *= 4.0
        else:
            return vec, J, steps, "ten rejected steps"
        lam /= 3.0
        vec, J, J_prev = trial, J_trial, J
        if J_prev - J <= 1e-10 * J_prev:
            return vec, J, steps, "relative drop"
    return vec, J, steps, "max_steps"


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
        J = _chamfer(mask, np.array([[[3.0, 4.0]]]), np.ones((1, 1), bool))
        assert J.tolist() == [25.0]

    def test_picks_nearest_point(self):
        mask = np.array([[0.0, 0.0], [10.0, 0.0]])
        pts = np.array([[[1.0, 0.0], [9.0, 0.0]]])
        assert _chamfer(_mask_rows(mask), pts, np.ones((1, 2), bool)).tolist() == [2.0]

    def test_empty_mask_is_zero(self):
        mask = _mask_rows(np.empty((0, 2)))
        J = _chamfer(mask, np.array([[[1.0, 2.0]]]), np.ones((1, 1), bool))
        assert J.tolist() == [0.0]

    def test_empty_points_pays_penalty(self):
        # row 0 sees no point (the hidden one at a mask pixel is ignored);
        # row 1 sees both mask pixels exactly
        mask = np.array([[0.0, 0.0], [1.0, 1.0]])
        pts = np.array([[[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, 1.0]]])
        visible = np.array([[False, False], [True, True]])
        assert _chamfer(_mask_rows(mask), pts, visible).tolist() == [2e4, 0.0]


class TestObjective:
    def test_small_at_ground_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=1)
        report = SceneEvaluator(masks, shape, rig, EstimatorConfig()).report(x_true)
        n = sum(report.mask_pixels_used)
        assert report.value / n < 2.0  # sub-pixel mean squared offset
        assert report.value == pytest.approx(sum(report.per_view_value))

    def test_grows_away_from_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=2)
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        shifted = x_true + np.array([0.0, 0.0, 15.0, 15.0, 15.0, 15.0])
        assert ev.report(shifted).value > 5.0 * ev.report(x_true).value

    def test_empty_masks_raise(self, rig, shape):
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        with pytest.raises(EmptyMasks):
            SceneEvaluator((empty, empty), shape, rig, EstimatorConfig())

    def test_one_empty_view_pays_penalty_free_pass(self, rig, shape):
        # an empty view contributes zero (no mask pixels to explain)
        _, masks, x_true, _ = make_scene(rig, shape, seed=3)
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        report = SceneEvaluator((masks[0], empty), shape, rig, EstimatorConfig()).report(x_true)
        assert report.per_view_value[1] == 0.0

    def test_subset_mask_never_increases_objective(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=4)
        cfg = EstimatorConfig()
        full = SceneEvaluator(masks, shape, rig, cfg).report(x_true).value
        half = BinaryMask(640, 480, masks[0].foreground[::2])
        reduced = SceneEvaluator((half, masks[1]), shape, rig, cfg).report(x_true).value
        assert reduced <= full


class TestSceneEvaluator:
    def test_matches_objective(self, rig, shape):
        # oracle is the brute-force cdist chamfer, not the evaluator itself:
        # guards the |m|^2 + |p|^2 - 2 m.p expansion against cancellation
        _, masks, x_true, _ = make_scene(rig, shape, seed=5)
        cfg = EstimatorConfig()
        ev = SceneEvaluator(masks, shape, rig, cfg)
        for dx in (0.0, 3.0, -7.0):
            x = x_true + np.array([0.0, 0.0, dx, dx, dx, dx])
            J_ev = float(ev.evaluate(x)[0])
            assert J_ev == pytest.approx(
                brute_force_objective(x, masks, shape, rig, cfg), rel=1e-9
            )
            assert J_ev == ev.report(x).value

    def test_batch_matches_single(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=6)
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        batch = np.stack([x_true + d for d in (0.0, 1.0, 2.0)])
        joint = ev.evaluate(batch)
        for row, J in zip(batch, joint):
            assert float(ev.evaluate(row)[0]) == pytest.approx(J, rel=1e-12)

    @pytest.mark.parametrize("turned", [False, True])
    @pytest.mark.parametrize("occlusion", [None, (0.3, 0.6)])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_batch_rows_bitwise_equal_single_rows(self, rig, shape, seed, occlusion, turned):
        # the descent batches its trial steps, so a row's value must not
        # depend on the rows beside it
        rig = rotated_rig() if turned else rig
        _, masks, x_true, _ = make_scene(rig, shape, seed=seed, occlusion=occlusion)
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        rng = np.random.default_rng(seed)
        batch = x_true + rng.normal(scale=[0.05, 0.5, 3.0, 3.0, 3.0, 3.0], size=(32, 6))
        batch[0, 0] = 3.3  # outside the domain
        single = np.concatenate([ev.evaluate(row) for row in batch])
        assert ev.evaluate(batch).tobytes() == single.tobytes()
        assert ev.per_view(batch).tobytes() == np.vstack([ev.per_view(r) for r in batch]).tobytes()

    def test_invalid_theta1_is_inf(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=7)
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        bad = x_true.copy()
        bad[0] = 3.3
        assert np.isinf(ev.evaluate(bad)[0])


class TestResiduals:
    STEPS = np.array([1e-5, 1e-5, 1e-3, 1e-3, 1e-3, 1e-3])  # oracle central differences

    @staticmethod
    def oracle(vec, mask_px, shape, rig, cfg, steps):
        """Residuals and Jacobian from the pose-object reprojection: cdist
        nearest samples, np.gradient normals, central differences of the
        reprojection projected on the normals."""

        def reproj(v):
            T = params_to_pose(v, shape, rig.left)
            return reproject(T, shape, rig, cfg.axis_sample_count)

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
        cfg = EstimatorConfig()
        ev = SceneEvaluator(masks, shape, rig, cfg)
        vec = x_true + np.array([0.05, 0.1, 2.0, -2.0, 1.5, 1.0])
        [(r, A)] = ev.residuals(vec[None])
        r_ref, A_ref = self.oracle(vec, ev.mask_px, shape, rig, cfg, self.STEPS)
        assert r.shape == r_ref.shape and A.shape == (len(r), 6)
        assert len(r) > sum(len(m) for m in ev.mask_px)  # some pixels pair with arc ends
        assert np.abs(r - r_ref).max() < 1e-9
        scale = np.abs(A_ref).max(axis=0)
        assert (np.abs(A - A_ref).max(axis=0) <= 1e-4 * scale).all()

    def test_residuals_rows_bitwise_equal_single_rows(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=8, occlusion=(0.4, 0.5))
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        batch = x_true + np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.05, 0.1, 2.0, -2.0, 1.5, 1.0],
            [0.1, 2.0, 0.0, 0.0, 0.0, 0.0],
        ])
        for (r, A), row in zip(ev.residuals(batch), batch):
            [(r1, A1)] = ev.residuals(row[None])
            assert r.tobytes() == r1.tobytes() and A.tobytes() == A1.tobytes()


class TestDescent:
    def test_seed_never_worsens(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=9)
        cfg = EstimatorConfig()
        ev = SceneEvaluator(masks, shape, rig, cfg)
        vec0 = x_true + np.array([0.05, 0.3, 2.0, -2.0, 1.0, -1.0])
        J0 = float(ev.evaluate(vec0)[0])
        vec, J_best, steps = (x[0] for x in _descend(vec0[None], ev, 100))
        assert J_best <= J0 and J_best == float(ev.evaluate(vec)[0])
        assert 1 <= steps <= 100

    def test_start_at_truth_stays_at_truth(self, rig, shape):
        _, masks, x_true, _ = make_scene(rig, shape, seed=10)
        cfg = EstimatorConfig()
        ev = SceneEvaluator(masks, shape, rig, cfg)
        vec0 = x_true
        best_vec, J_best, _ = (x[0] for x in _descend(vec0[None], ev, 200))
        assert J_best <= float(ev.evaluate(vec0)[0])
        assert np.abs(best_vec[2:] - vec0[2:]).max() < 2.0  # keypoints stay put

    def test_no_residual_rows_ends_descent(self, rig, shape, monkeypatch):
        _, masks, x_true, _ = make_scene(rig, shape, seed=9)
        ev = SceneEvaluator(masks, shape, rig, EstimatorConfig())
        monkeypatch.setattr(
            ev, "residuals", lambda vecs: [(np.empty(0), np.empty((0, 6)))] * len(vecs)
        )
        vec0 = x_true
        vec, J, steps = (x[0] for x in _descend(vec0[None], ev, 100))
        assert steps == 0 and np.array_equal(vec, vec0)
        assert J == float(ev.evaluate(vec0)[0])

    def test_lockstep_bitwise_equals_solo_descents(self, rig, shape):
        # seeds near and far from the truth and one whose arc lies behind
        # both cameras (theta1 = 4 is outside the domain: no residual rows);
        # together the scenes exercise every stop rule
        offsets = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.02, 0.1, 1.0, -1.0, 0.5, 0.5],
            [0.1, 1.0, 3.0, -2.0, 2.0, 1.0],
        ])
        reasons = set()
        for scene_rig, seed, occlusion in itertools.product(
            (rig, rotated_rig()), (0, 1, 2), (None, (0.4, 0.6))
        ):
            _, masks, x_true, _ = make_scene(scene_rig, shape, seed=seed, occlusion=occlusion)
            ev = SceneEvaluator(masks, shape, scene_rig, EstimatorConfig())
            seeds = np.vstack([x_true + offsets[:2], x_true, x_true + offsets[2]])
            seeds[2, 0] = 4.0
            vecs, J, steps = _descend(seeds, ev, 12)
            for i, seed_vec in enumerate(seeds):
                vec1, J1, steps1, reason = solo_descent(ev, seed_vec, 12)
                assert vecs[i].tobytes() == vec1.tobytes(), (seed, occlusion, i)
                assert J[i].tobytes() == J1.tobytes() and steps[i] == steps1
                reasons.add(reason)
        assert reasons == {
            "no residual rows", "ten rejected steps", "max_steps", "relative drop"
        }


class TestEstimate:
    def test_accurate_on_clean_scene(self, rig, shape):
        T_true, masks, _, hints = make_scene(rig, shape, seed=11)
        pose, report, steps = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 5e-4
        assert rotation_geodesic(pose.rotation, T_true.rotation) < np.radians(2.0)
        assert steps > 0

    def test_deterministic(self, rig, shape):
        _, masks, _, hints = make_scene(rig, shape, seed=12)
        a, ra, sa = estimate(masks, hints, shape, rig)
        b, rb, sb = estimate(masks, hints, shape, rig)
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.rotation, b.rotation)
        assert ra.value == rb.value and sa == sb

    def test_without_right_hints(self, rig, shape):
        T_true, masks, x_l, _ = make_scene(rig, shape, seed=13)
        hints = KeypointHints(left_start=x_l[2:4], left_end=x_l[4:6])
        pose, _, _ = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 1e-3

    def test_swapped_hints_triangulate_behind_the_rig(self, rig, shape):
        _, _, _, hints = make_scene(rig, shape, seed=13)
        left, right = (hints.left_start, hints.left_end), (hints.right_start, hints.right_end)
        assert _triangulated_depth(rig, left, right) > 0.0
        assert _triangulated_depth(rig, right, left) <= 0.0

    @pytest.mark.parametrize("depth", [-0.1, np.nan])
    def test_unusable_depth_seeds_like_left_only(self, rig, shape, monkeypatch, depth):
        _, masks, _, hints = make_scene(rig, shape, seed=13)
        left_only = estimate(masks, KeypointHints(hints.left_start, hints.left_end), shape, rig)
        monkeypatch.setattr(pose_estimator, "_triangulated_depth", lambda *args: depth)
        pose, report, steps = estimate(masks, hints, shape, rig)
        assert np.array_equal(pose.translation, left_only[0].translation)
        assert report.value == left_only[1].value and steps == left_only[2]

    def test_occluded_scene(self, rig, shape):
        T_true, masks, _, hints = make_scene(rig, shape, seed=14, occlusion=(0.3, 0.6))
        pose, _, _ = estimate(masks, hints, shape, rig)
        assert np.linalg.norm(pose.translation - T_true.translation) < 1e-3

    def test_reject_threshold_raises_with_result(self, rig, shape):
        _, masks, _, hints = make_scene(rig, shape, seed=15)
        cfg = dataclasses.replace(EstimatorConfig(), reject_mean_sq_px=1e-12, max_steps=10)
        with pytest.raises(NoConvergence) as exc:
            estimate(masks, hints, shape, rig, cfg)
        pose, report, steps = exc.value.result
        assert report.value >= 0.0 and steps > 0

    def test_empty_masks_raise(self, rig, shape):
        empty = BinaryMask(640, 480, np.empty((0, 2), dtype=int))
        hints = KeypointHints(
            left_start=np.array([300.0, 240.0]), left_end=np.array([340.0, 240.0])
        )
        with pytest.raises(EmptyMasks):
            estimate((empty, empty), hints, shape, rig)

    def test_config_validation(self):
        # axis_sample_count 1 breaks np.gradient and 2 or 3 leave the
        # Levenberg-Marquardt system singular; the other zeros divide by zero
        # or leave no seed to refine
        for field, value in (("max_steps", 0), ("axis_sample_count", 3),
                             ("seed_count", 0), ("reject_mean_sq_px", -1.0),
                             ("reject_mean_sq_px", float("nan"))):
            with pytest.raises(ValueError, match=f"{field} must be"):
                EstimatorConfig(**{field: value})
        EstimatorConfig(axis_sample_count=4, seed_count=1)


def _left_only(hints, rng):
    return KeypointHints(hints.left_start, hints.left_end)


def _noisy_2px(hints, rng):
    return KeypointHints(*(np.asarray(h) + rng.normal(0.0, 2.0, 2) for h in (
        hints.left_start, hints.left_end, hints.right_start, hints.right_end)))


# id, random_needle_pose kwargs, line width, occlusion fraction, hint transform
STRESS_SCENARIOS = [
    ("left_only_hints", {}, 1.0, 0.0, _left_only),
    ("hint_noise_2px", {}, 1.0, 0.0, _noisy_2px),
    ("line_width_3", {}, 3.0, 0.0, None),
    ("near_edge_on", {"min_view_angle": 0.1}, 1.0, 0.0, None),
    ("occlusion_50", {}, 1.0, 0.5, None),
    # beyond SCENE_DEPTH_RANGE, which only the left-only seeding grid spans
    ("depth_beyond_seeding", {"depth_range": (0.22, 0.3)}, 1.0, 0.0, None),
    # left-only hints seed on that grid, so the descent has to leave it
    ("left_only_beyond_seeding", {"depth_range": (0.3, 0.4)}, 1.0, 0.0, _left_only),
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
