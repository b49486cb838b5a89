import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suturekit import bench
from suturekit.bench import random_needle_pose
from suturekit.geometry import NonPositiveDepth, RigidPose
from suturekit.needle import (
    BinaryMask,
    DegenerateRays,
    NeedleError,
    NeedleShape,
    ThetaOutOfRange,
    _cross,
    _unit,
    needle_frames,
    params_to_pose,
    pose_to_params,
    project_endpoints,
    rasterize,
    reproject,
    sample_axis_points,
)

from conftest import pinhole_oracle


class TestShape:
    def test_semicircle_chord_is_diameter(self):
        shape = NeedleShape(0.01)
        assert np.isclose(shape.chord_length, 0.02)

    def test_endpoints_body_semicircle(self):
        st_, ed = NeedleShape(0.01).endpoints_body()
        assert np.allclose(st_, [0.0, -0.01, 0.0], atol=1e-12)
        assert np.allclose(ed, [0.0, 0.01, 0.0], atol=1e-12)

    def test_arc_points_on_radius(self):
        shape = NeedleShape(0.013, 2.0)
        pts = shape.arc_points_body(np.linspace(0.0, 2.0, 17))
        assert np.allclose(np.linalg.norm(pts, axis=1), 0.013)
        assert np.allclose(pts[:, 2], 0.0)

    def test_rejects_bad_radius_and_angle(self):
        for radius in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius must be a finite number > 0"):
                NeedleShape(radius)
        with pytest.raises(ValueError):
            NeedleShape(0.01, 2.0 * np.pi)


class TestTriangleConstruction:
    def test_isoceles_law_of_sines(self, rig, shape):
        cam = rig.left
        x = np.array([0.0, 0.0, 300.0, 240.0, 340.0, 240.0])
        alpha = needle_frames(x, shape, cam).alpha[0]
        x[0] = (np.pi - alpha) / 2.0
        T = params_to_pose(x, shape, cam)
        p_st, p_ed = (T.apply(p) for p in shape.endpoints_body())
        L = shape.chord_length
        expected = L * np.cos(alpha / 2.0) / np.sin(alpha)
        assert np.isclose(np.linalg.norm(p_st - cam.center), expected, atol=1e-12)
        assert np.isclose(np.linalg.norm(p_ed - cam.center), expected, atol=1e-12)

    @given(
        theta1=st.floats(0.05, 2.8),
        theta2=st.floats(0.0, 2.0 * np.pi),
        du=st.floats(20.0, 120.0),
        dv=st.floats(-60.0, 60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_chord_length_invariant(self, rig, shape, theta1, theta2, du, dv):
        cam = rig.left
        kp_st = np.array([280.0, 230.0])
        kp_ed = kp_st + [du, dv]
        x = np.array([theta1, theta2, *kp_st, *kp_ed])
        if theta1 >= np.pi - needle_frames(x, shape, cam).alpha[0] - 1e-3:
            return
        T = params_to_pose(x, shape, cam)
        p_st, p_ed = (T.apply(p) for p in shape.endpoints_body())
        assert np.isclose(np.linalg.norm(p_ed - p_st), shape.chord_length, atol=1e-12)

    def test_endpoints_reproject_to_keypoints(self, rig, shape):
        cam = rig.left
        x = np.array([1.1, 0.7, 260.0, 210.0, 330.0, 260.0])
        T = params_to_pose(x, shape, cam)
        p_st, p_ed = (T.apply(p) for p in shape.endpoints_body())
        assert np.allclose(pinhole_oracle(cam, p_st), x[2:4], atol=1e-9)
        assert np.allclose(pinhole_oracle(cam, p_ed), x[4:6], atol=1e-9)

    def test_theta2_mirror_about_rays_plane(self, rig, shape):
        cam = rig.left
        kp_st, kp_ed = np.array([280.0, 220.0]), np.array([350.0, 250.0])
        Ta = params_to_pose(np.array([0.9, 0.4, *kp_st, *kp_ed]), shape, cam)
        Tb = params_to_pose(np.array([0.9, -0.4, *kp_st, *kp_ed]), shape, cam)
        # endpoints shared, arc midpoints mirrored across the rays plane
        for p in shape.endpoints_body():
            assert np.allclose(Ta.apply(p), Tb.apply(p), atol=1e-12)
        mid_a = Ta.apply([shape.radius, 0.0, 0.0])
        mid_b = Tb.apply([shape.radius, 0.0, 0.0])
        d_st = cam.backproject_ray(kp_st)
        d_ed = cam.backproject_ray(kp_ed)
        n = np.cross(d_st, d_ed)
        n /= np.linalg.norm(n)
        assert np.isclose(n @ (mid_a - cam.center), -(n @ (mid_b - cam.center)), atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 2, 7, 33])
    def test_component_cross_and_norm_bitwise_equal_numpy(self, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.normal(size=(2, rows, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, rows, 1))
        a[0] = 0.0  # the norm floor keeps a zero vector at zero
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
        expected = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-300)
        assert _unit(a).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("batch", [(), (1,), (6,), (7,), (4, 3)], ids=str)
    def test_frames_on_a_rotated_anchor_match_a_per_row_reference(self, shape, batch):
        # the mono camera is rotated, and a batched rotation product's last
        # bits depend on the batch layout: the reference rotates each
        # keypoint's rays in the batch's own layout, then builds every frame
        # row by row
        cam = bench.default_mono_camera()
        rng = np.random.default_rng(len(batch) * 10 + sum(batch))
        vecs = np.concatenate([
            rng.uniform(0.2, 2.5, batch + (1,)), rng.uniform(0.0, 6.0, batch + (1,)),
            rng.uniform(100.0, 540.0, batch + (4,)),
        ], axis=-1)
        C, L = cam.center, shape.chord_length

        def unit(v):
            return v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)

        def rays(kp):
            d = np.stack([(kp[..., 0] - cam.cx) / cam.fx, (kp[..., 1] - cam.cy) / cam.fy,
                          np.ones(kp.shape[:-1])], axis=-1)
            return unit(d @ cam.pose_world_from_camera.rotation.T).reshape(-1, 3)

        frames = needle_frames(vecs, shape, cam)
        assert frames.centers.shape == (batch or (1,)) + (3,)
        rows = zip(vecs.reshape(-1, 6), rays(vecs[..., 2:4]), rays(vecs[..., 4:6]))
        for i, ((th1, th2, *_), d_st, d_ed) in enumerate(rows):
            alpha = np.arccos(np.clip(np.sum(d_st * d_ed), -1.0, 1.0))
            sa = np.sin(alpha) if alpha > 1e-12 else 1.0
            p_st = C + L * np.sin(alpha + th1) / sa * d_st
            p_ed = C + L * np.sin(th1) / sa * d_ed
            u_ax = unit(p_ed - p_st)
            w_ref = unit(np.cross(unit(np.cross(d_st, d_ed)), u_ax))
            e1 = np.cos(th2) * w_ref + np.sin(th2) * np.cross(u_ax, w_ref)
            center = 0.5 * (p_st + p_ed) - shape.radius * np.cos(shape.arc_angle / 2.0) * e1
            valid = alpha > 1e-6 and 0.0 < th1 < np.pi - alpha
            expected = (center, e1, u_ax, alpha, valid)
            for field, got, want in zip(frames._fields, frames, expected):
                row = got.reshape(-1, *got.shape[frames.alpha.ndim:])[i]
                assert row.tobytes() == np.asarray(want).tobytes(), (field, i)

    def test_frames_of_a_slice_do_not_depend_on_the_others(self, rig, shape):
        rng = np.random.default_rng(3)
        vecs = np.column_stack([
            rng.uniform(0.2, 2.5, 12), rng.uniform(0.0, 6.0, 12),
            rng.uniform(200.0, 440.0, (12, 4)),
        ]).reshape(4, 3, 6)
        joint = needle_frames(vecs, shape, rig.left)
        for g, group in enumerate(vecs):
            alone = needle_frames(group, shape, rig.left)
            for field, a, b in zip(joint._fields, joint, alone):
                assert a[g].tobytes() == b.tobytes(), field

    def test_theta1_out_of_range(self, rig, shape):
        kp_st, kp_ed = np.array([280.0, 220.0]), np.array([350.0, 250.0])
        with pytest.raises(ThetaOutOfRange):
            params_to_pose(np.array([3.2, 0.0, *kp_st, *kp_ed]), shape, rig.left)
        with pytest.raises(ThetaOutOfRange):
            params_to_pose(np.array([0.0, 0.0, *kp_st, *kp_ed]), shape, rig.left)

    def test_coincident_keypoints_degenerate(self, rig, shape):
        with pytest.raises(DegenerateRays):
            params_to_pose(np.array([1.0, 0.0, 300.0, 240.0, 300.0, 240.0]), shape, rig.left)


class TestParamsRoundtrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_pose_params_pose(self, rig, shape, seed):
        rng = np.random.default_rng(seed)
        T = random_needle_pose(rng, rig, shape)
        x = pose_to_params(T, shape, rig.left)
        T2 = params_to_pose(x, shape, rig.left)
        assert np.linalg.norm(T2.translation - T.translation) < 1e-9
        assert np.allclose(T2.rotation, T.rotation, atol=1e-8)

    @pytest.mark.parametrize("pose_kw", [
        {}, {"min_view_angle": 0.1}, {"depth_range": (0.22, 0.4)},
    ], ids=["default", "near_edge_on", "beyond_seeding"])
    def test_pose_params_pose_many(self, rig, shape, pose_kw):
        # 100 scenes per kind, 300 in all; the ray-plane basis of
        # pose_to_params comes from needle_frames
        for i in range(100):
            T = random_needle_pose(np.random.default_rng([31, i]), rig, shape, **pose_kw)
            T2 = params_to_pose(pose_to_params(T, shape, rig.left), shape, rig.left)
            assert np.linalg.norm(T2.translation - T.translation) < 1e-9, i
            assert np.allclose(T2.rotation, T.rotation, atol=1e-8), i

    def test_observe_hints_are_the_params_keypoints(self, rig, shape):
        """project_endpoints gives the keypoints of pose_to_params, and
        observe's hints, bit for bit."""
        for i in range(20):
            T = random_needle_pose(np.random.default_rng([5, i]), rig, shape)
            x = pose_to_params(T, shape, rig.left)
            points, pixels = project_endpoints(T, shape, rig.left)
            assert pixels.ravel().tobytes() == x[2:].tobytes()
            assert np.allclose(points, T.apply(np.stack(shape.endpoints_body())),
                               rtol=0.0, atol=1e-15)
            _, hints = bench.observe(T, shape, rig, 1.0)
            assert [*hints.left_start, *hints.left_end] == x[2:].tolist()

    def test_params_pose_params(self, rig, shape):
        x = np.array([1.2, 2.5, 280.0, 225.0, 345.0, 255.0])
        T = params_to_pose(x, shape, rig.left)
        back = pose_to_params(T, shape, rig.left)
        assert back.shape == (6,)
        assert np.isclose(back[0], x[0], atol=1e-9)
        assert np.isclose(back[1] % (2 * np.pi), x[1] % (2 * np.pi), atol=1e-9)
        assert np.allclose(back[2:], x[2:], atol=1e-6)

    @pytest.mark.parametrize("z", [-0.1, 0.005])
    def test_endpoint_behind_anchor_raises(self, rig, shape, z):
        # chord along the optical axis: at z = 0.005 only the start endpoint
        # (z - radius) is behind the camera, at z = -0.1 both are
        R = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        T = RigidPose(R, np.array([0.0, 0.0, z]))
        with pytest.raises(NonPositiveDepth):
            pose_to_params(T, shape, rig.left)
        with pytest.raises(NonPositiveDepth):
            bench.observe(T, shape, rig, 1.0)


class TestRandomNeedlePose:
    @pytest.mark.parametrize("margin_px", [bench._MARGIN_PX])
    def test_arc_inside_margin(self, rig, shape, margin_px):
        # needles this close span most of the image, so the margin binds
        for seed in range(10):
            rng = np.random.default_rng([21, seed])
            T = random_needle_pose(rng, rig, shape, (0.045, 0.065))
            pts = T.apply(shape.arc_points_body(np.linspace(0, shape.arc_angle, 64)))
            for cam in rig.cameras:
                px = np.array([pinhole_oracle(cam, p) for p in pts])
                assert (px >= margin_px).all(), seed
                assert (px < np.array([cam.width, cam.height]) - margin_px).all(), seed

    def test_no_in_view_pose_is_typed(self, rig):
        """A needle too large for the images at every scene depth exhausts
        the draws with an error naming the radius, depths and draw count."""
        with pytest.raises(bench.NoInViewPose, match=r"^no needle pose of radius 100 mm at "
                           r"depths \[0.08, 0.2\] m was in view of both cameras in 500 draws$"):
            random_needle_pose(np.random.default_rng(0), rig, NeedleShape(0.1))
        assert issubclass(bench.NoInViewPose, NeedleError)


class TestSampling:
    def test_three_samples_are_endpoints_and_midpoint(self, shape):
        T = RigidPose(np.eye(3), np.array([0.0, 0.0, 0.1]))
        pts = sample_axis_points(T, shape, 3)
        st_, ed = shape.endpoints_body()
        assert np.allclose(pts[0], T.apply(st_), atol=1e-12)
        assert np.allclose(pts[1], T.apply([shape.radius, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(pts[2], T.apply(ed), atol=1e-12)

    def test_samples_on_radius(self, shape):
        rng = np.random.default_rng(11)
        from conftest import random_rotation

        T = RigidPose(random_rotation(rng), np.array([0.01, -0.02, 0.15]))
        pts = sample_axis_points(T, shape, 64)
        assert np.allclose(np.linalg.norm(pts - T.translation, axis=1), shape.radius)

    def test_occlusion_excludes_interval(self, shape):
        T = RigidPose(np.eye(3), np.zeros(3))
        pts = sample_axis_points(T, shape, 101, occlusion=(0.195, 0.405))
        full = sample_axis_points(T, shape, 101)
        assert len(pts) == 80  # 21 of 101 uniformly spaced fractions removed
        assert len(full) == 101

    def test_count_too_small(self, shape):
        with pytest.raises(ValueError):
            sample_axis_points(RigidPose.identity(), shape, 1)


def stamp_reference(T, shape, camera, line_width, occlusion):
    """rasterize's former per-sample stamping loop, kept as its reference; the
    samples are projected as rasterize projects them, so only stamping differs."""
    coarse = project_samples(T, shape, camera, 257, occlusion)
    arc_px_len = float(np.sum(np.linalg.norm(np.diff(coarse, axis=0), axis=1)))
    px = project_samples(T, shape, camera, max(2, int(np.ceil(4.0 * arc_px_len))), occlusion)
    radius = line_width / 2.0
    r_int = int(np.ceil(radius))
    offs = np.array(
        [(du, dv) for du in range(-r_int, r_int + 1) for dv in range(-r_int, r_int + 1)]
    )
    pixels = set()
    for u, v in px:
        cand = np.array([round(u), round(v)]) + offs
        d = np.hypot(cand[:, 0] - u, cand[:, 1] - v)
        for cu, cv in cand[d <= radius]:
            if 0 <= cu < camera.width and 0 <= cv < camera.height:
                pixels.add((int(cu), int(cv)))
    return np.array(sorted(pixels), dtype=int).reshape(-1, 2)


def project_samples(T, shape, camera, count, occlusion):
    px, valid = camera.project_many(sample_axis_points(T, shape, count, occlusion))
    return px[valid]


class TestReprojectAndRasterize:
    @pytest.mark.parametrize("line_width", [1.0, 3.0, 4.5])
    @pytest.mark.parametrize("occlusion", [None, (0.3, 0.6)], ids=["clean", "occluded"])
    def test_rasterize_matches_reference_stamping(self, rig, shape, line_width, occlusion):
        poses = [random_needle_pose(np.random.default_rng([16, i]), rig, shape) for i in range(3)]
        # across two of the left image's edges, top-left and bottom-right: the
        # in-image filter
        for corner in ([2.0, 2.0], [637.0, 477.0]):
            poses.append(RigidPose(np.eye(3), 0.1 * rig.left.backproject_ray(corner)))
        for i, T in enumerate(poses):
            for cam in rig.cameras:
                mask = rasterize(T, shape, cam, line_width, occlusion)
                ref = stamp_reference(T, shape, cam, line_width, occlusion)
                assert np.array_equal(mask.foreground, ref), (i, cam.pose_world_from_camera)

    def test_reproject_matches_pointwise_projection(self, rig, shape):
        rng = np.random.default_rng(12)
        T = random_needle_pose(rng, rig, shape)
        left_px, right_px = reproject(T, shape, rig, 40)
        pts = sample_axis_points(T, shape, 40)
        for cam, px in zip(rig.cameras, (left_px, right_px)):
            assert len(px) == 40
            for p, row in zip(pts, px):
                assert np.allclose(row, pinhole_oracle(cam, p), atol=1e-9)

    def test_rasterize_behind_camera_is_empty(self, rig, shape):
        T = RigidPose(np.eye(3), np.array([0.0, 0.0, -0.1]))
        assert len(rasterize(T, shape, rig.left)) == 0

    def test_rasterize_in_front_but_out_of_image_is_empty(self, rig, shape):
        # every stamped candidate falls outside the image: an empty key
        T = RigidPose(np.eye(3), np.array([1.0, 0.0, 0.1]))
        mask = rasterize(T, shape, rig.left)
        assert len(mask) == 0 and mask.foreground.shape == (0, 2)

    def test_mask_pixels_near_projected_curve(self, rig, shape):
        rng = np.random.default_rng(13)
        T = random_needle_pose(rng, rig, shape)
        mask = rasterize(T, shape, rig.left, line_width=1.0)
        assert len(mask) > 50
        dense, _ = reproject(T, shape, rig, 4000)
        d = np.linalg.norm(
            mask.foreground[:, None, :].astype(float) - dense[None, :, :], axis=2
        ).min(axis=1)
        assert d.max() <= 1.0

    def test_occlusion_shrinks_mask(self, rig, shape):
        rng = np.random.default_rng(14)
        T = random_needle_pose(rng, rig, shape)
        full = rasterize(T, shape, rig.left)
        occ = rasterize(T, shape, rig.left, occlusion=(0.3, 0.6))
        assert 0 < len(occ) < len(full)
        assert len(occ) < 0.85 * len(full)

    def test_line_width_monotone(self, rig, shape):
        rng = np.random.default_rng(15)
        T = random_needle_pose(rng, rig, shape)
        thin = rasterize(T, shape, rig.left, line_width=1.0)
        thick = rasterize(T, shape, rig.left, line_width=3.0)
        assert len(thick) > len(thin)

    def test_line_width_below_one_rejected(self, rig, shape):
        # NaN and inf are rejected too, before any stamping
        for line_width in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="line_width must be a finite number >= 1"):
                rasterize(RigidPose.identity(), shape, rig.left, line_width=line_width)


class TestMaskValidation:
    def test_out_of_bounds_pixel_rejected(self):
        with pytest.raises(ValueError):
            BinaryMask(10, 10, np.array([[10, 0]]))

    def test_duplicate_pixels_rejected(self):
        with pytest.raises(ValueError):
            BinaryMask(10, 10, np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValueError, match="duplicate"):
            BinaryMask(10, 10, np.array([[4, 2], [0, 9], [1, 3], [0, 9]]))
        assert len(BinaryMask(10, 10, np.array([[4, 2], [0, 9], [2, 4], [9, 0]]))) == 4

