import dataclasses
import io
import json
import sys
import weakref

import numpy as np
import pytest

from suturekit import calibration
from suturekit.calibration import (
    DEFAULT_QMSR_REGION,
    CalibrationError,
    FeatureBehindCamera,
    FeatureModel,
    NonFiniteLoss,
    Scaler,
    TrainConfig,
    calibrate_direct,
    detect_features,
    evaluate_calibration,
    generate_dataset,
    load_mlp,
    mlp_backprop,
    mlp_init,
    mlp_train,
    read_dataset_csv,
    save_model,
    write_dataset_csv,
)
from suturekit.calibration import (
    _BETA1,
    _BETA2,
    _BLOCK_ROWS,
    _EPS,
    _FLUSH_BELOW,
    _LR_FINAL_FRACTION,
    _VAL_FRACTION,
    MlpModel,
    _feature_pixels,
    _last,
)
from suturekit.cli import main
from suturekit.geometry import RigidPose
from suturekit.psm_kinematics import (
    KinematicModel, PRISMATIC_INDEX, REVOLUTE, fk, fk_arrays, to_deg_mm,
)

from conftest import pinhole_oracle, traced_peak


@pytest.fixture(scope="module")
def parts(mono_camera):
    return KinematicModel(), mono_camera, FeatureModel()


class TestDetectFeatures:
    def test_matches_manual_projection(self, parts):
        model, camera, fm = parts
        jaw = fk(model, DEFAULT_QMSR_REGION.center)
        px = detect_features(camera, jaw, fm)
        pts = jaw.apply(fm.body_points)
        for row, p in zip(px, pts):
            assert np.allclose(row, pinhole_oracle(camera, p), atol=1e-12)

    def test_behind_camera(self, parts):
        model, camera, fm = parts
        behind = RigidPose(np.eye(3), camera.center + 10.0 * camera.pose_world_from_camera.rotation[:, 2] * -1.0)
        with pytest.raises(FeatureBehindCamera):
            detect_features(camera, behind, fm)

    def test_colinear_points_rejected(self):
        with pytest.raises(ValueError):
            FeatureModel(np.array([[0.0, 0, 0], [0.01, 0, 0], [0.02, 0, 0]]))


class TestCalibrateDirect:
    def test_recovers_injected_offset(self, parts):
        model, camera, fm = parts
        rng = np.random.default_rng(2)
        bound = np.radians(10.0)
        for _ in range(20):
            q_msr = DEFAULT_QMSR_REGION.sample(rng)
            dq = rng.uniform(-np.radians(5.0), np.radians(5.0), 6)
            dq[PRISMATIC_INDEX] /= model.prismatic_scale
            px = detect_features(camera, fk(model, q_msr + dq), fm)
            dq_hat = calibrate_direct(model, camera, fm, q_msr, px, bound)
            assert np.max(np.abs(dq_hat - dq)) < 1e-7

    def test_zero_offset_gives_zero(self, parts):
        model, camera, fm = parts
        q_msr = DEFAULT_QMSR_REGION.center
        px = detect_features(camera, fk(model, q_msr), fm)
        dq_hat = calibrate_direct(model, camera, fm, q_msr, px, np.radians(10.0))
        assert np.max(np.abs(dq_hat)) < 1e-9

    @pytest.mark.parametrize("arg, value", [
        ("pixels", "nan"),
        ("pixels", (3, 3, 2)),
        ("pixels", (2, 4, 2)),  # K differs from q_msr's
        ("q_msr", "nan"),
        ("q_msr", (3, 5)),
        ("q_msr", (1, 3, 6)),
        ("bound", np.nan),
        ("bound", -0.1),
    ])
    def test_bad_input_names_the_argument(self, parts, arg, value):
        model, camera, fm = parts
        q_msr = DEFAULT_QMSR_REGION.center + np.zeros((3, 6))
        args = {"q_msr": q_msr, "pixels": _feature_pixels(camera, *fk_arrays(model, q_msr), fm),
                "bound": np.radians(10.0)}
        if value == "nan":
            args[arg].flat[1] = np.nan
        elif arg == "bound":
            args[arg] = value
        else:
            args[arg] = np.resize(args[arg], value)
        with pytest.raises(ValueError, match=arg):
            calibrate_direct(model, camera, fm, **args)

    def test_infinite_bound_accepted(self, parts):
        model, camera, fm = parts
        q_msr = DEFAULT_QMSR_REGION.center
        px = detect_features(camera, fk(model, q_msr), fm)
        assert np.max(np.abs(calibrate_direct(model, camera, fm, q_msr, px, np.inf))) < 1e-9


class TestCalibrateDirectStress:
    """Offset error against keypoint noise and the number K of images, 100
    trials per cell drawn as in criterion 3, the K measured configurations
    from DEFAULT_QMSR_REGION. The bounds are about 1.5x the worst per-joint
    revolute mean absolute error measured over 200 trials."""

    TRIALS = 100

    def solves(self, parts, noise_px, K):
        """(offset or the CalibrationError raised, true offset) per trial."""
        model, camera, fm = parts
        out = []
        for i in range(self.TRIALS):
            rng = np.random.default_rng([300, K, i])
            q_msr = np.array([DEFAULT_QMSR_REGION.sample(rng) for _ in range(K)])
            dq = rng.uniform(-np.radians(5.0), np.radians(5.0), 6)
            dq[PRISMATIC_INDEX] /= model.prismatic_scale
            px = _feature_pixels(camera, *fk_arrays(model, q_msr + dq), fm)
            px = px + rng.normal(0.0, noise_px, px.shape)
            try:
                out.append((calibrate_direct(model, camera, fm, q_msr, px, np.radians(10.0)), dq))
            except CalibrationError as e:
                out.append((e, dq))
        return out

    @pytest.mark.parametrize("K", [1, 4, 16])
    def test_noiseless_is_exact(self, parts, K):
        model = parts[0]
        for dq_hat, dq in self.solves(parts, 0.0, K):
            err = np.abs(dq_hat - dq)
            err[PRISMATIC_INDEX] *= model.prismatic_scale
            assert err.max() < 1e-9

    @pytest.mark.parametrize("noise_px, K, bound_deg", [
        (0.5, 4, 0.35), (0.5, 16, 0.15), (1.0, 4, 0.7), (1.0, 16, 0.3),
    ])
    def test_revolute_error_under_noise(self, parts, noise_px, K, bound_deg):
        err = np.array([np.abs(dq_hat - dq) for dq_hat, dq in self.solves(parts, noise_px, K)])
        assert np.degrees(err[:, REVOLUTE].mean(axis=0).max()) <= bound_deg

    @pytest.mark.parametrize("noise_px", [0.5, 1.0])
    def test_one_noisy_image_stays_in_bound_or_raises(self, parts, noise_px):
        model = parts[0]
        results = self.solves(parts, noise_px, 1)
        solved = [dq_hat for dq_hat, _ in results if isinstance(dq_hat, np.ndarray)]
        assert all(model.joint_distance(dq_hat, np.zeros(6)) <= np.radians(10.0) for dq_hat in solved)
        assert 0 < len(solved) < len(results)  # one image under noise sometimes leaves the box


def reference_dataset(model, camera, fm, count, delta_range, noise_px, rng_seed):
    """The per-sample generation loop: one fk pose, one projection and one
    noise draw per row, in the order generate_dataset draws them."""
    data = np.empty((count, 12 + 2 * len(fm)))
    for i, row in enumerate(data):
        rng = np.random.default_rng([rng_seed, i])
        q_msr = DEFAULT_QMSR_REGION.center
        rng.uniform(-1.0, 1.0, 6)
        dq = rng.uniform(-delta_range, delta_range, 6)
        dq[PRISMATIC_INDEX] /= model.prismatic_scale
        px, valid = camera.project_many(fk(model, q_msr + dq).apply(fm.body_points))
        assert valid.all()
        if noise_px > 0:
            px = px + rng.normal(0.0, noise_px, px.shape)
        row[:6], row[6:-6], row[-6:] = q_msr, px.reshape(-1), dq
    return data


def whole_batch_dataset(model, camera, fm, count, delta_range, noise_px, rng_seed):
    """The same draws as `reference_dataset`, then one fk_arrays and one
    _feature_pixels over all `count` rows and the noise added in one sum."""
    data = np.empty((count, 12 + 2 * len(fm)))
    noise = np.zeros((count, len(fm), 2))
    for i, row in enumerate(data):
        rng = np.random.default_rng([rng_seed, i])
        rng.uniform(-1.0, 1.0, 6)
        dq = rng.uniform(-delta_range, delta_range, 6)
        dq[PRISMATIC_INDEX] /= model.prismatic_scale
        row[:6], row[-6:] = DEFAULT_QMSR_REGION.center, dq
        if noise_px > 0:
            noise[i] = rng.normal(0.0, noise_px, (len(fm), 2))
    px = _feature_pixels(camera, *fk_arrays(model, data[:, :6] + data[:, -6:]), fm)
    data[:, 6:-6] = (px + noise if noise_px > 0 else px).reshape(count, -1)
    return data


class TestDataset:
    def test_count_and_label_range(self, parts):
        model, camera, fm = parts
        delta = np.radians(5.0)
        data = generate_dataset(model, camera, fm, count=200, rng_seed=0)
        assert data.shape == (200, 12 + 2 * len(fm))
        Y = data[:, -6:]
        rev = np.delete(np.arange(6), PRISMATIC_INDEX)
        assert np.all(np.abs(Y[:, rev]) <= delta)
        assert np.all(np.abs(Y[:, PRISMATIC_INDEX]) <= delta / model.prismatic_scale)

    def test_determinism(self, parts):
        model, camera, fm = parts
        a = generate_dataset(model, camera, fm, count=50, rng_seed=3)
        b = generate_dataset(model, camera, fm, count=50, rng_seed=3)
        assert np.array_equal(a, b)

    def test_prefix_property(self, parts):
        # per-sample rng streams: a shorter run is a prefix of a longer one
        model, camera, fm = parts
        a = generate_dataset(model, camera, fm, count=20, rng_seed=4)
        b = generate_dataset(model, camera, fm, count=40, rng_seed=4)
        assert np.array_equal(a[:, -6:], b[:20, -6:])

    @pytest.mark.parametrize("rng_seed, noise_px, count", [
        (0, 0.0, 300),
        (0, 0.5, 300),
        (7, 0.5, 257),
        (7, 0.0, 1),
    ])
    def test_matches_per_sample_reference(self, parts, rng_seed, noise_px, count):
        model, camera, fm = parts
        delta = np.radians(5.0)
        data = generate_dataset(model, camera, fm, count=count, delta_range=delta,
                                noise_px=noise_px, rng_seed=rng_seed)
        expected = reference_dataset(model, camera, fm, count, delta, noise_px, rng_seed)
        assert np.array_equal(data, expected)

    @pytest.mark.parametrize("noise_px", [0.0, 0.5])
    def test_blocks_match_one_whole_batch(self, parts, noise_px):
        model, camera, fm = parts
        count = 2 * _BLOCK_ROWS + 3
        data = generate_dataset(model, camera, fm, count=count, noise_px=noise_px, rng_seed=2)
        expected = whole_batch_dataset(model, camera, fm, count, np.radians(5.0), noise_px, 2)
        assert np.array_equal(data, expected)

    def test_temporaries_do_not_grow_with_count(self, parts):
        # all that grows with count is the returned array; the rest is one
        # block's fk, projection and rng temporaries, 0.15 MB at 16384 rows
        def overhead(count):
            data, peak = traced_peak(generate_dataset, *parts, count=count)
            return peak - data.nbytes
        overhead(_BLOCK_ROWS)
        assert overhead(16384) - overhead(2048) <= 64 * 1024

    def test_feature_behind_camera_raises(self, parts):
        model, camera, fm = parts
        # the same camera turned half a turn about its y axis looks away from the jaw
        R = camera.pose_world_from_camera.rotation @ np.diag([-1.0, 1.0, -1.0])
        away = dataclasses.replace(
            camera, pose_world_from_camera=RigidPose(R, camera.center))
        with pytest.raises(FeatureBehindCamera):
            generate_dataset(model, away, fm, count=5)

    def test_csv_roundtrip(self, parts, tmp_path):
        model, camera, fm = parts
        data = generate_dataset(model, camera, fm, count=20, rng_seed=5)
        path = tmp_path / "ds.csv"
        write_dataset_csv(data, path, "# test")
        back = read_dataset_csv(path)
        assert back.shape == data.shape
        assert np.allclose(back[:, :6], data[:, :6], atol=1e-12)
        assert np.allclose(back[:, 6:-6], data[:, 6:-6], atol=1e-9)
        assert np.allclose(back[:, -6:], data[:, -6:], atol=1e-12)

    def test_blocked_csv_matches_one_savetxt(self, tmp_path):
        rng = np.random.default_rng(21)
        data = rng.normal(scale=[1.0] * 6 + [300.0] * 8 + [0.05] * 6,
                          size=(2 * _BLOCK_ROWS + 5, 20))
        path = tmp_path / "ds.csv"
        write_dataset_csv(data, path, "# blocks")
        whole = io.BytesIO()
        out = np.hstack([to_deg_mm(data[:, :6]), data[:, 6:-6], to_deg_mm(data[:, -6:])])
        np.savetxt(whole, out, fmt="%.12g", delimiter=",", newline="\r\n")
        assert path.read_bytes().split(b"\r\n", 1)[1] == whole.getvalue()

    def test_csv_golden_bytes(self, tmp_path):
        # one feature point: qm1..qm6, px1x, px1y, dq1..dq6; joint 3 is prismatic
        data = np.array([
            [0.5, -0.25, 0.12, 0.0, 1.0, -1.5, 320.25, 240.5,
             0.01, -0.02, 0.0005, 0.03, -0.04, 0.05],
            [-0.5, 0.25, 0.1, 0.2, -1.0, 1.5, 1e-7, 1234.5678901234,
             0.0, 0.0, -0.0001, 0.0, 0.0, 0.0],
        ])
        path = tmp_path / "ds.csv"
        write_dataset_csv(data, path, "# config_hash=abc units=deg_mm")
        expected = (
            "# config_hash=abc units=deg_mm\n"
            "qm1,qm2,qm3,qm4,qm5,qm6,px1x,px1y,dq1,dq2,dq3,dq4,dq5,dq6\r\n"
            "28.6478897565,-14.3239448783,120,0,57.2957795131,-85.9436692696,"
            "320.25,240.5,"
            "0.572957795131,-1.14591559026,0.5,1.71887338539,-2.29183118052,"
            "2.86478897565\r\n"
            "-28.6478897565,14.3239448783,100,11.4591559026,-57.2957795131,"
            "85.9436692696,1e-07,1234.56789012,0,0,-0.1,0,0,0\r\n"
        )
        assert path.read_bytes() == expected.encode()
        again = tmp_path / "again.csv"
        write_dataset_csv(read_dataset_csv(path), again, "# config_hash=abc units=deg_mm")
        assert again.read_bytes() == path.read_bytes()


class TestScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        data = rng.normal(2.0, 3.0, (100, 4))
        sc = Scaler.fit(data)
        assert np.allclose(sc.unscale(sc.scale(data)), data, atol=1e-12)

    def test_fit_statistics(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(500, 3))
        sc = Scaler.fit(data)
        scaled = sc.scale(data)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-12)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            Scaler(np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("mean, std", [
        ([np.inf, 0.0], [1.0, 1.0]),
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([0.0, 0.0], [np.inf, 1.0]),
    ])
    def test_non_finite_statistics_rejected(self, mean, std):
        with pytest.raises(ValueError, match="finite"):
            Scaler(np.array(mean), np.array(std))


def identity_scaler(n):
    return Scaler(np.zeros(n), np.ones(n))


def reference_layers(model, xs):
    """Forward pass in scaled space that keeps every layer's activations,
    written out as backprop needs it: (activations, output)."""
    acts = [xs]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return acts, acts[-1] @ model.weights[-1] + model.biases[-1]


class TestMlpForward:
    def test_zero_weights_give_biases(self):
        m = MlpModel(
            [np.zeros((3, 4)), np.zeros((4, 2))],
            [np.zeros(4), np.array([1.5, -0.5])],
            identity_scaler(3),
            identity_scaler(2),
        )
        assert np.allclose(m.forward(np.ones(3)), [1.5, -0.5])

    def test_tiny_hand_computed_network(self):
        m = MlpModel(
            [np.array([[2.0]]), np.array([[3.0]])],
            [np.array([1.0]), np.array([0.5])],
            identity_scaler(1),
            identity_scaler(1),
        )
        # relu(1*2 + 1) = 3; 3*3 + 0.5 = 9.5
        assert np.allclose(m.forward(np.array([1.0])), [9.5])
        # relu(-1*2 + 1) = 0; 0*3 + 0.5 = 0.5
        assert np.allclose(m.forward(np.array([-1.0])), [0.5])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        m = mlp_init([5, 7, 3], identity_scaler(5), identity_scaler(3), rng)
        X = rng.normal(size=(10, 5))
        batch = m.forward(X)
        for i in range(10):
            assert np.allclose(batch[i], m.forward(X[i]), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_activation_keeping_pass_bitwise(self, dtype):
        rng = np.random.default_rng(16)
        sc_in = Scaler(rng.normal(size=5), np.abs(rng.normal(size=5)) + 0.1)
        sc_out = Scaler(rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1)
        m = mlp_init([5, 40, 30, 3], sc_in, sc_out, rng)
        m.weights = [W.astype(dtype) for W in m.weights]
        m.biases = [rng.normal(size=len(b)).astype(dtype) for b in m.biases]
        xs = rng.normal(size=(64, 5)).astype(dtype)
        _, want = reference_layers(m, xs)
        got = _last(m._layers(xs))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        X = rng.normal(size=(64, 5))
        want = sc_out.unscale(reference_layers(m, sc_in.scale(X))[1])
        assert np.array_equal(m.forward(X), want)

    def test_inference_holds_two_layers_at_a_time(self):
        # four hidden layers of 256 units on 2000 rows, 4.1 MB each: keeping
        # every activation would peak near 16.4 MB; inference may hold the
        # two layers of one matrix product plus the scaled input and output
        n, width = 2000, 256
        rng = np.random.default_rng(17)
        m = mlp_init([3, width, width, width, width, 2], identity_scaler(3),
                     identity_scaler(2), rng)
        X = rng.normal(size=(n, 3))
        m.forward(X)
        _, peak = traced_peak(m.forward, X)
        assert peak <= 8 * n * (2 * width + 2 * (3 + 2))

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            MlpModel(
                [np.zeros((3, 4)), np.zeros((5, 2))],
                [np.zeros(4), np.zeros(2)],
                identity_scaler(3),
                identity_scaler(2),
            )

    @pytest.mark.parametrize("weights, biases", [
        ([np.zeros(3), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)]),
        ([np.zeros((3, 4)), np.zeros((4, 2, 1))], [np.zeros(4), np.zeros(2)]),
        ([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros((2, 1))]),
        ([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.float64(0.0)]),
    ], ids=["1-D weight", "3-D weight", "2-D bias", "0-D bias"])
    def test_wrong_rank_rejected(self, weights, biases):
        with pytest.raises(ValueError, match="every weight must be 2-D and every bias 1-D"):
            MlpModel(weights, biases, identity_scaler(3), identity_scaler(2))


def gradient_check(model, xs, ys, probes, rng, h=1e-6):
    """Max relative error of backprop vs central finite differences."""
    _, dW, db = mlp_backprop(model, xs, ys)
    worst = 0.0
    for _ in range(probes):
        li = rng.integers(len(model.weights))
        if rng.random() < 0.5:
            i = rng.integers(model.weights[li].shape[0])
            j = rng.integers(model.weights[li].shape[1])
            model.weights[li][i, j] += h
            lp, _, _ = mlp_backprop(model, xs, ys)
            model.weights[li][i, j] -= 2 * h
            lm, _, _ = mlp_backprop(model, xs, ys)
            model.weights[li][i, j] += h
            analytic = dW[li][i, j]
        else:
            i = rng.integers(model.biases[li].shape[0])
            model.biases[li][i] += h
            lp, _, _ = mlp_backprop(model, xs, ys)
            model.biases[li][i] -= 2 * h
            lm, _, _ = mlp_backprop(model, xs, ys)
            model.biases[li][i] += h
            analytic = db[li][i]
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestBackprop:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        m = mlp_init([14, 8, 6], identity_scaler(14), identity_scaler(6), rng)
        xs = rng.normal(size=(32, 14))
        ys = rng.normal(size=(32, 6))
        assert gradient_check(m, xs, ys, probes=10, rng=rng) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_follow_the_dtype(self, dtype):
        rng = np.random.default_rng(14)
        m = mlp_init([6, 5, 3], identity_scaler(6), identity_scaler(3), rng)
        m.weights = [W.astype(dtype) for W in m.weights]
        m.biases = [b.astype(dtype) for b in m.biases]
        xs = rng.normal(size=(8, 6)).astype(dtype)
        ys = rng.normal(size=(8, 3)).astype(dtype)
        _, dW, db = mlp_backprop(m, xs, ys)
        assert {g.dtype for g in dW + db} == {np.dtype(dtype)}

    def test_loss_is_mean_squared_error(self):
        rng = np.random.default_rng(10)
        m = mlp_init([4, 5, 2], identity_scaler(4), identity_scaler(2), rng)
        xs = rng.normal(size=(16, 4))
        ys = rng.normal(size=(16, 2))
        loss, _, _ = mlp_backprop(m, xs, ys)
        _, out = reference_layers(m, xs)
        assert np.isclose(loss, np.mean((out - ys) ** 2))


@pytest.fixture(scope="module")
def small_dataset(parts):
    model, camera, fm = parts
    return generate_dataset(model, camera, fm, count=400, rng_seed=11)


def reference_train(data, config):
    """mlp_train's float32 loop with the Adam update written out of place,
    one expression per moment and without the epoch-end flush, and the
    validation loss from the activation-keeping pass; returns the float32
    parameters, the per-epoch mean training and validation losses and the
    number of nonzero first-moment entries below _FLUSH_BELOW held at each
    epoch end."""
    X, Y = data[:, :-6], data[:, -6:]
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(len(X))
    n_val = int(round(_VAL_FRACTION * len(X)))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    in_scaler, out_scaler = Scaler.fit(X[train_idx]), Scaler.fit(Y[train_idx])
    Xs = in_scaler.scale(X).astype(np.float32)
    Ys = out_scaler.scale(Y).astype(np.float32)
    model = mlp_init([X.shape[1], *config.hidden_sizes, 6], in_scaler, out_scaler, rng)
    model.weights = [W.astype(np.float32) for W in model.weights]
    model.biases = [b.astype(np.float32) for b in model.biases]
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t, lr, curve, val_curve, flushable = 0, config.learning_rate, [], [], []
    for _ in range(config.epochs):
        order = rng.permutation(train_idx)
        losses = []
        for start in range(0, len(order) - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, dW, db = mlp_backprop(model, Xs[idx], Ys[idx])
            losses.append(loss)
            t += 1
            c1, c2 = 1.0 - _BETA1 ** t, 1.0 - _BETA2 ** t
            for i, g in enumerate(dW + db):
                m[i] = _BETA1 * m[i] + (1 - _BETA1) * g
                v[i] = _BETA2 * v[i] + (1 - _BETA2) * g ** 2
                params[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + _EPS)
        lr *= _LR_FINAL_FRACTION ** (1.0 / config.epochs)
        curve.append(float(np.mean(losses)))
        _, out = reference_layers(model, Xs[val_idx])
        val_curve.append(float(np.mean((out - Ys[val_idx]) ** 2)))
        flushable.append(sum(int(np.count_nonzero((mi != 0) & (np.abs(mi) < _FLUSH_BELOW)))
                             for mi in m))
    return params, curve, val_curve, flushable


class TestTraining:
    def test_loss_decreases(self, small_dataset):
        cfg = TrainConfig(hidden_sizes=(32, 16), epochs=15, batch_size=64, rng_seed=0)
        res = mlp_train(small_dataset, cfg)
        assert res.train_loss[-1] <= res.train_loss[0]
        assert len(res.train_loss) == len(res.val_loss) == 15

    def test_deterministic_under_seed(self, small_dataset):
        cfg = TrainConfig(hidden_sizes=(16,), epochs=5, batch_size=64, rng_seed=1)
        a = mlp_train(small_dataset, cfg)
        b = mlp_train(small_dataset, cfg)
        assert a.train_loss == b.train_loss
        for Wa, Wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(Wa, Wb)

    def test_matches_out_of_place_adam_in_float32(self, small_dataset):
        cfg = TrainConfig(hidden_sizes=(16, 8), epochs=4, batch_size=32, rng_seed=2)
        res = mlp_train(small_dataset, cfg)
        params, curve, val_curve, _ = reference_train(small_dataset, cfg)
        assert res.train_loss == curve
        assert res.val_loss == val_curve
        for got, want in zip(res.model.weights + res.model.biases, params):
            assert got.dtype == np.float64
            assert np.array_equal(got, want.astype(np.float64))

    def test_subnormal_flush_is_exact(self, small_dataset):
        # at this rate dead units leave first moments below _FLUSH_BELOW at
        # many epoch ends; mlp_train zeroes them there and must still match,
        # bit for bit, a reference that keeps them
        cfg = TrainConfig(hidden_sizes=(64, 32), epochs=150, batch_size=32,
                          learning_rate=1e-2, rng_seed=2)
        res = mlp_train(small_dataset, cfg)
        params, curve, val_curve, flushable = reference_train(small_dataset, cfg)
        assert max(flushable) > 0
        assert res.train_loss == curve
        assert res.val_loss == val_curve
        for got, want in zip(res.model.weights + res.model.biases, params):
            assert np.array_equal(got, want.astype(np.float64))

    @pytest.mark.parametrize("field, value", [
        ("hidden_sizes", ()),
        ("hidden_sizes", (16, 0)),
        ("hidden_sizes", (8.5,)),
        ("epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
    ])
    def test_config_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("learning_rate", [1e6, 1e10])
    def test_diverging_training_raises(self, parts, learning_rate):
        # at 1e6 Adam's second moment overflows and used to freeze the
        # weights at inf; at 1e10 the loss itself overflows
        data = generate_dataset(*parts, count=600)
        cfg = TrainConfig(hidden_sizes=(8,), epochs=5, batch_size=64, learning_rate=learning_rate)
        with pytest.raises(NonFiniteLoss, match=r"training diverged at epoch \d+: overflow"):
            mlp_train(data, cfg)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="a call keeps the caller's reference to its arguments")
    @pytest.mark.parametrize("caller_keeps_it", [False, True])
    def test_float64_input_freed_while_training(self, parts, monkeypatch, caller_keeps_it):
        refs, alive = [], []

        def dataset():
            data = generate_dataset(*parts, count=400, rng_seed=11)
            refs.append(weakref.ref(data))
            return data

        def backprop(*args):
            alive.append(refs[0]() is not None)
            return mlp_backprop(*args)

        monkeypatch.setattr(calibration, "mlp_backprop", backprop)
        cfg = TrainConfig(hidden_sizes=(8,), epochs=2, batch_size=64)
        if caller_keeps_it:
            data = dataset()
            mlp_train(data, cfg)
        else:
            mlp_train(dataset(), cfg)
        assert len(alive) == 2 * 5
        assert alive == [caller_keeps_it] * len(alive)

    def test_dataset_smaller_than_batch_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            mlp_train(small_dataset[:10], TrainConfig(batch_size=64))

    @pytest.mark.parametrize("count, batch_size, epochs, match", [
        (70, 64, 1, "training split"),  # 63 training rows: not one batch of 64
        (4, 4, 1, "validation split"),  # round(0.4) = 0 validation rows
        (400, 64, 0, "epochs"),
    ])
    def test_untrainable_split_or_epochs_rejected(
        self, small_dataset, count, batch_size, epochs, match
    ):
        # epochs=0 is refused by TrainConfig itself, before training starts
        with pytest.raises(ValueError, match=match):
            cfg = TrainConfig(hidden_sizes=(8,), epochs=epochs, batch_size=batch_size)
            mlp_train(small_dataset[:count], cfg)


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        # constant-label dataset; a zero network with matching output bias
        # predicts it exactly
        label = np.array([0.01, -0.02, 0.001, 0.03, 0.0, -0.01])
        data = np.hstack([np.zeros((10, 14)), np.tile(label, (10, 1))])
        m = MlpModel(
            [np.zeros((14, 4)), np.zeros((4, 6))],
            [np.zeros(4), label.copy()],
            identity_scaler(14),
            identity_scaler(6),
        )
        table = evaluate_calibration(m, data)
        assert table.shape == (6, 2)
        assert np.allclose(table, 0.0, atol=1e-15)

    def test_zero_predictor_mean_error(self):
        rng = np.random.default_rng(12)
        labels = rng.uniform(-1.0, 1.0, (2000, 6))
        data = np.hstack([np.zeros((2000, 14)), labels])
        m = MlpModel(
            [np.zeros((14, 4)), np.zeros((4, 6))],
            [np.zeros(4), np.zeros(6)],
            identity_scaler(14),
            identity_scaler(6),
        )
        table = evaluate_calibration(m, data)
        # mean |u| of uniform(-1, 1) is 0.5
        assert np.allclose(table[:, 0], 0.5, atol=0.05)

    def test_blocks_match_one_whole_batch(self):
        # blocked float64 products may move the last bits of a prediction
        rng = np.random.default_rng(22)
        m = random_model(rng, [14, 64, 32, 6])
        data = rng.normal(size=(2 * _BLOCK_ROWS + 7, 20))
        err = np.abs(m.forward(data[:, :-6]) - data[:, -6:])
        expected = np.column_stack([err.mean(axis=0), err.std(axis=0)])
        assert np.allclose(evaluate_calibration(m, data), expected, rtol=0, atol=1e-12)

    def test_holds_one_block_of_activations(self):
        # one block's two layers of a matrix product and its scaled input
        # and output, then the (n, 6) error table and std's temporary of its
        # size: 1.3 MB on 2000 rows; all 2000 rows at once peak near 8.3 MB
        n, width = 2000, 256
        rng = np.random.default_rng(23)
        m = random_model(rng, [14, width, width, width, 6])
        data = rng.normal(size=(n, 20))
        evaluate_calibration(m, data)
        _, peak = traced_peak(evaluate_calibration, m, data)
        assert peak <= 8 * (_BLOCK_ROWS * (2 * width + 2 * (14 + 6)) + 2 * n * 6)


def random_model(rng, sizes):
    """An `mlp_init` model on `sizes` with random scalers and biases."""
    n_in, n_out = sizes[0], sizes[-1]
    m = mlp_init(sizes, Scaler(rng.normal(size=n_in), np.abs(rng.normal(size=n_in)) + 0.1),
                 Scaler(rng.normal(size=n_out), np.abs(rng.normal(size=n_out)) + 0.1), rng)
    m.biases = [rng.normal(size=len(b)) for b in m.biases]
    return m


def parameters(model):
    return [*model.weights, *model.biases, model.input_scaler.mean, model.input_scaler.std,
            model.output_scaler.mean, model.output_scaler.std]


def assert_round_trip_is_exact(model, path, X):
    """`load_mlp` gives back every parameter that `save_model` wrote, bit
    for bit and as float64, and so the same predictions on `X`."""
    save_model(model, path)
    back = load_mlp(path)
    for got, want in zip(parameters(back), parameters(model), strict=True):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(back.forward(X), model.forward(X))


class TestModelSerialization:
    def test_save_load_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "model.npz"
        assert_round_trip_is_exact(random_model(rng, [5, 7, 4, 2]), path,
                                   rng.normal(size=(8, 5)))
        with np.load(path) as z:
            assert sorted(z.files) == ["biases_0", "biases_1", "biases_2", "input_mean",
                                       "input_std", "output_mean", "output_std",
                                       "weights_0", "weights_1", "weights_2"]

    def test_trained_model_roundtrip_is_exact(self, small_dataset, tmp_path):
        cfg = TrainConfig(hidden_sizes=(16, 8), epochs=2, batch_size=64, rng_seed=3)
        assert_round_trip_is_exact(mlp_train(small_dataset, cfg).model, tmp_path / "model.npz",
                                   small_dataset[:50, :-6])

    @pytest.mark.parametrize("tamper, message", [
        ("extra bias", "3 weight matrices but 4 biases"),
        ("input scaler", "input scaler size differs from the layer width 5"),
        ("output scaler", "output scaler size differs from the layer width 2"),
        ("no weights_1", "weights_1"),
        ("no output_std", "output_std"),
        ("flat weights", "every weight must be 2-D"),
        ("nan std", "scaler mean and std must be finite"),
    ])
    def test_tampered_archive_rejected(self, tmp_path, tamper, message):
        path = tmp_path / "model.npz"
        save_model(random_model(np.random.default_rng(14), [5, 6, 4, 2]), path)
        with np.load(path) as z:
            d = dict(z)
        if tamper == "extra bias":
            d["biases_3"] = np.zeros(2)
        elif tamper.startswith("no "):
            del d[tamper[3:]]
        elif tamper == "flat weights":
            d["weights_0"] = d["weights_0"].reshape(-1)
        elif tamper == "nan std":
            d["input_std"][2] = np.nan
        else:
            side = tamper.split()[0]
            d[f"{side}_mean"] = np.append(d[f"{side}_mean"], 0.0)
            d[f"{side}_std"] = np.append(d[f"{side}_std"], 1.0)
        np.savez(path, **d)
        with pytest.raises(ValueError) as info:
            load_mlp(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize("content", ["empty", "truncated archive", "old JSON model",
                                         "plain text", "npy array", "object array"])
    def test_malformed_file_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "calib_model.npz"
        save_model(random_model(np.random.default_rng(19), [5, 6, 2]), path)
        data = path.read_bytes()
        if content == "empty":
            path.write_bytes(b"")
        elif content == "truncated archive":
            path.write_bytes(data[:len(data) // 2])
        elif content == "old JSON model":
            path.write_text(json.dumps({
                "layer_sizes": [1, 1], "weights": [[1.0]], "biases": [[0.0]],
                "input_scaler": {"mean": [0.0], "std": [1.0]},
                "output_scaler": {"mean": [0.0], "std": [1.0]},
            }))
        elif content == "plain text":
            path.write_text("not a model\n")
        elif content == "npy array":
            with open(path, "wb") as f:
                np.save(f, np.zeros(3))
        else:
            with np.load(path) as z:
                d = dict(z)
            d["weights_0"] = d["weights_0"].astype(object)
            np.savez(path, **d)
        with pytest.raises(ValueError) as info:
            load_mlp(path)
        assert str(info.value).startswith(f"{path}: ")
        if content != "object array":  # any file but an archive is not a zip file
            assert str(info.value) == f"{path}: File is not a zip file"
        assert main(["calib", "eval", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [calib]: ValueError: {path}: ")
        assert err.count("\n") == 1
