import dataclasses
import json

import numpy as np
import pytest

from suturekit.calibration import (
    DEFAULT_QMSR_REGION,
    CalibrationError,
    FeatureBehindCamera,
    FeatureModel,
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
    _EPS,
    _LR_FINAL_FRACTION,
    _VAL_FRACTION,
    MlpModel,
    _feature_pixels,
)
from suturekit.geometry import RigidPose
from suturekit.psm_kinematics import KinematicModel, PRISMATIC_INDEX, REVOLUTE, fk, fk_arrays

from conftest import pinhole_oracle


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
        assert all(model.joint_distance(dq_hat, 0.0) <= np.radians(10.0) for dq_hat in solved)
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


def identity_scaler(n):
    return Scaler(np.zeros(n), np.ones(n))


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

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError):
            MlpModel(
                [np.zeros((3, 4)), np.zeros((5, 2))],
                [np.zeros(4), np.zeros(2)],
                identity_scaler(3),
                identity_scaler(2),
            )


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
        _, out = m._forward_scaled(xs)
        assert np.isclose(loss, np.mean((out - ys) ** 2))


@pytest.fixture(scope="module")
def small_dataset(parts):
    model, camera, fm = parts
    return generate_dataset(model, camera, fm, count=400, rng_seed=11)


def reference_train(data, config):
    """mlp_train's float32 loop with the Adam update written out of place,
    one expression per moment; returns the float32 parameters and the
    per-epoch mean training loss."""
    X, Y = data[:, :-6], data[:, -6:]
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(len(X))
    n_val = int(round(_VAL_FRACTION * len(X)))
    train_idx = perm[n_val:]
    in_scaler, out_scaler = Scaler.fit(X[train_idx]), Scaler.fit(Y[train_idx])
    Xs = in_scaler.scale(X).astype(np.float32)
    Ys = out_scaler.scale(Y).astype(np.float32)
    model = mlp_init([X.shape[1], *config.hidden_sizes, 6], in_scaler, out_scaler, rng)
    model.weights = [W.astype(np.float32) for W in model.weights]
    model.biases = [b.astype(np.float32) for b in model.biases]
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t, lr, curve = 0, config.learning_rate, []
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
    return params, curve


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
        params, curve = reference_train(small_dataset, cfg)
        assert res.train_loss == curve
        for got, want in zip(res.model.weights + res.model.biases, params):
            assert got.dtype == np.float64
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


class TestModelSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        sc_in = Scaler(rng.normal(size=5), np.abs(rng.normal(size=5)) + 0.1)
        sc_out = Scaler(rng.normal(size=2), np.abs(rng.normal(size=2)) + 0.1)
        m = mlp_init([5, 6, 2], sc_in, sc_out, rng)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_mlp(path)
        X = rng.normal(size=(8, 5))
        assert np.allclose(back.forward(X), m.forward(X), atol=1e-12)

    @pytest.mark.parametrize("tamper", ["extra bias", "input scaler", "output scaler"])
    def test_tampered_layer_lists_rejected(self, tmp_path, tamper):
        rng = np.random.default_rng(14)
        path = tmp_path / "model.json"
        save_model(mlp_init([5, 6, 2], identity_scaler(5), identity_scaler(2), rng), path)
        d = json.loads(path.read_text())
        if tamper == "extra bias":
            d["biases"].append([0.0, 0.0])
        else:
            scaler = d[tamper.replace(" ", "_")]
            scaler["mean"].append(0.0)
            scaler["std"].append(1.0)
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="biases" if tamper == "extra bias" else tamper):
            load_mlp(path)

    def test_trained_model_roundtrip_is_exact(self, small_dataset, tmp_path):
        cfg = TrainConfig(hidden_sizes=(16, 8), epochs=2, batch_size=64, rng_seed=3)
        model = mlp_train(small_dataset, cfg).model
        path = tmp_path / "model.json"
        save_model(model, path)
        X = small_dataset[:50, :-6]
        assert np.array_equal(load_mlp(path).forward(X), model.forward(X))
