"""Joint-offset identification from monocular images of jaw feature points.

Two routes to the offset between actual and measured joint positions:
  * direct: one Levenberg-Marquardt solve over the offset itself, matching
    the projected jaw features at the corrected joints to the observed
    pixels in one or more images;
  * learned: a from-scratch MLP regressing the offset from measured joints
    plus feature pixels, trained on a synthetically generated dataset.

The synthetic feature detector stands in for a learned keypoint tracker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PinholeCamera, RigidPose
from .psm_kinematics import (
    JointVector,
    KinematicModel,
    PRISMATIC_INDEX,
    REVOLUTE,
    fk_arrays,
)


class CalibrationError(Exception):
    pass


class FeatureBehindCamera(CalibrationError):
    pass


class NonFiniteLoss(CalibrationError):
    pass


_DEFAULT_BODY_POINTS = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.009, 0.0, 0.0],
        [0.0, 0.009, 0.0],
        [0.0, 0.003, 0.009],
    ]
)


@dataclass(frozen=True)
class FeatureModel:
    """Trackable feature points fixed in the jaw frame."""

    body_points: np.ndarray = field(default_factory=lambda: _DEFAULT_BODY_POINTS.copy())

    def __post_init__(self):
        pts = np.asarray(self.body_points, dtype=float).reshape(-1, 3)
        if len(pts) < 3:
            raise ValueError("need at least 3 feature points")
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[1] <= 1e-9:
            raise ValueError("feature points are colinear")
        object.__setattr__(self, "body_points", pts)

    def __len__(self):
        return len(self.body_points)


def _feature_pixels(
    camera: PinholeCamera, R: np.ndarray, t: np.ndarray, fm: FeatureModel
) -> np.ndarray:
    """Noise-free feature pixels (..., N, 2) of jaws at rotations (..., 3, 3)
    and translations (..., 3); raises FeatureBehindCamera if any feature is
    at or behind the camera."""
    pts = fm.body_points @ np.swapaxes(R, -1, -2) + t[..., None, :]
    px, valid = camera.project_many(pts)
    if not valid.all():
        raise FeatureBehindCamera(
            f"{np.count_nonzero(~valid)} feature point(s) at or behind the camera"
        )
    return px


def detect_features(camera: PinholeCamera, jaw_pose: RigidPose, fm: FeatureModel) -> np.ndarray:
    """Noise-free feature pixel positions (N, 2) of the jaw at jaw_pose."""
    return _feature_pixels(camera, jaw_pose.rotation, jaw_pose.translation, fm)


_LM_MAX_ITERATIONS = 100
_FD_STEP = 1e-7  # rad; the prismatic joint's step is this over prismatic_scale


def calibrate_direct(
    model: KinematicModel,
    camera: PinholeCamera,
    fm: FeatureModel,
    q_msr: JointVector,
    pixels: np.ndarray,
    bound: float,
) -> JointVector:
    """Joint offset dq that brings the features of the jaw at q_msr + dq
    onto `pixels`: one Levenberg-Marquardt solve over dq from dq = 0.

    `q_msr` (6,) with `pixels` (N, 2) is one image; (K, 6) with (K, N, 2)
    is K images of the same offset. The Jacobian is a forward difference
    over the 7 configurations dq and dq plus one step per joint, evaluated
    together. Damping and stop rules are `pose_estimator._descend`'s, plus a
    stop when no step entry reaches 1e-12, before the round-off floor
    spends the 10 damped tries. Raises ValueError on malformed input, and
    CalibrationError when the solve does not converge within
    _LM_MAX_ITERATIONS or the offset leaves the `bound` box
    (`model.joint_distance`).
    """
    q_msr = np.asarray(q_msr, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    if q_msr.ndim not in (1, 2) or q_msr.shape[-1] != 6 or not np.isfinite(q_msr).all():
        raise ValueError(f"q_msr must be finite with shape (6,) or (K, 6), got {q_msr.shape}")
    px_shape = q_msr.shape[:-1] + (len(fm), 2)
    if pixels.shape != px_shape or not np.isfinite(pixels).all():
        raise ValueError(f"pixels must be finite with shape {px_shape}, got {pixels.shape}")
    if not bound >= 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    h = _FD_STEP / np.where(REVOLUTE, 1.0, model.prismatic_scale)
    probes = np.vstack([np.zeros(6), np.diag(h)])[:, None]  # (7, 1, 6)
    target = pixels.reshape(-1)

    def linearize(dq):
        """Pixel residual (2KN,) and its Jacobian (2KN, 6) at offset dq."""
        px = _feature_pixels(camera, *fk_arrays(model, q_msr + dq + probes), fm)
        px = px.reshape(7, -1)
        return px[0] - target, ((px[1:] - px[0]) / h[:, None]).T

    dq, lam = np.zeros(6), 1e-3
    r, J = linearize(dq)
    cost = r @ r
    for _ in range(_LM_MAX_ITERATIONS):
        H, g = J.T @ J, J.T @ r
        kept = False
        for _ in range(10):
            step = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            if np.abs(step).max() < 1e-12:
                break
            r_trial, J_trial = linearize(dq + step)
            kept = r_trial @ r_trial < cost
            if kept:
                break
            lam *= 4.0
        if not kept:  # the step fell below 1e-12 or no damped step lowers the cost
            break
        lam /= 3.0
        dq, r, J, prev = dq + step, r_trial, J_trial, cost
        cost = r @ r
        if prev - cost <= 1e-10 * prev:
            break
    else:
        raise CalibrationError(f"offset solve did not converge in {_LM_MAX_ITERATIONS} iterations")
    size = model.joint_distance(dq, 0.0)
    if size > bound:
        raise CalibrationError(f"offset of size {size:.4g} leaves the bound {bound:.4g}")
    return dq


# --- dataset ----------------------------------------------------------------

@dataclass(frozen=True)
class QmsrRegion:
    """Axis-aligned box of measured configurations used for sampling."""

    center: np.ndarray
    half_width: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_width", np.asarray(self.half_width, dtype=float))

    def sample(self, rng: np.random.Generator) -> JointVector:
        return self.center + rng.uniform(-1.0, 1.0, 6) * self.half_width


DEFAULT_QMSR_REGION = QmsrRegion(
    center=np.array([0.15, 0.1, 0.12, 0.3, 0.5, 0.2]),
    half_width=np.array([0.15, 0.15, 0.02, 0.2, 0.25, 0.2]),
)


def generate_dataset(
    model: KinematicModel,
    camera: PinholeCamera,
    fm: FeatureModel,
    count: int = 10000,
    delta_range: float = np.radians(5.0),
    noise_px: float = 0.0,
    rng_seed: int = 0,
) -> np.ndarray:
    """Synthetic calibration dataset, one row per sample in internal units:
    measured joints (6), feature pixels (x, y per point) and the injected
    offset label (6), shape (count, 12 + 2N).

    Per-sample rng streams derive from (rng_seed, index), so generation is
    order-independent and reproducible. Each stream draws six unused values,
    the offset and the pixel noise, in that order; forward kinematics and the
    feature projection then run once over the whole batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, value in (("delta_range", delta_range), ("noise_px", noise_px)):
        if not (0.0 <= value < math.inf):
            raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    data = np.empty((count, 12 + 2 * len(fm)))
    noise = np.empty((count, len(fm), 2))
    for i, row in enumerate(data):
        rng = np.random.default_rng([rng_seed, i])
        # q_msr stays at the nominal configuration so that all pixel variation
        # comes from the offset: with q_msr varying, the configuration's pixel
        # motion swamps the tiny out-of-image-plane signature of the three
        # z-axis joints (base yaw, shaft roll, jaw yaw), and the regressor
        # cannot separate them per joint
        row[:6] = DEFAULT_QMSR_REGION.center
        rng.uniform(-1.0, 1.0, 6)  # the unused q_msr draw keeps each stream's bits
        dq = rng.uniform(-delta_range, delta_range, 6)
        dq[PRISMATIC_INDEX] /= model.prismatic_scale
        row[-6:] = dq
        if noise_px > 0:
            noise[i] = rng.normal(0.0, noise_px, (len(fm), 2))
    px = _feature_pixels(camera, *fk_arrays(model, data[:, :6] + data[:, -6:]), fm)
    if noise_px > 0:
        px = px + noise
    data[:, 6:-6] = px.reshape(count, -1)
    return data


def write_dataset_csv(data: np.ndarray, path, header_comment: str = "") -> None:
    """Degrees/mm at the file boundary; pixels stay in pixels."""
    n_feat = (data.shape[1] - 12) // 2
    cols = (
        [f"qm{i+1}" for i in range(6)]
        + [f"px{i+1}{ax}" for i in range(n_feat) for ax in ("x", "y")]
        + [f"dq{i+1}" for i in range(6)]
    )
    out = np.array(data, dtype=float)
    for q in (out[:, :6], out[:, -6:]):
        q[:, REVOLUTE] = np.degrees(q[:, REVOLUTE])
        q[:, PRISMATIC_INDEX] *= 1000.0
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(header_comment + "\n")
        f.write(",".join(cols) + "\r\n")
        np.savetxt(f, out, fmt="%.12g", delimiter=",", newline="\r\n")


def read_dataset_csv(path) -> np.ndarray:
    """Inverse of `write_dataset_csv`: the dataset array in internal units."""
    with open(path) as f:
        skip = 2 if f.readline().startswith("#") else 1
        f.seek(0)
        data = np.loadtxt(f, delimiter=",", skiprows=skip, ndmin=2)
    for q in (data[:, :6], data[:, -6:]):
        q[:, REVOLUTE] = np.radians(q[:, REVOLUTE])
        q[:, PRISMATIC_INDEX] /= 1000.0
    return data


# --- scalers and MLP --------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    """Per-dimension z-score standardization."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        s = np.asarray(self.std, dtype=float)
        if np.any(s <= 1e-12):
            raise ValueError("scaler std must exceed 1e-12 per dimension")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    @staticmethod
    def fit(data: np.ndarray) -> "Scaler":
        std = data.std(axis=0)
        return Scaler(data.mean(axis=0), np.maximum(std, 1e-9))

    def scale(self, v: np.ndarray) -> np.ndarray:
        return (v - self.mean) / self.std

    def unscale(self, v: np.ndarray) -> np.ndarray:
        return v * self.std + self.mean


class MlpModel:
    """Fully connected rectifier network with input/output standardization."""

    def __init__(self, weights, biases, input_scaler: Scaler, output_scaler: Scaler):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.input_scaler = input_scaler
        self.output_scaler = output_scaler
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError(f"{len(self.weights)} weight matrices but {len(self.biases)} biases")
        for name, scaler, width in (("input", input_scaler, self.weights[0].shape[0]),
                                    ("output", output_scaler, self.weights[-1].shape[1])):
            if scaler.mean.shape != (width,) or scaler.std.shape != (width,):
                raise ValueError(f"{name} scaler size differs from the layer width {width}")
        for W, b in zip(self.weights, self.biases):
            if W.shape[1] != b.shape[0]:
                raise ValueError("inconsistent layer shapes")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameters")
        for Wa, Wb in zip(self.weights, self.weights[1:]):
            if Wa.shape[1] != Wb.shape[0]:
                raise ValueError("inconsistent layer shapes")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predict offsets for one input vector or a batch."""
        x = np.asarray(x, dtype=float)
        _, out = self._forward_scaled(self.input_scaler.scale(np.atleast_2d(x)))
        out = self.output_scaler.unscale(out)
        return out[0] if x.ndim == 1 else out

    def _forward_scaled(self, xs: np.ndarray):
        """Forward in scaled space keeping the activations for backprop; the
        result has the dtype of the inputs and parameters."""
        acts = [xs]
        h = xs
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            acts.append(h)
        return acts, acts[-1] @ self.weights[-1] + self.biases[-1]


def mlp_init(
    layer_sizes: list[int],
    input_scaler: Scaler,
    output_scaler: Scaler,
    rng: np.random.Generator,
) -> MlpModel:
    """He-style initialization."""
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), (n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpModel(weights, biases, input_scaler, output_scaler)


def mlp_backprop(model: MlpModel, xs: np.ndarray, ys: np.ndarray):
    """Mean-squared-error loss and parameter gradients, scaled space; the
    gradients have the dtype of the model and the inputs."""
    acts, out = model._forward_scaled(xs)
    err = out - ys
    loss = float(np.mean(err * err))
    dW = [None] * len(model.weights)
    db = [None] * len(model.biases)
    # d loss / d out; mean over batch and output dims
    g = 2.0 * err / err.size
    for li in range(len(model.weights) - 1, -1, -1):
        dW[li] = acts[li].T @ g
        db[li] = g.sum(axis=0)
        if li > 0:
            g = (g @ model.weights[li].T) * (acts[li] > 0)
    return loss, dW, db


# Adam with the published defaults (Kingma & Ba 2015); the learning rate
# decays geometrically to _LR_FINAL_FRACTION of its start over the run, and
# _VAL_FRACTION of the samples are held out for the validation curve.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_LR_FINAL_FRACTION = 0.05
_VAL_FRACTION = 0.1


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (400, 300, 200)
    epochs: int = 200
    batch_size: int = 256
    learning_rate: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        sizes = tuple(self.hidden_sizes)
        if not sizes or not all(isinstance(h, (int, np.integer)) and h >= 1 for h in sizes):
            raise ValueError(
                f"hidden_sizes must be one or more integers >= 1, got {list(sizes)}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


@dataclass
class TrainResult:
    model: MlpModel
    train_loss: list[float]  # per-epoch mean training loss, scaled space
    val_loss: list[float]


def mlp_train(data: np.ndarray, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Train the offset regressor with Adam on mini-batch MSE.

    `data` is a `generate_dataset` array: inputs `data[:, :-6]`, labels
    `data[:, -6:]`. Raises ValueError unless every epoch runs at least one
    optimizer step and has a validation loss; `TrainConfig` checks its own
    ranges.

    The loop (scaled data, weights, Adam moments) runs in float32, about
    three times faster than float64 for the default network; the returned
    model holds the trained weights in float64.
    """
    X, Y = data[:, :-6], data[:, -6:]
    n_val = int(round(_VAL_FRACTION * len(X)))
    if n_val == 0:
        raise ValueError(f"validation split of {len(X)} samples is empty")
    if len(X) - n_val < config.batch_size:
        raise ValueError(
            f"training split ({len(X) - n_val} samples) smaller than batch size "
            f"{config.batch_size}"
        )
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(len(X))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    in_scaler = Scaler.fit(X[train_idx])
    out_scaler = Scaler.fit(Y[train_idx])
    Xs = in_scaler.scale(X).astype(np.float32)
    Ys = out_scaler.scale(Y).astype(np.float32)

    sizes = [X.shape[1], *config.hidden_sizes, Y.shape[1]]
    model = mlp_init(sizes, in_scaler, out_scaler, rng)
    model.weights = [W.astype(np.float32) for W in model.weights]
    model.biases = [b.astype(np.float32) for b in model.biases]
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    scratch = [np.empty_like(p) for p in params]
    t = 0
    decay = _LR_FINAL_FRACTION ** (1.0 / config.epochs)
    lr = config.learning_rate
    train_curve, val_curve = [], []
    for epoch in range(config.epochs):
        order = rng.permutation(train_idx)
        epoch_losses = []
        for start in range(0, len(order) - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, dW, db = mlp_backprop(model, Xs[idx], Ys[idx])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss non-finite at epoch {epoch}")
            epoch_losses.append(loss)
            t += 1
            c1 = 1.0 - _BETA1 ** t
            c2 = 1.0 - _BETA2 ** t
            # in place, in the operation order of
            #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            #   p -= lr (m / c1) / (sqrt(v / c2) + eps)
            # so it rounds exactly as those expressions do; g, used once,
            # doubles as the second scratch buffer
            for p, g, m_, v_, s in zip(params, dW + db, m, v, scratch):
                m_ *= _BETA1
                np.multiply(g, 1 - _BETA1, out=s)
                m_ += s
                v_ *= _BETA2
                np.multiply(g, g, out=s)
                s *= 1 - _BETA2
                v_ += s
                np.divide(v_, c2, out=s)
                np.sqrt(s, out=s)
                s += _EPS
                np.divide(m_, c1, out=g)
                g *= lr
                g /= s
                p -= g
        lr *= decay
        train_curve.append(float(np.mean(epoch_losses)))
        _, out = model._forward_scaled(Xs[val_idx])
        val_curve.append(float(np.mean((out - Ys[val_idx]) ** 2)))
    model = MlpModel(model.weights, model.biases, in_scaler, out_scaler)
    return TrainResult(model, train_curve, val_curve)


def evaluate_calibration(model: MlpModel, data: np.ndarray) -> np.ndarray:
    """Per-joint (mean, std) of absolute offset error on a `generate_dataset`
    array, shape (6, 2), in internal units (rad / m)."""
    err = np.abs(model.forward(data[:, :-6]) - data[:, -6:])
    return np.column_stack([err.mean(axis=0), err.std(axis=0)])


# --- model (de)serialization ------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    payload = {
        "layer_sizes": [model.weights[0].shape[0]] + [len(b) for b in model.biases],
        "input_scaler": {"mean": model.input_scaler.mean.tolist(),
                         "std": model.input_scaler.std.tolist()},
        "output_scaler": {"mean": model.output_scaler.mean.tolist(),
                          "std": model.output_scaler.std.tolist()},
        "weights": [W.reshape(-1).tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_mlp(path) -> MlpModel:
    with open(path) as f:
        d = json.load(f)
    sizes = d["layer_sizes"]
    weights = [
        np.asarray(w, dtype=float).reshape(n_in, n_out)
        for w, n_in, n_out in zip(d["weights"], sizes, sizes[1:])
    ]
    return MlpModel(
        weights,
        d["biases"],
        Scaler(d["input_scaler"]["mean"], d["input_scaler"]["std"]),
        Scaler(d["output_scaler"]["mean"], d["output_scaler"]["std"]),
    )
