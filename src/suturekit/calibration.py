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

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import lm
from .geometry import PinholeCamera, RigidPose
from .psm_kinematics import (
    JointVector,
    KinematicModel,
    PRISMATIC_INDEX,
    REVOLUTE,
    fk_arrays,
    from_deg_mm,
    to_deg_mm,
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
_MIN_MOVE_PX = 1e-11  # lm.solve's step rule; noiseless offsets within 3e-11 rad


def calibrate_direct(
    model: KinematicModel,
    camera: PinholeCamera,
    fm: FeatureModel,
    q_msr: JointVector,
    pixels: np.ndarray,
    bound: float,
) -> JointVector:
    """Joint offset dq that brings the features of the jaw at q_msr + dq
    onto `pixels`: one Levenberg-Marquardt solve, lm.solve, from dq = 0.

    `q_msr` (6,) with `pixels` (N, 2) is one image; (K, 6) with (K, N, 2)
    is K images of the same offset. The Jacobian is a forward difference
    over the 7 configurations dq and dq plus one step per joint, evaluated
    together, once per trial offset. The solve stops when a damped step
    moves no pixel residual by _MIN_MOVE_PX or more, or when no damped step
    lowers the squared error. Raises ValueError on malformed input, and
    CalibrationError when the solve does not converge within
    _LM_MAX_ITERATIONS, when its damped system is singular or when the
    offset leaves the `bound` box (`model.joint_distance`).
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

    def trial(dq):
        """Squared pixel error at offset dq, and the pixel residual (2KN,)
        with its Jacobian (2KN, 6) there, deferred."""
        px = _feature_pixels(camera, *fk_arrays(model, q_msr + dq + probes), fm)
        px = px.reshape(7, -1)
        r = px[0] - target
        return r @ r, lambda: (r, ((px[1:] - px[0]) / h[:, None]).T)

    dq, _, iterations, stop = lm.solve(np.zeros(6), trial, _MIN_MOVE_PX, _LM_MAX_ITERATIONS)
    if stop in ("max", "singular"):
        raise CalibrationError(f"offset solve stopped at {stop} after {iterations} iterations")
    size = model.joint_distance(dq, np.zeros(6))
    if size > bound:
        raise CalibrationError(f"offset of size {size:.4g} leaves the bound {bound:.4g}")
    return dq


# --- dataset ----------------------------------------------------------------

# Rows per block in generate_dataset, write_dataset_csv and
# evaluate_calibration: their temporaries grow with the block, not the data
_BLOCK_ROWS = 256


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
    feature projection then run once per block of _BLOCK_ROWS rows, with the
    bits of one run over the whole batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for name, value in (("delta_range", delta_range), ("noise_px", noise_px)):
        if not (0.0 <= value < math.inf):
            raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    data = np.empty((count, 12 + 2 * len(fm)))
    # q_msr stays at the nominal configuration so that all pixel variation
    # comes from the offset: with q_msr varying, the configuration's pixel
    # motion swamps the tiny out-of-image-plane signature of the three
    # z-axis joints (base yaw, shaft roll, jaw yaw), and the regressor
    # cannot separate them per joint
    data[:, :6] = DEFAULT_QMSR_REGION.center
    for start in range(0, count, _BLOCK_ROWS):
        block = data[start : start + _BLOCK_ROWS]
        for i, row in enumerate(block, start):
            rng = np.random.default_rng([rng_seed, i])
            rng.uniform(-1.0, 1.0, 6)  # the unused q_msr draw keeps each stream's bits
            dq = rng.uniform(-delta_range, delta_range, 6)
            dq[PRISMATIC_INDEX] /= model.prismatic_scale
            row[-6:] = dq
            if noise_px > 0:  # the pixel cells hold the noise until px is added
                row[6:-6] = rng.normal(0.0, noise_px, 2 * len(fm))
        px = _feature_pixels(camera, *fk_arrays(model, block[:, :6] + block[:, -6:]), fm)
        px = px.reshape(len(block), -1)
        if noise_px > 0:
            block[:, 6:-6] += px
        else:
            block[:, 6:-6] = px
    return data


def write_dataset_csv(data: np.ndarray, path, header_comment: str) -> None:
    """Degrees/mm at the file boundary; pixels stay in pixels. Rows are
    converted and written _BLOCK_ROWS at a time."""
    n_feat = (data.shape[1] - 12) // 2
    cols = (
        [f"qm{i+1}" for i in range(6)]
        + [f"px{i+1}{ax}" for i in range(n_feat) for ax in ("x", "y")]
        + [f"dq{i+1}" for i in range(6)]
    )
    with open(path, "w", newline="") as f:
        f.write(header_comment + "\n")
        f.write(",".join(cols) + "\r\n")
        for start in range(0, len(data), _BLOCK_ROWS):
            block = data[start : start + _BLOCK_ROWS]
            out = np.hstack([to_deg_mm(block[:, :6]), block[:, 6:-6], to_deg_mm(block[:, -6:])])
            np.savetxt(f, out, fmt="%.12g", delimiter=",", newline="\r\n")


def read_dataset_csv(path) -> np.ndarray:
    """Inverse of `write_dataset_csv`: the dataset array in internal units.
    A file whose header is not followed by a data row, whose rows are not
    12 + 2N wide for N >= 1 feature points, or which holds a cell that is
    not finite, raises ValueError."""
    with open(path) as f:
        header = f.readline()
        if header.startswith("#"):
            header = f.readline()
        start = f.tell()
        if not f.readline().strip():
            width = len(header.split(",")) if header.strip() else 0
            raise ValueError(f"{path} has no data rows ({width} columns)")
        f.seek(start)
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    n_feat, odd = divmod(data.shape[1] - 12, 2)
    if odd or n_feat < 1:
        raise ValueError(f"{path} has {data.shape[1]} columns; a dataset has 12 + 2N "
                         f"for N >= 1 feature points")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path} data row {row + 1}, column {col + 1}, is "
                         f"{data[row, col]}, not a finite number")
    data[:, :6], data[:, -6:] = from_deg_mm(data[:, :6]), from_deg_mm(data[:, -6:])
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
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValueError("scaler mean and std must be finite")
        if np.any(s <= 1e-12):
            raise ValueError("scaler std must exceed 1e-12 per dimension")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    @staticmethod
    def fit(data: np.ndarray) -> "Scaler":
        std = data.std(axis=0)
        return Scaler(data.mean(axis=0), np.maximum(std, 1e-9))

    def scale(self, v: np.ndarray) -> np.ndarray:
        out = v - self.mean
        out /= self.std
        return out

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
        if any(W.ndim != 2 for W in self.weights) or any(b.ndim != 1 for b in self.biases):
            raise ValueError("every weight must be 2-D and every bias 1-D")
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
        """Predict offsets for one input vector or a batch. Inference keeps
        no activations: it holds at most two consecutive layers at a time."""
        x = np.asarray(x, dtype=float)
        out = _last(self._layers(self.input_scaler.scale(np.atleast_2d(x))))
        out = self.output_scaler.unscale(out)
        return out[0] if x.ndim == 1 else out

    def _layers(self, h: np.ndarray):
        """Forward pass in scaled space from inputs `h`: yields each hidden
        layer's rectified activations, then the output, in the dtype of the
        inputs and parameters. A layer stays alive only while the caller
        holds it: `mlp_backprop` keeps them all, inference only the last."""
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
            yield h
        out = h @ self.weights[-1]
        out += self.biases[-1]
        yield out


def _last(layers):
    """The last of `layers`, each dropped as the next is made."""
    for out in layers:
        pass
    return out


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
    gradients have the dtype of the model and the inputs. The only pass
    that keeps every layer's activations, which the gradients need."""
    acts = [xs, *model._layers(xs)]
    err = acts.pop() - ys
    loss = float(np.mean(err * err))
    dW = [None] * len(model.weights)
    db = [None] * len(model.biases)
    # d loss / d out; mean over batch and output dims
    g = 2.0 * err / err.size
    for li in range(len(model.weights) - 1, -1, -1):
        dW[li] = acts[li].T @ g
        db[li] = g.sum(axis=0)
        if li > 0:
            g = g @ model.weights[li].T
            np.multiply(g, acts[li] > 0, out=g)
    return loss, dW, db


# Adam with the published defaults (Kingma & Ba 2015); the learning rate
# decays geometrically to _LR_FINAL_FRACTION of its start over the run, and
# _VAL_FRACTION of the samples are held out for the validation curve.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_LR_FINAL_FRACTION = 0.05
_VAL_FRACTION = 0.1
# Adam first moments below this are zeroed at each epoch end (see mlp_train)
_FLUSH_BELOW = 2.0 ** -96


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
    ranges. Raises NonFiniteLoss, naming the epoch, when training diverges:
    a loss, gradient, moment or weight overflows or turns invalid.

    The loop (scaled data, weights, Adam moments) runs in float32, 2.0 to
    2.3 times faster than float64 for the default network on the 10k-row
    dataset (10 and 30 epochs, one BLAS thread); the returned model holds
    the trained weights in float64. Training holds only what the loop
    reads: `data` is dropped once its float32 copies exist, so it is freed
    when the caller keeps no name for it (Python 3.11 and later); a step's
    gradients and Adam scratch go before the next step or the validation
    pass, and the Adam moments before the float64 model is built.

    After each epoch's last step, first moments below _FLUSH_BELOW = 2^-96
    are set to zero: float32 subnormal arithmetic is many times slower on
    x86. A surviving entry decays by β1 per step with zero gradients; at 35
    steps per epoch (the 10k-row dataset at batch 256) it stays above
    2^-102, a normal float32, and so does `lr·m/c1` for any lr above 2^-24
    (6e-8). At criterion 4's, the benchmark's and the tests' settings the
    flush leaves the result bit for bit unchanged. A zeroed entry moves its
    weight by at most lr·2^-96/(c1·eps) < lr·1.3e-20, below half an ulp of
    any weight above about lr·2e-13 in magnitude. It changes a later moment
    only if a gradient g arrives with |(1 - β1)·g| <= 2^-72 (|g| below
    about 2^-69); a larger one rounds the decayed entry away. Both bounds
    were checked in float32 arithmetic, and `tests/test_calibration.py`
    checks the match against an unflushed reference on a run that holds
    entries below the threshold.
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
    del data, X, Y

    sizes = [Xs.shape[1], *config.hidden_sizes, Ys.shape[1]]
    model = mlp_init(sizes, in_scaler, out_scaler, rng)
    model.weights = [W.astype(np.float32) for W in model.weights]
    model.biases = [b.astype(np.float32) for b in model.biases]
    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    decay = _LR_FINAL_FRACTION ** (1.0 / config.epochs)
    lr = config.learning_rate
    train_curve, val_curve = [], []
    # an overflow or invalid value stops training at once; left to run, it
    # freezes the weights at inf and a model with a huge loss comes back
    try:
        with np.errstate(over="raise", invalid="raise"):
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
                    for p, g, m_, v_ in zip(params, dW + db, m, v):
                        s = np.empty_like(p)
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
                    del dW, db  # not held through the next backprop
                # dead ReLU units get zero gradients, so their m decays toward float32
                # subnormals, slow on x86: 200 default epochs took 46 s unflushed, 31 s
                # with a flush at float32 tiny
                for m_ in m:
                    m_[np.abs(m_) < _FLUSH_BELOW] = 0.0
                lr *= decay
                train_curve.append(float(np.mean(epoch_losses)))
                err = _last(model._layers(Xs[val_idx]))
                err -= Ys[val_idx]
                val_curve.append(float(np.mean(np.square(err, out=err))))
    except FloatingPointError as e:
        raise NonFiniteLoss(f"training diverged at epoch {epoch}: {e}") from e
    del m, v
    model = MlpModel(model.weights, model.biases, in_scaler, out_scaler)
    return TrainResult(model, train_curve, val_curve)


def evaluate_calibration(model: MlpModel, data: np.ndarray) -> np.ndarray:
    """Per-joint (mean, std) of absolute offset error on a `generate_dataset`
    array, shape (6, 2), in internal units (rad / m). The model predicts
    _BLOCK_ROWS rows at a time, so the activations it holds do not grow
    with the data."""
    err = np.empty((len(data), 6))
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start : start + _BLOCK_ROWS]
        err[start : start + _BLOCK_ROWS] = np.abs(model.forward(block[:, :-6]) - block[:, -6:])
    return np.column_stack([err.mean(axis=0), err.std(axis=0)])


# --- model (de)serialization ------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    """Write `model` as the `.npz` archive that `load_mlp` reads: named
    float64 arrays `input_mean`, `input_std`, `output_mean`, `output_std`,
    `weights_0`, ... and `biases_0`, ..., one pair per layer. `np.savez`
    stamps every entry with the same date, so equal models give equal
    bytes."""
    arrays = {"input_mean": model.input_scaler.mean, "input_std": model.input_scaler.std,
              "output_mean": model.output_scaler.mean, "output_std": model.output_scaler.std}
    arrays.update((f"weights_{i}", W) for i, W in enumerate(model.weights))
    arrays.update((f"biases_{i}", b) for i, b in enumerate(model.biases))
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_mlp(path) -> MlpModel:
    """Inverse of `save_model`, read as an `np.lib.npyio.NpzFile`, which
    refuses pickled data. The layer count is the number of `weights_i` keys,
    and the `biases_i` keys must number the same. A file that is not an
    `.npz` archive (empty, truncated, text, `.npy` or pickled), an object
    array, a missing key, or arrays that `Scaler` or `MlpModel` reject raise
    ValueError naming the file, and the key when one is missing."""
    try:
        # NpzFile, not np.load: any file that is not an archive fails as BadZipFile
        with open(path, "rb") as f, np.lib.npyio.NpzFile(f) as z:
            n_weights, n_biases = (sum(k.startswith(prefix) for k in z.files)
                                   for prefix in ("weights_", "biases_"))
            weights = [z[f"weights_{i}"] for i in range(n_weights)]
            biases = [z[f"biases_{i}"] for i in range(n_biases)]
            scalers = [Scaler(z[f"{side}_mean"], z[f"{side}_std"])
                       for side in ("input", "output")]
        return MlpModel(weights, biases, *scalers)
    except KeyError as e:  # NpzFile's message names the key
        raise ValueError(f"{path}: {e.args[0]}") from None
    except (zipfile.BadZipFile, EOFError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None
