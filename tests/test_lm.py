"""The shared Levenberg-Marquardt loop: its fixed points, each of its stop
rules, and the calibration solve's errors on the rules it refuses."""

import numpy as np
import pytest

from suturekit import calibration, lm
from suturekit.bench import default_mono_camera
from suturekit.calibration import (
    DEFAULT_QMSR_REGION,
    CalibrationError,
    FeatureModel,
    calibrate_direct,
    detect_features,
)
from suturekit.psm_kinematics import KinematicModel, fk, fk_arrays


def linear_trial(A, b):
    """trial of the least-squares problem |A x - b|^2."""
    def trial(x):
        r = A @ x - b
        return r @ r, lambda: (r, A)
    return trial


def rosenbrock_trial(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return r @ r, lambda: (r, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))


def test_linear_problem_matches_lstsq():
    rng = np.random.default_rng(0)
    A, b = rng.normal(size=(20, 4)), rng.normal(size=20)
    x, cost, _, stop = lm.solve(np.zeros(4), linear_trial(A, b), 1e-12, 100)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert stop == "small"
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-10)
    assert cost == pytest.approx(np.sum((A @ x_ref - b) ** 2), rel=1e-12)


def test_rosenbrock_reaches_its_minimum():
    x, cost, iterations, stop = lm.solve(np.array([-1.2, 1.0]), rosenbrock_trial, 1e-12, 200)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-9)
    assert cost < 1e-18 and stop == "small" and iterations < 200


def test_stop_max():
    x0 = np.array([-1.2, 1.0])
    x, cost, iterations, stop = lm.solve(x0, rosenbrock_trial, 1e-12, 2)
    assert (iterations, stop) == (2, "max") and cost < rosenbrock_trial(x0)[0]


def test_stop_rejected():
    # the Jacobian has the wrong sign, so every damped step climbs
    def trial(x):
        return float(x @ x), lambda: (x.copy(), -np.eye(1))
    x, cost, iterations, stop = lm.solve(np.ones(1), trial, 1e-9, 100)
    assert (stop, iterations, cost) == ("rejected", 1, 1.0) and x.tolist() == [1.0]


def test_stop_singular():
    def trial(x):
        return 1.0, lambda: (np.ones(3), np.zeros((3, 2)))
    assert lm.solve(np.zeros(2), trial, 1e-9, 100)[2:] == (1, "singular")


def test_stop_empty():
    def trial(x):
        return 1.0, lambda: (np.empty(0), np.empty((0, 2)))
    x0 = np.array([0.5, 2.0])
    x, cost, iterations, stop = lm.solve(x0, trial, 1e-9, 100)
    assert (cost, iterations, stop) == (1.0, 0, "empty") and x is x0


@pytest.fixture
def offset_scene():
    """Kinematic model, camera, features, measured joints and the pixels of
    a 3 degree offset on every joint but the prismatic one."""
    model, camera, fm = KinematicModel(), default_mono_camera(), FeatureModel()
    q_msr = DEFAULT_QMSR_REGION.center
    dq = np.radians(3.0) * np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    return model, camera, fm, q_msr, detect_features(camera, fk(model, q_msr + dq), fm)


def test_calibrate_direct_raises_at_max_iterations(offset_scene, monkeypatch):
    monkeypatch.setattr(calibration, "_LM_MAX_ITERATIONS", 1)
    with pytest.raises(CalibrationError, match="stopped at max after 1 iterations"):
        calibrate_direct(*offset_scene, np.radians(10.0))


def test_calibrate_direct_raises_on_a_singular_system(offset_scene, monkeypatch):
    # a chain blind to the last joint leaves its Jacobian column zero
    blind = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    monkeypatch.setattr(calibration, "fk_arrays", lambda model, q: fk_arrays(model, q * blind))
    with pytest.raises(CalibrationError, match="stopped at singular"):
        calibrate_direct(*offset_scene, np.radians(10.0))
