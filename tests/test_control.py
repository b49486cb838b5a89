import numpy as np
import pytest

from suturekit.control import (
    NotConverged,
    PiGains,
    PlantModel,
    default_disturbance,
    servo_to,
    steady_state_error,
)
from suturekit.psm_kinematics import PRISMATIC_INDEX


# the (steps, 6) arrays of a ServoTrace
COLUMNS = ("q_cmd", "q_act", "q_msr", "q_msr_comp", "err")


def actual_error(trace, q_des):
    """|q_des - q_act| after the last step."""
    return np.abs(q_des - trace.q_act[-1])


def zero_plant(beta=1.0):
    return PlantModel(delta_q=np.zeros(6), disturbance=np.zeros(6), beta=beta)


# with the PI terms off, the plant command is q_des - dq_hat at every step
PI_OFF = PiGains(kp=0.0, ki=0.0)


def reference_servo(plant, gains, dq_hat, q_des, q_act0=None, max_steps=200, tol=1e-6):
    """The step-by-step numpy servo loop, written out independently of
    servo_to: step k tracks row min(k, T - 1) of the (T, 6) reference q_des
    (a (6,) target is one row), and the loop may stop from the last row on.
    Returns (rows of per-step dicts, integrator after each step,
    converged)."""
    reference = np.asarray(q_des, dtype=float).reshape(-1, 6)
    dq_hat = np.asarray(dq_hat, dtype=float)
    q_act = np.zeros(6) if q_act0 is None else np.asarray(q_act0, dtype=float)
    clamp = gains.integrator_clamp
    integrator = np.zeros(6)
    steps, integrators = [], []
    for k in range(max_steps):
        q_des = reference[min(k, len(reference) - 1)]
        # measure, then compensate: the PI reference stays q_des
        q_msr = q_act - plant.delta_q
        q_msr_comp = q_msr + dq_hat
        # clamped PI update
        e = q_des - q_msr_comp
        integrator = np.minimum(np.maximum(integrator + e, -clamp), clamp)
        u = q_des + gains.kp * e + gains.ki * integrator
        # the plant command subtracts the offset estimate; first-order plant
        q_cmd = u - dq_hat
        q_act = q_act + plant.beta * (q_cmd - plant.disturbance - q_act)
        err = q_des - ((q_act - plant.delta_q) + dq_hat)
        steps.append({"q_cmd": q_cmd, "q_act": q_act, "q_msr": q_msr,
                      "q_msr_comp": q_msr_comp, "err": err})
        integrators.append(integrator)
        if k >= len(reference) - 1 and (np.abs(err) < tol).all():
            return steps, np.array(integrators), True
    return steps, np.array(integrators), False


def random_case(seed):
    """A random plant, gains, offset estimate, target and start."""
    rng = np.random.default_rng(seed)
    plant = PlantModel(delta_q=rng.normal(0.0, 0.03, 6),
                       disturbance=rng.normal(0.0, 0.02, 6), beta=rng.uniform(0.2, 1.0))
    gains = PiGains(kp=rng.uniform(0.0, 1.0, 6), ki=rng.uniform(0.1, 0.4, 6),
                    integrator_clamp=rng.uniform(0.3, 1.5, 6))
    return dict(plant=plant, gains=gains, dq_hat=rng.normal(0.0, 0.03, 6),
                q_des=rng.normal(0.0, 0.5, 6), q_act0=rng.normal(0.0, 0.5, 6),
                max_steps=300)


def reference_case(seed, rows):
    """A random case whose target is a (rows, 6) reference: a straight line
    in joint space from q_act0 to q_des with a small random wobble."""
    case = random_case(seed)
    rng = np.random.default_rng([seed, rows])
    f = np.linspace(0.0, 1.0, rows)[:, None]
    line = (1.0 - f) * case["q_act0"] + f * case["q_des"]
    return {**case, "q_des": line + rng.normal(0.0, 0.01, (rows, 6))}


ORACLE_CASES = {
    **{f"random-{seed}": random_case(seed) for seed in range(12)},
    "q_act0-none": {**random_case(12), "q_act0": None},
    # a clamp far below disturbance / ki saturates the integrator, so the
    # error settles above tol and the loop runs out of steps
    "clamp-active": {**random_case(13),
                     "gains": PiGains(kp=0.3, ki=0.2, integrator_clamp=1e-3)},
    "not-converged": {**random_case(14), "max_steps": 5},
    "tight-tol": {**random_case(15), "tol": 1e-12, "max_steps": 400},
    # a streamed reference: the target moves for 40 steps, then holds
    "reference": reference_case(17, rows=40),
    # the reference outlasts max_steps, so the last row is never tracked
    "reference-longer-than-max-steps": {**reference_case(16, rows=40), "max_steps": 30},
    # a (1, 6) reference must give the bits of the (6,) target it holds
    "one-row-reference": {**random_case(18), "q_des": random_case(18)["q_des"][None]},
}


class TestPlant:
    def test_unit_beta_tracks_command_exactly(self):
        u = np.array([0.1, -0.2, 0.05, 0.3, 0.0, -0.1])
        trace = servo_to(zero_plant(beta=1.0), PI_OFF, np.zeros(6), u)
        assert np.array_equal(trace.q_cmd, [u])
        assert np.allclose(trace.q_act, [u])
        # the measurement after the step is u too, so the error is zero
        assert np.allclose(trace.err, 0.0)

    def test_first_order_lag(self):
        trace = servo_to(zero_plant(beta=0.5), PI_OFF, np.zeros(6), np.ones(6))
        assert np.allclose(trace.q_act[0], 0.5)
        halvings = 0.5 ** np.arange(1, len(trace.steps) + 1)
        assert np.allclose(trace.q_act, 1.0 - halvings[:, None])

    def test_disturbance_steady_state(self):
        d = default_disturbance()
        plant = PlantModel(delta_q=np.zeros(6), disturbance=d, beta=0.8)
        u = np.array([0.1, -0.2, 0.05, 0.3, 0.0, -0.1])
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, PI_OFF, np.zeros(6), u, max_steps=200)
        assert np.allclose(exc.value.trace.q_act[-1], u - d, atol=1e-12)

    def test_measurement_bias(self):
        dq = np.full(6, 0.01)
        plant = PlantModel(delta_q=dq, disturbance=np.zeros(6), beta=1.0)
        q_act0 = np.full(6, 0.3)
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, PI_OFF, np.zeros(6), np.ones(6), q_act0=q_act0, max_steps=3)
        trace = exc.value.trace
        # each step's measurement is the position entering it minus the bias
        assert np.allclose(trace.q_msr, np.vstack((q_act0, trace.q_act[:-1])) - dq)
        assert np.allclose(trace.err, 0.01)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            PlantModel(beta=0.0)
        with pytest.raises(ValueError):
            PlantModel(beta=1.5)

    @pytest.mark.parametrize("field", ["delta_q", "disturbance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, value):
        values = np.zeros(6)
        values[1] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PlantModel(**{field: values})

    @pytest.mark.parametrize("field", ["delta_q", "disturbance"])
    def test_scalars_broadcast_and_wrong_shapes_rejected(self, field):
        assert np.array_equal(getattr(PlantModel(**{field: 0.01}), field), np.full(6, 0.01))
        with pytest.raises(ValueError, match=f"{field} must be a number or 6 numbers"):
            PlantModel(**{field: np.zeros((2, 6))})

    def test_default_disturbance_units(self):
        d = default_disturbance()
        assert np.isclose(d[0], np.radians(1.5))
        assert np.isclose(d[PRISMATIC_INDEX], 1e-4)


class TestPiStep:
    """The PI update inside servo_to's tick."""

    def test_zero_error_passes_setpoint_through(self):
        # starting at the target with no bias or disturbance: the error and
        # the integrator stay zero, so the command is q_des and one step ends it
        q_des = np.array([0.1, 0.2, 0.0, -0.1, 0.3, 0.0])
        trace = servo_to(zero_plant(beta=0.8), PiGains(), np.zeros(6), q_des, q_act0=q_des)
        assert np.array_equal(trace.q_cmd, [q_des])
        assert np.array_equal(trace.err, np.zeros((1, 6)))

    def test_proportional_term(self):
        gains = PiGains(kp=np.full(6, 0.5), ki=np.zeros(6))
        trace = servo_to(zero_plant(), gains, np.zeros(6), np.ones(6))
        assert np.allclose(trace.q_cmd[0], 1.5)
        assert np.allclose(trace.q_cmd, 1.0 + 0.5 * (1.0 - trace.q_msr_comp))

    def test_integrator_accumulates_and_clamps(self):
        # a disturbance of 0.2 needs an integrator of 0.2 to cancel, twice
        # the clamp; with kp = 0 and ki = 1 the command minus q_des is the
        # integrator itself
        clamp = np.full(6, 0.1)
        gains = PiGains(kp=np.zeros(6), ki=np.ones(6), integrator_clamp=clamp)
        plant = PlantModel(delta_q=np.zeros(6), disturbance=np.full(6, 0.2), beta=0.5)
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, gains, np.zeros(6), np.zeros(6), max_steps=100)
        trace = exc.value.trace
        integ = trace.q_cmd
        expected, running = [], np.zeros(6)
        for e in -trace.q_msr_comp:
            running = np.clip(running + e, -clamp, clamp)
            expected.append(running)
        assert np.allclose(integ, expected)
        assert np.all(integ[0] < 0.1) and np.all(np.diff(integ, axis=0) >= 0)
        assert np.allclose(integ[-1], 0.1)

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError, match="kp must be >= 0"):
            PiGains(kp=np.full(6, -0.1))
        with pytest.raises(ValueError, match="ki must be >= 0"):
            PiGains(ki=-0.1)
        with pytest.raises(ValueError, match="integrator_clamp must be positive"):
            PiGains(integrator_clamp=np.zeros(6))

    @pytest.mark.parametrize("field", ["kp", "ki", "integrator_clamp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gains_rejected(self, field, value):
        values = np.full(6, 0.5)
        values[3] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PiGains(**{field: values})

    def test_scalars_broadcast_and_wrong_shapes_rejected(self):
        assert np.array_equal(PiGains(kp=0.3).kp, np.full(6, 0.3))
        with pytest.raises(ValueError, match="ki must be a number or 6 numbers"):
            PiGains(ki=np.full(5, 0.2))


class TestCompensate:
    """The offset compensation inside servo_to's tick."""

    def test_shifts_measurement_keeps_reference(self):
        dq_hat = np.full(6, 0.02)
        q_des = np.full(6, 0.5)
        trace = servo_to(zero_plant(beta=0.8), PiGains(), dq_hat, q_des,
                         q_act0=np.full(6, 0.1))
        assert np.array_equal(trace.q_msr_comp, trace.q_msr + dq_hat)
        assert np.allclose(trace.q_msr_comp[0], 0.12)
        # the PI reference is q_des itself, so the loop settles with the
        # compensated measurement, q_act + dq_hat on this unbiased plant, there
        assert np.allclose(trace.q_act[-1] + dq_hat, q_des, atol=1e-6)


class TestServo:
    q_des = np.array([0.2, -0.1, 0.12, 0.4, 0.3, -0.2])

    def test_converges_with_default_plant(self):
        trace = servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des)
        assert np.all(np.abs(trace.err[-1]) < 1e-6)
        # measurement equals actual here (no bias), so the actual position
        # also reaches the target despite the input disturbance
        assert np.all(actual_error(trace, self.q_des) < 1e-5)

    def test_kp_only_fixed_point(self):
        # proportional-only loop: u = q_des + kp e and the plant settles at
        # u - d, so (1 + kp) e = d independent of beta
        kp = 0.5
        plant = PlantModel()
        gains = PiGains(kp=np.full(6, kp), ki=np.zeros(6))
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, gains, np.zeros(6), self.q_des, max_steps=300, tol=1e-9)
        err = exc.value.trace.err[-1]
        assert np.allclose(err, plant.disturbance / (1.0 + kp), atol=1e-9)

    def test_pi_off_leaves_full_disturbance(self):
        plant = PlantModel()
        gains = PiGains(kp=np.zeros(6), ki=np.zeros(6))
        with pytest.raises(NotConverged) as exc:
            servo_to(plant, gains, np.zeros(6), self.q_des, max_steps=200)
        ss = steady_state_error(exc.value.trace)
        assert np.allclose(ss, plant.disturbance, atol=1e-9)

    def test_exact_offset_estimate_reaches_actual_target(self):
        dq = np.array([0.02, -0.03, 0.001, 0.04, -0.01, 0.02])
        plant = PlantModel(delta_q=dq)
        trace = servo_to(plant, PiGains(), dq.copy(), self.q_des)
        assert np.all(actual_error(trace, self.q_des) < 1e-5)

    def test_no_compensation_leaves_bias_sized_actual_error(self):
        dq = np.full(6, 0.02)
        plant = PlantModel(delta_q=dq)
        trace = servo_to(plant, PiGains(), np.zeros(6), self.q_des)
        # loop converges on the measurement, but the actual position misses
        # the target by the unmodeled bias
        assert np.allclose(actual_error(trace, self.q_des), 0.02, atol=1e-5)

    def test_offset_estimate_error_maps_to_actual_error(self):
        dq = np.full(6, 0.02)
        eps = 0.005
        plant = PlantModel(delta_q=dq)
        trace = servo_to(plant, PiGains(), dq + eps, self.q_des)
        assert np.allclose(actual_error(trace, self.q_des), eps, atol=1e-5)

    def test_not_converged_carries_trace(self):
        with pytest.raises(NotConverged) as exc:
            servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des, max_steps=3)
        assert len(exc.value.trace.steps) == 3

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des, max_steps=max_steps)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number above 0"):
            servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des, tol=tol)

    @pytest.mark.parametrize("arg", ["q_des", "dq_hat", "q_act0"])
    def test_joint_vectors_must_be_six_finite_numbers(self, arg):
        args = {"dq_hat": np.zeros(6), "q_des": self.q_des, "q_act0": np.zeros(6)}
        with pytest.raises(ValueError, match="must have shape"):
            servo_to(PlantModel(), PiGains(), **{**args, arg: np.zeros(5)})
        bad = np.zeros(6)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            servo_to(PlantModel(), PiGains(), **{**args, arg: bad})

    @pytest.mark.parametrize("shape", [(0, 6), (3, 5), (2, 3, 6), (6, 1), ()],
                             ids=["no-rows", "width-5", "3-d", "column", "scalar"])
    def test_reference_must_have_six_columns_and_a_row(self, shape):
        with pytest.raises(ValueError, match="q_des must have shape"):
            servo_to(PlantModel(), PiGains(), np.zeros(6), np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_reference_must_be_finite(self, value):
        reference = np.tile(self.q_des, (4, 1))
        reference[2, 3] = value
        with pytest.raises(ValueError, match="must be finite"):
            servo_to(PlantModel(), PiGains(), np.zeros(6), reference)

    def test_convergence_is_tested_from_the_last_row_on(self):
        # starting at a held target on an ideal plant, a one-row target
        # converges at once, but six rows of it take six ticks, and five
        # ticks of max_steps never reach the last row
        plant, reference = zero_plant(beta=1.0), np.tile(self.q_des, (6, 1))
        args = (plant, PI_OFF, np.zeros(6))
        assert len(servo_to(*args, self.q_des, q_act0=self.q_des).steps) == 1
        assert len(servo_to(*args, reference, q_act0=self.q_des).steps) == 6
        with pytest.raises(NotConverged) as exc:
            servo_to(*args, reference, q_act0=self.q_des, max_steps=5)
        assert len(exc.value.trace.steps) == 5

    def test_deterministic(self):
        a = servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des)
        b = servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des)
        assert a.steps == b.steps
        assert np.array_equal(a.q_act, b.q_act)
        assert np.array_equal(a.err, b.err)

    def test_trace_columns(self):
        trace = servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des)
        for name in COLUMNS:
            assert getattr(trace, name).shape == (len(trace.steps), 6), name

    def test_steps_view_matches_columns(self):
        trace = servo_to(PlantModel(), PiGains(), np.zeros(6), self.q_des)
        assert trace.steps == range(len(trace.err))
        assert len(trace.steps) > 1


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_servo_matches_numpy_loop_bitwise(case):
    """servo_to's float loop gives, bit for bit, the columns, step count and
    outcome (NotConverged raised or not) of the step-by-step numpy loop."""
    kwargs = ORACLE_CASES[case]
    steps, integrators, converged = reference_servo(**kwargs)
    try:
        trace, servo_converged = servo_to(**kwargs), True
    except NotConverged as e:
        trace, servo_converged = e.trace, False
    assert servo_converged == converged
    assert len(trace.steps) == len(steps)
    for name in COLUMNS:
        col = getattr(trace, name)
        assert col.shape == (len(steps), 6)
        assert col.tobytes() == np.array([s[name] for s in steps]).tobytes(), name


def test_oracle_cases_cover_clamp_and_both_outcomes():
    outcomes = set()
    for kwargs in ORACLE_CASES.values():
        _, integrators, converged = reference_servo(**kwargs)
        clamped = bool(np.any(np.abs(integrators) == kwargs["gains"].integrator_clamp))
        outcomes.add((clamped, converged))
    assert outcomes == {(False, True), (True, True), (True, False), (False, False)}
