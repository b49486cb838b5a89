"""Biased joint plant, high-level PI controller and offset compensation.

The plant is a discrete first-order lag toward the commanded position with
a constant input-side disturbance (modeling the low-level servo's
steady-state error) and a hidden constant measurement bias. The high-level
PI loop runs on compensated measurements; the plant command additionally
subtracts the offset estimate.

`plant_step`, `pi_step` and `compensate` define one tick on float arrays.
`servo_to` runs the same recurrence on Python floats, joint by joint, and
then derives its trace from the recorded states with those three
functions, all steps at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .psm_kinematics import JointVector, PRISMATIC_INDEX


class ControlError(Exception):
    pass


class NotConverged(ControlError):
    """Servo loop hit max_steps; carries the full trace."""

    def __init__(self, msg, trace):
        super().__init__(msg)
        self.trace = trace


def _joint_array(name: str, value) -> np.ndarray:
    """`value` as finite floats broadcast to one per joint, shape (6,)."""
    a = np.asarray(value, dtype=float)
    try:
        a = np.broadcast_to(a, (6,)).copy()
    except ValueError:
        raise ValueError(f"{name} must be a number or 6 numbers, got shape {a.shape}") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a.tolist()}")
    return a


def default_disturbance() -> np.ndarray:
    d = np.full(6, np.radians(1.5))
    d[PRISMATIC_INDEX] = 0.1e-3
    return d


@dataclass(frozen=True)
class PlantModel:
    delta_q: np.ndarray = field(default_factory=lambda: np.zeros(6))  # hidden bias
    disturbance: np.ndarray = field(default_factory=default_disturbance)
    beta: float = 0.8  # first-order tracking coefficient

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")
        object.__setattr__(self, "delta_q", _joint_array("delta_q", self.delta_q))
        object.__setattr__(self, "disturbance",
                           _joint_array("disturbance", self.disturbance))


def plant_step(
    model: PlantModel, q_act: JointVector, command: JointVector
) -> tuple[JointVector, JointVector]:
    """Advance the plant one tick; returns (new q_act, q_msr). Takes float
    arrays as they are, (6,) for one tick or (steps, 6) for many."""
    q_new = q_act + model.beta * (command - model.disturbance - q_act)
    return q_new, q_new - model.delta_q


def default_clamp() -> np.ndarray:
    # must exceed (disturbance + offset estimate) / ki at steady state, or
    # the integrator saturates and leaves a residual error
    return np.full(6, np.radians(60.0))


@dataclass(frozen=True)
class PiGains:
    kp: np.ndarray = field(default_factory=lambda: np.full(6, 0.5))
    ki: np.ndarray = field(default_factory=lambda: np.full(6, 0.2))
    integrator_clamp: np.ndarray = field(default_factory=default_clamp)

    def __post_init__(self):
        kp = _joint_array("kp", self.kp)
        ki = _joint_array("ki", self.ki)
        clamp = _joint_array("integrator_clamp", self.integrator_clamp)
        for name, gain in (("kp", kp), ("ki", ki)):
            if np.any(gain < 0):
                raise ValueError(f"{name} must be >= 0, got {gain.tolist()}")
        if np.any(clamp <= 0):
            raise ValueError(f"integrator_clamp must be positive, got {clamp.tolist()}")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "ki", ki)
        object.__setattr__(self, "integrator_clamp", clamp)


def pi_step(
    gains: PiGains,
    integrator: np.ndarray,
    q_des: JointVector,
    q_msr_compensated: JointVector,
) -> tuple[JointVector, np.ndarray]:
    """One PI update on float arrays, (6,) or (steps, 6); returns (command,
    new integrator state). The integrator is clamped to +-integrator_clamp."""
    e = q_des - q_msr_compensated
    clamp = gains.integrator_clamp
    integrator = np.minimum(np.maximum(integrator + e, -clamp), clamp)
    u = q_des + gains.kp * e + gains.ki * integrator
    return u, integrator


def compensate(
    q_msr: JointVector, q_des: JointVector, dq_hat: JointVector
) -> tuple[JointVector, JointVector]:
    """Dual compensation: measurement shifted to actual-position estimate,
    desired position kept as the PI reference (the plant-side command
    subtracts dq_hat in the servo loop). Takes float arrays as they are."""
    return q_msr + dq_hat, q_des


@dataclass(frozen=True)
class ServoTrace:
    """One servo run: the target q_des (6,) and five (steps, 6) arrays, one
    row per step. They hold the plant command (q_cmd), the actual position
    after the step (q_act), the measurement and the compensated measurement
    before it (q_msr, q_msr_comp), and the error after it (err)."""

    q_des: np.ndarray
    q_cmd: np.ndarray
    q_act: np.ndarray
    q_msr: np.ndarray
    q_msr_comp: np.ndarray
    err: np.ndarray
    converged: bool

    @property
    def steps(self) -> range:
        """The step indices, one per row of the arrays."""
        return range(len(self.err))


def servo_to(
    plant: PlantModel,
    gains: PiGains,
    dq_hat: JointVector,
    q_des: JointVector,
    q_act0: JointVector | None = None,
    max_steps: int = 200,
    tol: float = 1e-6,
) -> ServoTrace:
    """Run the compensated closed loop until per-joint convergence.

    Each step measures (compensate), updates the clamped PI integrator and
    command (pi_step) and advances the plant (plant_step); the loop stops
    once every joint's error after the step is below tol. The loop runs
    that recurrence on Python floats, with the operations of those three
    functions in their order, and records only the position and integrator
    entering each step. The trace columns are then computed from those
    states by the three functions over all steps at once, so they hold the
    bits a step-by-step numpy loop would give.

    Raises NotConverged (with the trace attached) when max_steps elapse
    before every joint's compensated-measurement error drops below tol, and
    ValueError when max_steps is below 1 (an empty trace has no final step),
    tol is not a finite number above 0, or q_des, dq_hat or q_act0 is not 6
    finite numbers.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol}")
    q_des, dq_hat = np.asarray(q_des, dtype=float), np.asarray(dq_hat, dtype=float)
    q_act0 = np.zeros(6) if q_act0 is None else np.asarray(q_act0, dtype=float)
    if not q_des.shape == dq_hat.shape == q_act0.shape == (6,):
        raise ValueError("q_des, dq_hat and q_act0 must have shape (6,)")
    if not np.isfinite([q_des, dq_hat, q_act0]).all():
        raise ValueError("q_des, dq_hat and q_act0 must be finite")

    beta = float(plant.beta)
    joints = list(enumerate(zip(
        q_des.tolist(), dq_hat.tolist(), plant.delta_q.tolist(),
        plant.disturbance.tolist(), gains.kp.tolist(), gains.ki.tolist(),
        gains.integrator_clamp.tolist(),
    )))
    q, integ = q_act0.tolist(), [0.0] * 6
    # e is q_des minus the compensated measurement: the PI error entering a
    # step, and the convergence error after the one before
    e = (q_des - ((q_act0 - plant.delta_q) + dq_hat)).tolist()
    q_hist, integ_hist = [], []  # the state entering each step, 6 floats each
    for _ in range(max_steps):
        q_hist += q
        integ_hist += integ
        converged = True
        for j, (d, h, dl, dist, kp, ki, c) in joints:
            ej = e[j]
            i = integ[j] + ej
            if i < -c:
                i = -c
            elif i > c:
                i = c
            a = q[j]
            a = a + beta * (((((d + kp * ej) + ki * i) - h) - dist) - a)
            ej = d - ((a - dl) + h)
            # convergence is judged on the post-step measurement: the
            # pre-step error is trivially small when starting at the target,
            # yet the first command still moves the plant until the
            # integrator winds up
            if converged and not abs(ej) < tol:
                converged = False
            q[j], integ[j], e[j] = a, i, ej
        if converged:
            break

    q_prev = np.fromiter(q_hist, float, len(q_hist)).reshape(-1, 6)
    q_msr = q_prev - plant.delta_q
    q_msr_comp, q_ref = compensate(q_msr, q_des, dq_hat)
    integ_prev = np.fromiter(integ_hist, float, len(integ_hist)).reshape(-1, 6)
    u, _ = pi_step(gains, integ_prev, q_ref, q_msr_comp)
    q_cmd = u - dq_hat
    q_act, q_msr_post = plant_step(plant, q_prev, q_cmd)
    err = q_ref - (q_msr_post + dq_hat)
    trace = ServoTrace(q_des, q_cmd, q_act, q_msr, q_msr_comp, err, converged)
    if not converged:
        raise NotConverged(f"servo did not converge in {max_steps} steps", trace)
    return trace


_STEADY_STATE_WINDOW = 10  # final steps averaged by steady_state_error


def steady_state_error(trace: ServoTrace) -> np.ndarray:
    """Mean absolute compensated-measurement error over the final
    _STEADY_STATE_WINDOW steps."""
    return np.mean(np.abs(trace.err[-_STEADY_STATE_WINDOW:]), axis=0)
