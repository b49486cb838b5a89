"""Biased joint plant, high-level PI controller and offset compensation.

The plant is a discrete first-order lag toward the commanded position with
a constant input-side disturbance (modeling the low-level servo's
steady-state error) and a hidden constant measurement bias. The high-level
PI loop runs on compensated measurements; the plant command additionally
subtracts the offset estimate.

`servo_to`'s loop is the one definition of a tick. It runs on Python
floats, joint by joint, and records each step's command, position and
error as it computes them; the measurement columns follow from the
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .psm_kinematics import JointVector, from_deg_mm


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
    return from_deg_mm([1.5, 1.5, 0.1, 1.5, 1.5, 1.5])


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


@dataclass(frozen=True)
class ServoTrace:
    """One servo run: five (steps, 6) arrays, one row per step. They hold
    the plant command (q_cmd), the actual position after the step (q_act),
    the measurement and the compensated measurement before it (q_msr,
    q_msr_comp), and the error after it (err)."""

    q_cmd: np.ndarray
    q_act: np.ndarray
    q_msr: np.ndarray
    q_msr_comp: np.ndarray
    err: np.ndarray

    @property
    def steps(self) -> range:
        """The step indices, one per row of the arrays."""
        return range(len(self.err))


def servo_to(
    plant: PlantModel,
    gains: PiGains,
    dq_hat: JointVector,
    q_des: np.ndarray,  # (6,) or (T, 6)
    q_act0: JointVector | None = None,
    max_steps: int = 200,
    tol: float = 1e-6,
) -> ServoTrace:
    """Run the compensated closed loop along a joint reference until
    per-joint convergence.

    q_des is a target (6,) or a reference (T, 6); tick k tracks its row d =
    q_des[min(k, T - 1)], and one integrator runs throughout. One tick, per
    joint: the measurement q_msr = q_act - delta_q is compensated to q_msr +
    dq_hat, the PI error is e = d - (q_msr + dq_hat), the integrator I + e
    is clamped to +-integrator_clamp, the plant command is q_cmd = d + kp e
    + ki I - dq_hat, and the plant moves to q_act + beta (q_cmd -
    disturbance - q_act). From the first tick on the last row, the loop
    stops once every joint's error after the step is below tol. The trace
    keeps each tick's command, position and error as the loop computes them;
    its measurements are the positions entering the ticks (q_act0, then
    q_act[:-1]) minus delta_q.

    Raises NotConverged (with the trace attached) when max_steps ticks
    elapse first, and ValueError when max_steps is below 1 (an empty trace
    has no final step), tol is not a finite number above 0, or q_des (of
    shape (6,) or (T >= 1, 6)), dq_hat or q_act0 is not 6 finite numbers.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol}")
    ref, dq_hat = np.atleast_2d(np.asarray(q_des, dtype=float)), np.asarray(dq_hat, dtype=float)
    q_act0 = np.zeros(6) if q_act0 is None else np.asarray(q_act0, dtype=float)
    if not (ref.ndim == 2 and len(ref) and ref.shape[1:] == dq_hat.shape == q_act0.shape == (6,)):
        raise ValueError("q_des must have shape (6,) or (T >= 1, 6), dq_hat and q_act0 (6,)")
    if not np.isfinite(np.vstack((ref, dq_hat, q_act0))).all():
        raise ValueError("q_des, dq_hat and q_act0 must be finite")

    beta = float(plant.beta)
    joints = list(enumerate(zip(
        dq_hat.tolist(), plant.delta_q.tolist(), plant.disturbance.tolist(),
        gains.kp.tolist(), gains.ki.tolist(), gains.integrator_clamp.tolist(),
    )))
    q, integ, cmd, e = q_act0.tolist(), [0.0] * 6, [0.0] * 6, [0.0] * 6
    # each tick's command, position and error, sized by the reference and doubled when
    # full: max_steps may come from a config and be any size
    rows = np.empty((min(max_steps, 2 * len(ref)), 18))
    for k in range(max_steps):
        if k < len(ref):
            des = ref[k].tolist()
        if k == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        converged = k >= len(ref) - 1
        for j, (h, dl, dist, kp, ki, c) in joints:
            d, a = des[j], q[j]
            ej = d - ((a - dl) + h)
            i = integ[j] + ej
            if i < -c:
                i = -c
            elif i > c:
                i = c
            u = ((d + kp * ej) + ki * i) - h
            a = a + beta * ((u - dist) - a)
            ej = d - ((a - dl) + h)
            # convergence is judged on the post-step measurement: the
            # pre-step error is trivially small when starting at the target,
            # yet the first command still moves the plant until the
            # integrator winds up
            if converged and not abs(ej) < tol:
                converged = False
            q[j] = a
            integ[j] = i
            e[j] = ej
            cmd[j] = u
        rows[k] = cmd + q + e
        if converged:
            break

    q_cmd, q_act, err = np.split(rows[:k + 1], 3, axis=1)
    q_msr = np.vstack((q_act0, q_act[:-1])) - plant.delta_q
    trace = ServoTrace(q_cmd, q_act, q_msr, q_msr + dq_hat, err)
    if not converged:
        raise NotConverged(f"servo did not converge in {max_steps} steps", trace)
    return trace


_STEADY_STATE_WINDOW = 10  # final steps averaged by steady_state_error


def steady_state_error(trace: ServoTrace) -> np.ndarray:
    """Mean absolute compensated-measurement error over the final
    _STEADY_STATE_WINDOW steps."""
    return np.mean(np.abs(trace.err[-_STEADY_STATE_WINDOW:]), axis=0)
