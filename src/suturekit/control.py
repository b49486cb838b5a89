"""Biased joint plant, high-level PI controller and offset compensation.

The plant is a discrete first-order lag toward the commanded position with
a constant input-side disturbance (modeling the low-level servo's
steady-state error) and a hidden constant measurement bias. The high-level
PI loop runs on compensated measurements; the plant command additionally
subtracts the offset estimate.
"""

from __future__ import annotations

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
        object.__setattr__(self, "delta_q", np.asarray(self.delta_q, dtype=float))
        object.__setattr__(self, "disturbance", np.asarray(self.disturbance, dtype=float))


def plant_step(
    model: PlantModel, q_act: JointVector, command: JointVector
) -> tuple[JointVector, JointVector]:
    """Advance the plant one tick; returns (new q_act, q_msr). Takes float
    arrays as they are (servo_to converts its inputs once)."""
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
        kp = np.asarray(self.kp, dtype=float) * np.ones(6)
        ki = np.asarray(self.ki, dtype=float) * np.ones(6)
        clamp = np.asarray(self.integrator_clamp, dtype=float) * np.ones(6)
        if np.any(kp < 0) or np.any(ki < 0):
            raise ValueError("gains must be >= 0")
        if np.any(clamp <= 0):
            raise ValueError("integrator clamp must be positive")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "ki", ki)
        object.__setattr__(self, "integrator_clamp", clamp)


def pi_step(
    gains: PiGains,
    integrator: np.ndarray,
    q_des: JointVector,
    q_msr_compensated: JointVector,
) -> tuple[JointVector, np.ndarray]:
    """One PI update on float arrays; returns (command, new integrator
    state). The integrator is clamped to +-integrator_clamp."""
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


@dataclass
class ServoTrace:
    q_des: np.ndarray
    steps: list = field(default_factory=list)  # rows of per-step dicts
    converged: bool = False

    def column(self, name: str) -> np.ndarray:
        return np.array([s[name] for s in self.steps])

    @property
    def final_error(self) -> np.ndarray:
        return self.steps[-1]["err"]

    @property
    def final_actual_error(self) -> np.ndarray:
        return np.abs(self.q_des - self.steps[-1]["q_act"])


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

    Raises NotConverged (with the trace attached) when max_steps elapse
    before every joint's compensated-measurement error drops below tol, and
    ValueError when max_steps is below 1 (an empty trace has no final step).
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    q_des = np.asarray(q_des, dtype=float)
    dq_hat = np.asarray(dq_hat, dtype=float)
    q_act = np.zeros(6) if q_act0 is None else np.asarray(q_act0, dtype=float).copy()
    integrator = np.zeros(6)
    trace = ServoTrace(q_des=q_des)
    for _ in range(max_steps):
        q_msr = q_act - plant.delta_q
        q_msr_comp, q_ref = compensate(q_msr, q_des, dq_hat)
        u, integrator = pi_step(gains, integrator, q_ref, q_msr_comp)
        q_cmd = u - dq_hat
        q_act, q_msr_post = plant_step(plant, q_act, q_cmd)
        # convergence is judged on the post-step measurement: the pre-step
        # error is trivially small when starting at the target, yet the
        # first command still moves the plant until the integrator winds up
        err = q_ref - (q_msr_post + dq_hat)
        trace.steps.append(
            {
                "q_cmd": q_cmd,
                "q_act": q_act.copy(),
                "q_msr": q_msr,
                "q_msr_comp": q_msr_comp,
                "err": err,
            }
        )
        if (np.abs(err) < tol).all():
            trace.converged = True
            return trace
    raise NotConverged(f"servo did not converge in {max_steps} steps", trace)


def steady_state_error(trace: ServoTrace, window: int = 10) -> np.ndarray:
    """Mean absolute compensated-measurement error over the final window."""
    errs = trace.column("err")[-window:]
    return np.mean(np.abs(errs), axis=0)
