"""The one Levenberg-Marquardt loop (Marquardt 1963): the needle pose descent
and the joint-offset solve both run it."""

from __future__ import annotations

import numpy as np


def solve(x: np.ndarray, trial, min_move: float, max_iterations: int):
    """Levenberg-Marquardt from x; returns (x, cost, iterations, stop).

    trial(x) gives the cost a step must lower (inf outside the domain) and a
    callable for the residuals r (R,) and Jacobian A (R, n) at x, called
    only where the loop keeps x. Damping: Marquardt-scaled by diag(A^T A),
    from 1e-3, x4 per rejected step, /3 per kept one. stop is "small" (the
    damped step moves no residual by min_move, tested before evaluating it),
    "rejected" (10 tries in a row fail), "singular", "empty" (no residual
    row) or "max" (max_iterations iterations).
    """
    cost, linearize = trial(x)
    lam, iterations = 1e-3, 0
    while iterations < max_iterations:
        r, A = linearize()
        if len(r) == 0:
            return x, cost, iterations, "empty"
        iterations += 1
        H, g = A.T @ A, A.T @ r
        for _ in range(10):
            try:
                step = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            except np.linalg.LinAlgError:
                return x, cost, iterations, "singular"
            if np.abs(A @ step).max() < min_move:
                return x, cost, iterations, "small"
            x_trial = x + step
            cost_trial, linearize_trial = trial(x_trial)
            if cost_trial < cost:
                break
            lam *= 4.0
        else:
            return x, cost, iterations, "rejected"
        lam /= 3.0
        x, cost, linearize = x_trial, cost_trial, linearize_trial
    return x, cost, iterations, "max"
