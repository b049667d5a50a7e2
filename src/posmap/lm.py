"""Damped least-squares (Levenberg-Marquardt) minimizer.

Solves min_theta 0.5 * ||r(theta)||^2 for a user-supplied residual function,
optionally with an analytic Jacobian. Small and dependency-free on purpose:
the calibration refinements in this package need tight control over the
damping schedule and termination reporting, and the problems are tiny
(tens of parameters), so there is nothing to gain from a heavier solver.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

__all__ = ["LMStatus", "LMResult", "levenberg_marquardt", "numeric_jacobian"]


class LMStatus(enum.Enum):
    GRADIENT_TOL = "gradient_tol"
    STEP_TOL = "step_tol"
    COST_TOL = "cost_tol"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class LMResult:
    params: np.ndarray
    cost: float
    status: LMStatus
    iterations: int
    cost_history: tuple[float, ...]


def numeric_jacobian(
    fun: Callable[[np.ndarray], np.ndarray], theta: np.ndarray
) -> np.ndarray:
    """Central-difference Jacobian with per-parameter step 1e-6*max(1, |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    r0 = np.asarray(fun(theta), dtype=float)
    jac = np.empty((r0.size, theta.size))
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        jac[:, i] = (np.asarray(fun(tp), dtype=float) - np.asarray(fun(tm), dtype=float)) / (
            2.0 * h
        )
    return jac


def levenberg_marquardt(
    fun: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    max_iter: int = 100,
    gradient_tol: float = 1e-10,
    step_tol: float = 1e-12,
) -> LMResult:
    """Minimize 0.5*||fun(theta)||^2 from theta0.

    The damping parameter multiplies diag(J^T J) (Marquardt scaling); it
    starts at 1e-3, is divided by 10 after an accepted step and multiplied
    by 10 after a rejected one. The accepted-cost sequence is
    non-increasing: an accepted step that leaves the cost unchanged ends
    the search with ``LMStatus.COST_TOL``.

    Raises :class:`SolverError` if the damped normal equations stay singular
    even at very large damping, or if the problem is under-determined
    (more parameters than residuals).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = np.asarray(fun(theta), dtype=float)
    if theta.size > r.size:
        raise SolverError(
            f"under-determined problem: {theta.size} parameters, {r.size} residuals"
        )
    cost = 0.5 * float(r @ r)
    history = [cost]
    lam = 1e-3

    jac_fn = jac if jac is not None else (lambda t: numeric_jacobian(fun, t))

    iterations = 0
    status = LMStatus.MAX_ITER
    for iterations in range(max_iter + 1):
        jmat = np.asarray(jac_fn(theta), dtype=float)
        g = jmat.T @ r
        if np.max(np.abs(g), initial=0.0) < gradient_tol:
            status = LMStatus.GRADIENT_TOL
            break
        if iterations == max_iter:
            status = LMStatus.MAX_ITER
            break
        jtj = jmat.T @ jmat
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0

        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            trial = theta + delta
            r_trial = np.asarray(fun(trial), dtype=float)
            cost_trial = 0.5 * float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                step_small = np.linalg.norm(delta) < step_tol * (
                    np.linalg.norm(theta) + step_tol
                )
                cost_flat = cost_trial == cost
                theta, r, cost = trial, r_trial, cost_trial
                history.append(cost)
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if step_small:
                    status = LMStatus.STEP_TOL
                elif cost_flat:
                    status = LMStatus.COST_TOL
                break
            lam *= 10.0
        if not accepted:
            raise SolverError(
                "damped normal equations unsolvable: no acceptable step found "
                f"at iteration {iterations} (lambda={lam:.3g})"
            )
        if status in (LMStatus.STEP_TOL, LMStatus.COST_TOL):
            iterations += 1
            break

    return LMResult(
        params=theta,
        cost=cost,
        status=status,
        iterations=iterations,
        cost_history=tuple(history),
    )
