"""Equilibria of the autonomous model with residual certification.

The infection-free state is (L/mu1, 0, 0). The persistent-infection
state is obtained by steady-state elimination: the y equation fixes
x_bar, the z equation fixes z_bar in terms of y_bar, and the x equation
then yields y_bar. Feasibility (y_bar > 0) is equivalent to the
next-generation reproduction number exceeding one.

An alternative closed-form triple for the persistent state circulates in
which x_bar = mu1*mu3*(mu2+p) / (q*beta*mu2*(1-eta)*(1-epsilon)). It does
not satisfy the steady-state equations in general, so it is evaluated
only as a diagnostic (``alt_state`` / ``alt_residual``) and never used.
The arbiter is always the residual of the vector field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Forcing,
    Parameters,
    UnsupportedForcingError,
    as_state,
    constant_rate,
    jacobian,
    vector_field,
)

__all__ = [
    "EquilibriumReport",
    "UnsupportedForcingError",
    "SingularJacobianError",
    "NoConvergenceError",
    "disease_free",
    "endemic",
    "newton_refine",
    "residual_norm",
]


class SingularJacobianError(RuntimeError):
    pass


class NoConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class EquilibriumReport:
    """An equilibrium candidate and the evidence for it.

    ``residual_norm`` is the max-norm of the vector field at ``state``.
    For the persistent-infection kind, ``feasible`` records whether
    y_bar > 0, and the ``alt_*`` fields carry the diagnostic alternative
    closed form described in the module docstring.
    """

    kind: str
    state: tuple[float, float, float]
    residual_norm: float
    feasible: bool | None = None
    alt_state: tuple[float, float, float] | None = None
    alt_residual: float | None = None


def residual_norm(params: Parameters, forcing: Forcing, state) -> float:
    """Max-norm of the vector field at a candidate steady state."""
    return float(np.max(np.abs(vector_field(params, forcing, 0.0, state))))


def disease_free(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Infection-free equilibrium (L/mu1, 0, 0)."""
    lam = constant_rate(forcing, "equilibria")
    state = (lam / params.mu1, 0.0, 0.0)
    return EquilibriumReport(
        kind="disease_free",
        state=state,
        residual_norm=residual_norm(params, forcing, state),
    )


def endemic(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Persistent-infection equilibrium by steady-state elimination.

    Infeasibility (y_bar <= 0, including the boundary tie where the state
    collapses onto the infection-free one) is a reported outcome, not an
    error. Feasible states are Newton-polished before certification.
    """
    lam = constant_rate(forcing, "equilibria")
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff

    x_bar = params.mu3 * (params.mu2 + params.q) / (beta_eff * prod_eff)
    y_bar = (lam - params.mu1 * x_bar) / params.mu2
    z_bar = prod_eff * y_bar / params.mu3
    state = np.array([x_bar, y_bar, z_bar])
    feasible = bool(y_bar > 0.0)

    if feasible:
        state = _newton_best(params, forcing, state)

    alt_x = params.mu1 * params.mu3 * (params.mu2 + params.p) / (params.q * params.beta * params.mu2 * (1.0 - params.eta) * (1.0 - params.epsilon))
    alt_y = lam / params.mu2 - alt_x
    alt_z = params.q * lam * (1.0 - params.epsilon) / (params.mu2 * params.mu3) - params.mu1 * (params.mu2 + params.p) / (params.beta * params.mu2 * (1.0 - params.eta))
    alt_state = (alt_x, alt_y, alt_z)

    return EquilibriumReport(
        kind="endemic",
        state=tuple(float(v) for v in state),
        residual_norm=residual_norm(params, forcing, state),
        feasible=feasible,
        alt_state=alt_state,
        alt_residual=residual_norm(params, forcing, alt_state),
    )


def newton_refine(
    params: Parameters,
    forcing: Forcing,
    guess,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Damped Newton iteration on the vector field.

    Steps are halved (floor 2**-20) until the residual max-norm decreases.
    Raises SingularJacobianError if a linear solve fails and
    NoConvergenceError if the residual is still above tol after max_iter
    iterations.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    constant_rate(forcing, "equilibria")

    u = as_state(guess)
    res = residual_norm(params, forcing, u)
    for _ in range(max_iter):
        if res <= tol:
            return u
        u, res, improved = _newton_step(params, forcing, u, res)
        if not improved:
            break
    if res <= tol:
        return u
    raise NoConvergenceError(f"residual {res:.3e} above tol {tol:.3e} after {max_iter} iterations")


def _newton_step(params, forcing, u, res):
    """One damped Newton step; returns (state, residual, improved)."""
    f = vector_field(params, forcing, 0.0, u)
    try:
        step = np.linalg.solve(jacobian(params, u), -f)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(f"singular Jacobian at {tuple(u)}") from exc
    scale = 1.0
    while scale >= 2.0**-20:
        candidate = u + scale * step
        cand_res = residual_norm(params, forcing, candidate)
        if cand_res < res:
            return candidate, cand_res, True
        scale *= 0.5
    return u, res, False


def _newton_best(params, forcing, u, max_iter: int = 25) -> np.ndarray:
    """Newton-polish to the best reachable residual (never raises on stall).

    The elimination formulas are already accurate to rounding, so this
    typically takes one or two steps and then stalls at the double
    precision floor, which is exactly the state we want to report.
    """
    res = residual_norm(params, forcing, u)
    for _ in range(max_iter):
        if res == 0.0:
            break
        try:
            u, res, improved = _newton_step(params, forcing, u, res)
        except SingularJacobianError:
            break
        if not improved:
            break
    return u
