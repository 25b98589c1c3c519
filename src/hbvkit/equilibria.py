"""Equilibria of the autonomous model with residual certification.

The infection-free state is (L/mu1, 0, 0). The persistent-infection
state is obtained by steady-state elimination: the y equation fixes
x_bar, the z equation fixes z_bar in terms of y_bar, and the x equation
then yields y_bar. Feasibility (y_bar > 0) is equivalent to the
next-generation reproduction number exceeding one; ``endemic`` decides it
exactly on the float rates, in integers.

An alternative closed-form triple for the persistent state circulates in
which x_bar = mu1*mu3*(mu2+p) / (q*beta*mu2*(1-eta)*(1-epsilon)). It does
not satisfy the steady-state equations in general, so it is evaluated
only as a diagnostic (``alt_state`` / ``alt_residual``) and never used.
The arbiter is always the residual of the vector field, and ``certified``
is its one rule: at most 8 ulps of the field's largest term at the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Forcing,
    Parameters,
    UnsupportedForcingError,
    as_state,
    constant_rate,
    jacobian,
    make_rhs,
)

__all__ = [
    "EquilibriumReport",
    "UnsupportedForcingError",
    "SingularJacobianError",
    "NoConvergenceError",
    "certified",
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
    For the persistent-infection kind, ``feasible`` records whether the
    exact y_bar of the float rates is > 0, and the ``alt_*`` fields carry
    the diagnostic alternative closed form described in the module
    docstring.
    """

    kind: str
    state: tuple[float, float, float]
    residual_norm: float
    feasible: bool | None = None
    alt_state: tuple[float, float, float] | None = None
    alt_residual: float | None = None


def residual_norm(params: Parameters, forcing: Forcing, state) -> float:
    """Max-norm of the vector field at a candidate steady state."""
    return _residual(make_rhs(params, forcing), as_state(state).tolist())[1]


def _residual(rhs, u) -> tuple[np.ndarray, float]:
    """The field ``rhs`` at time 0 and state u, three floats, and its max-norm."""
    f = np.array(rhs(0.0, *u))
    return f, float(np.max(np.abs(f)))


def disease_free(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Infection-free equilibrium (L/mu1, 0, 0)."""
    lam = constant_rate(forcing, "equilibria")
    state = (lam / params.mu1, 0.0, 0.0)
    return EquilibriumReport(
        kind="disease_free",
        state=state,
        residual_norm=residual_norm(params, forcing, state),
    )


def certified(params: Parameters, forcing: Forcing, report: EquilibriumReport) -> bool:
    """Whether the residual of ``report`` is at most 8 ulps of the field's
    largest term at its state, max(lam, loss_y*y, prod_eff*y): at an
    equilibrium the terms balance, so these are the largest. The rule is
    exact under power-of-two population scaling."""
    y = report.state[1]
    largest = max(constant_rate(forcing, "equilibria"), params.loss_y * y, params.prod_eff * y)
    return report.residual_norm <= 8.0 * math.ulp(largest)


def endemic(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Persistent-infection equilibrium by steady-state elimination.

    Infeasibility (y_bar <= 0, including the boundary tie where the state
    collapses onto the infection-free one) is a reported outcome, not an
    error. ``feasible`` is the exact sign of y_bar on the float rates,
    beta_eff*prod_eff*lam > mu1*mu3*loss_y (r0_ngm > 1); the float y_bar can
    be 0 or negative within rounding of the threshold. Feasible states are
    Newton-polished; ``certified`` judges them.
    """
    lam = constant_rate(forcing, "equilibria")
    rhs = make_rhs(params, forcing)
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff

    x_bar = params.mu3 * params.loss_y / (beta_eff * prod_eff)
    y_bar = (lam - params.mu1 * x_bar) / params.mu2
    z_bar = prod_eff * y_bar / params.mu3
    state = as_state((x_bar, y_bar, z_bar))
    feasible = _exceeds((beta_eff, prod_eff, lam), (params.mu1, params.mu3, params.loss_y))

    # polish a feasible state only; the elimination is accurate to rounding, so tol 0 stalls there
    state, res, _ = _damped_newton(rhs, params, state, 0.0, 25 if feasible else 0)

    alt_x = params.mu1 * params.mu3 * (params.mu2 + params.p) / (params.q * params.beta * params.mu2 * (1.0 - params.eta) * (1.0 - params.epsilon))
    alt_y = lam / params.mu2 - alt_x
    alt_z = params.q * lam * (1.0 - params.epsilon) / (params.mu2 * params.mu3) - params.mu1 * (params.mu2 + params.p) / (params.beta * params.mu2 * (1.0 - params.eta))
    alt_state = (alt_x, alt_y, alt_z)

    return EquilibriumReport(
        kind="endemic",
        state=tuple(float(v) for v in state),
        residual_norm=res,
        feasible=feasible,
        alt_state=alt_state,
        alt_residual=_residual(rhs, as_state(alt_state).tolist())[1],
    )


def _exceeds(lhs: tuple[float, ...], rhs: tuple[float, ...]) -> bool:
    """Whether the exact product of the floats ``lhs`` exceeds that of ``rhs``,
    in integers: a/b > c/d with b, d > 0 is a*d > c*b."""
    a = b = c = d = 1
    for v in lhs:
        n, m = v.as_integer_ratio()
        a, b = a * n, b * m
    for v in rhs:
        n, m = v.as_integer_ratio()
        c, d = c * n, d * m
    return a * d > c * b


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

    u, res, singular = _damped_newton(make_rhs(params, forcing), params, as_state(guess), tol, max_iter)
    if singular:
        raise SingularJacobianError(f"singular Jacobian at {tuple(u)}")
    if res <= tol:
        return u
    raise NoConvergenceError(f"residual {res:.3e} above tol {tol:.3e} after {max_iter} iterations")


def _damped_newton(rhs, params, u, tol: float, max_iter: int):
    """The iteration of ``newton_refine`` on the field ``rhs``, one call per
    point: (state, residual, singular), stopped at a residual <= tol, a step
    that no halving improves, a singular Jacobian (singular=True) or max_iter
    steps. A non-finite candidate counts as no improvement."""
    f, res = _residual(rhs, u.tolist())
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(params, u), -f)
        except np.linalg.LinAlgError:
            return u, res, True
        for k in range(21):  # step scales 1, 1/2, ..., 2**-20
            candidate = u + 0.5**k * step
            f_cand, res_cand = _residual(rhs, candidate.tolist())
            if res_cand < res:
                u, f, res = candidate, f_cand, res_cand
                break
        else:
            break
    return u, res, False
