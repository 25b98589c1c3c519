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

import itertools
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
    "disease_free",
    "endemic",
    "newton_refine",
    "residual_norm",
]


# The max-norm residual that certifies a feasible persistent-infection state.
ENDEMIC_RESIDUAL_CAP = 1e-10


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


def endemic(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Persistent-infection equilibrium by steady-state elimination.

    Infeasibility (y_bar <= 0, including the boundary tie where the state
    collapses onto the infection-free one) is a reported outcome, not an
    error. Feasible states are Newton-polished before certification; one
    whose residual stays above ``ENDEMIC_RESIDUAL_CAP`` then moves ulp by ulp
    to the neighbouring float state of least residual.
    """
    lam = constant_rate(forcing, "equilibria")
    rhs = make_rhs(params, forcing)
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff

    x_bar = params.mu3 * params.loss_y / (beta_eff * prod_eff)
    y_bar = (lam - params.mu1 * x_bar) / params.mu2
    z_bar = prod_eff * y_bar / params.mu3
    state = as_state((x_bar, y_bar, z_bar))
    feasible = bool(y_bar > 0.0)

    # polish a feasible state only; the elimination is accurate to rounding, so tol 0 stalls there
    state, res, _ = _damped_newton(rhs, params, state, 0.0, 25 if feasible else 0)
    if feasible and res > ENDEMIC_RESIDUAL_CAP:
        # Newton stalls where one ulp of the field's largest terms exceeds the
        # cap (states of 1e5 and more), while a neighbouring float may meet it.
        state, res = _ulp_descent(rhs, state, res)

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


def _ulp_descent(rhs, u, res: float, max_moves: int = 64):
    """Move u by one ulp or none per component to its neighbour of least
    residual while that is below ``res``: (state, residual)."""
    for _ in range(max_moves):
        neighbours = (
            [c if d == 0 else math.nextafter(c, d * math.inf) for c, d in zip(u, dirs)]
            for dirs in itertools.product((-1, 0, 1), repeat=3)
        )
        best_res, best = min((_residual(rhs, v)[1], tuple(v)) for v in neighbours)
        if not best_res < res:
            break
        res, u = best_res, np.array(best)
    return u, res


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
