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

``endemic`` polishes a feasible persistent state with damped Newton steps
on the vector field. The polish is private to ``endemic`` and has no knobs;
the module exports no general solver. Residuals are taken on Python
floats. numpy serves only that polish: its solves and steps take arrays.
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
    "certified",
    "disease_free",
    "endemic",
    "residual_norm",
]


@dataclass(frozen=True)
class EquilibriumReport:
    """An equilibrium candidate and the evidence for it.

    ``residual_norm`` is the max-norm of the vector field at ``state``.
    For the persistent-infection kind, ``feasible`` records whether the
    exact y_bar of the float rates is > 0, and the ``alt_*`` fields carry
    the diagnostic alternative closed form described in the module
    docstring; ``alt_residual`` is NaN where that form is not finite.
    """

    kind: str
    state: tuple[float, float, float]
    residual_norm: float
    feasible: bool | None = None
    alt_state: tuple[float, float, float] | None = None
    alt_residual: float | None = None


def residual_norm(params: Parameters, forcing: Forcing, state) -> float:
    """Max-norm of the vector field at a candidate steady state; NaN if a
    component is NaN."""
    return _residual(make_rhs(params, forcing), as_state(state))[1]


def _residual(rhs, u) -> tuple[tuple[float, float, float], float]:
    """The field ``rhs`` at time 0 and state u, three floats, and its max-norm:
    NaN if a component is NaN, which ``max`` alone keeps only in first place."""
    f = dx, dy, dz = rhs(0.0, *u)
    if dx != dx or dy != dy or dz != dz:
        return f, math.nan
    return f, max(abs(dx), abs(dy), abs(dz))


def disease_free(params: Parameters, forcing: Forcing) -> EquilibriumReport:
    """Infection-free equilibrium (L/mu1, 0, 0). A quotient past the float
    range is inf, reported as it is, with a NaN residual."""
    lam = constant_rate(forcing, "equilibria")
    state = (lam / params.mu1, 0.0, 0.0)
    return EquilibriumReport(
        kind="disease_free",
        state=state,
        residual_norm=_residual(make_rhs(params, forcing), state)[1],
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
    be 0 or negative within rounding of the threshold. A feasible state is
    polished by at most 25 damped Newton steps toward a zero residual; an
    infeasible one, or one past the float range, keeps its elimination
    residual. ``certified`` judges either. A quotient whose divisor, a
    product of tiny rates, underflows to 0 is inf, and one that overflows is
    inf too: such a state or closed form lies past the float range, and is
    reported as it is.
    """
    lam = constant_rate(forcing, "equilibria")
    rhs = make_rhs(params, forcing)
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff

    x_bar = _quotient(params.mu3 * params.loss_y, beta_eff * prod_eff)
    y_bar = (lam - params.mu1 * x_bar) / params.mu2
    z_bar = prod_eff * y_bar / params.mu3
    state = (x_bar, y_bar, z_bar)
    feasible = _exceeds((beta_eff, prod_eff, lam), (params.mu1, params.mu3, params.loss_y))

    # the elimination is accurate to rounding, so the polish stalls there; a
    # state past the float range has no Jacobian and keeps its NaN residual
    polish = feasible and all(map(math.isfinite, state))
    state, res = _polish(rhs, params, state) if polish else (state, _residual(rhs, state)[1])

    alt_x = _quotient(params.mu1 * params.mu3 * (params.mu2 + params.p), params.q * params.beta * params.mu2 * (1.0 - params.eta) * (1.0 - params.epsilon))
    alt_y = lam / params.mu2 - alt_x
    alt_z = params.q * lam * (1.0 - params.epsilon) / (params.mu2 * params.mu3) - _quotient(params.mu1 * (params.mu2 + params.p), params.beta * params.mu2 * (1.0 - params.eta))
    alt_state = (alt_x, alt_y, alt_z)

    return EquilibriumReport(
        kind="endemic",
        state=state,
        residual_norm=res,
        feasible=feasible,
        alt_state=alt_state,
        # on the raw floats: the closed form can overflow, and it is only a diagnostic
        alt_residual=_residual(rhs, alt_state)[1] if all(map(math.isfinite, alt_state)) else math.nan,
    )


def _quotient(a: float, b: float) -> float:
    """a / b for a > 0 and b >= 0: a product of tiny rates in b can underflow
    to 0, and the quotient is then past every float, inf as in IEEE
    arithmetic, where Python raises ZeroDivisionError."""
    return a / b if b else math.inf


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


def _polish(rhs, params, u):
    """Damped Newton steps on the field ``rhs`` from the float triple u, one
    call per point: (state triple, residual). Each step takes the first of the
    scales 1, 1/2, ..., 2**-20 that strictly lowers the residual; a
    non-finite candidate counts as no improvement. A residual of 0, a step
    that no halving improves, a singular Jacobian or 25 steps end it. Only the
    solve and the steps take arrays."""
    f, res = _residual(rhs, u)
    for _ in range(25):
        if res == 0.0:
            break
        try:
            step = np.linalg.solve(jacobian(params, u), -np.array(f))
        except np.linalg.LinAlgError:
            break
        start = np.array(u)
        for k in range(21):  # step scales 1, 1/2, ..., 2**-20
            candidate = tuple((start + 0.5**k * step).tolist())
            f_cand, res_cand = _residual(rhs, candidate)
            if res_cand < res:
                u, f, res = candidate, f_cand, res_cand
                break
        else:
            break
    return u, res
