"""Stability diagnostics: eigenvalues, reproduction numbers, margins, fits.

Every inequality condition this module evaluates is reported as an
explicit numeric margin (lhs - rhs) rather than a bare boolean, so a
failed condition shows by how much it failed. Three reproduction-number
variants coexist because two inconsistent closed forms circulate for this
model; the next-generation-matrix value is the one that matches the sign
of the dominant eigenvalue at the infection-free state, so thresholds use
it and the other two are kept as diagnostics.

A stability class has one rule at every state, ``_classify``: exact
Routh-Hurwitz signs of the Jacobian's cubic, roots on the imaginary axis
included. The float eigenvalues are reported rates and decide no class.
They are the cubic's closed-form roots after a Newton polish; where the
polished roots miss the cubic's constant term, |lam1 lam2 lam3 + c0| >
1e-9 |c0|, the dominant real root is divided out and the quadratic left
gives the other two. Both read the Jacobian's entries as Python floats; the
eigenvalues have the bits the same algebra gives on np.float64 entries.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .integrate import Trajectory
from .model import Forcing, Parameters, as_state, constant_rate, jacobian, quotient

__all__ = [
    "R0Variants",
    "ConditionLine",
    "ConditionMargins",
    "LyapunovTrace",
    "ContractionFit",
    "StabilityReport",
    "characteristic_coefficients",
    "eigenvalues_3x3",
    "routh_hurwitz_stable",
    "r0_all",
    "condition_margins",
    "lyapunov_fit",
    "contraction_fit",
    "stability_report",
    "CONDITION_SETS",
]

CONDITION_SETS = ("equilibrium", "dfe", "endemic", "nonauto")


# {{{ eigenvalues of a 3x3 via its characteristic cubic


def characteristic_coefficients(J) -> tuple[float, float, float]:
    """(c2, c1, c0) of det(J - lam I) = -(lam^3 + c2 lam^2 + c1 lam + c0)."""
    return _coefficients(*_entries(J))


def _entries(J) -> list[float]:
    """The entries of J in row order, nine Python floats, so the cubic's
    algebra runs on floats."""
    J = np.asarray(J, dtype=float)
    entries = J.ravel().tolist()
    if J.shape != (3, 3) or not all(map(math.isfinite, entries)):
        raise ValueError("need a finite 3x3 matrix")
    return entries


def _coefficients(a, b, c, d, e, f, g, h, i):
    c2 = -(a + e + i)
    c1 = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return c2, c1, -det


def _cubic_roots(c2: float, c1: float, c0: float) -> tuple[complex, complex, complex]:
    """Roots of lam^3 + c2 lam^2 + c1 lam + c0 = 0.

    Depressed-cubic form with the trigonometric branch for three real
    roots and a cancellation-free Cardano branch otherwise; roots are
    scaled to O(1) first so the branches stay well conditioned.
    """
    scale = max(abs(c2), math.sqrt(abs(c1)), abs(c0) ** (1.0 / 3.0))
    if scale == 0.0:
        return (0j, 0j, 0j)
    a = c2 / scale
    b = c1 / (scale * scale)
    c = c0 / (scale * scale * scale)

    shift = a / 3.0
    p = b - a * a / 3.0
    q = c - a * b / 3.0 + 2.0 * a**3 / 27.0
    disc = 0.25 * q * q + p**3 / 27.0

    if disc > 0.0:
        # one real root plus a conjugate pair
        sq = math.sqrt(disc)
        u_cubed = -0.5 * q - math.copysign(sq, q)
        u = math.copysign(abs(u_cubed) ** (1.0 / 3.0), u_cubed)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        t1 = u + v
        imag = 0.5 * math.sqrt(max(0.0, 3.0 * t1 * t1 + 4.0 * p))
        roots = (complex(t1, 0.0), complex(-0.5 * t1, imag), complex(-0.5 * t1, -imag))
    elif p == 0.0:
        roots = (0j, 0j, 0j)  # triple root of the depressed cubic
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        cos_arg = 3.0 * q / (p * m)
        phi = math.acos(min(1.0, max(-1.0, cos_arg)))
        roots = tuple(
            complex(m * math.cos((phi - 2.0 * math.pi * k) / 3.0), 0.0) for k in range(3)
        )
    return tuple((r - shift) * scale for r in roots)


def _polish_root(lam: complex, c2: float, c1: float, c0: float) -> complex:
    """A couple of Newton steps on the cubic to push the residual to rounding.
    A step that raises |p(lam)| more than 16-fold is not taken and ends the
    polish: near a multiple root the derivative is almost 0, and the step
    jumps far off."""
    val = ((lam + c2) * lam + c1) * lam + c0
    for _ in range(2):
        der = (3.0 * lam + 2.0 * c2) * lam + c1
        if der == 0:
            break
        step = val / der
        if not (cmath.isfinite(step)):
            break
        new = lam - step
        new_val = ((new + c2) * new + c1) * new + c0
        if abs(new_val) > 16.0 * abs(val):
            break
        lam, val = new, new_val
    return lam


def _deflated(roots, c1: float, c0: float):
    """The dominant real root r1 of ``roots``, and the roots of
    lam^2 + B lam + C, the cubic divided by (lam - r1), for the other two.

    C = -c0/r1 and B = (C - c1)/r1; the form c2 + r1 of B cancels when r1 is
    the dominant root. The quadratic is solved by the cancellation-free
    formula (Kahan, "To solve a real cubic equation", 1986).
    """
    r1 = max((lam.real for lam in roots if lam.imag == 0.0), key=abs)
    if r1 == 0.0:  # every real root is 0: there is nothing to divide by
        return roots
    C = -c0 / r1
    B = (C - c1) / r1
    disc = B * B - 4.0 * C
    if disc < 0.0:
        re, im = -0.5 * B, 0.5 * math.sqrt(-disc)
        return [complex(r1, 0.0), complex(re, im), complex(re, -im)]
    big = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return [complex(r1, 0.0), complex(big, 0.0), complex(C / big if big else 0.0, 0.0)]


def eigenvalues_3x3(J) -> tuple[complex, complex, complex]:
    """Eigenvalues as roots of the characteristic cubic, sorted by real part
    (descending). Complex eigenvalues come in exact conjugate pairs.

    One deflation rule: polished roots that miss the cubic's constant term,
    |lam1 lam2 lam3 + c0| > 1e-9 |c0|, were too coarse (on a stiff matrix the
    small roots merge at the scale of the large one), and the dominant real
    root is divided out; the quadratic left gives the other two. A NaN
    product decides nothing, and the polished roots stand.
    """
    c2, c1, c0 = characteristic_coefficients(J)
    polished = []
    for r in _cubic_roots(c2, c1, c0):
        # polish the upper-half-plane copy: conjugates stay exact, reals real
        pr = _polish_root(complex(r.real, abs(r.imag)), c2, c1, c0)
        polished.append(pr if r.imag > 0 else pr.conjugate() if r.imag < 0 else complex(pr.real, 0.0))
    if abs(polished[0] * polished[1] * polished[2] + c0) > 1e-9 * abs(c0):
        polished = _deflated(polished, c1, c0)
    polished.sort(key=lambda lam: (-lam.real, lam.imag))
    return tuple(polished)


def routh_hurwitz_stable(J) -> bool:
    """All roots of the characteristic cubic in the open left half plane,
    c2 > 0, c0 > 0 and c2*c1 > c0: the "stable" case of ``_classify``."""
    return _classify(J) == "stable"


def _classify(J) -> str:
    """The class of J, "stable", "marginal" or "unstable": where the roots
    of lam^3 + c2 lam^2 + c1 lam + c0 lie, decided exactly on the entries of
    J times their largest denominator, a power of two: integers, with c2, c1
    and c0 scaled by its first, second and third power.

    Routh-Hurwitz: all roots lie in the open left half plane iff c2 > 0,
    c0 > 0 and c2*c1 > c0. A root lies on the imaginary axis iff c0 = 0
    (a root 0, the others those of lam^2 + c2 lam + c1) or c1 > 0 and
    c2*c1 = c0 (roots -c2 and +-i sqrt(c1)). "marginal" is such a root with
    none to its right; every other matrix has a root to the right.
    """
    ratios = [v.as_integer_ratio() for v in _entries(J)]
    scale = max(m for _, m in ratios)
    c2, c1, c0 = _coefficients(*(n * (scale // m) for n, m in ratios))
    if c2 > 0 and c0 > 0 and c2 * c1 > c0:
        return "stable"
    if c0 == 0:
        return "marginal" if c2 >= 0 and c1 >= 0 else "unstable"
    if c1 > 0 and c2 * c1 == c0:
        return "marginal" if c2 > 0 else "unstable"
    return "unstable"


# }}}


# {{{ reproduction numbers


@dataclass(frozen=True)
class R0Variants:
    """Three reproduction-number closed forms.

    ``simple`` omits the virion production/clearance cascade entirely;
    ``alt`` is an alternative form with a different turnover
    normalization; ``ngm`` is the spectral radius of the next-generation
    matrix on the infected compartments (y, z) and is the only one whose
    unit threshold matches the eigenvalue sign at the infection-free
    state. Threshold logic should use ``ngm``.
    """

    simple: float
    alt: float
    ngm: float


def r0_all(params: Parameters, forcing: Forcing) -> R0Variants:
    """Evaluate all three reproduction-number variants at a constant rate."""
    lam = constant_rate(forcing, "reproduction numbers")
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff
    # a divisor that is a product of tiny rates can underflow to 0: the
    # quotient is then inf (model.quotient); simple divides by single rates
    simple = beta_eff * (lam / params.mu1) / params.loss_y
    alt = quotient(
        lam * params.beta * params.p * (1.0 - params.epsilon) * (1.0 - params.eta),
        params.mu1 * params.mu2 * (params.mu1 + prod_eff),
    )
    ngm = quotient(beta_eff * prod_eff * lam, params.mu1 * params.mu3 * params.loss_y)
    return R0Variants(simple=simple, alt=alt, ngm=ngm)


# }}}


# {{{ condition margins


@dataclass(frozen=True)
class ConditionLine:
    label: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class ConditionMargins:
    """Every inequality of one condition set, evaluated verbatim.

    ``aux`` carries the intermediate certificate quantities (nu1..nu3 and
    their minimum k where applicable) so reports can show them; nothing in
    here is inferred or corrected beyond plain arithmetic.
    """

    condition_set: str
    lines: tuple[ConditionLine, ...]
    all_satisfied: bool
    aux: dict = field(default_factory=dict)


def _line(label: str, lhs: float, rhs: float) -> ConditionLine:
    margin = lhs - rhs
    return ConditionLine(label, lhs, rhs, margin, margin > 0.0)


def condition_margins(
    set_id: str,
    params: Parameters,
    forcing: Forcing,
    equilibrium=None,
    b1: float = 0.0,
) -> ConditionMargins:
    """Evaluate one of the printed exponential-stability condition sets.

    set_id:
      * ``equilibrium``: general-equilibrium set; requires the equilibrium
        state for its z_bar.
      * ``dfe``: the same set specialized to z_bar = 0.
      * ``endemic``: the polynomial form specialized to the
        persistent-infection state.
      * ``nonauto``: time-varying production; uses lambda_max and an upper
        bound b1 on the comparison trajectory's virion count (0 is the
        conservative default since z >= 0 always).

    ``b1`` must be finite and >= 0, as a bound on z >= 0; the other sets
    do not read it.

    The y-damping display line uses 2*mu2 + q while the nu2 certificate in
    ``aux`` uses mu2 + q; both are evaluated as they stand, the mismatch is
    surfaced rather than resolved.
    """
    if set_id not in CONDITION_SETS:
        raise ValueError(f"unknown condition set {set_id!r}; expected one of {CONDITION_SETS}")
    if not (math.isfinite(b1) and b1 >= 0.0):
        raise ValueError(f"b1 must be finite and nonnegative, got {b1}")

    mu1, mu2, mu3, q = params.mu1, params.mu2, params.mu3, params.q
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff
    mu_star = min(mu1, mu2)

    if set_id == "nonauto":
        lam = forcing.lambda_max
    else:
        lam = constant_rate(forcing, f"condition set {set_id!r}")
    load = beta_eff * lam / mu_star  # (1-eta)*beta*Lambda/mu*
    aux = {"mu_star": mu_star, "lambda": lam}

    z_line = _line("z-damping", 2.0 * mu3, prod_eff + load)

    if set_id == "endemic":
        lines = (
            _line(
                "x-damping",
                mu1 * mu2 * mu3 + (1.0 - params.epsilon) * (1.0 - params.eta) * lam * params.beta * q,
                (1.0 - params.eta) * lam * params.beta * mu2 * mu3 / mu_star
                + q * mu2 * mu3
                + params.p * mu1 * mu3,
            ),
            _line(
                "y-damping",
                2.0 * mu2 * mu2 + mu1 * mu2 + params.p * mu1 + q,
                (1.0 - params.eta) * (1.0 - params.epsilon) * params.beta * lam * q / mu3 + load,
            ),
            z_line,
        )
    else:  # one set under a bound on z: 0 at the DFE, z_bar of the state, or b1
        if set_id == "nonauto":
            key, bound = "b1", b1
        elif set_id == "dfe":
            key, bound = "z_bar", 0.0
        elif equilibrium is None:
            raise ValueError("the 'equilibrium' set needs the equilibrium state for z_bar")
        else:
            key, bound = "z_bar", as_state(equilibrium)[2]
        # nonauto's y-load as printed, which rounds unlike beta_eff * b1 + load
        y_load = beta_eff * (b1 + lam / mu_star) if set_id == "nonauto" else beta_eff * bound + load
        lines = (
            _line("x-damping", 2.0 * mu1 + beta_eff * bound, load + q),
            _line("y-damping", 2.0 * mu2 + q, y_load + prod_eff),
            z_line,
        )
        nu1 = 2.0 * mu1 + beta_eff * bound - load - q
        nu2 = params.loss_y - beta_eff * bound - load - prod_eff
        nu3 = 2.0 * mu3 - prod_eff - load
        aux.update({key: bound}, nu1=nu1, nu2=nu2, nu3=nu3, k=min(nu1, nu2, nu3))

    return ConditionMargins(
        condition_set=set_id,
        lines=lines,
        all_satisfied=all(line.satisfied for line in lines),
        aux=aux,
    )


# }}}


# {{{ decay fits


@dataclass(frozen=True)
class LyapunovTrace:
    """Squared distance to a reference state along a trajectory.

    ``rate`` is the least-squares decay rate of log V over the
    post-transient half of the run; ``fit_quality`` is the coefficient of
    determination of that fit.
    """

    times: np.ndarray
    values: np.ndarray
    rate: float
    fit_quality: float
    degenerate: bool


@dataclass(frozen=True)
class ContractionFit:
    """Empirical (K, alpha) for squared inter-trajectory distance decay.

    When not degenerate, D(t) <= K * exp(-alpha*(t-t0)) * D(0) holds at
    every sample time by construction of K.
    """

    K: float
    alpha: float
    fit_quality: float
    degenerate: bool


def _fit_log_decay(times, values):
    """Least-squares slope of log(values) over the post-transient second half;
    returns (rate, r_squared) or None."""
    half = len(times) // 2
    times, values = times[half:], values[half:]
    mask = values > 0.0
    if int(mask.sum()) < 2:
        return None
    t = times[mask]
    logv = np.log(values[mask])
    if t[-1] <= t[0]:
        return None
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


def lyapunov_fit(traj: Trajectory, reference) -> LyapunovTrace:
    """Fit the exponential decay of V(t) = |u(t) - reference|^2."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    ref = as_state(reference)
    values = np.sum((traj.states - ref) ** 2, axis=1)
    if float(values.max(initial=0.0)) < 1e-300:
        return LyapunovTrace(traj.times, values, 0.0, 0.0, True)
    fit = _fit_log_decay(traj.times, values)
    if fit is None:
        return LyapunovTrace(traj.times, values, 0.0, 0.0, True)
    rate, r2 = fit
    return LyapunovTrace(traj.times, values, rate, r2, False)


def _common_grid(traj1: Trajectory, traj2: Trajectory):
    """traj1's times inside the overlap, with both states there: traj2's
    resampled by one ``sample`` call unless the two grids are the same."""
    t1, t2 = traj1.time_list, traj2.time_list
    if t1 == t2:
        return traj1.times, traj1.states, traj2.states
    lo = max(t1[0], t2[0])
    hi = min(t1[-1], t2[-1])
    if hi <= lo:
        raise ValueError("trajectories do not overlap in time")
    # the times are increasing, so the overlap is one slice
    keep = slice(bisect_left(t1, lo), bisect_right(t1, hi))
    times = t1[keep]
    if len(times) < 4:
        raise ValueError("too few overlapping samples to compare trajectories")
    return np.array(times), np.array(traj1.state_list[keep]), traj2.sample(times)


def contraction_fit(traj1: Trajectory, traj2: Trajectory) -> ContractionFit:
    """Fit K and alpha from two runs of the same system.

    The trajectories must come from identical parameters and forcing;
    differing time grids are reconciled by Hermite resampling onto the
    overlap. A vanishing initial separation (< 1e-14) is degenerate.
    """
    if traj1.params != traj2.params or traj1.forcing != traj2.forcing:
        raise ValueError("trajectories come from different scenarios")
    times, s1, s2 = _common_grid(traj1, traj2)
    dist_sq = np.sum((s1 - s2) ** 2, axis=1)
    d0 = dist_sq[0]
    if math.sqrt(d0) < 1e-14:
        return ContractionFit(0.0, 0.0, 0.0, True)
    fit = _fit_log_decay(times, dist_sq)
    if fit is None:
        return ContractionFit(0.0, 0.0, 0.0, True)
    alpha, r2 = fit
    # smallest K making the bound hold at every sample
    growth = dist_sq / d0 * np.exp(alpha * (times - times[0]))
    return ContractionFit(float(growth.max()), alpha, r2, False)


# }}}


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalue analysis at a state plus reproduction numbers and margins.
    ``classification`` is exact; ``eigenvalues`` and ``max_real_part`` are
    the float rates."""

    eigenvalues: tuple[complex, complex, complex]
    max_real_part: float
    classification: str
    r0: R0Variants
    margins: tuple[ConditionMargins, ...]


def stability_report(
    params: Parameters,
    forcing: Forcing,
    state,
    margin_sets: tuple[str, ...] = (),
) -> StabilityReport:
    """Assemble the full local-stability picture at a state; the class is
    ``_classify`` on the Jacobian there."""
    J = jacobian(params, state)
    eigs = eigenvalues_3x3(J)
    margins = tuple(
        condition_margins(set_id, params, forcing, equilibrium=state) for set_id in margin_sets
    )
    return StabilityReport(
        eigenvalues=eigs,
        max_real_part=max(lam.real for lam in eigs),
        classification=_classify(J),
        r0=r0_all(params, forcing),
        margins=margins,
    )
