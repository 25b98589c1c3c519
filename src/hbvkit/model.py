"""Within-host HBV infection model with antiviral treatment.

The state is u = (x, y, z): uninfected target cells, infected cells and
free virions. The dynamics are

    dx/dt = L(t) - mu1*x - (1-eta)*beta*x*z + q*y
    dy/dt = (1-eta)*beta*x*z - mu2*y - q*y
    dz/dt = (1-epsilon)*p*y - mu3*z

where L(t) is the production rate of uninfected cells. L is constant in
the autonomous case and a bounded positive function of time otherwise;
both cases share one vector field through the forcing objects below.

Everything in this module is a pure function of immutable inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Parameters",
    "ConstantForcing",
    "SinusoidForcing",
    "PiecewiseLinearForcing",
    "Forcing",
    "BoundsReport",
    "OutOfDomainError",
    "UnsupportedForcingError",
    "constant_rate",
    "vector_field",
    "jacobian",
    "analytic_bounds",
    "as_state",
]


class OutOfDomainError(ValueError):
    """Evaluation time outside a tabulated forcing's knot range."""


class UnsupportedForcingError(ValueError):
    """An analysis that needs a constant production rate got a time-varying one."""


@dataclass(frozen=True)
class Parameters:
    """Rate constants of the infection model.

    mu1, mu2, mu3 are the loss rates of uninfected cells, infected cells
    and free virions; beta is the infection rate per cell-virion pair;
    eta and epsilon are treatment fractions in [0, 1); p is the virion
    production rate per infected cell; q is the spontaneous cure rate.
    """

    mu1: float
    mu2: float
    mu3: float
    beta: float
    eta: float
    epsilon: float
    p: float
    q: float

    # the treatment fractions; every other field is a rate
    FRACTIONS = ("eta", "epsilon")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self.FRACTIONS:
                if not (0.0 <= value < 1.0):
                    raise ValueError(f"{f.name} must lie in [0, 1), got {value!r}")
            elif not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{f.name} must be a finite positive number, got {value!r}")

    @property
    def beta_eff(self) -> float:
        """Infection rate under treatment, (1-eta)*beta."""
        return (1.0 - self.eta) * self.beta

    @property
    def prod_eff(self) -> float:
        """Virion production rate under treatment, (1-epsilon)*p."""
        return (1.0 - self.epsilon) * self.p


@dataclass(frozen=True)
class ConstantForcing:
    """Constant production rate; the autonomous special case."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"production rate must be finite and positive, got {self.value!r}")

    is_constant = True

    @property
    def lambda_max(self) -> float:
        return self.value

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.value, self.value)

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class SinusoidForcing:
    """offset + amplitude*cos(omega*t + phase), bounded within offset +- |amplitude|."""

    amplitude: float
    omega: float
    phase: float
    offset: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase, self.offset))):
            raise ValueError("sinusoid coefficients must be finite")
        if self.offset - abs(self.amplitude) <= 0.0:
            raise ValueError("sinusoid forcing must stay strictly positive")

    is_constant = False

    @property
    def lambda_max(self) -> float:
        return self.offset + abs(self.amplitude)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.offset - abs(self.amplitude), self.lambda_max)

    def __call__(self, t: float) -> float:
        return self.offset + self.amplitude * math.cos(self.omega * t + self.phase)


@dataclass(frozen=True)
class PiecewiseLinearForcing:
    """Linear interpolation through (time, rate) knots; defined only on the knot range."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) < 2 or len(times) != len(values):
            raise ValueError("need at least two (time, value) knots of equal length")
        if not all(map(math.isfinite, times)):
            raise ValueError("knot times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        # an overflowing knot spacing would give a zero slope times an infinite offset
        if not math.isfinite(times[-1] - times[0]):
            raise ValueError("knot times must span a finite range")
        if min(values) <= 0.0 or not all(map(math.isfinite, values)):
            raise ValueError("knot values must be finite and strictly positive")

    is_constant = False

    @property
    def lambda_max(self) -> float:
        return max(self.values)

    @property
    def bounds(self) -> tuple[float, float]:
        return (min(self.values), self.lambda_max)

    def __call__(self, t: float) -> float:
        return _interp(t, self.times, self.values)


def _interp(t: float, times: tuple[float, ...], values: tuple[float, ...]) -> float:
    """Linear interpolation at t through the knots (times, values).

    A knot hit returns the knot value; elsewhere the expression and its order
    of operations are np.interp's, so the result has the same bits. A t
    outside the knot range, NaN included, raises OutOfDomainError.
    """
    if not (times[0] <= t <= times[-1]):
        raise OutOfDomainError(f"t={t!r} outside the tabulated range [{times[0]}, {times[-1]}]")
    j = bisect_right(times, t) - 1
    x0, y0 = times[j], values[j]
    if t == x0:
        return y0
    return (values[j + 1] - y0) / (times[j + 1] - x0) * (t - x0) + y0


Forcing = ConstantForcing | SinusoidForcing | PiecewiseLinearForcing


def constant_rate(forcing: Forcing, analysis: str) -> float:
    """The production rate of a constant forcing; ``analysis`` names what needs it."""
    if not forcing.is_constant:
        raise UnsupportedForcingError(f"{analysis}: defined only for a constant production rate")
    return forcing.value


def as_state(u, require_nonnegative: bool = False) -> np.ndarray:
    """Coerce to a finite (3,) float array, optionally rejecting negative parts."""
    arr = np.asarray(u, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"state must have exactly three components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"state must be finite, got {arr!r}")
    if require_nonnegative and np.any(arr < 0.0):
        raise ValueError(f"state must be componentwise nonnegative, got {arr!r}")
    return arr


def make_rhs(params: Parameters, forcing: Forcing):
    """Return a scalar-argument rhs(t, x, y, z) -> (dx, dy, dz) closure.

    The closure operates on plain floats, which keeps the inner loop of the
    integrators cheap; `vector_field` is the array-facing wrapper.
    """
    mu1, mu2, mu3 = params.mu1, params.mu2, params.mu3
    q = params.q
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff
    loss_y = mu2 + q

    if forcing.is_constant:
        lam = forcing.value

        def rhs(t, x, y, z):
            infect = beta_eff * x * z
            return (lam - mu1 * x - infect + q * y, infect - loss_y * y, prod_eff * y - mu3 * z)

    elif isinstance(forcing, PiecewiseLinearForcing):
        times, values = forcing.times, forcing.values

        def rhs(t, x, y, z):
            infect = beta_eff * x * z
            return (
                _interp(t, times, values) - mu1 * x - infect + q * y,
                infect - loss_y * y,
                prod_eff * y - mu3 * z,
            )

    else:
        # SinusoidForcing.__call__ inlined, in its order of operations
        offset, amplitude = forcing.offset, forcing.amplitude
        omega, phase = forcing.omega, forcing.phase
        cos = math.cos

        def rhs(t, x, y, z):
            infect = beta_eff * x * z
            return (
                offset + amplitude * cos(omega * t + phase) - mu1 * x - infect + q * y,
                infect - loss_y * y,
                prod_eff * y - mu3 * z,
            )

    return rhs


def vector_field(params: Parameters, forcing: Forcing, t: float, u) -> np.ndarray:
    """Time derivative of the state at (t, u)."""
    x, y, z = as_state(u)
    return np.array(make_rhs(params, forcing)(t, x, y, z))


def jacobian(params: Parameters, u) -> np.ndarray:
    """Partial derivatives of the vector field with respect to (x, y, z).

    The production forcing enters additively, so the matrix does not
    depend on time or on the forcing.
    """
    x, _, z = as_state(u)
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff
    return np.array(
        [
            [-params.mu1 - beta_eff * z, params.q, -beta_eff * x],
            [beta_eff * z, -(params.mu2 + params.q), beta_eff * x],
            [0.0, prod_eff, -params.mu3],
        ]
    )


@dataclass(frozen=True)
class BoundsReport:
    """A-priori trajectory ceilings implied by the loss rates.

    M bounds x+y for all time; z_ceiling bounds z. When mu2 exceeds the
    effective virion production rate (1-epsilon)*p, the l1 norm x+y+z
    decays toward the absorbing radius l1_ceiling = lambda_max / l1_alpha;
    outside that regime the two l1 fields are None.
    """

    M: float
    z_ceiling: float
    l1_alpha: float | None
    l1_ceiling: float | None


def analytic_bounds(params: Parameters, forcing: Forcing, u0) -> BoundsReport:
    """Ceilings for a trajectory started at u0.

    x+y <= M = max(x0+y0, lambda_max/min(mu1, mu2)) because adding the two
    cell equations eliminates the infection terms, and z then obeys a
    linear equation driven by y <= M.
    """
    x0, y0, z0 = as_state(u0, require_nonnegative=True)
    lam_max = forcing.lambda_max
    m_cap = max(x0 + y0, lam_max / min(params.mu1, params.mu2))
    prod_eff = params.prod_eff
    z_cap = max(z0, prod_eff * m_cap / params.mu3)
    if params.mu2 > prod_eff:
        alpha = min(params.mu1, params.mu2 - prod_eff, params.mu3)
        return BoundsReport(m_cap, z_cap, alpha, lam_max / alpha)
    return BoundsReport(m_cap, z_cap, None, None)
