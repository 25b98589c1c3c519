"""Within-host HBV infection model with antiviral treatment.

The state is u = (x, y, z): uninfected target cells, infected cells and
free virions. The dynamics are

    dx/dt = L(t) - mu1*x - (1-eta)*beta*x*z + q*y
    dy/dt = (1-eta)*beta*x*z - mu2*y - q*y
    dz/dt = (1-epsilon)*p*y - mu3*z

where L(t) is the production rate of uninfected cells. L is constant in
the autonomous case and a bounded positive function of time otherwise;
both cases share one vector field through the forcing objects below.

A state enters through ``as_state``, which reads a sequence of three real
numbers into three Python floats; the vector field and the bounds work on
those floats. ``jacobian`` and ``vector_field`` return numpy arrays.

Everything in this module is a pure function of immutable inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import linecache
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import ClassVar

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

    @property
    def loss_y(self) -> float:
        """Loss rate of infected cells, death plus cure, mu2 + q."""
        return self.mu2 + self.q


class _Rate:
    """What a forcing derives from its ``kind`` and its (lowest, highest) rate ``bounds``."""

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def lambda_max(self) -> float:
        return self.bounds[1]


@dataclass(frozen=True)
class ConstantForcing(_Rate):
    """Constant production rate; the autonomous special case."""

    kind: ClassVar[str] = "constant"
    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"production rate must be finite and positive, got {self.value!r}")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.value, self.value)

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class SinusoidForcing(_Rate):
    """offset + amplitude*cos(omega*t + phase), bounded within offset +- |amplitude|."""

    kind: ClassVar[str] = "sinusoid"
    amplitude: float
    omega: float
    phase: float
    offset: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase, self.offset))):
            raise ValueError("sinusoid coefficients must be finite")
        if self.offset - abs(self.amplitude) <= 0.0:
            raise ValueError("sinusoid forcing must stay strictly positive")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.offset - abs(self.amplitude), self.offset + abs(self.amplitude))

    def __call__(self, t: float) -> float:
        return self.offset + self.amplitude * math.cos(self.omega * t + self.phase)


@dataclass(frozen=True)
class PiecewiseLinearForcing(_Rate):
    """Linear interpolation through (time, rate) knots; defined only on the knot range."""

    kind: ClassVar[str] = "piecewise_linear"
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
        # Segment j is (times[j], its end, values[j], its slope), the division
        # np.interp makes; an attribute, not a field. The last knot is a
        # segment of length zero: a search seats it only for t == times[-1].
        slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(times, times[1:], values, values[1:])]
        object.__setattr__(self, "segments", tuple(zip(times, times[1:] + times[-1:], values, slopes + [0.0])))

    @property
    def bounds(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))

    def __call__(self, t: float) -> float:
        """The rate at t: a knot value at a knot, elsewhere np.interp's
        expression in its order of operations, so the same bits."""
        x0, _, y0, slope = self.segments[_knot_index(t, self.times)]
        return y0 if t == x0 else slope * (t - x0) + y0


def _knot_index(t: float, times: tuple[float, ...]) -> int:
    """The j with times[j] <= t < times[j + 1], or the last index at the last knot.

    A t outside the knot range, NaN included, raises OutOfDomainError.
    """
    if not (times[0] <= t <= times[-1]):
        raise OutOfDomainError(f"t={t!r} outside the tabulated range [{times[0]}, {times[-1]}]")
    return bisect_right(times, t) - 1


Forcing = ConstantForcing | SinusoidForcing | PiecewiseLinearForcing


def constant_rate(forcing: Forcing, analysis: str) -> float:
    """The production rate of a constant forcing; ``analysis`` names what needs it."""
    if not forcing.is_constant:
        raise UnsupportedForcingError(f"{analysis}: defined only for a constant production rate")
    return forcing.value


def quotient(a: float, b: float) -> float:
    """a / b for a >= 0 and b >= 0 as in IEEE arithmetic, where Python raises
    ZeroDivisionError: a product of tiny rates in b can underflow to 0, and
    the quotient is then inf, past every float, or NaN where a underflowed
    to 0 too."""
    return a / b if b else a * math.inf


def as_state(u, require_nonnegative: bool = False) -> tuple[float, float, float]:
    """The state ``u`` as three finite Python floats, optionally rejecting
    negative parts.

    ``u`` is read as ``np.asarray(u, dtype=float)`` reads it: a sequence of
    three real numbers, such as a tuple, a list or a (3,) array. Any other
    shape raises ValueError, as does a part that is not finite (None reads as
    NaN) or, under ``require_nonnegative``, negative. A part that ``float``
    refuses raises its error: TypeError for a complex number.
    """
    if getattr(u, "ndim", 1) != 1 or not _is_sequence(u) or len(u) != 3:
        if not (u is None or hasattr(u, "ndim") or _is_sequence(u)):
            float(u)  # numpy reads a non-sequence as one value: float's error if it is none
        raise ValueError(f"state must have exactly three components, got {u!r}")
    try:
        x, y, z = map(float, u)
    except TypeError:
        # numpy reads None as NaN and a nested sequence as a shape other than (3,)
        if any(v is None or _is_sequence(v) for v in u):
            raise ValueError(f"state must be three finite numbers, got {u!r}") from None
        raise
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"state must be finite, got {(x, y, z)!r}")
    if require_nonnegative and min(x, y, z) < 0.0:
        raise ValueError(f"state must be componentwise nonnegative, got {(x, y, z)!r}")
    return x, y, z


def _is_sequence(v) -> bool:
    """Whether numpy reads ``v`` as an array of its items, not as one value."""
    return hasattr(v, "__getitem__") and not isinstance(v, (str, bytes, dict)) and getattr(v, "ndim", 1) != 0


# The vector field, written once as text: make_rhs compiles its closures from
# it, and the run kernels of hbvkit.integrate write it into their stages.
# {x}, {y}, {z} name the state; the second line's three expressions are dx,
# dy and dz. They read the production rate from the local lam under every
# forcing: only the lines that set lam depend on the forcing kind.
_FIELD = (
    "infect = beta_eff * {x} * {z}",
    "lam - mu1 * {x} - infect + q * {y}, infect - loss_y * {y}, prod_eff * {y} - mu3 * {z}",
)
# The rates the field reads, each a field or property of Parameters.
_RATES = ("mu1", "mu3", "q", "beta_eff", "prod_eff", "loss_y")
# Per forcing kind: the names its production rate reads, each an attribute of
# the forcing; the setup lines, which a run kernel runs once before its first
# stage and a closure at each call; the rate lines, which set lam to the rate
# at time {t}; and the attribute holding the times where the rate has kinks,
# or None. A constant rate sets lam in its setup and writes no rate lines.
_PRODUCTION = {
    "constant": (("value",), ("lam = value",), (), None),
    # SinusoidForcing.__call__, in its order of operations
    "sinusoid": (
        ("offset", "amplitude", "omega", "phase"), (), ("lam = offset + amplitude * cos(omega * {t} + phase)",), None
    ),
    # A stage seats the knot segment (x0, x1, y0, slope) that holds its time
    # ts, searching only when ts has left the segment seated last, so a run
    # searches once per segment it enters; PiecewiseLinearForcing.__call__.
    # A table's slope jumps at its knots, which also bound its domain.
    "piecewise_linear": (
        ("times", "segments"),
        ("x0, x1, y0, slope = segments[0]",),
        (
            "ts = {t}",
            "if not (x0 <= ts < x1): x0, x1, y0, slope = segments[_knot_index(ts, times)]",
            "lam = y0 if ts == x0 else slope * (ts - x0) + y0",
        ),
        "times",
    ),
}
# The functions the field text calls.
FIELD_GLOBALS = {"cos": math.cos, "_knot_index": _knot_index}


def run_stops(forcing: Forcing, t0: float, t_end: float) -> tuple[float, ...]:
    """The times a run from t0 to t_end stops at, in order: the kinks of the
    production rate strictly inside (t0, t_end), then t_end. Only a
    piecewise-linear table has kinks, its knots; any other forcing has the
    single stop t_end. The span must be finite and increasing, or ValueError
    is raised, and a table must cover it: one that starts after t0 or ends
    before t_end raises OutOfDomainError. Both come before any step."""
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise ValueError(f"t_span must be finite and increasing, got [{t0}, {t_end}]")
    kinks = _PRODUCTION[forcing.kind][3]
    if kinks is None:
        return (t_end,)
    times = getattr(forcing, kinks)
    if times[0] > t0:
        raise OutOfDomainError(f"forcing.{kinks} starts at {times[0]}, after the t_span start {t0}")
    if times[-1] < t_end:
        raise OutOfDomainError(f"forcing.{kinks} ends at {times[-1]}, before the t_span end {t_end}")
    return (*(t for t in times if t0 < t < t_end), t_end)


def field_names(kind: str) -> tuple[str, ...]:
    """The names the vector field reads under a forcing kind, in the order of
    the values a ``make_rhs`` closure carries in its ``field`` attribute."""
    return _RATES + _PRODUCTION[kind][0]


def field_setup(kind: str) -> tuple[str, ...]:
    """The lines of the vector field under a forcing kind that run once before
    the stages: once per run in a run kernel, at each call in a ``make_rhs``
    closure. A constant rate sets ``lam`` here."""
    return _PRODUCTION[kind][1]


def rate_lines(kind: str, t: str) -> list[str]:
    """The lines that set ``lam`` to the production rate at time ``t`` under a
    forcing kind; none under a constant rate, which ``field_setup`` sets.
    ``t`` may be an expression: it goes in parentheses, so its value is the
    float a call would be passed."""
    t = t if t.isidentifier() else f"({t})"
    return [s.format(t=t) for s in _PRODUCTION[kind][2]]


def field_lines(x: str, y: str, z: str, out: str) -> list[str]:
    """The vector field's text at state ``x, y, z``, reading the production
    rate from ``lam``: the infection term, then ``out`` (``"return "`` or an
    assignment) followed by dx, dy, dz."""
    infect, derivative = _FIELD
    return [line.format(x=x, y=y, z=z) for line in (infect, out + derivative)]


def compile_function(source: str, filename: str, namespace: dict):
    """The one function that generated ``source`` defines, compiled with
    ``namespace`` as its globals.

    The text goes into ``linecache`` under ``filename`` with mtime None, an
    entry that is kept since there is no file to check it against, so
    tracebacks and ``inspect.getsource`` show the generated lines.
    """
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    defined = {}
    exec(compile(source, filename, "exec"), namespace, defined)
    (function,) = defined.values()
    return function


@cache
def _rhs_factory(kind: str):
    """The factory of a forcing kind's rhs closures, compiled from the field
    text on first use: it takes the values of ``field_names(kind)``."""
    body = [*field_setup(kind), *rate_lines(kind, "t"), *field_lines("x", "y", "z", "return ")]
    source = f"def {kind}_rhs({', '.join(field_names(kind))}):\n    def rhs(t, x, y, z):\n"
    source += "".join(f"        {s}\n" for s in body) + "    return rhs\n"
    return compile_function(source, f"<hbvkit.model.make_rhs[{kind}]>", dict(FIELD_GLOBALS, __name__=__name__))


def make_rhs(params: Parameters, forcing: Forcing):
    """Return a scalar-argument rhs(t, x, y, z) -> (dx, dy, dz) closure.

    The closure operates on plain floats and holds no state between calls,
    so it is safe to call concurrently; `vector_field` is the array-facing
    wrapper. It is compiled from ``_FIELD``, the one written copy of the
    vector field, under the lines of the forcing kind that set ``lam``, the
    production rate at t (its setup lines, then its rate lines). It carries
    ``rhs.field = (forcing.kind, values)``: the values of
    ``field_names(forcing.kind)``, the derived rates computed once.
    The run kernels of ``hbvkit.integrate`` read that attribute to write the
    same field into their stages; any other callable, a wrapper around this
    closure included, is called at every stage.

    For a piecewise-linear table a call searches the knots unless t lies in
    the first segment; the values are those of ``forcing(t)``, bit for bit.
    """
    values = attrgetter(*_RATES)(params)
    values += tuple(getattr(forcing, name) for name in _PRODUCTION[forcing.kind][0])
    rhs = _rhs_factory(forcing.kind)(*values)
    rhs.field = (forcing.kind, values)
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
            [beta_eff * z, -params.loss_y, beta_eff * x],
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
