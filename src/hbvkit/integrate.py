"""Explicit Runge-Kutta integration with runtime monitors.

Two stepping modes: classical fixed-step RK4 and an adaptive embedded
Dormand-Prince 5(4) pair with PI step-size control. After every accepted
step the new point is checked against a set of monitors:

* ``nonfinite`` / ``blow_up``: terminate with a partial trajectory; the
  offending state is kept as the final record so the failure is data,
  not an exception.
* ``positivity_violation`` / ``bound_violation``: recorded (once per
  component) and integration continues. Negative excursions are never
  clamped; positivity is a property of the model, so a violation beyond
  tolerance signals integrator error and must stay visible.
* ``step_floor``: the adaptive controller could not keep the error within
  tolerance above ``h_min``, or a fixed step ``h`` is too small to advance
  the time at all (``t + h`` rounds back to ``t``); terminates.
* ``step_budget``: ``max_steps`` steps were attempted before ``t_end``;
  terminates.

Most points fire no monitor. The stepping loops test each new point
inline against ``lo <= c <= hi`` for c = x, y, z, ``x + y`` and ``z``
below their ceilings (``_Recorder.quiet``), where hi is
``blow_up_threshold`` and lo the larger of ``-positivity_tol`` and
``-blow_up_threshold``. A point that passes is appended to the recorder's
lists with no call; any other goes through ``_Recorder.push``, which
records its events.

A trajectory records only the accepted times and states. Dense output
between them uses cubic Hermite interpolation, whose node slopes are the
vector field at the accepted points: they are computed once, on the first
``sample``, and are the same floats the step already evaluated there.

The Dormand-Prince step is written out as scalar float expressions. Each
stage and error sum adds its tableau row left to right, zero coefficients
included, and the error norm adds x, y, z in that order. Run files are
compared byte for byte, so they depend on this order: regrouping a sum
changes the last bits of the trajectory. The stages call the rhs closure
from ``make_rhs`` rather than inlining the vector field, so a wrapper
around ``make_rhs`` sees every evaluation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .model import BoundsReport, Forcing, Parameters, analytic_bounds, as_state, make_rhs

__all__ = [
    "StepControl",
    "FixedStep",
    "AdaptiveStep",
    "MonitorEvent",
    "Trajectory",
    "integrate",
    "richardson_order",
    "TERMINAL_EVENT_KINDS",
]

# Slack factors applied to the analytic ceilings before flagging a violation.
BOUND_XY_SLACK = 1e-6
BOUND_Z_SLACK = 1e-3

TERMINAL_EVENT_KINDS = frozenset({"blow_up", "nonfinite", "step_floor", "step_budget"})

# Trajectory.to_csv formats and writes this many rows at a time.
_CSV_BLOCK = 256
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g\n"

# Dormand-Prince 5(4) tableau. Row 7 equals the 5th-order weights (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Difference between the 5th- and 4th-order weights; h * sum(E_i k_i) is the
# local error estimate.
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# The same coefficients as scalars for the straight-line step.
_C2, _C3, _C4, _C5, _C6, _C7 = _DP_C[1:]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _DP_A[1:]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E


@dataclass(frozen=True, kw_only=True)
class _Control:
    """Monitor thresholds shared by both stepping modes."""

    blow_up_threshold: float = 1e12
    positivity_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not self.blow_up_threshold > 0.0:
            raise ValueError("blow_up_threshold must be positive")
        if self.positivity_tol < 0.0:
            raise ValueError("positivity_tol must be nonnegative")


@dataclass(frozen=True, kw_only=True)
class FixedStep(_Control):
    """Classical RK4 with step ``h``; the last step is shortened to land on t_end."""

    mode: ClassVar[str] = "fixed"
    h: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        if not self.h > 0.0:
            raise ValueError("fixed step h must be positive")


@dataclass(frozen=True, kw_only=True)
class AdaptiveStep(_Control):
    """Dormand-Prince 5(4) with PI control of the step between h_min and h_max."""

    mode: ClassVar[str] = "adaptive"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need 0 < h_min <= h_init <= h_max")


StepControl = FixedStep | AdaptiveStep


@dataclass(frozen=True)
class MonitorEvent:
    """A monitor firing: which check, when, and the offending value."""

    kind: str
    time: float
    component: str
    value: float

    @property
    def detail(self) -> str:
        return f"{self.kind} at t={self.time:.6g}: {self.component}={self.value:.6g}"


@dataclass
class Trajectory:
    """Accepted integration points and monitor events.

    ``states[i]`` is the state at ``times[i]``. ``derivs[i]``, the vector
    field there, is computed on the first ``sample`` for cubic Hermite
    interpolation and kept. A trajectory is written once by its
    integration and immutable after.
    """

    times: np.ndarray
    states: np.ndarray
    events: tuple[MonitorEvent, ...]
    params: Parameters
    forcing: Forcing
    bounds: BoundsReport
    control: StepControl

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    @property
    def terminated(self) -> bool:
        """True when integration ended on a terminating event (``TERMINAL_EVENT_KINDS``)."""
        return any(e.kind in TERMINAL_EVENT_KINDS for e in self.events)

    @cached_property
    def derivs(self) -> np.ndarray:
        """The vector field at each accepted point, one rhs call per point."""
        rhs = make_rhs(self.params, self.forcing)
        return np.array([
            rhs(t, x, y, z) for t, (x, y, z) in zip(self.times.tolist(), self.states.tolist())
        ])

    def sample(self, t: float) -> np.ndarray:
        """State at time t by cubic Hermite interpolation on the accepted steps."""
        if not (self.times[0] <= t <= self.times[-1]):
            raise ValueError(f"t={t!r} outside trajectory range [{self.times[0]}, {self.times[-1]}]")
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        if i >= len(self.times) - 1:
            return self.states[-1].copy()
        t0, t1 = self.times[i], self.times[i + 1]
        h = t1 - t0
        s = (t - t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (
            h00 * self.states[i]
            + h10 * h * self.derivs[i]
            + h01 * self.states[i + 1]
            + h11 * h * self.derivs[i + 1]
        )

    def to_csv(self, path) -> None:
        """Write `t,x,y,z` rows at full double precision.

        Each block of ``_CSV_BLOCK`` rows becomes Python floats, is formatted
        by one ``%`` operation and is written at once, so memory holds one
        block's floats and text, not the file's. ``%.17g`` gives the same text
        as ``{:.17g}``, ``nan``, ``inf`` and ``-0`` included, so the bytes
        match a per-row f-string writer.
        """
        table = np.column_stack((self.times, self.states))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,y,z\n")
            for start in range(0, len(table), _CSV_BLOCK):
                block = table[start:start + _CSV_BLOCK]
                fh.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))


class _Recorder:
    """Accumulates accepted points and applies the monitors.

    ``quiet_box`` is ``(lo, hi, xy_ceiling, z_ceiling)``, the bounds of
    ``quiet``; NaN and +-inf fail them.
    """

    def __init__(self, ctl: StepControl, bounds: BoundsReport):
        self.bounds = bounds
        self.times: list[float] = []
        self.states: list[tuple[float, float, float]] = []
        self.events: list[MonitorEvent] = []
        self._seen: set[tuple[str, str]] = set()
        self.done = False
        self._blow_up = ctl.blow_up_threshold
        self._negative = -ctl.positivity_tol
        self._xy_ceiling = bounds.M * (1.0 + BOUND_XY_SLACK)
        self._z_ceiling = bounds.z_ceiling * (1.0 + BOUND_Z_SLACK)
        # below -blow_up_threshold is a blow_up even where positivity_tol is larger
        lo = max(self._negative, -self._blow_up)
        self.quiet_box = (lo, self._blow_up, self._xy_ceiling, self._z_ceiling)

    def quiet(self, x: float, y: float, z: float) -> bool:
        """True when ``push`` of (x, y, z) would fire no monitor; the loops inline this."""
        lo, hi, xy_ceiling, z_ceiling = self.quiet_box
        return lo <= x <= hi and lo <= y <= hi and lo <= z <= hi and x + y <= xy_ceiling and z <= z_ceiling

    def _event(self, kind: str, t: float, component: str, value: float) -> None:
        key = (kind, component)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(MonitorEvent(kind, t, component, value))

    def stop(self, kind: str, t: float, component: str, value: float) -> None:
        """Record a terminating event and set ``done``."""
        self.events.append(MonitorEvent(kind, t, component, value))
        self.done = True

    def push(self, t: float, x: float, y: float, z: float) -> None:
        """Record an accepted point; sets ``done`` on a terminating event.

        Checks run component by component in x, y, z order: nonfinite, then
        blow_up (either stops at the first hit), then positivity, then the
        x + y and z ceilings.
        """
        self.times.append(t)
        self.states.append((x, y, z))

        isfinite = math.isfinite
        if not isfinite(x):
            return self.stop("nonfinite", t, "x", x)
        if not isfinite(y):
            return self.stop("nonfinite", t, "y", y)
        if not isfinite(z):
            return self.stop("nonfinite", t, "z", z)
        threshold = self._blow_up
        if abs(x) > threshold:
            return self.stop("blow_up", t, "x", x)
        if abs(y) > threshold:
            return self.stop("blow_up", t, "y", y)
        if abs(z) > threshold:
            return self.stop("blow_up", t, "z", z)
        negative = self._negative
        if x < negative:
            self._event("positivity_violation", t, "x", x)
        if y < negative:
            self._event("positivity_violation", t, "y", y)
        if z < negative:
            self._event("positivity_violation", t, "z", z)
        if x + y > self._xy_ceiling:
            self._event("bound_violation", t, "x+y", x + y)
        if z > self._z_ceiling:
            self._event("bound_violation", t, "z", z)


def _rk4_step(rhs, t, x, y, z, h):
    k1x, k1y, k1z = rhs(t, x, y, z)
    h2 = 0.5 * h
    k2x, k2y, k2z = rhs(t + h2, x + h2 * k1x, y + h2 * k1y, z + h2 * k1z)
    k3x, k3y, k3z = rhs(t + h2, x + h2 * k2x, y + h2 * k2y, z + h2 * k2z)
    k4x, k4y, k4z = rhs(t + h, x + h * k3x, y + h * k3y, z + h * k3z)
    s = h / 6.0
    return (
        x + s * (k1x + 2.0 * (k2x + k3x) + k4x),
        y + s * (k1y + 2.0 * (k2y + k3y) + k4y),
        z + s * (k1z + 2.0 * (k2z + k3z) + k4z),
    )


def _integrate_fixed(rhs, u0, t0, t_end, ctl, rec, budget):
    h = ctl.h
    n_whole = int(math.floor((t_end - t0) / h + 1e-12))
    x, y, z = (float(v) for v in u0)  # plain floats keep the loop cheap
    rec.push(t0, x, y, z)
    lo, hi, xy_ceiling, z_ceiling = rec.quiet_box
    append_t, append_u = rec.times.append, rec.states.append
    i = 0
    t = t0
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    while not rec.done and t < t_stop:
        if i >= budget:
            rec.stop("step_budget", t, "steps", float(i))
            break
        if i < n_whole:
            t_next = t0 + (i + 1) * h
        else:
            t_next = t_end
        if t_next <= t:  # h is below the float spacing at t
            rec.stop("step_floor", t, "h", h)
            break
        try:
            x, y, z = _rk4_step(rhs, t, x, y, z, t_next - t)
        except OverflowError:
            x = y = z = math.inf
        t = t_next
        i += 1
        # _Recorder.quiet, inlined
        if lo <= x <= hi and lo <= y <= hi and lo <= z <= hi and x + y <= xy_ceiling and z <= z_ceiling:
            append_t(t)
            append_u((x, y, z))
        else:
            rec.push(t, x, y, z)


def _dp5_step(rhs, t, h, x, y, z, k1, atol, rtol):
    """One Dormand-Prince 5(4) step from (t, x, y, z) with k1 = rhs there.

    Returns the stage-7 point (the 5th-order solution), k7 = rhs at it, and
    the RMS norm of the local error estimate scaled by atol + rtol * |u|.
    Every sum runs over its tableau row left to right, zero terms included,
    so each float equals what a loop over ``_DP_A``/``_DP_E`` would give.
    """
    k1x, k1y, k1z = k1
    k2x, k2y, k2z = rhs(
        t + _C2 * h,
        x + h * (_A21 * k1x),
        y + h * (_A21 * k1y),
        z + h * (_A21 * k1z),
    )
    k3x, k3y, k3z = rhs(
        t + _C3 * h,
        x + h * (_A31 * k1x + _A32 * k2x),
        y + h * (_A31 * k1y + _A32 * k2y),
        z + h * (_A31 * k1z + _A32 * k2z),
    )
    k4x, k4y, k4z = rhs(
        t + _C4 * h,
        x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
        y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y),
        z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
    )
    k5x, k5y, k5z = rhs(
        t + _C5 * h,
        x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
        y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
        z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
    )
    k6x, k6y, k6z = rhs(
        t + _C6 * h,
        x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
        y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y),
        z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
    )
    x7 = x + h * (_A71 * k1x + _A72 * k2x + _A73 * k3x + _A74 * k4x + _A75 * k5x + _A76 * k6x)
    y7 = y + h * (_A71 * k1y + _A72 * k2y + _A73 * k3y + _A74 * k4y + _A75 * k5y + _A76 * k6y)
    z7 = z + h * (_A71 * k1z + _A72 * k2z + _A73 * k3z + _A74 * k4z + _A75 * k5z + _A76 * k6z)
    k7 = rhs(t + _C7 * h, x7, y7, z7)
    k7x, k7y, k7z = k7
    # b if b > a else a is max(a, b) without the call
    ax, ay, az = abs(x), abs(y), abs(z)
    bx, by, bz = abs(x7), abs(y7), abs(z7)
    rx = h * (
        _E1 * k1x + _E2 * k2x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x
    ) / (atol + rtol * (bx if bx > ax else ax))
    ry = h * (
        _E1 * k1y + _E2 * k2y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y
    ) / (atol + rtol * (by if by > ay else ay))
    rz = h * (
        _E1 * k1z + _E2 * k2z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z
    ) / (atol + rtol * (bz if bz > az else az))
    # each r * r is +0.0 or more, so the sum equals 0.0 + rx * rx + ...
    err_norm = math.sqrt((rx * rx + ry * ry + rz * rz) / 3.0)
    return x7, y7, z7, k7, err_norm


def _integrate_adaptive(rhs, u0, t0, t_end, ctl, rec, budget):
    # PI controller constants (order-5 error estimator).
    safety = 0.9
    beta_stab = 0.04
    expo = 0.2 - 0.75 * beta_stab
    min_factor, max_factor = 0.2, 10.0
    inf = math.inf

    atol, rtol = ctl.abs_tol, ctl.rel_tol
    h_min, h_max = ctl.h_min, ctl.h_max
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    t = t0
    x, y, z = (float(v) for v in u0)  # plain floats keep the loop cheap
    k1 = rhs(t, x, y, z)
    rec.push(t, x, y, z)
    lo, hi, xy_ceiling, z_ceiling = rec.quiet_box
    append_t, append_u = rec.times.append, rec.states.append
    h = min(ctl.h_init, t_end - t0)
    err_prev = 1e-4
    steps = 0

    # The clamps below are min/max written out: "b if b < a else a" is
    # min(a, b) and "b if b > a else a" is max(a, b), float for float.
    while not rec.done and t < t_stop:
        if steps >= budget:
            rec.stop("step_budget", t, "steps", float(steps))
            break
        span = t_end - t
        h = span if span < h else h
        if h < h_min:
            rec.stop("step_floor", t, "h", h)
            break

        try:
            x_new, y_new, z_new, k7, err_norm = _dp5_step(rhs, t, h, x, y, z, k1, atol, rtol)
        except OverflowError:
            err_norm = inf
        steps += 1

        if err_norm <= 1.0:
            t = t + h
            x, y, z = x_new, y_new, z_new
            k1 = k7
            # _Recorder.quiet, inlined
            if lo <= x <= hi and lo <= y <= hi and lo <= z <= hi and x + y <= xy_ceiling and z <= z_ceiling:
                append_t(t)
                append_u((x, y, z))
            else:
                rec.push(t, x, y, z)
            if err_norm == 0.0:
                factor = max_factor
            else:
                factor = safety * err_norm**-expo * err_prev**beta_stab
                factor = factor if factor > min_factor else min_factor
                factor = factor if factor < max_factor else max_factor
            err_prev = 1e-4 if 1e-4 > err_norm else err_norm
            h = h * factor
            h = h_max if h_max < h else h
        elif err_norm < inf:
            shrink = safety * err_norm**-0.2
            h *= shrink if shrink > min_factor else min_factor
        else:  # NaN or inf: no usable error estimate, halve the step
            h *= 0.5


def integrate(
    params: Parameters,
    forcing: Forcing,
    u0,
    t0: float,
    t_end: float,
    ctl: StepControl,
    max_steps: int | None = None,
) -> Trajectory:
    """Integrate from (t0, u0) to t_end under the given step control.

    Terminating monitor events produce a partial trajectory rather than an
    exception; inspect ``Trajectory.events``. ``max_steps`` caps the number
    of attempted steps (used by the parameter sweep to bound work on stiff
    corner cases); a run that hits the cap before t_end ends on a
    ``step_budget`` event, so ``Trajectory.terminated`` reports it.
    """
    u0 = as_state(u0, require_nonnegative=True)
    if not t_end > t0:
        raise ValueError(f"t_end must exceed t0, got [{t0}, {t_end}]")
    bounds = analytic_bounds(params, forcing, u0)
    rhs = make_rhs(params, forcing)
    rec = _Recorder(ctl, bounds)
    budget = math.inf if max_steps is None else max_steps
    if ctl.mode == "fixed":
        _integrate_fixed(rhs, u0, t0, t_end, ctl, rec, budget)
    else:
        _integrate_adaptive(rhs, u0, t0, t_end, ctl, rec, budget)
    return Trajectory(
        times=np.array(rec.times),
        states=np.array(rec.states),
        events=tuple(rec.events),
        params=params,
        forcing=forcing,
        bounds=bounds,
        control=ctl,
    )


def richardson_order(
    params: Parameters,
    forcing: Forcing,
    u0,
    t0: float,
    t_end: float,
    h: float,
) -> float:
    """Observed convergence order of the fixed-step method.

    Runs at steps h and h/2 and measures both errors at t_end against an
    h/8 reference; returns log2(err(h) / err(h/2)), which sits near 4 for
    RK4 once h is inside the asymptotic regime.
    """
    finals = []
    for step in (h, h / 2.0, h / 8.0):
        traj = integrate(params, forcing, u0, t0, t_end, FixedStep(h=step))
        if traj.terminated:
            kinds = ", ".join(e.kind for e in traj.events if e.kind in TERMINAL_EVENT_KINDS)
            raise RuntimeError(f"run with h={step} terminated early ({kinds})")
        finals.append(traj.final_state)
    err_h = float(np.max(np.abs(finals[0] - finals[2])))
    err_h2 = float(np.max(np.abs(finals[1] - finals[2])))
    if err_h == 0.0 or err_h2 == 0.0:
        raise RuntimeError("errors vanished; h too small to estimate an order")
    return math.log2(err_h / err_h2)
