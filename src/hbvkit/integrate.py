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
  tolerance above ``h_min``; terminates.

Dense output between accepted points uses cubic Hermite interpolation,
which is adequate because the monitors are inequality checks rather than
root-finding problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BoundsReport, Forcing, Parameters, analytic_bounds, as_state, make_rhs

__all__ = [
    "StepControl",
    "MODE_FIELDS",
    "MonitorEvent",
    "Trajectory",
    "integrate",
    "richardson_order",
    "TERMINAL_EVENT_KINDS",
]

# Slack factors applied to the analytic ceilings before flagging a violation.
BOUND_XY_SLACK = 1e-6
BOUND_Z_SLACK = 1e-3

TERMINAL_EVENT_KINDS = frozenset({"blow_up", "nonfinite", "step_floor"})

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


@dataclass(frozen=True)
class StepControl:
    """Stepping policy plus monitor thresholds.

    Use the ``fixed`` / ``adaptive`` constructors rather than filling the
    fields by hand.
    """

    mode: str
    h: float = 0.01
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.5
    blow_up_threshold: float = 1e12
    positivity_tol: float = 1e-9

    def __post_init__(self):
        if self.mode not in MODE_FIELDS:
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if self.mode == "fixed" and not self.h > 0.0:
            raise ValueError("fixed step h must be positive")
        if self.mode == "adaptive":
            if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
                raise ValueError("tolerances must be positive")
            if not (0.0 < self.h_min <= self.h_init <= self.h_max):
                raise ValueError("need 0 < h_min <= h_init <= h_max")
        if not self.blow_up_threshold > 0.0:
            raise ValueError("blow_up_threshold must be positive")
        if self.positivity_tol < 0.0:
            raise ValueError("positivity_tol must be nonnegative")

    @classmethod
    def fixed(cls, h: float, **kwargs) -> "StepControl":
        return cls(mode="fixed", h=h, **kwargs)

    @classmethod
    def adaptive(cls, **kwargs) -> "StepControl":
        return cls(mode="adaptive", **kwargs)


# The StepControl fields only one stepping mode reads; mode and the monitor
# thresholds apply to both.
MODE_FIELDS = {
    "fixed": ("h",),
    "adaptive": ("abs_tol", "rel_tol", "h_init", "h_min", "h_max"),
}


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
    """Accepted integration points with their derivatives and monitor events.

    ``states[i]`` is the state at ``times[i]`` and ``derivs[i]`` the vector
    field there; the derivatives make cubic Hermite sampling possible.
    A trajectory is written once by its integration and immutable after.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
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
        """True when integration ended on a blow_up/nonfinite/step_floor event."""
        return any(e.kind in TERMINAL_EVENT_KINDS for e in self.events)

    def sample(self, t: float) -> np.ndarray:
        """State at time t by cubic Hermite interpolation on the accepted steps."""
        if t < self.times[0] or t > self.times[-1]:
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
        """Write `t,x,y,z` rows at full double precision."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,y,z\n")
            for t, (x, y, z) in zip(self.times, self.states):
                fh.write(f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}\n")


class _Recorder:
    """Accumulates accepted points and applies the monitors."""

    def __init__(self, ctl: StepControl, bounds: BoundsReport):
        self.ctl = ctl
        self.bounds = bounds
        self.times: list[float] = []
        self.states: list[tuple[float, float, float]] = []
        self.derivs: list[tuple[float, float, float]] = []
        self.events: list[MonitorEvent] = []
        self._seen: set[tuple[str, str]] = set()
        self.done = False

    def _event(self, kind: str, t: float, component: str, value: float) -> None:
        key = (kind, component)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(MonitorEvent(kind, t, component, value))

    def push(self, t: float, state, deriv) -> None:
        """Record an accepted point; sets ``done`` on a terminating event."""
        x, y, z = state
        self.times.append(t)
        self.states.append((x, y, z))
        self.derivs.append(tuple(deriv))

        for name, v in (("x", x), ("y", y), ("z", z)):
            if not math.isfinite(v):
                self.events.append(MonitorEvent("nonfinite", t, name, v))
                self.done = True
                return
        for name, v in (("x", x), ("y", y), ("z", z)):
            if abs(v) > self.ctl.blow_up_threshold:
                self.events.append(MonitorEvent("blow_up", t, name, v))
                self.done = True
                return
        tol = -self.ctl.positivity_tol
        for name, v in (("x", x), ("y", y), ("z", z)):
            if v < tol:
                self._event("positivity_violation", t, name, v)
        if x + y > self.bounds.M * (1.0 + BOUND_XY_SLACK):
            self._event("bound_violation", t, "x+y", x + y)
        if z > self.bounds.z_ceiling * (1.0 + BOUND_Z_SLACK):
            self._event("bound_violation", t, "z", z)

    def step_floor(self, t: float, h: float) -> None:
        self.events.append(MonitorEvent("step_floor", t, "h", h))
        self.done = True


def _finish(rec: _Recorder, params, forcing, ctl) -> Trajectory:
    return Trajectory(
        times=np.array(rec.times),
        states=np.array(rec.states),
        derivs=np.array(rec.derivs),
        events=tuple(rec.events),
        params=params,
        forcing=forcing,
        bounds=rec.bounds,
        control=ctl,
    )


def _rk4_step(rhs, t, x, y, z, h):
    k1 = rhs(t, x, y, z)
    h2 = 0.5 * h
    k2 = rhs(t + h2, x + h2 * k1[0], y + h2 * k1[1], z + h2 * k1[2])
    k3 = rhs(t + h2, x + h2 * k2[0], y + h2 * k2[1], z + h2 * k2[2])
    k4 = rhs(t + h, x + h * k3[0], y + h * k3[1], z + h * k3[2])
    s = h / 6.0
    return (
        x + s * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
        y + s * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]),
        z + s * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]),
    )


def _integrate_fixed(rhs, u0, t0, t_end, ctl, rec, max_steps):
    h = ctl.h
    n_whole = int(math.floor((t_end - t0) / h + 1e-12))
    x, y, z = (float(v) for v in u0)  # plain floats keep the loop cheap
    rec.push(t0, (x, y, z), rhs(t0, x, y, z))
    steps = 0
    i = 0
    t = t0
    while not rec.done and t < t_end - 1e-14 * max(1.0, abs(t_end)):
        if max_steps is not None and steps >= max_steps:
            break
        if i < n_whole:
            t_next = t0 + (i + 1) * h
        else:
            t_next = t_end
        if t_next <= t:  # guard against a zero-length closing step
            break
        try:
            x, y, z = _rk4_step(rhs, t, x, y, z, t_next - t)
            deriv = rhs(t_next, x, y, z)
        except OverflowError:
            x = y = z = math.inf
            deriv = (math.inf, math.inf, math.inf)
        rec.push(t_next, (x, y, z), deriv)
        t = t_next
        i += 1
        steps += 1


def _error_norm(err, y_old, y_new, atol, rtol):
    acc = 0.0
    for e, a, b in zip(err, y_old, y_new):
        sc = atol + rtol * max(abs(a), abs(b))
        r = e / sc
        acc += r * r
    return math.sqrt(acc / 3.0)


def _integrate_adaptive(rhs, u0, t0, t_end, ctl, rec, max_steps):
    # PI controller constants (order-5 error estimator).
    safety = 0.9
    beta_stab = 0.04
    expo = 0.2 - 0.75 * beta_stab
    min_factor, max_factor = 0.2, 10.0

    t = t0
    x, y, z = (float(v) for v in u0)  # plain floats keep the loop cheap
    k1 = rhs(t, x, y, z)
    rec.push(t, (x, y, z), k1)
    h = min(ctl.h_init, t_end - t0)
    err_prev = 1e-4
    steps = 0

    while not rec.done and t < t_end - 1e-14 * max(1.0, abs(t_end)):
        if max_steps is not None and steps >= max_steps:
            break
        h = min(h, t_end - t)
        if h < ctl.h_min:
            rec.step_floor(t, h)
            break

        try:
            ks = [k1]
            for row, c in zip(_DP_A[1:], _DP_C[1:]):
                xs = x + h * sum(a * k[0] for a, k in zip(row, ks))
                ys = y + h * sum(a * k[1] for a, k in zip(row, ks))
                zs = z + h * sum(a * k[2] for a, k in zip(row, ks))
                ks.append(rhs(t + c * h, xs, ys, zs))
            x_new, y_new, z_new = xs, ys, zs  # stage 7 point is the 5th-order solution
            k7 = ks[6]
            err = tuple(h * sum(e * k[j] for e, k in zip(_DP_E, ks)) for j in range(3))
            err_norm = _error_norm(err, (x, y, z), (x_new, y_new, z_new), ctl.abs_tol, ctl.rel_tol)
        except OverflowError:
            err_norm = math.inf

        if not math.isfinite(err_norm):
            h *= 0.5
            steps += 1
            continue

        if err_norm <= 1.0:
            t = t + h
            x, y, z = x_new, y_new, z_new
            k1 = k7
            rec.push(t, (x, y, z), k1)
            if err_norm == 0.0:
                factor = max_factor
            else:
                factor = safety * err_norm**-expo * err_prev**beta_stab
                factor = min(max_factor, max(min_factor, factor))
            err_prev = max(err_norm, 1e-4)
            h = min(h * factor, ctl.h_max)
        else:
            h *= max(min_factor, safety * err_norm**-0.2)
        steps += 1


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
    corner cases); hitting the cap simply truncates the trajectory.
    """
    u0 = as_state(u0, require_nonnegative=True)
    if not t_end > t0:
        raise ValueError(f"t_end must exceed t0, got [{t0}, {t_end}]")
    bounds = analytic_bounds(params, forcing, u0)
    rhs = make_rhs(params, forcing)
    rec = _Recorder(ctl, bounds)
    if ctl.mode == "fixed":
        _integrate_fixed(rhs, u0, t0, t_end, ctl, rec, max_steps)
    else:
        _integrate_adaptive(rhs, u0, t0, t_end, ctl, rec, max_steps)
    return _finish(rec, params, forcing, ctl)


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
        traj = integrate(params, forcing, u0, t0, t_end, StepControl.fixed(h=step))
        if traj.terminated:
            kinds = ", ".join(e.kind for e in traj.events if e.kind in TERMINAL_EVENT_KINDS)
            raise RuntimeError(f"run with h={step} terminated early ({kinds})")
        finals.append(traj.final_state)
    err_h = float(np.max(np.abs(finals[0] - finals[2])))
    err_h2 = float(np.max(np.abs(finals[1] - finals[2])))
    if err_h == 0.0 or err_h2 == 0.0:
        raise RuntimeError("errors vanished; h too small to estimate an order")
    return math.log2(err_h / err_h2)
