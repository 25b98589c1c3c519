"""Explicit Runge-Kutta integration with runtime monitors.

Two stepping modes: classical fixed-step RK4 and an adaptive embedded
Dormand-Prince 5(4) pair with PI step-size control. Each run goes through one
generated run kernel, the whole stepping loop with no call per step: the
step, the step-size control, the landings on the run's stops, the budget and
step floor stops, and the monitors on each accepted point:

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

A run's stops come from its forcing (``model.run_stops``): a table's knots
inside the span, where the slope of the production rate jumps, then
``t_end``. A step that reaches a stop is cut to ``stop - t``, less the ulps
by which t plus it would round past the stop (``_last_step``), and is
recorded at the stop, so no stage time lies past it. RK4 keeps its grid
``t0 + i*h`` and lands on ``t_end`` only. DP5 lands on each knot that
``_landings`` keeps, so no step straddles a kink, where the error estimate
fails and steps are rejected until h is small enough to get past it. A run
counts as at ``t_end`` once t reaches ``t_stop = t_end - 1e-14 * (t_end -
t0)``, a window relative to the span, so a run and its copy with every time
and step size divided by a power of two stop at the same steps.

Most points fire no monitor. The kernel tests each point inline against
``lo <= c <= hi`` for c = x, y, z, ``x + y`` and ``z`` below their ceilings
(``_QUIET``), where hi is ``blow_up_threshold`` and lo the larger of
``-positivity_tol`` and ``-blow_up_threshold``. A point that passes is
appended to the recorder's lists with no call; any other goes through
``_Recorder.push``, which records its events.

A trajectory records only the accepted times and states, as the recorder's
floats; it builds no array until one is read. Dense output between them uses
cubic Hermite interpolation on those floats, whose node slopes are the
vector field at the accepted points: they are computed once, on the first
``sample``, and are the same floats the step already evaluated there.

Each method has one text template, ``_RK4`` or ``_DP5``, under a head and a
recording block both share (``_HEAD``, ``_RECORD``), so each rule is written
once. The field of a ``make_rhs`` closure is written into the stages
(``model.field_lines``, the text the closure runs too), reading the values
the closure carries in ``rhs.field``. The field reads the production rate
from the local ``lam`` under every forcing, and a stage sets it
(``model.rate_lines``) unless the stage before ran at the same time: RK4's
stage 3 reads stage 2's, DP5's stage 7 reads stage 6's, and RK4's stage 1
reads the last step's stage 4's when t equals its time ``t4``, a float
compare, so each stage sees the float a call at its time gives. A field's
setup lines (``model.field_setup``) run once per run: a constant rate sets
``lam`` there, and a table seats its first knot segment in kernel locals.
Any other callable is called at every stage, so a wrapper that counts calls
sees every evaluation. The stage text is straight-line float code: a stage
past the float range gives inf or NaN, which the DP5 controller rejects and
the monitors stop on. Only a rate line raises, as a call would: a table's at
a time off its knots, a sinusoid's where ``omega * t`` overflows.

``_integrate`` picks the kernel from the rhs object, and ``_kernel``
compiles it on first use, once per process, as
``<hbvkit.integrate._dp5_call>`` and so on, kept in ``linecache`` for
tracebacks and ``inspect.getsource``. The DP5 stage and error sums are
generated from ``_DP_A``/``_DP_C``/``_DP_E``, the one written copy of its
tableau: each adds the nonzero terms of its tableau row left to right, so
b2 = 0 of the 5th-order row and e2 = 0 of the error row are not written, and
the error norm adds x, y, z in that order. For a finite k, s + 0.0 * k is s
but for the sign of an exact zero, and a non-finite k2 makes k3, and so the
error norm, non-finite either way: the step is rejected and h halved. RK4 keeps
``x + h/6 * (k1 + 2*(k2 + k3) + k4)`` and the grid ``t0 + (i+1)*h``. Run
files are compared byte for byte, so they depend on this arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import chain
from typing import ClassVar

import numpy as np

from .model import (
    FIELD_GLOBALS,
    BoundsReport,
    Forcing,
    Parameters,
    analytic_bounds,
    as_state,
    compile_function,
    field_lines,
    field_names,
    field_setup,
    make_rhs,
    rate_lines,
    run_stops,
)

__all__ = [
    "StepControl",
    "FixedStep",
    "AdaptiveStep",
    "MonitorEvent",
    "Trajectory",
    "integrate",
    "richardson_order",
    "TERMINAL_EVENT_KINDS",
    "ProcessTerminatedError",
    "require_complete",
]

# Slack factors applied to the analytic ceilings before flagging a violation.
BOUND_XY_SLACK = 1e-6
BOUND_Z_SLACK = 1e-3

TERMINAL_EVENT_KINDS = frozenset({"blow_up", "nonfinite", "step_floor", "step_budget"})


class ProcessTerminatedError(RuntimeError):
    """The underlying integration ended on a terminating monitor event."""


def require_complete(traj: Trajectory, what: str) -> None:
    """Raise ProcessTerminatedError, naming the final time and the sorted
    event kinds, when ``traj`` ended on a terminating monitor event; a
    verdict on the part that ran would claim more than was integrated."""
    if traj.terminated:
        kinds = ", ".join(sorted({e.kind for e in traj.events}))
        raise ProcessTerminatedError(f"{what} terminated at t={traj.final_time} ({kinds})")


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
    """Dormand-Prince 5(4) with PI control of the step between h_min and h_max;
    steps land on the knots of a table forcing."""

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

    Stored: ``time_list``, the accepted times, and ``state_list``, one
    ``(x, y, z)`` tuple per time, the floats the run recorded. Built on
    first read and kept: the arrays ``times`` (n,) and ``states`` (n, 3),
    and for ``sample`` the node slopes, the vector field at each point, as
    float tuples. ``final_time``,
    ``final_state``, ``sample`` and ``to_csv`` read the floats. A
    trajectory is written once by its integration and immutable after;
    ``==`` compares the stored fields.
    """

    time_list: list[float]
    state_list: list[tuple[float, float, float]]
    events: tuple[MonitorEvent, ...]
    params: Parameters
    forcing: Forcing
    bounds: BoundsReport
    control: StepControl

    @cached_property
    def times(self) -> np.ndarray:
        return np.array(self.time_list)

    @cached_property
    def states(self) -> np.ndarray:
        return np.array(self.state_list)

    @property
    def final_time(self) -> float:
        return self.time_list[-1]

    @property
    def final_state(self) -> np.ndarray:
        return np.array(self.state_list[-1])

    @property
    def terminated(self) -> bool:
        """True when integration ended on a terminating event (``TERMINAL_EVENT_KINDS``)."""
        return any(e.kind in TERMINAL_EVENT_KINDS for e in self.events)

    @cached_property
    def _slopes(self) -> list[tuple[float, float, float]]:
        """The vector field at each accepted point, one rhs call per point."""
        rhs = make_rhs(self.params, self.forcing)
        return [rhs(t, x, y, z) for t, (x, y, z) in zip(self.time_list, self.state_list)]

    def sample(self, t) -> np.ndarray:
        """State at time t by cubic Hermite interpolation on the accepted steps.

        ``t`` is one time, giving shape (3,), or a sequence of n times,
        giving shape (n, 3). The basis is taken on Python floats, so
        ``(1 - s) ** 2`` is libm ``pow``; an array ``** 2`` squares, and
        rounds differently.
        """
        query = np.asarray(t, dtype=float)
        times, states, slopes = self.time_list, self.state_list, self._slopes
        first, last, n = times[0], times[-1], len(times) - 1
        out = []
        for tq in query.reshape(-1).tolist():
            if not (first <= tq <= last):
                raise ValueError(f"t={tq!r} outside trajectory range [{first}, {last}]")
            i = bisect_right(times, tq) - 1
            if i >= n:
                out.append(states[-1])
                continue
            t0 = times[i]
            h = times[i + 1] - t0
            s = (tq - t0) / h
            # the Hermite basis; the two slope weights carry the step h
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2 * h
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1) * h
            (x0, y0, z0), (dx0, dy0, dz0) = states[i], slopes[i]
            (x1, y1, z1), (dx1, dy1, dz1) = states[i + 1], slopes[i + 1]
            out.append((
                h00 * x0 + h10 * dx0 + h01 * x1 + h11 * dx1,
                h00 * y0 + h10 * dy0 + h01 * y1 + h11 * dy1,
                h00 * z0 + h10 * dz0 + h01 * z1 + h11 * dz1,
            ))
        return np.array(out).reshape(query.shape + (3,))

    def to_csv(self, path) -> None:
        """Write `t,x,y,z` rows at full double precision.

        Each block of ``_CSV_BLOCK`` rows is formatted by one ``%`` operation
        on the recorded floats and written at once, so memory holds one
        block's text, not the file's. ``%.17g`` gives the same text as
        ``{:.17g}``, ``nan``, ``inf`` and ``-0`` included, so the bytes match
        a per-row f-string writer.
        """
        times, states = self.time_list, self.state_list
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,y,z\n")
            for start in range(0, len(times), _CSV_BLOCK):
                stop = start + _CSV_BLOCK
                rows = zip(times[start:stop], *zip(*states[start:stop]))  # (t, x, y, z)
                block = tuple(chain.from_iterable(rows))
                fh.write(_CSV_ROW * (len(block) // 4) % block)


# True when _Recorder.push of (x, y, z) would fire no monitor, under the
# bounds of _Recorder.quiet_box; the run kernels inline it.
_QUIET = "lo <= x <= hi and lo <= y <= hi and lo <= z <= hi and x + y <= xy_ceiling and z <= z_ceiling"


class _Recorder:
    """Accumulates accepted points and applies the monitors.

    ``quiet_box`` is ``(lo, hi, xy_ceiling, z_ceiling)``, the bounds of
    ``_QUIET``; NaN and +-inf fail them.
    """

    def __init__(self, ctl: StepControl, bounds: BoundsReport):
        self.times: list[float] = []
        self.states: list[tuple[float, float, float]] = []
        self.events: list[MonitorEvent] = []
        self._seen: set[tuple[str, str]] = set()
        self._blow_up = ctl.blow_up_threshold
        self._negative = -ctl.positivity_tol
        self._xy_ceiling = bounds.M * (1.0 + BOUND_XY_SLACK)
        self._z_ceiling = bounds.z_ceiling * (1.0 + BOUND_Z_SLACK)
        # below -blow_up_threshold is a blow_up even where positivity_tol is larger
        lo = max(self._negative, -self._blow_up)
        self.quiet_box = (lo, self._blow_up, self._xy_ceiling, self._z_ceiling)

    def _event(self, kind: str, t: float, component: str, value: float) -> None:
        key = (kind, component)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(MonitorEvent(kind, t, component, value))

    def stop(self, kind: str, t: float, component: str, value: float) -> bool:
        """Record a terminating event; True, for the run ends here."""
        self.events.append(MonitorEvent(kind, t, component, value))
        return True

    def push(self, t: float, x: float, y: float, z: float) -> bool:
        """Record an accepted point; True when it fires a terminating event.

        Checks run component by component in x, y, z order: nonfinite, then
        blow_up (either stops at the first hit), then positivity, then the
        x + y and z ceilings.
        """
        self.times.append(t)
        self.states.append((x, y, z))

        components = (("x", x), ("y", y), ("z", z))
        for name, value in components:
            if not math.isfinite(value):
                return self.stop("nonfinite", t, name, value)
        for name, value in components:
            if abs(value) > self._blow_up:
                return self.stop("blow_up", t, name, value)
        for name, value in components:
            if value < self._negative:
                self._event("positivity_violation", t, name, value)
        if x + y > self._xy_ceiling:
            self._event("bound_violation", t, "x+y", x + y)
        if z > self._z_ceiling:
            self._event("bound_violation", t, "z", z)
        return False


def _last_step(t: float, t_end: float) -> float:
    """The step from t onto t_end: t_end - t, less the ulps by which t plus it
    would round past t_end, so that no stage time lies past t_end."""
    h = t_end - t
    while t + h > t_end:
        h = math.nextafter(h, 0.0)
    return h


def _landings(knots, t0, t_stop, gap):
    """(knot, near) for each knot a DP5 run lands on, in order: a step that
    ends at near or later is cut to end on the knot. A knot is kept when it
    lies ``gap`` (twice ``h_min``) or more after t0 or the last knot kept, and
    before ``t_stop`` by as much; any other is crossed. So every landing step,
    onto a knot or onto t_end after one, exceeds ``h_min``: a knot too close
    to land on never ends a run on ``step_floor``."""
    prev = t0
    for knot in knots:
        if knot - prev >= gap and t_stop - knot >= gap:
            yield knot, knot - gap
            prev = knot


# The run kernels' text. Each method has one template, _RK4 or _DP5, under
# _HEAD; {loop} and {record} are the loop head and the recording block both
# share, and {k1}.. or {stages} are filled per stage evaluation by _stage. A
# kernel records (t0, u0) and each accepted point until a push or a stop
# ends the run or it lands on t_end, the last of its stops.
_HEAD = """\
def {name}(rhs, field, u0, t0, stops, ctl, rec, budget):
    \"\"\"{doc}\"\"\"
{bind}    lo, hi, xy_ceiling, z_ceiling = rec.quiet_box
    append_t, append_u, push = rec.times.append, rec.states.append, rec.push
    x, y, z = u0  # as_state's floats keep the loop cheap
    if push(t0, x, y, z):
        return
    t_end = stops[-1]
    t_stop = t_end - 1e-14 * (t_end - t0)
    t, steps = t0, 0
"""

# steps counts attempts: only DP5 makes an attempt it rejects
_LOOP = """\
    while t < t_stop:
        if steps >= budget:
            return rec.stop("step_budget", t, "steps", float(steps))"""

# _QUIET, inlined: a quiet point is appended with no call
_RECORD = f"""\
        if {_QUIET}:
            append_t(t)
            append_u((x, y, z))
        elif push(t, x, y, z):
            return"""

# x + h/6 * (k1 + 2*(k2 + k3) + k4) is not a tableau-row sum, and written as
# one it would move the fixed-step bytes, so RK4 is written out.
_RK4 = """\
    h = ctl.h
    # Whole steps end at t0 + i*h for i = 1..n_whole, all before t_stop; the
    # step after them lands on t_end (t0 + n*h itself can round past t_end).
    n_whole = int(floor((t_end - t0) / h))
    if t0 + n_whole * h >= t_stop:
        n_whole -= 1
{carry}{loop}
        if steps < n_whole:
            t_next = t0 + (steps + 1) * h
            step = t_next - t
        else:
            t_next = t_end
            step = _last_step(t, t_end)
        if t_next <= t:  # h is below the float spacing at t
            return rec.stop("step_floor", t, "h", h)
{k1}
        h2 = 0.5 * step
        x2, y2, z2 = x + h2 * k1x, y + h2 * k1y, z + h2 * k1z
{k2}
        x3, y3, z3 = x + h2 * k2x, y + h2 * k2y, z + h2 * k2z
{k3}
        x4, y4, z4 = x + step * k3x, y + step * k3y, z + step * k3z
{k4}
        s = step / 6.0
        x, y, z = (
            x + s * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + s * (k1y + 2.0 * (k2y + k3y) + k4y),
            z + s * (k1z + 2.0 * (k2z + k3z) + k4z),
        )
        t = t_next
        steps += 1
{record}
"""

_DP5 = """\
    # PI controller constants (order-5 error estimator).
    safety = 0.9
    beta_stab = 0.04
    expo = 0.2 - 0.75 * beta_stab
    min_factor, max_factor = 0.2, 10.0
    atol, rtol = ctl.abs_tol, ctl.rel_tol
    h_min, h_max = ctl.h_min, ctl.h_max
    # The stop the run steps to next, and the time from which a step reaches
    # it: each knot _landings keeps, then t_end, reached from t_stop.
    landings = _landings(stops[:-1], t0, t_stop, 2.0 * h_min)
    stop, near = next(landings, (t_end, t_stop))
    # |x|, |y|, |z| of the accepted state, carried from step to step
    ax = x if x >= 0.0 else -x
    ay = y if y >= 0.0 else -y
    az = z if z >= 0.0 else -z
{k1}
    h = ctl.h_init
    err_prev = 1e-4
    # The clamps below are min/max written out: "b if b < a else a" is
    # min(a, b) and "b if b > a else a" is max(a, b), float for float.
{loop}
        lands = t + h >= near  # this step reaches the stop
        if lands:
            h = _last_step(t, stop)
        if h < h_min:
            return rec.stop("step_floor", t, "h", h)
{stages}
        err_norm = sqrt((rx * rx + ry * ry + rz * rz) / 3.0)
        steps += 1
        if not err_norm <= 1.0:  # rejected: try again with a smaller h
            if err_norm < inf:
                shrink = safety * err_norm**-0.2
                h *= shrink if shrink > min_factor else min_factor
            else:  # NaN or inf: no usable error estimate, halve the step
                h *= 0.5
            continue
        if lands:
            t = stop
            stop, near = next(landings, (t_end, t_stop))
        else:
            t = t + h
        x, y, z, k1x, k1y, k1z = x7, y7, z7, k7x, k7y, k7z
        ax, ay, az = bx, by, bz
{record}
        if err_norm == 0.0:
            factor = max_factor
        else:
            factor = safety * err_norm**-expo * err_prev**beta_stab
            factor = factor if factor > min_factor else min_factor
            factor = factor if factor < max_factor else max_factor
        err_prev = 1e-4 if 1e-4 > err_norm else err_norm
        h = h * factor
        h = h_max if h_max < h else h
"""

def _stage(stages: str, i: int, t: str, x: str, y: str, z: str, indent: int = 8, rate=True, before=()) -> str:
    """The lines ``before``, then lines that set k{i}x, k{i}y, k{i}z to the
    vector field at (t, x, y, z), by default at the indentation of a step: a
    call of ``rhs``, or under a forcing kind the lines that set ``lam`` at t,
    unless ``rate`` is false, then the field lines, which read ``lam``."""
    out = f"k{i}x, k{i}y, k{i}z = "
    if stages == "call":
        lines = [f"{out}rhs({t}, {x}, {y}, {z})"]
    else:
        lines = [*(rate_lines(stages, t) if rate else ()), *field_lines(x, y, z, out)]
    return "\n".join(" " * indent + line for line in (*before, *lines))


def _rk4_stages(stages: str) -> dict:
    # Under a rate that varies in time, stage 1 reads the lam the last step's
    # stage 4 set when t is the time t4 it was set at (t + step can round off
    # the grid time t0 + i*h).
    first = [] if stages == "call" else rate_lines(stages, "t")
    before1 = ["if t != t4:", *(f"    {s}" for s in first)] if first else ()
    t4, before4 = ("t4", ["t4 = t + step"]) if first else ("t + step", ())
    return {
        "carry": "    t4 = nan  # the time of the rate in lam: none yet\n" if first else "",
        "k1": _stage(stages, 1, "t", "x", "y", "z", rate=False, before=before1),
        "k2": _stage(stages, 2, "t + h2", "x2", "y2", "z2"),
        # stage 3 runs at stage 2's time and reads its lam
        "k3": _stage(stages, 3, "t + h2", "x3", "y3", "z3", rate=False),
        "k4": _stage(stages, 4, t4, "x4", "y4", "z4", before=before4),
    }


def _dp5_stages(stages: str) -> dict:
    # Per stage and component one line u{i} = u + h * (a1 * k1u + ...), each
    # coefficient written as its float's repr; a zero coefficient's term is
    # left out.
    def row_sum(coeffs, u):
        return " + ".join(f"{a!r} * k{j}{u}" for j, a in enumerate(coeffs, 1) if a)

    lines = []
    for i, (row, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), 2):
        lines += [f"        {u}{i} = {u} + h * ({row_sum(row, u)})" for u in "xyz"]
        # a stage sets lam unless the stage before ran at the same time
        rate = c != _DP_C[i - 2]
        lines.append(_stage(stages, i, f"t + {c!r} * h", f"x{i}", f"y{i}", f"z{i}", rate=rate))
    # b{u} is |u7| by a branch and a{u} the |u| carried from the last
    # acceptance; b if b > a else a is max(a, b) without the call. A NaN b of
    # either sign loses that comparison, and a zero's sign vanishes in
    # atol + rtol * ..., so the branch gives the bytes of abs.
    for u in "xyz":
        lines += [
            f"        b{u} = {u}7 if {u}7 >= 0.0 else -{u}7",
            f"        r{u} = h * ({row_sum(_DP_E, u)}) / (atol + rtol * (b{u} if b{u} > a{u} else a{u}))",
        ]
    return {"k1": _stage(stages, 1, "t", "x", "y", "z", indent=4), "stages": "\n".join(lines)}


# stepping mode -> kernel name prefix, docstring, template, stage lines
_METHODS = {
    "fixed": ("_rk4", "Classical RK4 steps of h from (t0, u0) to t_end", _RK4, _rk4_stages),
    "adaptive": ("_dp5", "DP5(4) steps under PI control from (t0, u0) over the stops", _DP5, _dp5_stages),
}


@cache
def _kernel(mode: str, stages: str):
    """The run kernel of a stepping mode and a stage evaluation, ``"call"`` or
    a forcing kind, generated and compiled on first use."""
    prefix, doc, template, stage_lines = _METHODS[mode]
    name = f"{prefix}_{stages}"
    doc += "; each stage calls rhs." if stages == "call" else f"; the {stages} field is written into each stage."
    # a field kernel binds the closure's values, then runs the field's setup once
    bind = [] if stages == "call" else [f"{', '.join(field_names(stages))} = field", *field_setup(stages)]
    source = (_HEAD + template).format(
        name=name, doc=doc, bind="".join(f"    {s}\n" for s in bind), loop=_LOOP, record=_RECORD,
        **stage_lines(stages),
    )
    namespace = {
        **FIELD_GLOBALS,
        "__name__": __name__,
        "_landings": _landings,
        "_last_step": _last_step,
        "floor": math.floor,
        "inf": math.inf,
        "nan": math.nan,
        "sqrt": math.sqrt,
    }
    return compile_function(source, f"<hbvkit.integrate.{name}>", namespace)


def _integrate(rhs, u0, t0, stops, ctl, rec, budget):
    """Run the kernel of ``ctl.mode`` that fits ``rhs`` from t0 over ``stops``,
    whose last is t_end (``model.run_stops``): the field of a ``make_rhs``
    closure is written into the stages; any other callable is called at every
    stage, a wrapper of such a closure too (``functools.wraps`` copies the
    ``field`` attribute, and sets ``__wrapped__``). Both take the same steps."""
    kind, values = ("call", None) if hasattr(rhs, "__wrapped__") else getattr(rhs, "field", ("call", None))
    _kernel(ctl.mode, kind)(rhs, values, u0, t0, stops, ctl, rec, budget)


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
    ``step_budget`` event, so ``Trajectory.terminated`` reports it. A fixed
    step whose count (t_end - t0) / h is not finite raises ValueError, as
    does an adaptive span whose one landing step is below ``h_min``.
    """
    u0 = as_state(u0, require_nonnegative=True)
    if not (math.isfinite(t0) and math.isfinite(t_end) and t_end > t0):
        raise ValueError(f"t0 and t_end must be finite with t_end > t0, got [{t0}, {t_end}]")
    if ctl.mode == "fixed" and not math.isfinite((t_end - t0) / ctl.h):
        # RK4 counts its whole steps before the first one
        raise ValueError(f"(t_end - t0) / h is not finite for the span [{t0}, {t_end}] and fixed step h={ctl.h}")
    if ctl.mode == "adaptive" and _last_step(t0, t_end) < ctl.h_min:
        # DP5 would stop on step_floor at t0; _landings holds knots to the same rule
        raise ValueError(f"the span [{t0}, {t_end}] is shorter than one adaptive step of h_min={ctl.h_min}")
    stops = run_stops(forcing, t0, t_end)  # a table off the span raises here, before any step
    bounds = analytic_bounds(params, forcing, u0)
    rhs = make_rhs(params, forcing)
    rec = _Recorder(ctl, bounds)
    budget = math.inf if max_steps is None else max_steps
    _integrate(rhs, u0, t0, stops, ctl, rec, budget)
    return Trajectory(
        time_list=rec.times,
        state_list=rec.states,
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
        require_complete(traj, f"run with h={step}")
        finals.append(traj.state_list[-1])
    err_h, err_h2 = (max(abs(a - b) for a, b in zip(u, finals[2])) for u in finals[:2])
    if err_h == 0.0 or err_h2 == 0.0:
        raise RuntimeError("errors vanished; h too small to estimate an order")
    return math.log2(err_h / err_h2)
