"""The generated run kernels and monitors against generic references.

The references below are the tableau-driven DP5 step, the RK4 step and the
stepping loop written plainly around them, and the per-component monitor
loops that the unrolled code in ``hbvkit.integrate`` replaced. Run files
are compared byte for byte, so each kernel must agree with them on every
float, not merely to a tolerance.
"""

import functools
import math
import operator

from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.integrate import (
    BOUND_XY_SLACK,
    BOUND_Z_SLACK,
    _DP_A,
    _DP_C,
    _DP_E,
    MonitorEvent,
    _integrate,
    _last_step,
    _Recorder,
)
from hbvkit.model import analytic_bounds, make_rhs, run_stops


def _lsum(terms):
    # Plain left-to-right addition from the first term, as the kernels write
    # it; the builtin sum() starts from 0, and from Python 3.12 on it
    # compensates a sum of floats.
    return functools.reduce(operator.add, terms)


def _reference_error_norm(err, y_old, y_new, atol, rtol):
    acc = 0.0
    for e, a, b in zip(err, y_old, y_new):
        sc = atol + rtol * max(abs(a), abs(b))
        r = e / sc
        acc += r * r
    return math.sqrt(acc / 3.0)


def _reference_dp5_step(rhs, t, h, x, y, z, k1, atol, rtol):
    ks = [k1]
    for row, c in zip(_DP_A[1:], _DP_C[1:]):
        xs = x + h * _lsum(a * k[0] for a, k in zip(row, ks))
        ys = y + h * _lsum(a * k[1] for a, k in zip(row, ks))
        zs = z + h * _lsum(a * k[2] for a, k in zip(row, ks))
        ks.append(rhs(t + c * h, xs, ys, zs))
    err = tuple(h * _lsum(e * k[j] for e, k in zip(_DP_E, ks)) for j in range(3))
    err_norm = _reference_error_norm(err, (x, y, z), (xs, ys, zs), atol, rtol)
    return xs, ys, zs, ks[6], err_norm


def _reference_rk4_step(rhs, t, h, x, y, z):
    k1 = rhs(t, x, y, z)
    h2 = 0.5 * h
    k2 = rhs(t + h2, *(u + h2 * k for u, k in zip((x, y, z), k1)))
    k3 = rhs(t + h2, *(u + h2 * k for u, k in zip((x, y, z), k2)))
    k4 = rhs(t + h, *(u + h * k for u, k in zip((x, y, z), k3)))
    s = h / 6.0
    return tuple(u + s * (a + 2.0 * (b + c) + d) for u, a, b, c, d in zip((x, y, z), k1, k2, k3, k4))


def _reference_run(rhs, u0, t0, stops, ctl, rec, budget):
    """The stepping loop written plainly around the reference steps, with
    min/max for the clamps: what every kernel must record. ``stops`` ends in
    t_end; DP5 lands on each knot before it that lies two h_min or more past
    t0 or the last knot kept, and before t_end by as much, then on t_end,
    each from two h_min before it. RK4's whole steps end before t_stop."""
    t_end = stops[-1]
    x, y, z = u0
    if rec.push(t0, x, y, z):
        return
    t, steps = t0, 0
    if ctl.mode == "fixed":
        t_stop = t_end - 1e-14 * (t_end - t0)
        n_whole = math.floor((t_end - t0) / ctl.h)
        if t0 + n_whole * ctl.h >= t_stop:
            n_whole -= 1
        while t < t_stop:
            if steps >= budget:
                return rec.stop("step_budget", t, "steps", float(steps))
            t_next = t0 + (steps + 1) * ctl.h if steps < n_whole else t_end
            if t_next <= t:
                return rec.stop("step_floor", t, "h", ctl.h)
            h = t_next - t if steps < n_whole else _last_step(t, t_end)
            x, y, z = _reference_rk4_step(rhs, t, h, x, y, z)
            t, steps = t_next, steps + 1
            if rec.push(t, x, y, z):
                return
        return
    gap = 2.0 * ctl.h_min
    landings = []  # (stop, the time from which a step reaches it)
    for knot in stops[:-1]:
        if knot - (landings[-1][0] if landings else t0) >= gap and t_end - knot >= gap:
            landings.append((knot, knot - gap))
    landings.append((t_end, t_end - gap))
    k1 = rhs(t, x, y, z)
    h, err_prev = ctl.h_init, 1e-4
    while t < t_end:
        if steps >= budget:
            return rec.stop("step_budget", t, "steps", float(steps))
        stop, near = landings[0]
        last = t + h >= near
        if last:
            h = _last_step(t, stop)
        if h < ctl.h_min:
            return rec.stop("step_floor", t, "h", h)
        x7, y7, z7, k7, err = _reference_dp5_step(rhs, t, h, x, y, z, k1, ctl.abs_tol, ctl.rel_tol)
        steps += 1
        if err <= 1.0:
            t = stop if last else t + h
            if last:
                landings.pop(0)
            x, y, z, k1 = x7, y7, z7, k7
            if rec.push(t, x, y, z):
                return
            factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -(0.2 - 0.75 * 0.04) * err_prev**0.04))
            err_prev = max(1e-4, err)
            h = min(ctl.h_max, h * factor)
        elif math.isfinite(err):
            h *= max(0.2, 0.9 * err**-0.2)
        else:
            h *= 0.5


def recorded(rec):
    """What a run recorded, as text: repr tells -0.0 from 0.0 and matches NaN."""
    return repr(rec.times), repr(rec.states), repr(rec.events)


def _reference_events(ctl, bounds, t, x, y, z):
    events = []
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(v):
            return events + [MonitorEvent("nonfinite", t, name, v)], True
    for name, v in (("x", x), ("y", y), ("z", z)):
        if abs(v) > ctl.blow_up_threshold:
            return events + [MonitorEvent("blow_up", t, name, v)], True
    tol = -ctl.positivity_tol
    for name, v in (("x", x), ("y", y), ("z", z)):
        if v < tol:
            events.append(MonitorEvent("positivity_violation", t, name, v))
    if x + y > bounds.M * (1.0 + BOUND_XY_SLACK):
        events.append(MonitorEvent("bound_violation", t, "x+y", x + y))
    if z > bounds.z_ceiling * (1.0 + BOUND_Z_SLACK):
        events.append(MonitorEvent("bound_violation", t, "z", z))
    return events, False


_rate = st.floats(1e-2, 1e2)
_params = st.builds(
    hk.Parameters,
    mu1=_rate, mu2=_rate, mu3=_rate, beta=_rate,
    eta=st.floats(0.0, 0.9), epsilon=st.floats(0.0, 0.9),
    p=_rate, q=_rate,
)
# offset > amplitude: a sinusoid that touches zero is not a valid forcing
_forcing = st.one_of(
    st.builds(hk.ConstantForcing, _rate),
    st.builds(
        hk.SinusoidForcing,
        amplitude=st.floats(0.0, 1.0), omega=st.floats(0.1, 10.0),
        phase=st.floats(0.0, 6.3), offset=st.floats(1.0, 1e2, exclude_min=True),
    ),
)
_component = st.floats(0.0, 1e3)


@st.composite
def _knotted_tables(draw, t0, t_end):
    """Tables over [t0, t_end] with knots inside the span, some of them within
    h_min (1e-12) of t0, of t_end or of another knot."""
    knots = {t0, t_end, *draw(st.lists(st.floats(t0, t_end), max_size=5))}
    offsets = st.sampled_from([-3e-12, -1e-12, -5e-13, 5e-13, 1e-12, 3e-12])
    knots.update(k + draw(offsets) for k in sorted(knots)[: draw(st.integers(0, 3))])
    knots.update(t_end + draw(offsets) for _ in range(draw(st.integers(0, 1))))
    knots = sorted(k for k in knots if t0 <= k <= t_end)
    values = draw(st.lists(st.floats(1.0, 1e3), min_size=len(knots), max_size=len(knots)))
    return hk.PiecewiseLinearForcing(tuple(knots), tuple(values))


_EXAMPLE_PARAMS = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1e2, eta=0.0, epsilon=0.0, p=1.0, q=1.0)


@settings(max_examples=300, deadline=None)
@given(
    params=_params, forcing=st.one_of(_forcing, st.none()),
    t=st.floats(0.0, 50.0), span=st.floats(1e-3, 2.0), h=st.floats(1e-8, 0.5),
    x=_component, y=_component, z=_component,
    atol=st.floats(1e-14, 1e-3), rtol=st.floats(1e-14, 1e-3), max_steps=st.integers(1, 40),
    data=st.data(),
)
# z = -0.0 makes k1y = infect - loss_y * y a -0.0, the sign the kernel's sums
# without zero products could keep where the reference's 0.0 * k2y drops it
@example(
    params=_EXAMPLE_PARAMS, forcing=hk.ConstantForcing(1.0), t=0.0, span=1.0, h=0.1,
    x=1.0, y=0.0, z=-0.0, atol=1e-6, rtol=1e-6, max_steps=20, data=None,
)
# k1 is finite and k2 overflows (beta_eff * x2 * z2 past the float range): the
# reference's 0.0 * k2 is NaN where the kernel leaves k2 out of x7 and the
# error sums, and both reject the step and halve h
@example(
    params=_EXAMPLE_PARAMS, forcing=hk.ConstantForcing(1.0), t=0.0, span=1.0, h=0.5,
    x=1e150, y=1.0, z=1e150, atol=1e-6, rtol=1e-6, max_steps=40, data=None,
)
def test_step_matches_generic_tableau(params, forcing, t, span, h, x, y, z, atol, rtol, max_steps, data):
    # the inlined DP5 kernel, and the calling one around a plain wrapper
    if forcing is None:  # a table over the span, its knots stops
        forcing = data.draw(_knotted_tables(t, t + span))
    ctl = hk.AdaptiveStep(abs_tol=atol, rel_tol=rtol, h_init=h, h_max=0.5, blow_up_threshold=1e300)
    bounds = analytic_bounds(params, forcing, (x, y, z))
    rhs = make_rhs(params, forcing)
    stops = run_stops(forcing, t, t + span)
    runs = []
    for stepping in (_integrate, _reference_run):
        for f in (rhs, lambda t, x, y, z: rhs(t, x, y, z)):
            rec = _Recorder(ctl, bounds)
            stepping(f, (x, y, z), t, stops, ctl, rec, max_steps)
            runs.append(recorded(rec))
    assert runs[0] == runs[1] == runs[2] == runs[3]


# A free step of h_max that ends this many h_min before t_end: within 2 h_min
# of it, or past it, the step lands on t_end.
_END_OFFSETS = st.sampled_from([-3.0, -1.0, 0.0, 0.01, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0, 2.01, 3.0])


@settings(max_examples=200, deadline=None)
@given(
    params=_params, forcing=st.one_of(_forcing, st.none()),
    t=st.floats(0.0, 50.0), h=st.floats(1e-3, 0.1), n=st.integers(1, 4), offset=_END_OFFSETS,
    h_min=st.sampled_from([1e-14, 1e-12, 1e-9]),
    x=_component, y=_component, z=_component, data=st.data(),
)
def test_a_free_step_near_t_end_matches_the_reference(params, forcing, t, h, n, offset, h_min, x, y, z, data):
    """h_init = h_max = h over a span of n * h + offset * h_min: while the
    controller keeps h at h_max, the n-th step ends offset * h_min before
    t_end, in or near the window from which a step lands on t_end. Both
    kernels record the reference's floats, and no run ends on step_floor
    closer to t_end than h_min: every landing step exceeds h_min."""
    t_end = t + n * h + offset * h_min
    if forcing is None:  # a table over the span, its knots stops
        forcing = data.draw(_knotted_tables(t, t_end))
    ctl = hk.AdaptiveStep(abs_tol=1e-3, rel_tol=1e-3, h_init=h, h_min=h_min, h_max=h, blow_up_threshold=1e300)
    bounds = analytic_bounds(params, forcing, (x, y, z))
    rhs = make_rhs(params, forcing)
    stops = run_stops(forcing, t, t_end)
    runs = []
    for stepping in (_integrate, _reference_run):
        for f in (rhs, lambda t, x, y, z: rhs(t, x, y, z)):
            rec = _Recorder(ctl, bounds)
            stepping(f, (x, y, z), t, stops, ctl, rec, 200)
            runs.append(recorded(rec))
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert all(t_end - e.time >= h_min for e in rec.events if e.kind == "step_floor")


@settings(max_examples=150, deadline=None)
@given(
    params=_params, forcing=_forcing,
    t=st.floats(0.0, 50.0), span=st.floats(1e-3, 2.0), h=st.floats(1e-3, 0.5),
    x=_component, y=_component, z=_component, max_steps=st.integers(1, 40),
)
def test_rk4_matches_the_reference_step(params, forcing, t, span, h, x, y, z, max_steps):
    ctl = hk.FixedStep(h=h, blow_up_threshold=1e300)
    bounds = analytic_bounds(params, forcing, (x, y, z))
    rhs = make_rhs(params, forcing)
    runs = []
    for stepping in (_integrate, _reference_run):
        rec = _Recorder(ctl, bounds)
        stepping(rhs, (x, y, z), t, (t + span,), ctl, rec, max_steps)
        runs.append(recorded(rec))
    assert runs[0] == runs[1]


_monitored = st.one_of(
    st.floats(-1e-6, 1e3),
    st.floats(-1e14, 1e14),
    st.sampled_from([math.nan, math.inf, -math.inf, -1e-9, -2e-9, 0.0, 1e12, 2e12]),
)


@settings(max_examples=400, deadline=None)
@given(x=_monitored, y=_monitored, z=_monitored, positivity_tol=st.sampled_from([0.0, 1e-9]))
def test_monitors_match_per_component_loops(persistent_params, x, y, z, positivity_tol):
    forcing = hk.ConstantForcing(20.0)
    bounds = analytic_bounds(persistent_params, forcing, (1.0, 1.0, 1.0))
    ctl = hk.AdaptiveStep(positivity_tol=positivity_tol)
    rec = _Recorder(ctl, bounds)
    done = rec.push(0.5, x, y, z)
    assert (rec.events, done) == _reference_events(ctl, bounds, 0.5, x, y, z)
