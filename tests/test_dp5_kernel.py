"""The straight-line Dormand-Prince step and monitors against generic references.

The references below are the tableau-driven step and the per-component
monitor loops that the unrolled code in ``hbvkit.integrate`` replaced. Run
files are compared byte for byte, so the two must agree on every float,
not merely to a tolerance.
"""

import functools
import math
import operator

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.integrate import (
    BOUND_XY_SLACK,
    BOUND_Z_SLACK,
    _DP_A,
    _DP_C,
    _DP_E,
    MonitorEvent,
    _dp5_step,
    _Recorder,
)
from hbvkit.model import analytic_bounds, make_rhs


def _lsum(terms):
    # Plain left-to-right addition from 0, as the builtin sum() did up to
    # Python 3.11; from 3.12 on, sum() of floats is compensated.
    return functools.reduce(operator.add, terms, 0)


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


@settings(max_examples=400, deadline=None)
@given(
    params=_params, forcing=_forcing,
    t=st.floats(0.0, 50.0), h=st.floats(1e-8, 0.5),
    x=_component, y=_component, z=_component,
    atol=st.floats(1e-14, 1e-3), rtol=st.floats(1e-14, 1e-3),
)
def test_step_matches_generic_tableau(params, forcing, t, h, x, y, z, atol, rtol):
    rhs = make_rhs(params, forcing)
    k1 = rhs(t, x, y, z)
    expected = _reference_dp5_step(rhs, t, h, x, y, z, k1, atol, rtol)
    assume(all(map(math.isfinite, expected[:3] + expected[3] + expected[4:])))
    assert _dp5_step(rhs, t, h, x, y, z, k1, atol, rtol) == expected


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
    rec.push(0.5, x, y, z)
    assert (rec.events, rec.done) == _reference_events(ctl, bounds, 0.5, x, y, z)
