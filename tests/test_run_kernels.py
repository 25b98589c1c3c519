"""Every generated run kernel against the kernel that calls the rhs.

A run kernel is a stepping mode with a stage evaluation: a call of the rhs,
or the field of a forcing kind written into the stages. ``_integrate``
picks the field kernel for a ``make_rhs`` closure of any kind and the
calling kernel for anything else, so a wrapper that counts calls sees every
evaluation. Whichever kernel runs, the recorded times, states and events
must be the same floats.

The runs below drive each rare branch: the step budget, the step floor,
blow_up, nonfinite and positivity events through push, and the halving on a
NaN error estimate. An adaptive step to a non-finite point has a non-finite
error estimate and is rejected, so an adaptive run meets nonfinite only at
its first point. A table kernel keeps its knot segment in locals for the run
and searches the knots only when a stage leaves it.
"""

import functools
import importlib
import math
import re
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dp5_kernel import _component, _forcing, _params, recorded

import hbvkit as hk
from hbvkit.integrate import _integrate, _kernel, _Recorder
from hbvkit.model import analytic_bounds, make_rhs, run_stops
from hbvkit.scenarios import FORCING_KINDS

integrate_module = importlib.import_module("hbvkit.integrate")

PARAMS = hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)
FORCINGS = {
    "constant": lambda t0, t1: hk.ConstantForcing(20.0),
    "sinusoid": lambda t0, t1: hk.SinusoidForcing(amplitude=5.0, omega=3.0, phase=0.5, offset=20.0),
    "table": lambda t0, t1: hk.PiecewiseLinearForcing((t0, 0.5 * (t0 + t1), t1), (20.0, 25.0, 18.0)),
}
ONE = (1.0, 1.0, 1.0)

# branch -> u0, t0, t_end, control, max_steps, the event kinds it must fire
BRANCHES = {
    "step_budget-adaptive": (ONE, 0.0, 2.0, hk.AdaptiveStep(), 5, {"step_budget"}),
    "step_budget-fixed": (ONE, 0.0, 2.0, hk.FixedStep(h=0.01), 5, {"step_budget"}),
    "step_floor-adaptive": (ONE, 0.0, 2.0, hk.AdaptiveStep(h_min=0.05, h_init=0.1), None, {"step_floor"}),
    # t + h rounds back to t
    "step_floor-fixed": (ONE, 1e6, 1e6 + 1e-6, hk.FixedStep(h=1e-11), None, {"step_floor"}),
    "blow_up-adaptive": (ONE, 0.0, 5.0, hk.AdaptiveStep(blow_up_threshold=3.0), None, {"blow_up"}),
    # RK4 far outside its stability region
    "blow_up-fixed": (ONE, 0.0, 40.0, hk.FixedStep(h=1.0), None, {"positivity_violation", "blow_up"}),
    "nonfinite-adaptive": ((math.nan, 1.0, 1.0), 0.0, 2.0, hk.AdaptiveStep(), None, {"nonfinite"}),
    "nonfinite-fixed": (
        ONE, 0.0, 400.0, hk.FixedStep(h=1.0, blow_up_threshold=1.7e308), None,
        {"positivity_violation", "nonfinite"},
    ),
    # z < 0 drives y below zero after the first point
    "positivity-adaptive": ((1.0, 0.5, -2.0), 0.0, 5.0, hk.AdaptiveStep(), None, {"positivity_violation"}),
    # beta * x * z overflows: every error estimate is NaN, so h halves to the floor
    "nan_error-adaptive": (
        (1e200, 0.0, 1e200), 0.0, 5.0, hk.AdaptiveStep(blow_up_threshold=1e300), None, {"step_floor"},
    ),
}


def _run(kernel, rhs, field, branch, forcing):
    u0, t0, t_end, ctl, max_steps, _ = BRANCHES[branch]
    rec = _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE))
    kernel(rhs, field, u0, t0, run_stops(forcing, t0, t_end), ctl, rec, math.inf if max_steps is None else max_steps)
    return rec


@pytest.mark.parametrize("branch", list(BRANCHES))
@pytest.mark.parametrize("kind", list(FORCINGS))
def test_rare_branch_matches_the_calling_kernel(kind, branch):
    u0, t0, t_end, ctl, _, kinds = BRANCHES[branch]
    forcing = FORCINGS[kind](t0, t_end)
    rhs = make_rhs(PARAMS, forcing)
    rec = _run(_kernel(ctl.mode, forcing.kind), rhs, rhs.field[1], branch, forcing)
    calling = _run(_kernel(ctl.mode, "call"), lambda t, x, y, z: rhs(t, x, y, z), None, branch, forcing)
    assert recorded(rec) == recorded(calling)
    assert {e.kind for e in rec.events} >= kinds
    if branch == "nan_error-adaptive":
        (stop,) = [e for e in rec.events if e.kind == "step_floor"]
        assert math.frexp(stop.value / ctl.h_init)[0] == 0.5  # h_init halved, never shrunk by 0.2


def test_integrate_picks_the_kernel_from_the_rhs(monkeypatch):
    picked = []

    def recording(mode, stages):
        picked.append(stages)
        return _kernel(mode, stages)

    monkeypatch.setattr(integrate_module, "_kernel", recording)
    ctl = hk.AdaptiveStep()
    forcings = {forcing.kind: forcing for forcing in (f(0.0, 1.0) for f in FORCINGS.values())}
    for kind in FORCING_KINDS:  # a kind with no example or no field text fails here
        forcing = forcings[kind]
        rhs = make_rhs(PARAMS, forcing)

        @functools.wraps(rhs)
        def wrapped(t, x, y, z, rhs=rhs):
            return rhs(t, x, y, z)

        for f in (rhs, lambda t, x, y, z, rhs=rhs: rhs(t, x, y, z), wrapped):
            _integrate(f, ONE, 0.0, (1.0,), ctl, _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE)), 10)
        assert wrapped.field == rhs.field  # functools.wraps copied it
        assert picked == [kind, "call", "call"]
        picked.clear()


_controls = st.one_of(
    st.builds(hk.FixedStep, h=st.floats(1e-3, 0.5)),
    st.builds(
        hk.AdaptiveStep,
        abs_tol=st.floats(1e-12, 1e-3), rel_tol=st.floats(1e-12, 1e-3),
        h_init=st.floats(1e-6, 0.5), h_max=st.just(0.5),
    ),
)


@st.composite
def _tables(draw, t0, t_end, ctl):
    """Tables that cover [t0, t_end]: each end of the span a knot or inside
    the table, knots inside the span, under RK4 some on its grid t0 + i*h,
    and values far apart, so that the slope of the rate jumps at each knot
    (DP5 lands on them; ``test_dp5_kernel`` draws knots close enough together
    to be crossed)."""
    knots = {draw(st.sampled_from([t0, t0 - 0.5])), draw(st.sampled_from([t_end, t_end + 0.5]))}
    knots.update(draw(st.lists(st.floats(t0, t_end), max_size=5)))
    if ctl.mode == "fixed":
        grid = draw(st.lists(st.integers(1, max(1, int((t_end - t0) / ctl.h))), max_size=3))
        knots.update(t for t in (t0 + i * ctl.h for i in grid) if t <= t_end)
    values = draw(st.lists(st.floats(1.0, 1e3), min_size=len(knots), max_size=len(knots)))
    return hk.PiecewiseLinearForcing(tuple(sorted(knots)), tuple(values))


@settings(max_examples=300, deadline=None)
@given(
    params=_params, forcing=st.one_of(_forcing, st.none()), ctl=_controls,
    t0=st.floats(0.0, 50.0), span=st.floats(1e-3, 2.0),
    x=_component, y=_component, z=_component,
    max_steps=st.integers(1, 2000), data=st.data(),
)
def test_inline_and_calling_kernels_agree(params, forcing, ctl, t0, span, x, y, z, max_steps, data):
    if forcing is None:  # a table over the span
        forcing = data.draw(_tables(t0, t0 + span, ctl))
    rhs = make_rhs(params, forcing)
    bounds = analytic_bounds(params, forcing, (x, y, z))
    runs = []
    for f in (rhs, lambda t, x, y, z: rhs(t, x, y, z)):
        rec = _Recorder(ctl, bounds)
        _integrate(f, (x, y, z), t0, run_stops(forcing, t0, t0 + span), ctl, rec, max_steps)
        runs.append(recorded(rec))
    assert runs[0] == runs[1]


TABLE = hk.PiecewiseLinearForcing((0.0, 0.333, 1.01, 1.7, 2.5), (20.0, 60.0, 15.0, 40.0, 22.0))


def _stage_times(forcing, ctl, t_end):
    """The time of each stage a run evaluates, in order, from the calling kernel."""
    rhs = make_rhs(PARAMS, forcing)
    times = []

    def recording(t, x, y, z):
        times.append(t)
        return rhs(t, x, y, z)

    rec = _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE))
    _integrate(recording, ONE, 0.0, run_stops(forcing, 0.0, t_end), ctl, rec, math.inf)
    return times


def _entries(forcing, stage_times):
    """The stage times at which a run enters a knot segment other than the one
    it holds, starting from the first. A stage at the time of the stage before
    it reads that stage's rate and seats nothing: RK4's stage 3 and DP5's
    stage 7 always, RK4's stage 1 when t is the last step's stage-4 time."""
    x0, x1, *_ = forcing.segments[0]
    entries = []
    for prev, t in zip([None, *stage_times], stage_times):
        if t != prev and not x0 <= t < x1:
            entries.append(t)
            x0, x1, *_ = forcing.segments[bisect_right(forcing.times, t) - 1]
    return entries


@pytest.mark.parametrize(
    "ctl", [hk.FixedStep(h=0.01), hk.AdaptiveStep(abs_tol=1e-12, rel_tol=1e-12)], ids=["fixed", "adaptive"]
)
def test_table_kernel_searches_once_per_segment_entered(ctl, monkeypatch):
    """The kernel keeps its knot segment in locals for the run: it searches the
    knots when a stage enters another segment, and at no other stage."""
    kernel = _kernel(ctl.mode, TABLE.kind)
    knot_index = kernel.__globals__["_knot_index"]
    searches = []

    def counting(t, times):
        searches.append(t)
        return knot_index(t, times)

    monkeypatch.setitem(kernel.__globals__, "_knot_index", counting)
    rec = _Recorder(ctl, analytic_bounds(PARAMS, TABLE, ONE))
    _integrate(make_rhs(PARAMS, TABLE), ONE, 0.0, run_stops(TABLE, 0.0, 2.5), ctl, rec, math.inf)
    assert rec.times[-1] == 2.5 and not rec.events
    stage_times = _stage_times(TABLE, ctl, 2.5)
    assert searches == _entries(TABLE, stage_times)
    assert len(searches) * 20 < len(stage_times)
    # forward only, DP5 too since it lands on each knot: one search per knot
    # passed, the last one at t_end, where DP5's stage 7 reads stage 6's rate
    assert [bisect_right(TABLE.times, t) - 1 for t in searches] == [1, 2, 3, 4]


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize(
    "t0, stops", [(0.0, (0.5, 1.0, 1.5)), (-0.25, (0.0, 0.5, 1.0))], ids=["past-the-end", "before-the-start"]
)
def test_table_off_the_span_raises_as_the_calling_kernel_does(mode, t0, stops):
    # the knots inside the span, then t_end: run_stops refuses this span, so
    # the kernel meets the table's end in a stage
    forcing = hk.PiecewiseLinearForcing((0.0, 0.5, 1.0), (20.0, 25.0, 18.0))
    ctl = hk.FixedStep(h=0.1) if mode == "fixed" else hk.AdaptiveStep()
    rhs = make_rhs(PARAMS, forcing)
    outcomes = []
    for f in (rhs, lambda t, x, y, z: rhs(t, x, y, z)):
        rec = _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE))
        with pytest.raises(hk.OutOfDomainError, match=r"outside the tabulated range \[0.0, 1.0\]") as info:
            _integrate(f, ONE, t0, stops, ctl, rec, math.inf)
        outcomes.append((str(info.value), recorded(rec)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize(
    "t0, t_end, message",
    [
        (0.0, 1.5, "forcing.times ends at 1.0, before the t_span end 1.5"),
        (-0.25, 1.0, "forcing.times starts at 0.0, after the t_span start -0.25"),
    ],
    ids=["past-the-end", "before-the-start"],
)
def test_integrate_refuses_a_table_off_the_span_before_any_step(monkeypatch, mode, t0, t_end, message):
    forcing = hk.PiecewiseLinearForcing((0.0, 0.5, 1.0), (20.0, 25.0, 18.0))
    ctl = hk.FixedStep(h=0.1) if mode == "fixed" else hk.AdaptiveStep()
    runs = []
    monkeypatch.setattr(integrate_module, "_integrate", lambda *args: runs.append(args))
    with pytest.raises(hk.OutOfDomainError, match=re.escape(message)):
        hk.integrate(PARAMS, forcing, ONE, t0, t_end, ctl)
    assert runs == []


# Rates steep enough at t = 0.46 that one ulp of time moves them.
OFF_GRID = {
    "table": hk.PiecewiseLinearForcing((-0.04, 0.45, 0.5, 2.96), (20.0, 1.0, 1000.0, 20.0)),
    "sinusoid": hk.SinusoidForcing(amplitude=15.0, omega=256.0, phase=0.5, offset=20.0),
}


@pytest.mark.parametrize("kind", sorted(OFF_GRID))
def test_rk4_takes_its_own_rate_where_t_is_off_the_last_stage_time(kind):
    """Stage 1 of an RK4 step reads the rate stage 4 of the step before took
    only when t equals that stage's time t4. From t0 = -0.04 with h = 0.25,
    the second step runs from t0 + h = 0.21 to t0 + 2*h, but 0.21 plus the
    step t0 + 2*h - 0.21 rounds one ulp off t0 + 2*h, where the rate differs:
    the third step's stage 1 takes its own rate, as the calling kernel does."""
    t0, t_end, ctl = -0.04, 2.96, hk.FixedStep(h=0.25)
    params = hk.Parameters(mu1=0.5, mu2=0.7, mu3=0.4, beta=0.3, eta=0.5, epsilon=0.1, p=0.2, q=0.3)
    forcing = OFF_GRID[kind]
    rhs = make_rhs(params, forcing)
    stage_times = []

    def calling(t, x, y, z):
        stage_times.append(t)
        return rhs(t, x, y, z)

    runs = []
    for f in (rhs, calling):
        rec = _Recorder(ctl, analytic_bounds(params, forcing, ONE))
        _integrate(f, ONE, t0, run_stops(forcing, t0, t_end), ctl, rec, math.inf)
        assert rec.times[-1] == t_end and not rec.events
        runs.append(recorded(rec))
    assert runs[0] == runs[1]
    # (stage-4 time of step k, stage-1 time of step k + 1): equal but for k = 2
    pairs = [(stage_times[j - 1], stage_times[j]) for j in range(4, len(stage_times), 4)]
    assert [k for k, (t4, t) in enumerate(pairs, 1) if t4 != t] == [2]
    t4, t = pairs[1]
    assert t == t0 + 2 * 0.25 and t4 in (math.nextafter(t, 0.0), math.nextafter(t, 1.0))
    assert forcing(t4) != forcing(t)
