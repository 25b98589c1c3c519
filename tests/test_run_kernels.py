"""Every generated run kernel against the kernel that calls the rhs.

A run kernel is a stepping mode with a stage evaluation: a call of the rhs,
or the constant or sinusoid field written into the stages. ``_integrate``
picks the inlined kernel for a ``make_rhs`` closure of those kinds and the
calling kernel for anything else, so a wrapper that counts calls sees every
evaluation. Whichever kernel runs, the recorded times, states and events
must be the same floats.

The runs below drive each rare branch: the step budget, the step floor,
blow_up, nonfinite and positivity events through push, and the halving on a
NaN error estimate. Table forcing has no inlined kernel; its closure runs
through the calling kernel, which these runs drive through the same
branches. An adaptive step to a non-finite point has a non-finite error
estimate and is rejected, so an adaptive run meets nonfinite only at its
first point.
"""

import functools
import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dp5_kernel import _component, _forcing, _params, recorded

import hbvkit as hk
from hbvkit.integrate import _INLINED, _integrate, _kernel, _Recorder
from hbvkit.model import analytic_bounds, make_rhs

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
    kernel(rhs, field, u0, t0, t_end, ctl, rec, math.inf if max_steps is None else max_steps)
    return rec


@pytest.mark.parametrize("branch", list(BRANCHES))
@pytest.mark.parametrize("kind", list(FORCINGS))
def test_rare_branch_matches_the_calling_kernel(kind, branch):
    u0, t0, t_end, ctl, _, kinds = BRANCHES[branch]
    forcing = FORCINGS[kind](t0, t_end)
    rhs = make_rhs(PARAMS, forcing)
    stages = forcing.kind if forcing.kind in _INLINED else "call"
    rec = _run(_kernel(ctl.mode, stages), rhs, rhs.field[1], branch, forcing)
    calling = _run(_kernel(ctl.mode, "call"), lambda t, x, y, z: rhs(t, x, y, z), None, branch, forcing)
    assert recorded(rec) == recorded(calling)
    assert {e.kind for e in rec.events} >= kinds
    if branch == "nan_error-adaptive":
        (stop,) = [e for e in rec.events if e.kind == "step_floor"]
        assert math.frexp(stop.value / ctl.h_init)[0] == 0.5  # h_init halved, never shrunk by 0.2


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_overflow_error_in_a_stage(mode):
    """A call that raises OverflowError voids the step: DP5 halves h and tries
    again, RK4 records the point as infinite and stops on nonfinite."""
    forcing = hk.ConstantForcing(20.0)
    base = make_rhs(PARAMS, forcing)
    calls = 0

    def rhs(t, x, y, z):
        nonlocal calls
        calls += 1
        if calls == 2:  # k2 of the first step
            raise OverflowError("stage overflowed")
        return base(t, x, y, z)

    ctl = hk.AdaptiveStep(h_init=0.01) if mode == "adaptive" else hk.FixedStep(h=0.01)
    rec = _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE))
    _integrate(rhs, ONE, 0.0, 0.1, ctl, rec, math.inf)
    if mode == "adaptive":
        assert rec.times[1] == 0.005 and not rec.events
    else:
        assert rec.times == [0.0, 0.01] and rec.states[1] == (math.inf,) * 3
        assert [e.kind for e in rec.events] == ["nonfinite"]


def test_integrate_picks_the_kernel_from_the_rhs(monkeypatch):
    picked = []

    def recording(mode, stages):
        picked.append(stages)
        return _kernel(mode, stages)

    monkeypatch.setattr(integrate_module, "_kernel", recording)
    ctl = hk.AdaptiveStep()
    for kind, expected in (("constant", "constant"), ("sinusoid", "sinusoid"), ("table", "call")):
        forcing = FORCINGS[kind](0.0, 1.0)
        rhs = make_rhs(PARAMS, forcing)

        @functools.wraps(rhs)
        def wrapped(t, x, y, z, rhs=rhs):
            return rhs(t, x, y, z)

        for f in (rhs, lambda t, x, y, z, rhs=rhs: rhs(t, x, y, z), wrapped):
            _integrate(f, ONE, 0.0, 1.0, ctl, _Recorder(ctl, analytic_bounds(PARAMS, forcing, ONE)), 10)
        assert wrapped.field == rhs.field  # functools.wraps copied it
        assert picked == [expected, "call", "call"]
        picked.clear()


_controls = st.one_of(
    st.builds(hk.FixedStep, h=st.floats(1e-3, 0.5)),
    st.builds(
        hk.AdaptiveStep,
        abs_tol=st.floats(1e-12, 1e-3), rel_tol=st.floats(1e-12, 1e-3),
        h_init=st.floats(1e-6, 0.5), h_max=st.just(0.5),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    params=_params, forcing=_forcing, ctl=_controls,
    t0=st.floats(0.0, 50.0), span=st.floats(1e-3, 2.0),
    x=_component, y=_component, z=_component,
    max_steps=st.integers(1, 2000),
)
def test_inline_and_calling_kernels_agree(params, forcing, ctl, t0, span, x, y, z, max_steps):
    rhs = make_rhs(params, forcing)
    bounds = analytic_bounds(params, forcing, (x, y, z))
    runs = []
    for f in (rhs, lambda t, x, y, z: rhs(t, x, y, z)):
        rec = _Recorder(ctl, bounds)
        _integrate(f, (x, y, z), t0, t0 + span, ctl, rec, max_steps)
        runs.append(recorded(rec))
    assert runs[0] == runs[1]
