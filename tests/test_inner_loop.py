"""The checks the stepping loops make without a call, against the calls they replace.

A quiet point is appended by the loop itself, so ``_Recorder.quiet`` must be
true exactly when ``push`` would fire no monitor. The sinusoid rhs closure
evaluates the forcing inline, so it must give the bits of ``forcing(t)``.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dp5_kernel import _component, _forcing, _params

import hbvkit as hk
from hbvkit.integrate import _integrate_adaptive, _integrate_fixed, _Recorder
from hbvkit.model import BoundsReport, analytic_bounds, make_rhs, vector_field

PARAMS = hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)
BOUNDS = analytic_bounds(PARAMS, hk.ConstantForcing(20.0), (1.0, 1.0, 1.0))


def _recorder(positivity_tol):
    return _Recorder(hk.AdaptiveStep(positivity_tol=positivity_tol), BOUNDS)


def _ceiling_values():
    # each ceiling, and the floats either side of it
    lo, hi, xy_ceiling, z_ceiling = _recorder(1e-9).quiet_box
    out = []
    for v in (hi, -hi, xy_ceiling, z_ceiling, -1e-9):
        out += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return out


_value = st.one_of(
    st.floats(-1e-6, 1e3),
    st.floats(-1e14, 1e14),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, -2e-9, 2e12, -2e12, 5e12, -5e12,
        *_ceiling_values(),
    ]),
)


def _fires_nothing(positivity_tol, x, y, z):
    rec = _recorder(positivity_tol)
    rec.push(0.5, x, y, z)
    return not rec.events and not rec.done


@settings(max_examples=1000, deadline=None)
@given(x=_value, y=_value, z=_value, positivity_tol=st.sampled_from([0.0, 1e-9, 1e13]))
def test_quiet_is_true_exactly_when_push_fires_nothing(x, y, z, positivity_tol):
    assert _recorder(positivity_tol).quiet(x, y, z) == _fires_nothing(positivity_tol, x, y, z)


@pytest.mark.parametrize(
    "positivity_tol, point, quiet",
    [
        (0.0, (-0.0, -0.0, -0.0), True),
        (0.0, (-5e-324, 0.0, 0.0), False),
        (1e-9, (-1e-9, 0.0, 0.0), True),
        (1e-9, (0.0, -2e-9, 0.0), False),
        # below -blow_up_threshold, which a bare -positivity_tol floor would let by
        (1e13, (-5e12, 0.0, 0.0), False),
        (1e13, (-1e12, 0.0, 0.0), True),
        (1e-9, (BOUNDS.M * (1.0 + 1e-6), 0.0, 0.0), True),
        (1e-9, (0.0, 0.0, BOUNDS.z_ceiling * (1.0 + 1e-3)), True),
        (1e-9, (math.nextafter(BOUNDS.M * (1.0 + 1e-6), math.inf), 0.0, 0.0), False),
        (1e-9, (0.0, 0.0, math.nan), False),
        (1e-9, (0.0, -math.inf, 0.0), False),
    ],
)
def test_quiet_edge_cases(positivity_tol, point, quiet):
    assert _recorder(positivity_tol).quiet(*point) is quiet
    assert _fires_nothing(positivity_tol, *point) is quiet


class _PushEveryPoint(_Recorder):
    """A recorder whose quiet test never passes, so every point goes through push."""

    def __init__(self, ctl, bounds):
        super().__init__(ctl, bounds)
        self.quiet_box = (math.nan,) * 4


_LOOPS = {
    "fixed": (_integrate_fixed, hk.FixedStep(h=0.1)),
    "adaptive": (_integrate_adaptive, hk.AdaptiveStep(h_init=0.1, h_max=0.1)),
}


@pytest.mark.parametrize("mode", list(_LOOPS))
@pytest.mark.parametrize(
    "velocity, positivity_tol, ceiling",
    [
        ((1.0, 0.0, 0.0), 1e-9, 3.0),  # x + y ceiling
        ((0.0, 1.0, 0.0), 1e-9, 3.0),
        ((0.0, 0.0, 1.0), 1e-9, 3.0),  # z ceiling
        ((-1.0, 0.0, 0.0), 1e-9, 3.0),  # positivity, one component at a time
        ((0.0, -1.0, 0.0), 1e-9, 3.0),
        ((0.0, 0.0, -1.0), 0.0, 3.0),
        # blow_up, with ceilings above the threshold so that only it fires
        ((1e12, 0.0, 0.0), 1e-9, 1e15),
        ((0.0, 1e12, 0.0), 1e-9, 1e15),
        ((0.0, 0.0, 1e12), 1e-9, 1e15),
        ((0.0, 0.0, -1e12), 1e13, 1e15),  # below -blow_up_threshold
    ],
)
def test_loops_record_what_push_records(mode, velocity, positivity_tol, ceiling):
    # a constant vector field moves the state along a line through the monitors
    loop, ctl = _LOOPS[mode]
    ctl = dataclasses.replace(ctl, positivity_tol=positivity_tol)
    bounds = BoundsReport(M=ceiling, z_ceiling=ceiling, l1_alpha=None, l1_ceiling=None)

    def rhs(t, x, y, z):
        return velocity

    runs = []
    for recorder in (_Recorder, _PushEveryPoint):
        rec = recorder(ctl, bounds)
        loop(rhs, (1.0, 1.0, 1.0), 0.0, 4.0, ctl, rec, 1000)
        runs.append((rec.times, rec.states, rec.events, rec.done))
    assert runs[0] == runs[1]
    assert runs[0][2], "the run fired no monitor"


_sinusoid = _forcing.filter(lambda f: not f.is_constant)


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=400, deadline=None)
@given(
    params=_params, forcing=_sinusoid, t=st.floats(0.0, 50.0),
    x=_component, y=_component, z=_component,
)
def test_sinusoid_rhs_has_the_bits_of_forcing_call(params, forcing, t, x, y, z):
    infect = params.beta_eff * x * z
    expected = (
        forcing(t) - params.mu1 * x - infect + params.q * y,
        infect - (params.mu2 + params.q) * y,
        params.prod_eff * y - params.mu3 * z,
    )
    assert _bits(make_rhs(params, forcing)(t, x, y, z)) == _bits(expected)
    assert _bits(vector_field(params, forcing, t, (x, y, z)).tolist()) == _bits(expected)
