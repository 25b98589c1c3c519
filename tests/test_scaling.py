"""The model's two exact scaling symmetries, as oracle-free tests.

Population: multiply x, y, z and the production rate by c and divide beta by
c; the solution is c * u(t). Time: multiply every rate (omega included) by c
and divide every time by c; the solution is u(c * t). With c a power of two,
binary floating point keeps both bit for bit, provided the step control
scales too and no value overflows or goes subnormal: population scaling takes
abs_tol, positivity_tol and blow_up_threshold times c, time scaling h,
h_init, h_min and h_max divided by c. So a run and its scaled copy must
record the same number of points, the scaled times, the scaled states and
the scaled events, exactly.

The draws keep rates in [0.1, 10] and spans within [1, 4] time units of the
unscaled run, so no state decays into the subnormals, and c = 2**k with
|k| <= 10.

A run stops once t reaches ``t_end - 1e-14 * (t_end - t0)``, a window
relative to the span, so it scales with time too; the time-scaling test
shrinks and stretches runs by c = 2**k as drawn, spans below one time unit
included.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.model import Forcing

_RATES = ("mu1", "mu2", "mu3", "beta", "p", "q")
# event components that are states, and so scale with the population
_STATE_COMPONENTS = frozenset({"x", "y", "z", "x+y"})


class Run(NamedTuple):
    params: hk.Parameters
    forcing: Forcing
    u0: tuple[float, float, float]
    t_end: float
    ctl: hk.StepControl
    max_steps: int | None

    def integrate(self) -> hk.Trajectory:
        return hk.integrate(self.params, self.forcing, self.u0, 0.0, self.t_end, self.ctl, self.max_steps)


def _scale_forcing_values(forcing, c):
    if forcing.kind == "constant":
        return hk.ConstantForcing(forcing.value * c)
    if forcing.kind == "sinusoid":
        return dataclasses.replace(forcing, amplitude=forcing.amplitude * c, offset=forcing.offset * c)
    return dataclasses.replace(forcing, values=tuple(v * c for v in forcing.values))


def population_scaled(run: Run, c: float) -> Run:
    ctl = dataclasses.replace(
        run.ctl, positivity_tol=run.ctl.positivity_tol * c, blow_up_threshold=run.ctl.blow_up_threshold * c,
    )
    if ctl.mode == "adaptive":
        ctl = dataclasses.replace(ctl, abs_tol=ctl.abs_tol * c)
    return run._replace(
        params=dataclasses.replace(run.params, beta=run.params.beta / c),
        forcing=_scale_forcing_values(run.forcing, c),
        u0=tuple(v * c for v in run.u0),
        ctl=ctl,
    )


def time_scaled(run: Run, c: float) -> Run:
    forcing = _scale_forcing_values(run.forcing, c)  # the production rate is a rate
    if forcing.kind == "sinusoid":
        forcing = dataclasses.replace(forcing, omega=forcing.omega * c)
    elif forcing.kind == "piecewise_linear":
        forcing = dataclasses.replace(forcing, times=tuple(t / c for t in forcing.times))
    if run.ctl.mode == "fixed":
        ctl = dataclasses.replace(run.ctl, h=run.ctl.h / c)
    else:
        ctl = dataclasses.replace(
            run.ctl, h_init=run.ctl.h_init / c, h_min=run.ctl.h_min / c, h_max=run.ctl.h_max / c,
        )
    return run._replace(
        params=dataclasses.replace(run.params, **{name: getattr(run.params, name) * c for name in _RATES}),
        forcing=forcing,
        t_end=run.t_end / c,
        ctl=ctl,
    )


_rate = st.floats(0.1, 10.0)
_params = st.builds(
    hk.Parameters,
    mu1=_rate, mu2=_rate, mu3=_rate, beta=_rate,
    eta=st.floats(0.0, 0.9), epsilon=st.floats(0.0, 0.9),
    p=_rate, q=_rate,
)
_k = st.integers(-10, 10)
# zero, or clear of the subnormals after a shrink by 2**-10
_fraction = st.just(0.0) | st.floats(1e-3, 0.9)


@st.composite
def _forcing(draw, t_end):
    level = draw(_rate)
    kind = draw(st.sampled_from(["constant", "sinusoid", "piecewise_linear"]))
    if kind == "constant":
        return hk.ConstantForcing(level)
    if kind == "sinusoid":
        return hk.SinusoidForcing(
            amplitude=level * draw(_fraction), omega=draw(st.floats(0.1, 10.0)),
            phase=draw(st.floats(0.0, 6.3)), offset=level,
        )
    inner = draw(st.lists(st.floats(1e-3, 0.999), max_size=5))
    times = (0.0, *sorted({t_end * s for s in inner}), t_end)
    values = [level * draw(st.floats(0.5, 2.0)) for _ in times]
    return hk.PiecewiseLinearForcing(times, tuple(values))


@st.composite
def _control(draw, t_end):
    tol = st.floats(1e-10, 1e-5)
    positivity_tol = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    if draw(st.booleans()):
        return hk.FixedStep(h=t_end / draw(st.floats(5.0, 400.0)), positivity_tol=positivity_tol)
    h_max = draw(st.floats(0.01, 1.0))
    return hk.AdaptiveStep(
        abs_tol=draw(tol), rel_tol=draw(tol), h_init=h_max * draw(st.floats(1e-3, 1.0)),
        h_min=1e-12, h_max=h_max, positivity_tol=positivity_tol,
    )


@st.composite
def _runs(draw):
    t_end = draw(st.floats(1.0, 4.0))
    return Run(
        params=draw(_params),
        forcing=draw(_forcing(t_end)),
        u0=tuple(draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 10.0)) for _ in range(3)),
        t_end=t_end,
        ctl=draw(_control(t_end)),
        # a budget below the run's step count ends it on a step_budget event
        max_steps=draw(st.none() | st.integers(1, 200)),
    )


def _assert_population_scaled(run, c):
    base, scaled = run.integrate(), population_scaled(run, c).integrate()
    assert len(scaled.times) == len(base.times)
    assert np.array_equal(scaled.times, base.times)
    assert np.array_equal(scaled.states, base.states * c, equal_nan=True)
    assert scaled.events == tuple(
        dataclasses.replace(e, value=e.value * c) if e.component in _STATE_COMPONENTS else e
        for e in base.events
    )
    return base


def _assert_time_scaled(run, c):
    base, scaled = run.integrate(), time_scaled(run, c).integrate()
    assert len(scaled.times) == len(base.times)
    assert np.array_equal(scaled.times, base.times / c)
    assert np.array_equal(scaled.states, base.states, equal_nan=True)
    assert scaled.events == tuple(
        dataclasses.replace(e, time=e.time / c, value=e.value / c if e.component == "h" else e.value)
        for e in base.events
    )


@settings(max_examples=150, deadline=None)
@given(run=_runs(), k=_k)
def test_population_scaling_is_exact(run, k):
    _assert_population_scaled(run, 2.0**k)


@settings(max_examples=150, deadline=None)
@given(run=_runs(), k=_k)
def test_time_scaling_is_exact(run, k):
    _assert_time_scaled(run, 2.0**k)


def test_time_scaling_holds_below_a_unit_span(persistent_params):
    # The fifth step ends 2e-14 short of t_end = 0.5; shrunk by 4, 5e-15 short.
    # A window of 1e-14 * max(1, |t_end|) took a sixth step of 2e-14 in the
    # first run only; a window relative to the span takes it in both.
    run = Run(persistent_params, hk.ConstantForcing(20.0), (1.0, 1.0, 1.0), 0.5,
              hk.FixedStep(h=(0.5 - 2e-14) / 5), None)
    _assert_time_scaled(run, 4.0)


def test_scaled_runs_fire_every_kind_of_scaled_event(persistent_params):
    # the hypothesis draws rarely fire monitors; here each kind fires and scales
    rate = hk.ConstantForcing(20.0)
    runs = [
        Run(persistent_params, rate, (1.0, 1.0, 1.0), 2.0, hk.AdaptiveStep(), 5),  # step_budget
        Run(persistent_params, rate, (1.0, 1.0, 1.0), 2.0, hk.AdaptiveStep(h_min=0.05, h_init=0.1), None),
        # RK4 far outside its stability region: positivity, bounds, then blow_up
        Run(persistent_params, rate, (1.0, 1.0, 1.0), 40.0, hk.FixedStep(h=1.0), None),
    ]
    kinds = set()
    for run in runs:
        for c in (2.0**-10, 0.5, 4.0, 2.0**10):
            kinds |= {e.kind for e in _assert_population_scaled(run, c).events}
            _assert_time_scaled(run, c)
    assert kinds >= {"step_budget", "step_floor", "positivity_violation", "bound_violation", "blow_up"}


# {{{ analyses


@st.composite
def _constant_runs(draw):
    return Run(draw(_params), hk.ConstantForcing(draw(_rate)), (1.0, 1.0, 1.0), 1.0, hk.FixedStep(), None)


@settings(max_examples=300, deadline=None)
@given(run=_constant_runs(), k=_k)
def test_equilibria_scale_with_the_population(run, k):
    c = 2.0**k
    scaled = population_scaled(run, c)
    for solve in (hk.disease_free, hk.endemic):
        base, other = solve(run.params, run.forcing), solve(scaled.params, scaled.forcing)
        assert other.state == tuple(v * c for v in base.state)
        assert other.residual_norm == base.residual_norm * c
        assert other.feasible == base.feasible
        verdict = hk.equilibria.certified(run.params, run.forcing, base)
        assert hk.equilibria.certified(scaled.params, scaled.forcing, other) == verdict
    assert _dfe_class(scaled) == _dfe_class(run)


def _dfe_class(run):
    dfe = hk.disease_free(run.params, run.forcing)
    return hk.stability_report(run.params, run.forcing, dfe.state).classification


def _classes(run):
    """The class at the infection-free state, and at the endemic state if it
    is feasible."""
    end = hk.endemic(run.params, run.forcing)
    endemic = [hk.stability_report(run.params, run.forcing, end.state).classification] if end.feasible else []
    return [_dfe_class(run), *endemic]


@settings(max_examples=300, deadline=None)
@given(run=_constant_runs(), k=_k)
def test_stability_classes_scale_with_time_and_population(run, k):
    classes = _classes(run)
    assert _classes(time_scaled(run, 2.0**k)) == classes
    assert _classes(population_scaled(run, 2.0**k)) == classes


def test_stability_class_beside_the_threshold_scales():
    """Every rate 1 and lam = 2*(1 + 2**-30): r0_ngm = lam/2 > 1, so the
    infection-free state is unstable at every scale and the endemic state
    stable. Their max Re, +-6.2e-10, read marginal inside an absolute band
    of 1e-9, and in time sped up 16-fold did not."""
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    run = Run(params, hk.ConstantForcing(2.0 * (1.0 + 2.0**-30)), (1.0, 1.0, 1.0), 1.0, hk.FixedStep(), None)
    classes = _classes(run)
    assert classes == ["unstable", "stable"]
    for scaled in (time_scaled(run, 16.0), population_scaled(run, 16.0)):
        assert _classes(scaled) == classes


def test_endemic_state_scales_across_an_absolute_residual_cap():
    """Base residual 1.1e-13 and, times 2**10, 1.16e-10: the two sides of the
    absolute 1e-10 cap an earlier rule certified by. Both states come from
    Newton alone and scale exactly, and so does the ulp certificate."""
    params = hk.Parameters(mu1=0.109375, mu2=0.1, mu3=4.75, beta=1.0, eta=0.0, epsilon=0.0, p=7.0, q=2.0)
    c = 2.0**10
    run = Run(params, hk.ConstantForcing(9.0), (1.0, 1.0, 1.0), 1.0, hk.FixedStep(), None)
    scaled = population_scaled(run, c)
    base, other = hk.endemic(run.params, run.forcing), hk.endemic(scaled.params, scaled.forcing)
    assert base.residual_norm < 1e-10 < other.residual_norm
    assert other.state == tuple(v * c for v in base.state)
    assert hk.equilibria.certified(run.params, run.forcing, base)
    assert hk.equilibria.certified(scaled.params, scaled.forcing, other)


def _assert_lines_scale(base, other, c):
    assert other.all_satisfied == base.all_satisfied
    for line, scaled in zip(base.lines, other.lines, strict=True):
        assert (scaled.lhs, scaled.rhs, scaled.margin) == (line.lhs * c, line.rhs * c, line.margin * c)
        assert scaled.satisfied == line.satisfied


@settings(max_examples=300, deadline=None)
@given(run=_constant_runs(), k=_k, b1=st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 100.0),
       amplitude=_fraction, omega=st.floats(0.1, 10.0))
def test_dfe_and_nonauto_lines_scale_with_time(run, k, b1, amplitude, omega):
    c = 2.0**k
    lam = run.forcing.value
    wave = run._replace(forcing=hk.SinusoidForcing(amplitude=lam * amplitude, omega=omega, phase=0.0, offset=lam))
    cases = [("dfe", run, {}), ("nonauto", run, {"b1": b1}), ("nonauto", wave, {"b1": b1})]
    for set_id, case, options in cases:
        scaled = time_scaled(case, c)
        base = hk.condition_margins(set_id, case.params, case.forcing, **options)
        other = hk.condition_margins(set_id, scaled.params, scaled.forcing, **options)
        _assert_lines_scale(base, other, c)
        for name in ("nu1", "nu2", "nu3", "k"):
            assert other.aux[name] == base.aux[name] * c


@settings(max_examples=300, deadline=None)
@given(run=_constant_runs(), k=_k.filter(lambda k: k != 0))
def test_endemic_y_line_does_not_scale_with_time(run, k):
    # its lhs 2*mu2**2 + mu1*mu2 + p*mu1 + q adds rates squared to the rate q
    c = 2.0**k
    scaled = time_scaled(run, c)
    lines = {
        line.label: line for line in hk.condition_margins("endemic", run.params, run.forcing).lines
    }
    other = {
        line.label: line for line in hk.condition_margins("endemic", scaled.params, scaled.forcing).lines
    }
    y, y_scaled = lines["y-damping"], other["y-damping"]
    assert y_scaled.lhs not in (y.lhs * c, y.lhs * c * c)
    # the x-line is homogeneous of degree 3 and the z-line of degree 1
    for label, degree in (("x-damping", 3), ("z-damping", 1)):
        line, scaled_line = lines[label], other[label]
        assert (scaled_line.lhs, scaled_line.rhs) == (line.lhs * c**degree, line.rhs * c**degree)


# }}}
