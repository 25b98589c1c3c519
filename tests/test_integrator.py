import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.integrate import TERMINAL_EVENT_KINDS, MonitorEvent
from hbvkit.process import ProcessTerminatedError, require_complete

DFE2 = np.array([4.90675, 0.0, 0.0])


def test_exact_fixed_point_stays_put(clearing_params, clearing_forcing):
    traj = hk.integrate(
        clearing_params, clearing_forcing, DFE2, 0.0, 10.0, hk.FixedStep(h=0.01)
    )
    assert np.max(np.abs(traj.states - DFE2)) <= 1e-12
    assert traj.events == ()


def test_adaptive_run_reaches_infection_free_state(clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, tight_ctl)
    assert np.max(np.abs(traj.final_state - DFE2)) <= 1e-5
    assert traj.events == ()
    assert np.all(np.diff(traj.times) > 0.0)


def test_oversized_fixed_step_blows_up(clearing_params, clearing_forcing):
    # |h*lambda| ~ 8 is far outside the RK4 stability region, so the numerical
    # solution diverges even though the true one is bounded
    traj = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, hk.FixedStep(h=1.0)
    )
    assert traj.terminated
    terminal = [e for e in traj.events if e.kind in ("blow_up", "nonfinite")]
    assert terminal
    assert traj.final_time < 15.0
    # the terminating record is the last one
    assert terminal[0].time == traj.final_time

    # fine-step oracle on the same problem stays bounded
    oracle = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, hk.FixedStep(h=0.001)
    )
    assert not oracle.terminated
    assert np.max(oracle.states) < 10.0


def test_richardson_order_nonlinear(clearing_params, clearing_forcing):
    order = hk.richardson_order(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, 0.05)
    assert 3.7 <= order <= 4.3


def test_richardson_order_linear_regime(clearing_params, clearing_forcing):
    u0 = DFE2 + 1e-6
    order = hk.richardson_order(clearing_params, clearing_forcing, u0, 0.0, 2.0, 0.05)
    assert 3.7 <= order <= 4.3


def test_richardson_propagates_instability(clearing_params, clearing_forcing):
    with pytest.raises(RuntimeError):
        hk.richardson_order(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, 1.0)


def test_richardson_raises_through_the_one_completeness_check(clearing_params, clearing_forcing):
    # process re-exports the check that integrate defines
    integrate_module = importlib.import_module("hbvkit.integrate")
    assert require_complete is integrate_module.require_complete
    assert ProcessTerminatedError is integrate_module.ProcessTerminatedError
    with pytest.raises(ProcessTerminatedError, match=r"^run with h=1\.0 terminated at t="):
        hk.richardson_order(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, 1.0)


def _ndarray_richardson_order(params, forcing, u0, t0, t_end, h):
    """richardson_order as it was written on arrays, kept as the reference."""
    finals = []
    for step in (h, h / 2.0, h / 8.0):
        traj = hk.integrate(params, forcing, u0, t0, t_end, hk.FixedStep(h=step))
        require_complete(traj, f"run with h={step}")
        finals.append(traj.final_state)
    err_h = float(np.max(np.abs(finals[0] - finals[2])))
    err_h2 = float(np.max(np.abs(finals[1] - finals[2])))
    if err_h == 0.0 or err_h2 == 0.0:
        raise RuntimeError("errors vanished; h too small to estimate an order")
    return math.log2(err_h / err_h2)


def _order_bits(fn, *args):
    try:
        return fn(*args).hex()
    except (RuntimeError, ProcessTerminatedError) as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None)
@given(
    u0=st.tuples(*[st.floats(0.0, 10.0) | st.sampled_from([-0.0, 4.90675])] * 3),
    h=st.floats(0.05, 0.5),
)
@example(u0=(4.90675, 0.0, 0.0), h=0.25)  # the infection-free state: the errors vanish
@example(u0=(1.0, -0.0, 1.0), h=0.5)
def test_richardson_order_gives_the_ndarray_bits(clearing_params, clearing_forcing, wave_forcing, u0, h):
    for forcing in (clearing_forcing, wave_forcing):
        args = (clearing_params, forcing, u0, 0.0, 1.0, h)
        assert _order_bits(hk.richardson_order, *args) == _order_bits(_ndarray_richardson_order, *args)


def test_adaptive_agrees_with_fine_fixed_reference():
    # shared output time = span end; compare against h=1e-4 RK4 on a span
    # prefix so the check stays at desk scale for the long scenario
    for sid, scenario in sorted(hk.SCENARIOS.items()):
        t0 = scenario.t_span[0]
        t_end = min(scenario.t_span[1], t0 + 5.0)
        adaptive = hk.integrate(
            scenario.params, scenario.forcing, scenario.u0, t0, t_end, scenario.control
        )
        fixed = hk.integrate(
            scenario.params, scenario.forcing, scenario.u0, t0, t_end, hk.FixedStep(h=1e-4)
        )
        band = 10.0 * (
            scenario.control.abs_tol + scenario.control.rel_tol * np.abs(fixed.final_state)
        )
        gap = np.abs(adaptive.final_state - fixed.final_state)
        assert np.all(gap <= band), f"{sid}: gap {gap} outside band {band}"


def test_monitors_silent_on_all_benchmarks():
    for sid, scenario in sorted(hk.SCENARIOS.items()):
        traj = hk.integrate(
            scenario.params, scenario.forcing, scenario.u0, *scenario.t_span, scenario.control
        )
        kinds = {e.kind for e in traj.events}
        assert "positivity_violation" not in kinds, sid
        assert "bound_violation" not in kinds, sid
        assert not traj.terminated, sid


def test_analytic_ceilings_hold_on_all_benchmarks():
    for sid, scenario in sorted(hk.SCENARIOS.items()):
        traj = hk.integrate(
            scenario.params, scenario.forcing, scenario.u0, *scenario.t_span, scenario.control
        )
        xy = traj.states[:, 0] + traj.states[:, 1]
        assert np.all(xy <= traj.bounds.M * (1.0 + 1e-6)), sid
        assert np.all(traj.states[:, 2] <= traj.bounds.z_ceiling * (1.0 + 1e-3)), sid


def test_step_floor_terminates(clearing_params, clearing_forcing):
    ctl = hk.AdaptiveStep(
        abs_tol=1e-14, rel_tol=1e-14, h_init=0.25, h_min=0.25, h_max=0.25
    )
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, ctl)
    assert traj.terminated
    assert traj.events[-1].kind == "step_floor"


def test_adaptive_span_below_h_min_is_refused_before_any_step(clearing_params, clearing_forcing):
    ctl = hk.AdaptiveStep()  # h_min = 1e-12
    with pytest.raises(ValueError, match=r"the span \[0.0, 1e-13\] is shorter than one adaptive step of h_min=1e-12"):
        hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1e-13, ctl)
    with pytest.raises(ValueError, match=r"span \[-1e-300, 0.0\]"):
        hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), -1e-300, 0.0, ctl)
    # a landing step of exactly h_min is taken
    exact = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1e-12, ctl)
    assert exact.time_list == [0.0, 1e-12] and not exact.events
    # fixed-step RK4 has no h_min and steps the short span
    fixed = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1e-13, hk.FixedStep(h=0.01))
    assert fixed.time_list == [0.0, 1e-13] and not fixed.terminated


def test_fixed_step_below_time_spacing_is_a_step_floor(clearing_params, clearing_forcing):
    # at t = 1e6 the float spacing is 1.2e-10, so t + 1e-11 rounds back to t
    ctl = hk.FixedStep(h=1e-11)
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 1e6, 1e6 + 1e-6, ctl)
    assert len(traj.times) == 1
    assert traj.terminated
    assert [(e.kind, e.time, e.component, e.value) for e in traj.events] == [
        ("step_floor", 1e6, "h", 1e-11)
    ]
    # near t = 0 the same step advances
    near_zero = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1e-9, ctl)
    assert len(near_zero.times) == 101
    assert not near_zero.terminated


def test_dense_output_matches_fine_reference(clearing_params, clearing_forcing, tight_ctl):
    adaptive = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, tight_ctl)
    fixed = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, hk.FixedStep(h=1e-4)
    )
    rng = np.random.default_rng(3)
    for idx in rng.integers(0, len(fixed.times), 50):
        t = float(fixed.times[idx])
        assert np.max(np.abs(adaptive.sample(t) - fixed.states[idx])) <= 1e-6


def test_sample_outside_range_raises(clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)
    for bad in (-0.5, 1.5, [0.5, -0.5], [0.5, 1.5, 1.0]):
        with pytest.raises(ValueError):
            traj.sample(bad)


def test_sample_nan_raises(clearing_params, clearing_forcing, tight_ctl):
    # every comparison with NaN is false, so a two-sided "outside" test passes it
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)
    for bad in (float("nan"), [0.5, float("nan")]):
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.sample(bad)


def test_csv_round_trips_full_precision(tmp_path, clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


def test_max_steps_truncates(clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, tight_ctl, max_steps=20
    )
    assert traj.final_time < 15.0
    # a run cut short by the budget says so and is not taken as complete
    assert traj.events[-1] == MonitorEvent("step_budget", traj.final_time, "steps", 20.0)
    assert traj.terminated
    fixed = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, hk.FixedStep(h=0.1),
        max_steps=20,
    )
    assert len(fixed.times) == 21
    assert fixed.final_time == 2.0
    assert fixed.events[-1] == MonitorEvent("step_budget", 2.0, "steps", 20.0)
    assert fixed.terminated
    with pytest.raises(ProcessTerminatedError, match=r"t=2\.0 \(step_budget\)"):
        require_complete(fixed, "run")


def test_max_steps_reached_exactly_at_t_end_is_complete(clearing_params, clearing_forcing):
    traj = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, hk.FixedStep(h=0.1),
        max_steps=20,
    )
    assert traj.final_time == 2.0
    assert not traj.events and not traj.terminated


def _assert_lands_on_t_end(params, t0, t_end, ctl):
    """The run ends on t_end, with no recorded time past it, and a table that
    ends at t_end is never read past its last knot."""
    table = hk.PiecewiseLinearForcing(times=(t0, t_end), values=(9.0, 11.0))
    for forcing in (hk.ConstantForcing(10.0), table):
        traj = hk.integrate(params, forcing, (1.0, 1.0, 1.0), t0, t_end, ctl)
        assert not traj.terminated, traj.events
        assert traj.final_time == t_end
        assert np.all(traj.times <= t_end)


@pytest.mark.parametrize(
    "t0, t_end, h", [(0.0, 0.3, 0.1), (0.0, 0.35, 0.01), (0.0, 0.7, 0.1), (0.0, 0.9, 0.3)]
)
def test_fixed_run_lands_on_t_end(clearing_params, t0, t_end, h):
    # t0 + n*h rounds past t_end for the first three and short of it for the last
    _assert_lands_on_t_end(clearing_params, t0, t_end, hk.FixedStep(h=h))


@pytest.mark.parametrize("t_end", [0.009, 0.01])
def test_adaptive_step_to_t_end_does_not_round_past_it(clearing_params, t_end):
    # from t = 0.001 the loose tolerance lets the step reach t_end at once,
    # and 0.001 + (t_end - 0.001) rounds one ulp above t_end
    ctl = hk.AdaptiveStep(abs_tol=1e-2, rel_tol=1e-2, h_init=1e-3, h_max=1.0)
    _assert_lands_on_t_end(clearing_params, 0.0, t_end, ctl)


@settings(max_examples=150, deadline=None)
@given(
    t0=st.floats(0.0, 10.0),
    span=st.floats(0.05, 3.0),
    h=st.floats(1e-3, 0.25),
    tol=st.sampled_from([1e-2, 1e-6, 1e-10]),
)
def test_every_run_lands_on_t_end(clearing_params, t0, span, h, tol):
    t_end = t0 + span
    _assert_lands_on_t_end(clearing_params, t0, t_end, hk.FixedStep(h=h))
    # h_max above the span lets a step reach t_end from anywhere
    ctl = hk.AdaptiveStep(abs_tol=tol, rel_tol=tol, h_init=min(h, span), h_max=2.0 * span)
    _assert_lands_on_t_end(clearing_params, t0, t_end, ctl)


def test_terminal_event_kinds_are_final_only(clearing_params, clearing_forcing):
    traj = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 15.0, hk.FixedStep(h=1.0)
    )
    for event in traj.events:
        if event.kind in TERMINAL_EVENT_KINDS:
            assert event.time == traj.final_time


def test_integrate_validates_inputs(clearing_params, clearing_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 1.0, 1.0, tight_ctl)
    with pytest.raises(ValueError):
        hk.integrate(clearing_params, clearing_forcing, (-1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)


@pytest.mark.parametrize("t0, t_end", [(0.0, np.inf), (-np.inf, 5.0)])
@pytest.mark.parametrize("ctl", [hk.FixedStep(h=0.1), hk.AdaptiveStep()], ids=["fixed", "adaptive"])
def test_non_finite_time_span_is_rejected(clearing_params, clearing_forcing, t0, t_end, ctl):
    # the step cap keeps an adaptive run from -inf finite should it be started
    with pytest.raises(ValueError, match="finite"):
        hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), t0, t_end, ctl, max_steps=50)


@pytest.mark.parametrize("t0, t_end, h", [(0.0, 1e308, 1e-10), (-1e308, 1e308, 1.0)])
def test_fixed_step_span_too_long_to_count_is_rejected(clearing_params, clearing_forcing, t0, t_end, h):
    # RK4 counts its whole steps, (t_end - t0) / h, before the first; a count
    # past the float range (or a span that is one) is refused before any step
    with pytest.raises(ValueError, match=r"\(t_end - t0\) / h is not finite") as info:
        hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), t0, t_end, hk.FixedStep(h=h))
    assert f"[{t0}, {t_end}]" in str(info.value) and f"h={h}" in str(info.value)


def test_step_control_validation():
    with pytest.raises(ValueError):
        hk.FixedStep(h=-0.1)
    with pytest.raises(ValueError):
        hk.AdaptiveStep(abs_tol=-1e-10)
    with pytest.raises(ValueError):
        hk.AdaptiveStep(h_init=1e-3, h_min=1e-2)
    # each mode's class has no field for a setting the other mode reads
    with pytest.raises(TypeError):
        hk.FixedStep(h=0.1, abs_tol=1e-6)
    with pytest.raises(TypeError):
        hk.AdaptiveStep(h=0.5)
    # both modes share the monitor thresholds and their checks
    with pytest.raises(ValueError, match="blow_up_threshold must be positive"):
        hk.AdaptiveStep(blow_up_threshold=0.0)
    with pytest.raises(ValueError, match="positivity_tol must be nonnegative"):
        hk.FixedStep(positivity_tol=-1e-9)
