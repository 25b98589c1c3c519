"""Adaptive runs land on the knots of a piecewise-linear production table.

The slope of a table's rate jumps at each knot. A DP5 step across a knot
has a failing error estimate, so a run stops at each knot inside its span
(``model.run_stops``): no attempted step has stage times on both sides of
one, and every knot inside the span is an accepted time. A knot too close to
land on, within 2 * h_min of t0, of the knot before it or of the end of the
run, is crossed rather than ending the run on ``step_floor``. ``t_end`` is
the last stop and is landed on by the same rule (``integrate._landings``):
a step that would end within 2 * h_min of a stop lands on it, so no landing
step, onto a knot or onto ``t_end``, is as short as h_min. The calling
kernel, a wrapper that counts rhs calls for instance, takes the same steps.
"""

import functools
import importlib
import math
from bisect import bisect_left

import pytest

import hbvkit as hk
from hbvkit.integrate import _integrate, _landings, _Recorder
from hbvkit.model import analytic_bounds, make_rhs, run_stops

integrate_module = importlib.import_module("hbvkit.integrate")

PARAMS = hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)
CTL = hk.AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25)
ONE = (1.0, 1.0, 1.0)
# knots that are exact binary fractions and inexact decimals
TIMES = (0.0, 0.3, 1.25, 2.0, 2.7, 3.7, 5.0)
VALUES = (20.0, 23.5, 17.25, 21.0, 18.4, 22.1, 19.6)
TABLE = hk.PiecewiseLinearForcing(TIMES, VALUES)
INNER = TIMES[1:-1]
# Accepted times of the run on TABLE from (0, ONE) to 5 under CTL when
# adaptive runs stepped across knots: an arbitrary one, and the last before
# the knot 2.0.
CROSSING_RUN_TIMES = (1.8336807634023669, 1.9999448462108478)


def _with_knot(forcing, knot):
    """The table with one more knot, valued at the table's rate there."""
    pairs = sorted([*zip(forcing.times, forcing.values), (knot, forcing(knot))])
    return hk.PiecewiseLinearForcing(*map(tuple, zip(*pairs)))


def _recorded(traj):
    return repr(traj.time_list), repr(traj.state_list), repr(traj.events)


def _assert_complete(traj, t_end):
    assert not traj.events, traj.events
    assert traj.final_time == t_end


def test_run_stops_are_the_knots_inside_the_span_then_t_end():
    assert run_stops(TABLE, 0.0, 5.0) == (*INNER, 5.0)
    assert run_stops(TABLE, 0.3, 2.7) == (1.25, 2.0, 2.7)
    assert run_stops(TABLE, 0.25, 0.5) == (0.3, 0.5)
    for forcing in (hk.ConstantForcing(20.0), hk.SinusoidForcing(1.0, 2.0, 0.0, 10.0)):
        assert run_stops(forcing, 0.0, 5.0) == (5.0,)


def test_landings_keep_the_knots_two_h_min_apart_then_t_end():
    gap = 2e-12
    stops = (1e-12, 0.3, 0.3 + 1e-12, 2.0, 5.0 - 1e-12, 5.0)
    assert list(_landings(stops, 0.0, gap)) == [(0.3, 0.3 - gap), (2.0, 2.0 - gap), (5.0, 5.0 - gap)]
    assert list(_landings((5.0,), 0.0, gap)) == [(5.0, 5.0 - gap)]


def test_a_free_step_ending_within_two_h_min_of_t_end_lands_on_it():
    """h_init = h_max = 1 - 2e-14 puts the first free step 2e-14 short of
    t_end = 1, within 2 * h_min (2e-12): that step lands on t_end instead of
    leaving a last step of 2e-14, below h_min, that would end the run on
    ``step_floor``."""
    ctl = hk.AdaptiveStep(h_init=1 - 2e-14, h_max=1 - 2e-14)
    traj = hk.integrate(hk.SCENARIOS["table2-dfe"].params, hk.ConstantForcing(9.8135), (4.90675, 0, 0), 0.0, 1.0, ctl)
    assert traj.time_list == [0.0, 1.0]
    assert traj.events == ()


def test_every_knot_inside_the_span_is_an_accepted_time():
    traj = hk.integrate(PARAMS, TABLE, ONE, 0.0, 5.0, CTL)
    _assert_complete(traj, 5.0)
    assert set(INNER) <= set(traj.time_list)


def test_knots_at_or_outside_the_span_add_no_point():
    """Knots at t0 and t_end, and beyond them, leave the run as it is: the
    table with knots before 0 and after 5 has the same rate on [0, 5]."""
    wider = hk.PiecewiseLinearForcing((-1.0, -0.5, *TIMES, 5.5), (30.0, 10.0, *VALUES, 40.0))
    assert run_stops(wider, 0.0, 5.0) == run_stops(TABLE, 0.0, 5.0)
    assert _recorded(hk.integrate(PARAMS, wider, ONE, 0.0, 5.0, CTL)) == _recorded(
        hk.integrate(PARAMS, TABLE, ONE, 0.0, 5.0, CTL)
    )
    # a span inside the table: 0.3 and 2.7 are its ends, not stops
    traj = hk.integrate(PARAMS, TABLE, ONE, 0.3, 2.7, CTL)
    _assert_complete(traj, 2.7)
    assert {1.25, 2.0} <= set(traj.time_list)


def _attempts(forcing, t0, t_end):
    """Each attempted step of a calling-kernel run as (its start, its stage
    times), and the accepted times. The start is the accepted time the
    attempt steps from; the first stage of a step is the last of the step
    before, so each attempt evaluates six new stages."""
    rhs = make_rhs(PARAMS, forcing)
    stage_times = []

    def recording(t, x, y, z):
        stage_times.append(t)
        return rhs(t, x, y, z)

    rec = _Recorder(CTL, analytic_bounds(PARAMS, forcing, ONE))
    _integrate(recording, ONE, t0, run_stops(forcing, t0, t_end), CTL, rec, math.inf)
    times = rec.times
    assert stage_times[0] == t0 and (len(stage_times) - 1) % 6 == 0
    attempts, i = [], 0
    for j in range(1, len(stage_times), 6):
        stages = stage_times[j:j + 6]
        attempts.append((times[i], stages))
        # accepted when its last stage, at t + h, is the next recorded time;
        # a landing step may end an ulp or so short of its stop
        if i + 1 < len(times) and abs(stages[-1] - times[i + 1]) <= 4.0 * math.ulp(times[i + 1]):
            i += 1
    assert i == len(times) - 1  # every accepted point was matched to its attempt
    return attempts, times


@pytest.mark.parametrize("span", [(0.0, 5.0), (0.25, 4.0)])
def test_no_attempted_step_straddles_a_knot(span):
    attempts, times = _attempts(TABLE, *span)
    assert times[-1] == span[1]
    straddled = [
        (start, knot)
        for start, stages in attempts
        for knot in TABLE.times
        if min(start, *stages) < knot < max(stages)
    ]
    assert straddled == []
    assert len(attempts) > len(times)  # some attempts were rejected, and none of them straddled


def test_the_calling_kernel_takes_the_field_kernels_steps(monkeypatch):
    """A wrapper of the closure runs the calling kernel; through ``integrate``
    it gets the forcing's stops too, so it records the same floats."""
    field = hk.integrate(PARAMS, TABLE, ONE, 0.0, 5.0, CTL)
    original = integrate_module.make_rhs

    def wrapping_make_rhs(params, forcing):
        rhs = original(params, forcing)
        return functools.wraps(rhs)(lambda t, x, y, z: rhs(t, x, y, z))

    monkeypatch.setattr(integrate_module, "make_rhs", wrapping_make_rhs)
    calling = hk.integrate(PARAMS, TABLE, ONE, 0.0, 5.0, CTL)
    assert _recorded(calling) == _recorded(field)
    _assert_complete(field, 5.0)


@pytest.mark.parametrize(
    "knot",
    [
        1e-13,  # after t0 by less than h_min
        2e-12,  # 2 * h_min after t0: landed on
        math.nextafter(0.3, math.inf),  # one ulp after a knot
        0.3 + 1.5e-12,  # after a knot by less than 2 * h_min
        math.nextafter(5.0, 0.0),  # one ulp before t_end
        5.0 - 1.5e-12,  # before t_end by less than 2 * h_min
        *(math.nextafter(t, math.inf) for t in CROSSING_RUN_TIMES),
    ],
)
def test_a_knot_near_another_stop_ends_no_run(knot):
    forcing = _with_knot(TABLE, knot)
    traj = hk.integrate(PARAMS, forcing, ONE, 0.0, 5.0, CTL)
    _assert_complete(traj, 5.0)
    assert set(INNER) <= set(traj.time_list)
    if knot in (2e-12, *(math.nextafter(t, math.inf) for t in CROSSING_RUN_TIMES)):
        assert knot in traj.time_list


def test_a_knot_one_ulp_after_an_accepted_time_is_landed_on():
    """The step that would end one ulp short of the new knot ends on it."""
    base = hk.integrate(PARAMS, TABLE, ONE, 0.0, 5.0, CTL).time_list
    for a in base[1:-1:25]:
        if a in TIMES:
            continue
        knot = math.nextafter(a, math.inf)
        traj = hk.integrate(PARAMS, _with_knot(TABLE, knot), ONE, 0.0, 5.0, CTL)
        _assert_complete(traj, 5.0)
        assert traj.time_list[bisect_left(traj.time_list, knot)] == knot


def test_knots_closer_than_two_h_min_are_crossed_with_a_large_h_min():
    # h_min = 0.01: 0.3 is kept, 0.315 lies within 0.02 of it and is crossed
    ctl = hk.AdaptiveStep(abs_tol=1e-4, rel_tol=1e-4, h_init=0.01, h_min=0.01, h_max=0.25)
    forcing = hk.PiecewiseLinearForcing((0.0, 0.3, 0.315, 1.0), (20.0, 22.0, 19.0, 21.0))
    traj = hk.integrate(PARAMS, forcing, ONE, 0.0, 1.0, ctl)
    _assert_complete(traj, 1.0)
    assert 0.3 in traj.time_list and 0.315 not in traj.time_list
