import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbvkit as hk

DFE2 = np.array([4.90675, 0.0, 0.0])


def test_initial_property_is_exact(clearing_params, clearing_forcing, tight_ctl):
    u0 = (1.1, 0.7, 0.3)
    # a tuple, a list or an array u0 comes back as a new triple of Python floats
    for v in (u0, list(u0), np.array(u0)):
        out = hk.process_solve(clearing_params, clearing_forcing, v, 2.5, 2.5, tight_ctl)
        assert out is not v and type(out) is tuple and [type(c) for c in out] == [float] * 3
        assert [c.hex() for c in out] == [c.hex() for c in u0]


def test_query_rejects_reversed_times(clearing_params, clearing_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.process_solve(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 1.0, 0.0, tight_ctl)
    with pytest.raises(ValueError):
        hk.process_solve(clearing_params, clearing_forcing, (-1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)


def test_evolution_property_wave(clearing_params, wave_forcing, tight_ctl):
    gap = hk.semigroup_check(clearing_params, wave_forcing, (1.0, 1.0, 1.0), (0.0, 1.0, 2.0), tight_ctl)
    assert gap <= 1e-8


def test_evolution_property_random_triples(clearing_params, wave_forcing, tight_ctl):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        ts = np.sort(rng.uniform(0.0, 5.0, 3))
        gap = hk.semigroup_check(
            clearing_params, wave_forcing, (1.0, 1.0, 1.0), tuple(ts), tight_ctl
        )
        worst = max(worst, gap)
    assert worst <= 1e-8


def test_evolution_band_over_random_scenarios():
    # gap stays within 10 * (abs_tol + rel_tol * |state|) across scenarios
    rng = np.random.default_rng(5150)
    scenarios = sorted(hk.SCENARIOS)
    for _ in range(100):
        s = hk.SCENARIOS[scenarios[rng.integers(len(scenarios))]]
        t0 = s.t_span[0]
        width = min(5.0, s.t_span[1] - t0)
        ts = tuple(np.sort(t0 + rng.uniform(0.0, width, 3)))
        gap = hk.semigroup_check(s.params, s.forcing, s.u0, ts, s.control)
        end = hk.process_solve(s.params, s.forcing, s.u0, ts[0], ts[2], s.control)
        band = 10.0 * (s.control.abs_tol + s.control.rel_tol * float(np.max(np.abs(end))))
        assert gap <= band


def test_degenerate_triple_gap_is_zero(clearing_params, wave_forcing, tight_ctl):
    gap = hk.semigroup_check(clearing_params, wave_forcing, (1.0, 1.0, 1.0), (0.0, 0.0, 2.0), tight_ctl)
    assert gap == 0.0


def test_loose_tolerance_gap_stays_small(clearing_params, wave_forcing):
    loose = hk.AdaptiveStep(abs_tol=1e-4, rel_tol=1e-4, h_init=1e-2, h_max=0.5)
    gap = hk.semigroup_check(clearing_params, wave_forcing, (1.0, 1.0, 1.0), (0.0, 1.0, 2.0), loose)
    assert gap <= 1e-3


def test_autonomous_shift_invariance(clearing_params, clearing_forcing, tight_ctl):
    # constant forcing reduces the process to a semigroup: a time shift of
    # both endpoints cannot change the answer
    s = 3.7
    u0 = (1.0, 1.0, 1.0)
    base = hk.process_solve(clearing_params, clearing_forcing, u0, 0.0, 2.0, tight_ctl)
    shifted = hk.process_solve(clearing_params, clearing_forcing, u0, s, 2.0 + s, tight_ctl)
    assert max(abs(a - b) for a, b in zip(base, shifted)) <= 1e-8


def test_semigroup_check_rejects_unordered(clearing_params, clearing_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.semigroup_check(
            clearing_params, clearing_forcing, (1.0, 1.0, 1.0), (2.0, 1.0, 3.0), tight_ctl
        )


# {{{ pullback


def test_pullback_wave_converges(clearing_params, wave_forcing, tight_ctl):
    est = hk.pullback_estimate(
        clearing_params,
        wave_forcing,
        0.0,
        (5.0, 10.0, 20.0),
        [(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)],
        1e-6,
        tight_ctl,
    )
    assert est.converged
    assert est.cauchy_gaps[-1] <= 1e-6
    assert est.cross_seed_gap <= 1e-6
    # deeper horizons improve the estimate
    assert est.cauchy_gaps[-1] < est.cauchy_gaps[0]


def test_pullback_constant_forcing_recovers_equilibrium(clearing_params, clearing_forcing, tight_ctl):
    est = hk.pullback_estimate(
        clearing_params,
        clearing_forcing,
        7.7,  # observation time is arbitrary for an autonomous system
        (5.0, 10.0, 20.0, 40.0),
        [(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)],
        1e-6,
        tight_ctl,
    )
    assert est.converged
    assert np.max(np.abs(est.attractor_point - DFE2)) <= 1e-6


def test_pullback_requires_two_horizons(clearing_params, wave_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 0.0, (5.0,), [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6, tight_ctl
        )


def test_pullback_requires_increasing_horizons(clearing_params, wave_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 0.0, (10.0, 5.0), [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6, tight_ctl
        )
    # phi(t_star, t_star, seed) is the seed itself: a zero horizon measures nothing
    with pytest.raises(ValueError, match="positive"):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 0.0, (0.0, 5.0), [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6, tight_ctl
        )


def test_pullback_requires_two_seeds(clearing_params, wave_forcing, tight_ctl):
    with pytest.raises(ValueError):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 0.0, (5.0, 10.0), [(1.0, 1.0, 1.0)], 1e-6, tight_ctl
        )


def test_pullback_rejects_a_non_finite_t_star(clearing_params, wave_forcing, tight_ctl):
    with pytest.raises(ValueError, match="t_star"):
        hk.pullback_estimate(
            clearing_params, wave_forcing, np.inf, (5.0, 10.0), [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6, tight_ctl
        )


@pytest.mark.parametrize(
    "t_star, horizons",
    [(1e300, (0.5, 1.0)), (1e17, (1.0, 2.0, 4.0)), (1e17, (16.0, 17.0))],
    # every start rounds to t_star; near 1e17 the spacing is 16, so t_star - 17
    # rounds to t_star - 16 and the two starts coincide below t_star
    ids=["rounds-to-t-star-1e300", "rounds-to-t-star-1e17", "starts-coincide"],
)
def test_pullback_rejects_start_times_that_do_not_move(clearing_params, wave_forcing, tight_ctl, t_star, horizons):
    with pytest.raises(ValueError, match="start time"):
        hk.pullback_estimate(
            clearing_params, wave_forcing, t_star, horizons, [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6, tight_ctl
        )


def test_pullback_requires_distinct_seeds(clearing_params, wave_forcing, tight_ctl):
    with pytest.raises(ValueError, match="distinct"):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 0.0, (5.0, 10.0), [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)], 1e-6, tight_ctl
        )


def test_pullback_that_would_integrate_nothing_is_rejected(clearing_params, wave_forcing, tight_ctl):
    # equal seeds and starts that round to t_star once gave zero gaps
    with pytest.raises(ValueError):
        hk.pullback_estimate(
            clearing_params, wave_forcing, 1e300, (0.5, 1.0), ((1, 1, 1), (1, 1, 1)), 1e-6, tight_ctl
        )


@pytest.mark.parametrize("horizons", [(5.0, np.inf), (5.0, np.nan)])
def test_pullback_rejects_a_non_finite_horizon(clearing_params, clearing_forcing, horizons):
    # fixed steps: an adaptive run from t_star - inf would not return
    with pytest.raises(ValueError, match="horizons"):
        hk.pullback_estimate(
            clearing_params, clearing_forcing, 0.0, horizons, [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-6,
            hk.FixedStep(h=0.1),
        )


# }}}


# {{{ the float endpoints against the ndarray forms


def _ndarray_process_solve(params, forcing, u0, t0, t, ctl):
    """process_solve as it was written on arrays, kept as the reference. It
    integrates through the name ``process`` reads, so a stand-in serves both."""
    if t < t0:
        raise ValueError(f"need t >= t0, got t={t}, t0={t0}")
    u0 = hk.model.as_state(u0, require_nonnegative=True)
    if t == t0:
        return np.array(u0)
    traj = hk.process.integrate(params, forcing, u0, t0, t, ctl)
    hk.process.require_complete(traj, f"integration from t0={t0} to t={t}")
    return traj.final_state


def _ndarray_semigroup_check(params, forcing, u0, times, ctl):
    """semigroup_check as it was written on arrays, kept as the reference."""
    t0, t1, t2 = times
    direct = _ndarray_process_solve(params, forcing, u0, t0, t2, ctl)
    mid = _ndarray_process_solve(params, forcing, u0, t0, t1, ctl)
    relayed = _ndarray_process_solve(params, forcing, np.maximum(mid, 0.0), t1, t2, ctl)
    return float(np.max(np.abs(direct - relayed)))


def _bits(v):
    """The hex of each float in a nested state, or the error a call raised."""
    if isinstance(v, BaseException):
        return repr(v)
    return [_bits(c) for c in v] if isinstance(v, (tuple, list, np.ndarray)) else float(v).hex()


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (ValueError, hk.ProcessTerminatedError) as exc:
        return _bits(exc)


_CHEAP = hk.AdaptiveStep(abs_tol=1e-6, rel_tol=1e-6, h_init=1e-2, h_max=0.5)
_part = st.floats(0.0, 10.0) | st.sampled_from([0.0, -0.0, 5e-324])
_times = st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3).map(sorted)


@settings(max_examples=40, deadline=None)
@given(u0=st.tuples(_part, _part, _part), times=_times)
@example(u0=(1.0, 1.0, 1.0), times=[0.0, 0.0, 2.0])
@example(u0=(-0.0, 0.0, 1.0), times=[0.5, 0.5, 0.5])
def test_process_laws_give_the_ndarray_bits(clearing_params, wave_forcing, u0, times):
    t0, _, t = times
    assert _outcome(hk.process_solve, clearing_params, wave_forcing, u0, t0, t, _CHEAP) == _outcome(
        _ndarray_process_solve, clearing_params, wave_forcing, u0, t0, t, _CHEAP
    )
    args = (clearing_params, wave_forcing, u0, tuple(times), _CHEAP)
    assert _outcome(hk.semigroup_check, *args) == _outcome(_ndarray_semigroup_check, *args)


def _scripted_integrate(ends):
    """An integrate stand-in whose k-th run ends at ``ends[k]``; it records
    each start state."""
    starts = []
    bounds = hk.BoundsReport(M=10.0, z_ceiling=10.0, l1_alpha=2.0, l1_ceiling=5.5)

    def run(params, forcing, u0, t0, t_end, ctl):
        starts.append(u0)
        return hk.Trajectory([t0, t_end], [u0, ends[len(starts) - 1]], (), params, forcing, bounds, ctl)

    return run, starts


# relay parts around 0: the clamp's input, negative noise included
_relay = st.floats(-1e-9, 10.0) | st.sampled_from([-0.0, 0.0, -5e-324, -1e-300])
_end = st.tuples(*[st.floats(-1e3, 1e3)] * 3)


@settings(max_examples=300, deadline=None)
@given(direct=_end, mid=st.tuples(_relay, _relay, _relay), relayed=_end)
@example(direct=(1.0, 2.0, 3.0), mid=(-0.0, 0.5, 2.0), relayed=(1.0, 2.0, 3.5))
@example(direct=(1.0, 2.0, 3.0), mid=(-1e-300, 0.5, -5e-324), relayed=(1.25, -0.0, 3.0))
def test_semigroup_relay_clamp_gives_the_ndarray_bits(clearing_params, wave_forcing, tight_ctl, direct, mid, relayed):
    # max(0.0, v) gives np.maximum's +0.0 for a -0.0 part; max(v, 0.0) keeps -0.0
    seen = []
    for check in (hk.semigroup_check, _ndarray_semigroup_check):
        run, starts = _scripted_integrate([direct, mid, relayed])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hk.process, "integrate", run)
            gap = check(clearing_params, wave_forcing, (1.0, 1.0, 1.0), (0.0, 1.0, 2.0), tight_ctl)
        seen.append((_bits(starts), _bits(gap)))
    assert seen[0] == seen[1]
    assert [type(v) for v in starts[2]] == [float] * 3


@settings(max_examples=20, deadline=None)
@given(
    t_star=st.floats(-5.0, 5.0),
    horizons=st.tuples(st.floats(0.1, 1.0), st.floats(1.1, 2.0)),
    seeds=st.lists(st.tuples(_part, _part, _part), min_size=2, max_size=3, unique=True),
)
def test_pullback_endpoints_give_the_ndarray_bits(clearing_params, wave_forcing, t_star, horizons, seeds):
    est = hk.pullback_estimate(clearing_params, wave_forcing, t_star, horizons, seeds, 1e-6, _CHEAP)
    endpoints = tuple(
        tuple(tuple(_ndarray_process_solve(clearing_params, wave_forcing, seed, t_star - T, t_star, _CHEAP).tolist())
              for T in horizons)
        for seed in seeds
    )
    assert _bits(est.endpoints) == _bits(endpoints)
    assert type(est.attractor_point) is tuple
    assert _bits(est.attractor_point) == _bits(np.array(est.endpoints[0][-1]))


def test_process_imports_no_numpy():
    tree = ast.parse(Path(hk.process.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and [name for name in imported if name.split(".")[0] == "numpy"] == []


# }}}


# {{{ absorbing set


def test_absorbing_wave_scenario(clearing_params, wave_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, wave_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, tight_ctl)
    rep = hk.absorbing_check(traj)
    assert rep.alpha == pytest.approx(2.0, rel=1e-15)
    assert rep.ceiling == pytest.approx(5.5, rel=1e-15)
    assert rep.holds
    assert rep.entry_time == 0.0  # starts inside the ball and never leaves


def test_absorbing_persistent_constant(persistent_params, persistent_forcing, tight_ctl):
    traj = hk.integrate(persistent_params, persistent_forcing, (1.0, 1.0, 1.0), 0.0, 20.0, tight_ctl)
    rep = hk.absorbing_check(traj)
    assert rep.alpha == pytest.approx(0.1, rel=1e-12)  # min(6, 7 - 4.5, 0.1)
    assert rep.ceiling == pytest.approx(200.0, rel=1e-12)
    assert rep.holds


def test_absorbing_entry_from_outside(clearing_params, wave_forcing, tight_ctl):
    # start outside the ball (l1 = 9 > 5.5): absorption happens later
    traj = hk.integrate(clearing_params, wave_forcing, (7.0, 1.0, 1.0), 0.0, 5.0, tight_ctl)
    rep = hk.absorbing_check(traj)
    assert rep.holds
    assert rep.entry_time is not None and rep.entry_time > 0.0
    l1 = traj.states.sum(axis=1)
    after = traj.times >= rep.entry_time
    assert np.all(l1[after] <= rep.ceiling + rep.slack)


def test_absorbing_bound_never_violated_on_benchmarks():
    # every benchmark rate set satisfies mu2 > (1-epsilon)*p, so the l1
    # bound applies to each scenario run
    for sid, s in sorted(hk.SCENARIOS.items()):
        traj = hk.integrate(s.params, s.forcing, s.u0, *s.t_span, s.control)
        rep = hk.absorbing_check(traj)
        assert rep.holds, sid


def test_absorbing_precondition(clearing_forcing):
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=2.0, q=1.0)
    traj = hk.integrate(
        params, hk.ConstantForcing(1.0), (1.0, 1.0, 1.0), 0.0, 1.0, hk.FixedStep(h=0.01)
    )
    with pytest.raises(ValueError):
        hk.absorbing_check(traj)


def test_absorbing_rejects_an_infinite_slack(clearing_params, wave_forcing, tight_ctl):
    # an infinite slack would hold for any trajectory
    traj = hk.integrate(clearing_params, wave_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, tight_ctl)
    with pytest.raises(ValueError, match="slack must be finite"):
        hk.absorbing_check(traj, slack=np.inf)


def _numpy_absorbing_check(traj, slack=None):
    """The check as it was written on the arrays ``traj.states`` and
    ``traj.times``, kept verbatim as the reference."""
    alpha, ceiling = traj.bounds.l1_alpha, traj.bounds.l1_ceiling
    if alpha is None:
        raise ValueError(
            f"absorbing bound needs mu2 > (1-epsilon)*p, got {traj.params.mu2} <= {traj.params.prod_eff}"
        )
    if slack is None:
        slack = 1e-6 * ceiling
    elif not (math.isfinite(slack) and slack > 0.0):
        raise ValueError(f"slack must be finite and positive, got {slack}")

    l1 = np.sum(traj.states, axis=1)
    cap = max(float(l1[0]), ceiling)
    holds = bool(np.all(l1 <= cap + slack))

    inside = l1 <= ceiling + slack
    entry_time = None
    if inside[-1]:
        # last index after which the trajectory never leaves the ball
        outside = np.nonzero(~inside)[0]
        first = 0 if len(outside) == 0 else int(outside[-1]) + 1
        entry_time = float(traj.times[first])
    return hk.AbsorbingSetReport(
        alpha=alpha, ceiling=ceiling, entry_time=entry_time, holds=holds, slack=float(slack)
    )


# parts around the ball of radius 5.5, and the values that fail every bound
_parts = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5.5, 1.0, 4.5, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(
    states=st.lists(st.tuples(_parts, _parts, _parts), min_size=1, max_size=30),
    slack=st.one_of(st.none(), st.just(0.5), st.floats(1e-12, 10.0)),
)
# (0.1 + 0.1) + z lies past the ball 5.5 + 1e-6, and 0.1 + (0.1 + z) on it
@example(states=[(0.1, 0.1, 5.300001000000001)], slack=1e-6)
# points on the ball 5.5 + 0.5 are inside it
@example(states=[(7.0, 0.0, 0.0), (1.0, 4.5, 0.5), (0.5, 4.5, 1.0)], slack=0.5)
def test_absorbing_check_equals_the_numpy_check(clearing_params, wave_forcing, tight_ctl, states, slack):
    times = [0.25 * i for i in range(len(states))]
    bounds = hk.BoundsReport(M=10.0, z_ceiling=10.0, l1_alpha=2.0, l1_ceiling=5.5)
    traj = hk.Trajectory(times, states, (), clearing_params, wave_forcing, bounds, tight_ctl)
    report = hk.absorbing_check(traj, slack)
    assert "states" not in vars(traj) and "times" not in vars(traj)  # no array was built
    with np.errstate(invalid="ignore", over="ignore"):  # a row may sum to inf or NaN, as in the check
        assert repr(report) == repr(_numpy_absorbing_check(traj, slack))


# }}}


def test_terminated_integration_raises(clearing_params, clearing_forcing):
    ctl = hk.FixedStep(h=1.0)
    with pytest.raises(hk.ProcessTerminatedError):
        hk.process_solve(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 10.0, ctl)


def test_fixed_step_that_cannot_advance_is_not_taken_for_phi(clearing_params, clearing_forcing):
    # t + h rounds back to t at t0 = 1e6: the run stops on step_floor at t0,
    # so phi(t0 + 1e-6, t0, u0) is not u0
    ctl = hk.FixedStep(h=1e-11)
    with pytest.raises(hk.ProcessTerminatedError, match="step_floor"):
        hk.process_solve(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 1e6, 1e6 + 1e-6, ctl)
