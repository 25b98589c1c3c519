import numpy as np
import pytest

import hbvkit as hk

DFE2 = np.array([4.90675, 0.0, 0.0])


def test_initial_property_is_exact(clearing_params, clearing_forcing, tight_ctl):
    u0 = (1.1, 0.7, 0.3)
    out = hk.process_solve(clearing_params, clearing_forcing, u0, 2.5, 2.5, tight_ctl)
    assert np.array_equal(out, np.array(u0))
    # an array u0 comes back as a new array, not as the caller's object
    arr = np.array(u0)
    echo = hk.process_solve(clearing_params, clearing_forcing, arr, 2.5, 2.5, tight_ctl)
    assert echo is not arr and np.array_equal(echo, arr)


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
    assert np.max(np.abs(base - shifted)) <= 1e-8


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
