import math

import numpy as np
import pytest

import hbvkit as hk
from hbvkit.stability import characteristic_coefficients, characteristic_residual

DFE2 = np.array([4.90675, 0.0, 0.0])


def _random_params(rng):
    lo, hi = math.log(1e-2), math.log(1e2)
    lam, mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 7))
    eta, eps = rng.uniform(0.0, 0.9, 2)
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q)
    return params, hk.ConstantForcing(lam)


# {{{ eigenvalues


def test_eigenvalues_of_diagonal_matrix():
    eigs = hk.eigenvalues_3x3(np.diag([-1.0, -2.0, -3.0]))
    assert all(lam.imag == 0.0 for lam in eigs)
    assert [lam.real for lam in eigs] == pytest.approx([-1.0, -2.0, -3.0], rel=1e-14)


def test_eigenvalues_at_infection_free_point(clearing_params):
    J = hk.jacobian(clearing_params, DFE2)
    eigs = hk.eigenvalues_3x3(J)
    # block structure: -mu1 decouples; quadratic-formula oracle on the 2x2 block
    tr, det = -15.0, 8.0 * 7.0 - 0.78508 * 0.005
    disc = math.sqrt(tr * tr - 4.0 * det)
    expected = sorted([-2.0, (tr + disc) / 2.0, (tr - disc) / 2.0], reverse=True)
    for got, want in zip(eigs, expected):
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, abs=1e-9)
    assert [round(e.real, 4) for e in eigs] == [-2.0, -6.9961, -8.0039]


def test_eigenvalues_residual_property():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        J = rng.uniform(-100.0, 100.0, (3, 3))
        eigs = hk.eigenvalues_3x3(J)
        assert characteristic_residual(J, eigs).max() <= 1e-9


def test_eigenvalues_against_lapack_oracle():
    rng = np.random.default_rng(17)
    for _ in range(500):
        J = rng.uniform(-100.0, 100.0, (3, 3))
        mine = hk.eigenvalues_3x3(J)
        ref = np.linalg.eigvals(J)
        scale = max(1.0, float(np.abs(ref).max()))
        for lam in mine:
            assert min(abs(lam - r) for r in ref) <= 1e-8 * scale


def test_eigenvalues_conjugate_pairs_exact():
    J = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    eigs = hk.eigenvalues_3x3(J)
    pair = [lam for lam in eigs if lam.imag != 0.0]
    assert len(pair) == 2
    assert pair[0] == pair[1].conjugate()


def test_endemic_point_is_linearly_stable():
    params = hk.Parameters(mu1=0.5, mu2=1.0, mu3=1.0, beta=0.5, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    J = hk.jacobian(params, (4.0, 8.0, 8.0))
    eigs = hk.eigenvalues_3x3(J)
    assert all(lam.real < 0.0 for lam in eigs)
    assert hk.routh_hurwitz_stable(J)  # independent sign oracle


# }}}


# {{{ Routh-Hurwitz


def test_routh_hurwitz_examples(clearing_params):
    assert hk.routh_hurwitz_stable(hk.jacobian(clearing_params, DFE2))
    assert not hk.routh_hurwitz_stable(np.diag([1.0, -2.0, -3.0]))


def test_routh_hurwitz_agrees_with_eigenvalue_signs():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        J = rng.uniform(-100.0, 100.0, (3, 3))
        max_re = max(lam.real for lam in hk.eigenvalues_3x3(J))
        if abs(max_re) < 1e-9:
            continue
        assert hk.routh_hurwitz_stable(J) == (max_re < 0.0)


# }}}


# {{{ reproduction numbers


def test_r0_values_clearing(clearing_params, clearing_forcing):
    r0 = hk.r0_all(clearing_params, clearing_forcing)
    assert r0.simple == pytest.approx(0.0981350, rel=1e-12)
    assert r0.alt == pytest.approx(6.526018287614298e-4, rel=1e-12)
    assert r0.ngm == pytest.approx(0.0078508 / 112.0, rel=1e-12)


def test_r0_values_subthreshold_and_persistent(
    subthreshold_params, subthreshold_forcing, persistent_params, persistent_forcing
):
    assert hk.r0_all(subthreshold_params, subthreshold_forcing).ngm == pytest.approx(
        89.6 / 130.0, rel=1e-12
    )
    assert hk.r0_all(persistent_params, persistent_forcing).ngm == pytest.approx(
        13.5 / 10.2, rel=1e-12
    )


def test_r0_ngm_matches_next_generation_matrix_spectral_radius():
    # independent oracle: rho(F V^-1) on the infected compartments (y, z)
    rng = np.random.default_rng(31)
    for _ in range(200):
        params, forcing = _random_params(rng)
        x0 = forcing.value / params.mu1
        beta_eff = (1.0 - params.eta) * params.beta
        prod_eff = (1.0 - params.epsilon) * params.p
        F = np.array([[0.0, beta_eff * x0], [0.0, 0.0]])
        V = np.array([[params.mu2 + params.q, 0.0], [-prod_eff, params.mu3]])
        rho = max(abs(np.linalg.eigvals(F @ np.linalg.inv(V))))
        assert hk.r0_all(params, forcing).ngm == pytest.approx(rho, rel=1e-10)


def test_r0_requires_constant_forcing(clearing_params, wave_forcing):
    with pytest.raises(hk.UnsupportedForcingError):
        hk.r0_all(clearing_params, wave_forcing)
    # a constant forcing at the bound is the supported path for time-varying rates
    r0_at_max = hk.r0_all(clearing_params, hk.ConstantForcing(wave_forcing.lambda_max))
    assert r0_at_max.ngm > 0.0


def test_threshold_consistency_eigen_vs_r0():
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(1000):
        params, forcing = _random_params(rng)
        r0 = hk.r0_all(params, forcing).ngm
        if abs(r0 - 1.0) < 1e-3:
            continue
        J = hk.jacobian(params, (forcing.value / params.mu1, 0.0, 0.0))
        max_re = max(lam.real for lam in hk.eigenvalues_3x3(J))
        assert (max_re > 0.0) == (r0 > 1.0)
        checked += 1
    assert checked > 900


# }}}


# {{{ condition margins


def test_dfe_margins_clearing(clearing_params, clearing_forcing):
    cm = hk.condition_margins("dfe", clearing_params, clearing_forcing)
    line1, line2, line3 = cm.lines
    assert (line1.lhs, line1.rhs) == (4.0, pytest.approx(5.78508, abs=1e-12))
    assert line1.margin == pytest.approx(-1.78508, abs=1e-12)
    assert not line1.satisfied
    assert (line2.lhs, line2.rhs) == (11.0, pytest.approx(0.79008, abs=1e-12))
    assert line2.satisfied
    assert (line3.lhs, line3.rhs) == (14.0, pytest.approx(0.79008, abs=1e-12))
    assert line3.satisfied
    assert cm.all_satisfied is False


def test_nonauto_margins_persistent_constant(persistent_params, persistent_forcing):
    cm = hk.condition_margins("nonauto", persistent_params, persistent_forcing)
    (l1, l2, l3) = cm.lines
    assert (l1.lhs, l1.rhs) == (12.0, pytest.approx(10.5)) and l1.satisfied
    assert (l2.lhs, l2.rhs) == (24.0, pytest.approx(5.0)) and l2.satisfied
    assert (l3.lhs, l3.rhs) == (pytest.approx(0.2), pytest.approx(5.0)) and not l3.satisfied
    assert cm.all_satisfied is False
    assert cm.aux["b1"] == 0.0


def test_nonauto_margins_use_lambda_max(clearing_params, wave_forcing):
    cm = hk.condition_margins("nonauto", clearing_params, wave_forcing)
    assert cm.aux["lambda"] == 11.0


def test_dominant_rates_satisfy_everything():
    params = hk.Parameters(
        mu1=100.0, mu2=100.0, mu3=100.0, beta=0.01, eta=0.01, epsilon=0.01, p=1.0, q=1.0
    )
    cm = hk.condition_margins("dfe", params, hk.ConstantForcing(1.0))
    assert cm.all_satisfied


def test_equilibrium_set_requires_state(clearing_params, clearing_forcing):
    with pytest.raises(ValueError):
        hk.condition_margins("equilibrium", clearing_params, clearing_forcing)
    cm = hk.condition_margins(
        "equilibrium", clearing_params, clearing_forcing, equilibrium=(4.90675, 0.0, 0.0)
    )
    # with z_bar = 0 the equilibrium set coincides with the dfe set
    dfe = hk.condition_margins("dfe", clearing_params, clearing_forcing)
    for a, b in zip(cm.lines, dfe.lines):
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)


def test_margin_conjunction_structure():
    rng = np.random.default_rng(12)
    for _ in range(200):
        params, forcing = _random_params(rng)
        cm = hk.condition_margins("dfe", params, forcing)
        assert cm.all_satisfied == all(line.satisfied for line in cm.lines)
        for line in cm.lines:
            assert line.satisfied == (line.margin > 0.0)
            assert line.margin == line.lhs - line.rhs


def test_y_line_display_vs_certificate_discrepancy(clearing_params, clearing_forcing):
    # the display line carries 2*mu2 + q while the nu2 certificate uses
    # mu2 + q; both are exposed, differing by exactly mu2
    cm = hk.condition_margins(
        "equilibrium", clearing_params, clearing_forcing, equilibrium=(4.90675, 0.0, 0.0)
    )
    assert cm.lines[1].margin == pytest.approx(cm.aux["nu2"] + clearing_params.mu2, rel=1e-12)


def test_endemic_margin_set_evaluates(persistent_params, persistent_forcing):
    cm = hk.condition_margins("endemic", persistent_params, persistent_forcing)
    assert len(cm.lines) == 3
    assert cm.all_satisfied == all(line.satisfied for line in cm.lines)


def test_unknown_set_rejected(clearing_params, clearing_forcing):
    with pytest.raises(ValueError):
        hk.condition_margins("bogus", clearing_params, clearing_forcing)


# }}}


# {{{ lyapunov fit


def test_lyapunov_rate_near_twice_slowest_eigenvalue(clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 6.0, tight_ctl)
    trace = hk.lyapunov_fit(traj, DFE2)
    assert not trace.degenerate
    assert trace.rate == pytest.approx(4.0, rel=0.20)  # 2 * |slowest eigenvalue|
    assert trace.fit_quality > 0.99
    # monotone decay after the opening transient
    quarter = len(trace.values) // 4
    tail = trace.values[quarter:]
    assert np.all(np.diff(tail) <= 1e-12 * tail[:-1] + 1e-300)


def test_lyapunov_degenerate_at_equilibrium(clearing_params, clearing_forcing, tight_ctl):
    traj = hk.integrate(clearing_params, clearing_forcing, DFE2, 0.0, 2.0, tight_ctl)
    trace = hk.lyapunov_fit(traj, DFE2)
    assert trace.degenerate


def test_lyapunov_certificate_rate_is_a_lower_bound():
    # rates so dominant that every margin holds; the certificate constant
    # k = min(nu1, nu2, nu3) must then under-estimate the observed decay
    params = hk.Parameters(
        mu1=100.0, mu2=100.0, mu3=100.0, beta=0.01, eta=0.01, epsilon=0.01, p=1.0, q=1.0
    )
    forcing = hk.ConstantForcing(1.0)
    cm = hk.condition_margins("dfe", params, forcing)
    assert cm.all_satisfied
    k = cm.aux["k"]
    assert k > 0.0
    reference = np.array([0.01, 0.0, 0.0])
    ctl = hk.AdaptiveStep(abs_tol=1e-12, rel_tol=1e-10, h_init=1e-5, h_max=0.01)
    traj = hk.integrate(params, forcing, reference + 0.05, 0.0, 0.06, ctl)
    trace = hk.lyapunov_fit(traj, reference)
    assert trace.rate >= 0.0
    envelope = trace.values[0] * np.exp(-k * (traj.times - traj.times[0]))
    assert np.all(trace.values <= envelope * (1.0 + 1e-9))


# }}}


# {{{ contraction fit


def test_contraction_wave_scenario_positive_alpha(clearing_params, wave_forcing, tight_ctl):
    t1 = hk.integrate(clearing_params, wave_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, tight_ctl)
    t2 = hk.integrate(clearing_params, wave_forcing, (2.0, 2.0, 2.0), 0.0, 5.0, tight_ctl)
    fit = hk.contraction_fit(t1, t2)
    assert not fit.degenerate
    assert fit.alpha > 0.0
    # the fitted envelope really bounds the squared separation everywhere
    # (adaptive grids differ, so resample the partner run)
    resampled = np.array([t2.sample(t) for t in t1.times])
    d = np.sum((t1.states - resampled) ** 2, axis=1)
    envelope = fit.K * np.exp(-fit.alpha * (t1.times - t1.times[0])) * d[0]
    assert np.all(d <= envelope * (1.0 + 1e-9))


def test_contraction_near_infection_free_rate(clearing_params, clearing_forcing, tight_ctl):
    a = hk.integrate(
        clearing_params, clearing_forcing, DFE2 + np.array([0.05, 0.01, 0.01]), 0.0, 5.0, tight_ctl
    )
    b = hk.integrate(
        clearing_params, clearing_forcing, DFE2 + np.array([0.01, 0.0, 0.0]), 0.0, 5.0, tight_ctl
    )
    fit = hk.contraction_fit(a, b)
    assert fit.alpha == pytest.approx(4.0, rel=0.25)


def test_contraction_identical_starts_degenerate(clearing_params, clearing_forcing, tight_ctl):
    t1 = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, tight_ctl)
    t2 = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, tight_ctl)
    assert hk.contraction_fit(t1, t2).degenerate


def test_contraction_rejects_mismatched_scenarios(
    clearing_params, clearing_forcing, subthreshold_params, subthreshold_forcing, tight_ctl
):
    t1 = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, tight_ctl)
    t2 = hk.integrate(subthreshold_params, subthreshold_forcing, (1.0, 1.0, 1.0), 0.0, 2.0, tight_ctl)
    with pytest.raises(ValueError):
        hk.contraction_fit(t1, t2)


def test_contraction_resamples_different_grids(clearing_params, clearing_forcing, tight_ctl):
    t1 = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 5.0, tight_ctl)
    coarse = hk.AdaptiveStep(abs_tol=1e-8, rel_tol=1e-8, h_init=2e-3, h_max=0.4)
    t2 = hk.integrate(clearing_params, clearing_forcing, (2.0, 2.0, 2.0), 0.0, 5.0, coarse)
    fit = hk.contraction_fit(t1, t2)
    assert not fit.degenerate
    assert fit.alpha > 0.0


# }}}


# {{{ assembled report


def test_stability_report_stable_case(clearing_params, clearing_forcing):
    rep = hk.stability_report(clearing_params, clearing_forcing, DFE2, margin_sets=("dfe",))
    assert rep.classification == "stable"
    assert rep.max_real_part == pytest.approx(-2.0, abs=1e-9)
    assert rep.r0.ngm < 1.0
    assert rep.margins[0].condition_set == "dfe"


def test_stability_report_unstable_case(persistent_params, persistent_forcing):
    dfe = hk.disease_free(persistent_params, persistent_forcing)
    rep = hk.stability_report(persistent_params, persistent_forcing, dfe.state)
    assert rep.classification == "unstable"
    assert rep.r0.ngm > 1.0


def test_stability_report_marginal_case():
    # production tuned exactly to the threshold: the 2x2 infected block has
    # determinant zero, so one eigenvalue is exactly 0
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    forcing = hk.ConstantForcing(2.0)
    rep = hk.stability_report(params, forcing, (2.0, 0.0, 0.0))
    assert rep.classification == "marginal"


# }}}
