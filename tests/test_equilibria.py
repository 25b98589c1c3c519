import math

import numpy as np
import pytest

import hbvkit as hk


@pytest.fixture(scope="module")
def simple_endemic_case():
    """Rates chosen so the persistent state is exactly (4, 8, 8)."""
    params = hk.Parameters(mu1=0.5, mu2=1.0, mu3=1.0, beta=0.5, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    return params, hk.ConstantForcing(10.0)


def _draw(rng):
    lo, hi = math.log(1e-2), math.log(1e2)
    lam, mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 7))
    eta, eps = rng.uniform(0.0, 0.9, 2)
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q)
    return params, hk.ConstantForcing(lam)


# {{{ disease-free


def test_disease_free_values(clearing_params, clearing_forcing, subthreshold_params, subthreshold_forcing):
    rep = hk.disease_free(clearing_params, clearing_forcing)
    assert rep.state == (4.90675, 0.0, 0.0)
    assert rep.residual_norm <= 1e-14 * max(1.0, 9.8135)

    rep = hk.disease_free(subthreshold_params, subthreshold_forcing)
    assert rep.state == (20.0, 0.0, 0.0)


def test_disease_free_unit_ratio():
    params = hk.Parameters(mu1=3.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    rep = hk.disease_free(params, hk.ConstantForcing(3.0))
    assert rep.state == (1.0, 0.0, 0.0)


def test_disease_free_requires_constant_forcing(clearing_params, wave_forcing):
    with pytest.raises(hk.UnsupportedForcingError):
        hk.disease_free(clearing_params, wave_forcing)


# }}}


# {{{ endemic


def test_endemic_simple_exact(simple_endemic_case):
    params, forcing = simple_endemic_case
    rep = hk.endemic(params, forcing)
    assert rep.feasible
    assert rep.state == pytest.approx((4.0, 8.0, 8.0), rel=1e-14)
    assert rep.residual_norm <= 1e-12
    # brute-force residual oracle
    assert np.max(np.abs(hk.vector_field(params, forcing, 0.0, rep.state))) <= 1e-12


def test_endemic_subthreshold_infeasible(subthreshold_params, subthreshold_forcing):
    rep = hk.endemic(subthreshold_params, subthreshold_forcing)
    assert rep.feasible is False
    y_bar = rep.state[1]
    assert y_bar == pytest.approx((100.0 - 5.0 * (26.0 / 0.896)) / 7.0, rel=1e-12)
    assert y_bar == pytest.approx(-6.4413, abs=1e-4)
    assert hk.r0_all(subthreshold_params, subthreshold_forcing).ngm < 1.0


def test_endemic_persistent_values(persistent_params, persistent_forcing):
    rep = hk.endemic(persistent_params, persistent_forcing)
    assert rep.feasible
    assert rep.state == pytest.approx((2.5185185185185186, 0.6984126984126984, 31.428571428571427), rel=1e-10)
    assert rep.residual_norm <= 1e-10


def test_endemic_alt_closed_form_is_only_a_diagnostic(
    subthreshold_params, subthreshold_forcing, persistent_params, persistent_forcing
):
    # the alternative closed form does not solve the steady-state equations
    # for these rate sets; its residual makes that visible
    for params, forcing in (
        (subthreshold_params, subthreshold_forcing),
        (persistent_params, persistent_forcing),
    ):
        rep = hk.endemic(params, forcing)
        assert rep.alt_state is not None
        assert rep.alt_residual > 1e-3
        assert rep.alt_residual > 1e3 * max(rep.residual_norm, 1e-16)


def test_endemic_boundary_tie_is_infeasible():
    # lam = mu1 * x_bar exactly, so y_bar = 0 and the state collapses onto
    # the infection-free one
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    rep = hk.endemic(params, hk.ConstantForcing(2.0))
    assert rep.state[1] == 0.0
    assert rep.feasible is False


# }}}


# {{{ newton refinement


def test_newton_converges_from_perturbed_guess(simple_endemic_case):
    params, forcing = simple_endemic_case
    guess = np.array([4.0, 8.0, 8.0]) + 1e-3
    refined = hk.newton_refine(params, forcing, guess, tol=1e-12)
    assert np.max(np.abs(hk.vector_field(params, forcing, 0.0, refined))) <= 1e-12


def test_newton_accepts_exact_root_unchanged(clearing_params, clearing_forcing):
    guess = np.array([4.90675, 0.0, 0.0])
    refined = hk.newton_refine(clearing_params, clearing_forcing, guess)
    assert np.array_equal(refined, guess)


def test_newton_budget_exhaustion(clearing_params, clearing_forcing):
    with pytest.raises(hk.NoConvergenceError):
        hk.newton_refine(clearing_params, clearing_forcing, (1e6, 1e6, 1e6), max_iter=3)


def test_newton_singular_jacobian():
    # z = 0 and x at the persistent-state value make the third column a
    # multiple of the second: exactly singular in floating point
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0)
    with pytest.raises(hk.SingularJacobianError):
        hk.newton_refine(params, hk.ConstantForcing(5.0), (2.0, 5.0, 0.0))


def test_newton_validates_arguments(clearing_params, clearing_forcing):
    with pytest.raises(ValueError):
        hk.newton_refine(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), tol=0.0)
    with pytest.raises(ValueError):
        hk.newton_refine(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), max_iter=0)


def _recording_make_rhs(monkeypatch):
    """Points at which equilibria evaluates the field, per closure it builds."""
    closures = []
    make_rhs = hk.equilibria.make_rhs

    def recording(params, forcing):
        rhs, points = make_rhs(params, forcing), []
        closures.append(points)

        def field(t, x, y, z):
            points.append((x, y, z))
            return rhs(t, x, y, z)

        return field

    monkeypatch.setattr(hk.equilibria, "make_rhs", recording)
    return closures


def test_newton_evaluates_the_vector_field_once_per_point(simple_endemic_case, monkeypatch):
    params, forcing = simple_endemic_case
    closures = _recording_make_rhs(monkeypatch)
    hk.newton_refine(params, forcing, np.array([4.0, 8.0, 8.0]) + 1e-3, tol=1e-12)
    (points,) = closures  # one closure per call
    assert len(points) > 2  # the guess takes steps, so several points are visited
    assert len(points) == len(set(points))


def test_endemic_builds_one_closure(simple_endemic_case, monkeypatch):
    """The Newton polish, the ulp descent and the diagnostic residual share one
    rhs closure; no residual builds its own."""
    params, forcing = simple_endemic_case
    closures = _recording_make_rhs(monkeypatch)
    rep = hk.endemic(params, forcing)
    (points,) = closures
    assert points[-1] == rep.alt_state
    assert hk.residual_norm(params, forcing, rep.state) == rep.residual_norm


# }}}


# {{{ randomized properties


def test_feasibility_iff_reproduction_threshold():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        params, forcing = _draw(rng)
        r0 = hk.r0_all(params, forcing).ngm
        if abs(r0 - 1.0) < 1e-6:
            continue
        rep = hk.endemic(params, forcing)
        assert rep.feasible == (r0 > 1.0)
        checked += 1
    assert checked > 900


def test_residuals_certified_over_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, forcing = _draw(rng)
        dfe = hk.disease_free(params, forcing)
        assert dfe.residual_norm <= 1e-14 * max(1.0, forcing.value)
        rep = hk.endemic(params, forcing)
        if rep.feasible:
            assert rep.residual_norm <= 1e-10


# }}}


def test_large_endemic_state_is_polished_below_the_cap():
    """A state near (0.6, 7.9e3, 1.3e5): Newton stalls at 2**-33, one ulp of
    the field's terms near 7.7e5, above the 1e-10 cap; a neighbouring float
    state has residual 0. The sweep draw with this seed counted an endemic
    residual failure."""
    params = hk.Parameters(
        mu1=0.14236798200971487, mu2=0.010903243901851363, mu3=1.0074419167322932,
        beta=9.696062007981375, eta=0.03641508778536923, epsilon=0.3521624805176904,
        p=25.84824357537588, q=96.86598848758774,
    )
    forcing = hk.ConstantForcing(86.50047256537356)
    rep = hk.endemic(params, forcing)
    assert rep.feasible and rep.residual_norm <= hk.equilibria.ENDEMIC_RESIDUAL_CAP
    assert rep.residual_norm == hk.residual_norm(params, forcing, rep.state)
    counts = hk.sweep(1, 405945837807097956).counts
    assert {k: v for k, v in counts.items() if k not in ("draws", "feasible") and v} == {}
