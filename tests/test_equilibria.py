import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


SET2 = hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)


@pytest.mark.parametrize(
    "state",
    [
        (1e308, 1e308, 1e308),  # the field is (nan, nan, inf)
        (1e308, 1.5e307, 1e308),  # (-inf, nan, finite): a plain max would keep the -inf
    ],
)
def test_residual_is_nan_where_a_component_is_nan(state):
    """``residual_norm`` is the route of the infection-free report."""
    assert math.isnan(hk.residual_norm(SET2, hk.ConstantForcing(20.0), state))


def test_alt_residual_is_nan_where_a_component_is_nan():
    """The diagnostic closed form lies at x ~ 2e304, z ~ -2e154 here, where
    lam - mu1*x and the infection term are both -inf, so dx is nan."""
    params = hk.Parameters(mu1=1e154, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1e-150)
    rep = hk.endemic(params, hk.ConstantForcing(1.0))
    assert all(map(math.isfinite, rep.alt_state))
    assert math.isnan(rep.alt_residual)
    assert rep.feasible is False and math.isfinite(rep.residual_norm)


def test_alt_residual_is_nan_where_the_alt_state_overflows():
    """The diagnostic closed form overflows to (inf, -inf, 1e-287) here, where
    the field is (-inf, inf, -inf): the report carries a NaN residual for it
    and the persistent state is unaffected."""
    params = hk.Parameters(mu1=1e80, mu2=1e217, mu3=1e91, beta=1e242, eta=0.0, epsilon=0.0, p=1e214, q=1e-266)
    rep = _assert_matches_oracle(params, hk.ConstantForcing(1e287))
    assert rep.alt_state[:2] == (math.inf, -math.inf)
    assert math.isnan(rep.alt_residual)


def test_sweep_survives_an_overflowing_alt_state():
    """beta = 1e-300 puts the closed form at (inf, -inf, -1.4e303) on the
    first draw; it used to abort the sweep."""
    box = {"beta": (1e-300, 1e-300), "q": (1e-10, 1e-10)}
    result = hk.sweep(3, 1, box=box)
    assert result.counts["draws"] == 3 and len(result.rows) == 3
    row = result.rows[0]
    params = hk.Parameters(**{name: row[name] for name in ("mu1", "mu2", "mu3", "beta", "eta", "epsilon", "p", "q")})
    rep = _assert_matches_oracle(params, hk.ConstantForcing(row["lam"]))
    assert not all(map(math.isfinite, rep.alt_state)) and math.isnan(rep.alt_residual)


@pytest.mark.parametrize(
    "box, finite_state, finite_alt",
    [
        # beta_eff * prod_eff underflows to 0: x_bar is past every float
        ({"beta": (1e-300, 1e-300), "p": (1e-300, 1e-300)}, False, True),
        # q * beta * ... of the closed form underflows to 0
        ({"beta": (1e-300, 1e-300), "q": (1e-300, 1e-300)}, True, False),
        # beta_eff * prod_eff is subnormal, and x_bar overflows
        ({"beta": (1e-160, 1e-160), "p": (1e-160, 1e-160)}, False, True),
    ],
    ids=["beta-p-underflow", "beta-q-underflow", "beta-p-overflow"],
)
def test_sweep_survives_a_rate_product_out_of_float_range(box, finite_state, finite_alt):
    """Each of these draws used to abort the sweep, with ZeroDivisionError or,
    from an infinite state, ValueError. Each is infeasible; a state past the
    float range keeps its residual of the field, NaN here, and the closed
    form's residual is NaN where it is not finite."""
    result = hk.sweep(2, 1, box=box)
    assert result.counts["draws"] == 2 and result.counts["feasible"] == 0
    row = result.rows[0]
    assert row["endemic_residual"] is None and row["endemic_residual_ok"] and row["threshold_ok"]
    params = hk.Parameters(**{name: row[name] for name in ("mu1", "mu2", "mu3", "beta", "eta", "epsilon", "p", "q")})
    rep = hk.endemic(params, hk.ConstantForcing(row["lam"]))
    assert rep.feasible is False
    assert all(map(math.isfinite, rep.state)) == finite_state
    assert finite_state or math.isnan(rep.residual_norm)
    assert all(map(math.isfinite, rep.alt_state)) == finite_alt
    assert finite_alt or math.isnan(rep.alt_residual)


@pytest.mark.parametrize(
    "box, finite_state",
    [
        # lam / mu1 overflows: the infection-free state is (inf, 0, 0)
        ({"lam": (1e300, 1e300), "mu1": (1e-20, 1e-20)}, False),
        # the state is 1e308, and beta_eff * x in its Jacobian overflows
        ({"lam": (1e307, 1e307), "mu1": (0.1, 0.1), "beta": (100.0, 100.0)}, True),
    ],
    ids=["state-overflow", "jacobian-overflow"],
)
def test_sweep_survives_a_disease_free_state_past_the_float_range(box, finite_state):
    """Each of these draws used to abort the sweep with ValueError, from the
    residual's or the Jacobian's state check or from the eigenvalues' finite
    matrix check. The residual is NaN and fails the certificate, and the
    cells read off the Jacobian are blank."""
    result = hk.sweep(1, 1, box=box)
    (row,) = result.rows
    assert math.isnan(row["dfe_residual"]) and row["dfe_residual_ok"] is False
    assert row["max_re_dfe"] is None and row["eig_sign_ok"] is None and row["threshold_ok"] is None
    assert result.counts["dfe_residual_failures"] == 1
    assert result.counts["threshold_violations"] == result.counts["eig_sign_violations"] == 0
    params = hk.Parameters(**{name: row[name] for name in ("mu1", "mu2", "mu3", "beta", "eta", "epsilon", "p", "q")})
    dfe = hk.disease_free(params, hk.ConstantForcing(row["lam"]))
    assert math.isfinite(dfe.state[0]) == finite_state and dfe.state[1:] == (0.0, 0.0)
    assert math.isnan(dfe.residual_norm)


def test_feasible_endemic_state_past_the_float_range_is_reported_unpolished():
    """beta_eff * prod_eff is subnormal and x_bar overflows on a feasible draw:
    the polish used to raise from the Jacobian's state check. The state is
    reported as the elimination gives it, with a NaN residual that fails the
    certificate."""
    params = hk.Parameters(mu1=1e-20, mu2=1.0, mu3=1e-5, beta=1e-160, eta=0.0, epsilon=0.0, p=1e-160, q=1.0)
    forcing = hk.ConstantForcing(1e300)
    rep = hk.endemic(params, forcing)
    assert rep.feasible is True
    assert rep.state == (math.inf, -math.inf, -math.inf)
    assert math.isnan(rep.residual_norm) and not hk.equilibria.certified(params, forcing, rep)


_RATE_NAMES = ("mu1", "mu2", "mu3", "beta", "eta", "epsilon", "p", "q")


def test_sweep_survives_a_reproduction_number_divisor_that_underflows():
    """mu1 * mu3 * loss_y, mu1 * mu2 * (mu1 + prod_eff) and the closed form's
    mu2 * mu3 underflow to 0 on this draw. r0_all, then the closed form's
    z, used to abort the sweep with ZeroDivisionError. Each quotient is inf,
    as in IEEE arithmetic, and the exact feasibility test agrees with it."""
    box = {
        "lam": (1e20, 1e20), "mu1": (1e-300, 1e-300), "mu2": (1e-300, 1e-300), "mu3": (1e-160, 1e-160),
        "beta": (1e300, 1e300), "p": (1e-300, 1e-300), "q": (1.7e308, 1.7e308),
    }
    (row,) = hk.sweep(1, 0, box=box).rows
    assert row["r0_ngm"] == math.inf and row["feasible"] is True
    params = hk.Parameters(**{name: row[name] for name in _RATE_NAMES})
    forcing = hk.ConstantForcing(row["lam"])
    assert params.mu1 * params.mu3 * params.loss_y == 0.0
    assert hk.r0_all(params, forcing).alt == math.inf
    rep = hk.endemic(params, forcing)
    assert not all(map(math.isfinite, rep.alt_state)) and math.isnan(rep.alt_residual)


def test_a_reproduction_number_whose_terms_both_underflow_is_nan():
    """beta_eff * prod_eff * lam and mu1 * mu3 * loss_y both underflow to 0 on
    this draw, whose exact r0_ngm is below 1. The quotient 0/0 is NaN, as in
    IEEE arithmetic, and decides no side of 1, so threshold_ok is blank; an
    inf there would count a threshold violation on an infeasible draw."""
    box = {
        "lam": (1.0, 1.0), "mu1": (1e-300, 1e-300), "mu2": (0.5, 0.5), "mu3": (1e-300, 1e-300),
        "beta": (1e-300, 1e-300), "p": (1e-300, 1e-300), "q": (0.5, 0.5),
    }
    result = hk.sweep(1, 0, box=box)
    (row,) = result.rows
    assert math.isnan(row["r0_ngm"]) and row["feasible"] is False and row["threshold_ok"] is None
    assert result.counts["threshold_violations"] == 0


@pytest.mark.parametrize(
    "a, b, q", [(6.0, 3.0, 2.0), (1e-300, 0.0, math.inf), (math.inf, 0.0, math.inf), (0.0, 0.0, math.nan)]
)
def test_quotient_divides_by_an_underflowed_zero_as_ieee_does(a, b, q):
    assert repr(hk.model.quotient(a, b)) == repr(q)


def test_sweep_survives_an_infinite_loss_rate():
    """loss_y = mu2 + q overflows to inf on this draw, and the exact
    feasibility test used to abort the sweep with OverflowError from
    inf.as_integer_ratio(). All its factors are positive, so the infinite one
    makes the right side's product inf, which the finite left side does not
    exceed: the draw is infeasible."""
    box = {
        "lam": (1e300, 1e300), "mu1": (1e300, 1e300), "mu2": (1.7e308, 1.7e308), "mu3": (1e-20, 1e-20),
        "beta": (1e20, 1e20), "p": (1e160, 1e160), "q": (1.7e308, 1.7e308),
    }
    result = hk.sweep(1, 0, box=box)
    (row,) = result.rows
    assert row["feasible"] is False and result.counts["feasible"] == 0
    params = hk.Parameters(**{name: row[name] for name in _RATE_NAMES})
    assert params.loss_y == math.inf
    assert hk.endemic(params, hk.ConstantForcing(row["lam"])).feasible is False


@pytest.mark.parametrize(
    "lhs, rhs, exceeds",
    [
        ((math.inf, 1e-300, 1e-300), (1e300, 1e300, 1e300), True),
        ((1e300, 1e300, 1e300), (1e-300, math.inf, 1e-300), False),
        ((math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), False),  # inf > inf
    ],
)
def test_an_infinite_factor_makes_its_product_infinite(lhs, rhs, exceeds):
    assert hk.equilibria._exceeds(lhs, rhs) is exceeds


def test_endemic_feasibility_is_exact_beside_the_threshold():
    """beta*lam is 1 + 2**-54 for lam = fl(0.2), beta = 5, and 1 - 2**-54 for
    lam = fl(1/3), beta = 3: the float y_bar is 0 in both, the exact one is
    not. Feasibility follows the exact sign, on the ulps around each."""
    for beta, lam0 in ((5.0, 0.2), (3.0, 1 / 3)):
        params = hk.Parameters(mu1=1.0, mu2=0.5, mu3=1.0, beta=beta, eta=0.0, epsilon=0.0, p=1.0, q=0.5)
        for k in range(-3, 4):
            lam = lam0
            for _ in range(abs(k)):
                lam = math.nextafter(lam, math.copysign(math.inf, k))
            rep = hk.endemic(params, hk.ConstantForcing(lam))
            assert rep.feasible is (Fraction(lam) * Fraction(beta) > 1)
            if k == 0:
                assert rep.state[1] == 0.0 and rep.feasible is (beta == 5.0)


# }}}


# {{{ newton polish
#
# The polish is private to ``endemic``: a feasible state takes at most 25
# damped Newton steps toward a zero residual. The oracle below is the
# elimination and the polish as they stood while a public solver with a
# tolerance and an iteration budget still wrapped the same loop, copied
# verbatim; ``endemic`` must reproduce its bits.


def _oracle_residual(rhs, u):
    f = dx, dy, dz = rhs(0.0, *u)
    if dx != dx or dy != dy or dz != dz:
        return f, math.nan
    return f, max(abs(dx), abs(dy), abs(dz))


def _oracle_damped_newton(rhs, params, u, tol, max_iter):
    f, res = _oracle_residual(rhs, u)
    for _ in range(max_iter):
        if res <= tol:
            break
        try:
            step = np.linalg.solve(hk.jacobian(params, u), -np.array(f))
        except np.linalg.LinAlgError:
            return u, res, True
        start = np.array(u)
        for k in range(21):  # step scales 1, 1/2, ..., 2**-20
            candidate = tuple((start + 0.5**k * step).tolist())
            f_cand, res_cand = _oracle_residual(rhs, candidate)
            if res_cand < res:
                u, f, res = candidate, f_cand, res_cand
                break
        else:
            break
    return u, res, False


def _oracle_elimination(params, forcing):
    """The field closure, the elimination state and its exact feasibility."""
    lam = forcing.value
    rhs = hk.model.make_rhs(params, forcing)
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff

    x_bar = params.mu3 * params.loss_y / (beta_eff * prod_eff)
    y_bar = (lam - params.mu1 * x_bar) / params.mu2
    z_bar = prod_eff * y_bar / params.mu3
    state = hk.model.as_state((x_bar, y_bar, z_bar))
    return rhs, state, _exact_y_bar(params, lam) > 0


def _oracle_endemic(params, forcing):
    """The elimination, then the polish of a feasible state: (state, residual)."""
    rhs, state, feasible = _oracle_elimination(params, forcing)
    # polish a feasible state only; the elimination is accurate to rounding, so tol 0 stalls there
    state, res, _ = _oracle_damped_newton(rhs, params, state, 0.0, 25 if feasible else 0)
    return state, res


def _assert_matches_oracle(params, forcing):
    rep = hk.endemic(params, forcing)
    state, res = _oracle_endemic(params, forcing)
    assert [v.hex() for v in rep.state + (rep.residual_norm,)] == [v.hex() for v in state + (res,)]
    return rep


# the default sweep box, its corners (collapsed intervals) included
_corner_rate = st.floats(1e-2, 1e2) | st.sampled_from([1e-2, 1e2])
_corner_fraction = st.floats(0.0, 0.9) | st.sampled_from([0.0, 0.9])


@settings(max_examples=500, deadline=None)
@given(rates=st.tuples(*[_corner_rate] * 7), fractions=st.tuples(_corner_fraction, _corner_fraction))
@example(rates=(1e-2,) * 7, fractions=(0.0, 0.0))
@example(rates=(1e2,) * 7, fractions=(0.9, 0.9))
@example(rates=(1e2, 1e-2, 1e-2, 1e-2, 1e2, 1e2, 1e2), fractions=(0.0, 0.0))
def test_endemic_matches_the_reference_polish_over_the_default_box(rates, fractions):
    lam, mu1, mu2, mu3, beta, p, q = rates
    eta, epsilon = fractions
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=epsilon, p=p, q=q)
    _assert_matches_oracle(params, hk.ConstantForcing(lam))


def test_endemic_matches_the_reference_polish_on_the_large_state_and_set2():
    large = _assert_matches_oracle(LARGE_STATE_PARAMS, LARGE_STATE_FORCING)
    scenario = hk.SCENARIOS["set2-auto-boundcheck"]
    set2 = _assert_matches_oracle(scenario.params, scenario.forcing)
    assert large.feasible and set2.feasible


def test_endemic_matches_the_reference_polish_at_the_halving_floor():
    """Rates far outside the default box, where a step is taken only at the
    last scale, 2**-20."""
    params = hk.Parameters(
        mu1=14629847.292522863, mu2=8.031966411125042e-08, mu3=2.2800896465495765e-07,
        beta=233336.16195623827, eta=0.2773228118302298, epsilon=0.5453497491106162,
        p=5963.755431428608, q=519.6206753732329,
    )
    assert _assert_matches_oracle(params, hk.ConstantForcing(19794673.84092535)).feasible


@settings(max_examples=300, deadline=None)
@given(
    rates=st.tuples(*[_corner_rate] * 7),
    fractions=st.tuples(_corner_fraction, _corner_fraction),
    scale=st.tuples(*[st.floats(0.5, 2.0)] * 3),
)
@example(rates=(1e2, 1e-2, 1e-2, 1e-2, 1e2, 1e2, 1e2), fractions=(0.0, 0.0), scale=(2.0, 0.5, 1.5))
def test_polish_candidates_from_a_displaced_start_give_the_ndarray_bits(rates, fractions, scale):
    """Each damped candidate a + 0.5**k * d on floats has the bits the array
    form gave: started off the elimination state, the polish takes steps."""
    lam, mu1, mu2, mu3, beta, p, q = rates
    eta, epsilon = fractions
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=epsilon, p=p, q=q)
    rhs, state, _ = _oracle_elimination(params, hk.ConstantForcing(lam))
    start = tuple(a * s for a, s in zip(state, scale))
    got = hk.equilibria._polish(rhs, params, start)
    want = _oracle_damped_newton(rhs, params, start, 0.0, 25)[:2]
    assert [v.hex() for v in got[0] + (got[1],)] == [v.hex() for v in want[0] + (want[1],)]


def test_newton_accepts_exact_root_unchanged(simple_endemic_case, monkeypatch):
    """The elimination lands on (4, 8, 8) exactly: the polish evaluates the
    field there once and takes no step."""
    params, forcing = simple_endemic_case
    closures = _recording_make_rhs(monkeypatch)
    rep = hk.endemic(params, forcing)
    assert rep.state == (4.0, 8.0, 8.0) and rep.residual_norm == 0.0
    assert closures == [[(4.0, 8.0, 8.0), rep.alt_state]]


def test_newton_singular_jacobian(monkeypatch):
    """A singular Jacobian ends the polish at the elimination state, which
    keeps its residual: set2's state takes steps when the solve succeeds."""
    scenario = hk.SCENARIOS["set2-auto-boundcheck"]
    params, forcing = scenario.params, scenario.forcing
    polished = hk.endemic(params, forcing)
    calls = []

    def singular(params, u):
        calls.append(u)
        return np.zeros((3, 3))

    monkeypatch.setattr(hk.equilibria, "jacobian", singular)
    rep = hk.endemic(params, forcing)
    rhs, state, _ = _oracle_elimination(params, forcing)
    assert calls == [state]
    assert rep.feasible and rep.state == state != polished.state
    assert rep.residual_norm == _oracle_residual(rhs, state)[1] > polished.residual_norm


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


def test_newton_evaluates_the_vector_field_once_per_point(monkeypatch):
    """set2-auto-boundcheck's elimination state takes a step: the polish tries
    the scales 1, 1/2 and 1/4, the last lands on a zero of the field, and the
    diagnostic closed form follows. Five distinct points in all."""
    scenario = hk.SCENARIOS["set2-auto-boundcheck"]
    closures = _recording_make_rhs(monkeypatch)
    rep = hk.endemic(scenario.params, scenario.forcing)
    (points,) = closures  # one closure per call
    assert len(points) == len(set(points)) == 5
    assert points[3] == rep.state == (2.518518518518519, 0.698412698412698, 31.42857142857141)
    assert rep.residual_norm == 0.0 and points[4] == rep.alt_state


def test_endemic_builds_one_closure(simple_endemic_case, monkeypatch):
    """The Newton polish and the diagnostic residual share one rhs closure; no
    residual builds its own."""
    params, forcing = simple_endemic_case
    closures = _recording_make_rhs(monkeypatch)
    rep = hk.endemic(params, forcing)
    (points,) = closures
    assert points[-1] == rep.alt_state
    assert hk.residual_norm(params, forcing, rep.state) == rep.residual_norm


# }}}


# {{{ randomized properties


def _exact_y_bar(params, lam):
    """Oracle: the endemic y_bar of the float rates, as a Fraction."""
    x_bar = Fraction(params.loss_y) * Fraction(params.mu3) / (Fraction(params.beta_eff) * Fraction(params.prod_eff))
    return (Fraction(lam) - Fraction(params.mu1) * x_bar) / Fraction(params.mu2)


def test_feasibility_iff_reproduction_threshold():
    """Every draw is checked: the exact sign decides the draws near r0 = 1."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, forcing = _draw(rng)
        rep = hk.endemic(params, forcing)
        assert rep.feasible == (_exact_y_bar(params, forcing.value) > 0) == (hk.r0_all(params, forcing).ngm > 1.0)


def test_residuals_certified_over_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params, forcing = _draw(rng)
        dfe = hk.disease_free(params, forcing)
        assert dfe.residual_norm <= 1e-14 * max(1.0, forcing.value)
        assert hk.equilibria.certified(params, forcing, dfe)
        rep = hk.endemic(params, forcing)
        if rep.feasible:
            assert rep.residual_norm <= 1e-10
            assert hk.equilibria.certified(params, forcing, rep)


def test_certificate_is_eight_ulps_of_the_largest_term(simple_endemic_case):
    params, forcing = simple_endemic_case  # state (4, 8, 8): largest term loss_y * y = 16
    state = hk.endemic(params, forcing).state
    for residual, verdict in ((8.0 * math.ulp(16.0), True), (9.0 * math.ulp(16.0), False)):
        rep = hk.EquilibriumReport(kind="endemic", state=state, residual_norm=residual, feasible=True)
        assert hk.equilibria.certified(params, forcing, rep) is verdict
    # at the infection-free state the largest term is lam
    rep = hk.EquilibriumReport(kind="disease_free", state=(20.0, 0.0, 0.0), residual_norm=8.0 * math.ulp(10.0))
    assert hk.equilibria.certified(params, forcing, rep)


# }}}


LARGE_STATE_PARAMS = hk.Parameters(
    mu1=0.14236798200971487, mu2=0.010903243901851363, mu3=1.0074419167322932,
    beta=9.696062007981375, eta=0.03641508778536923, epsilon=0.3521624805176904,
    p=25.84824357537588, q=96.86598848758774,
)
LARGE_STATE_FORCING = hk.ConstantForcing(86.50047256537356)


def test_large_endemic_state_is_certified_in_ulps():
    """A state near (0.6, 7.9e3, 1.3e5): Newton stalls at 2**-33, one ulp of
    the field's largest term near 7.7e5, above the absolute 1e-10 an earlier
    rule asked for. The sweep draw with this seed counted an endemic
    residual failure under that rule."""
    params, forcing = LARGE_STATE_PARAMS, LARGE_STATE_FORCING
    rep = hk.endemic(params, forcing)
    assert rep.feasible and hk.equilibria.certified(params, forcing, rep)
    assert rep.residual_norm == hk.residual_norm(params, forcing, rep.state)
    counts = hk.sweep(1, 405945837807097956).counts
    assert {k: v for k, v in counts.items() if k not in ("draws", "feasible") and v} == {}
