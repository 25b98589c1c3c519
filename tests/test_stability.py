import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit import stability as stab
from hbvkit.scenarios import DEFAULT_SWEEP_BOX, _draw_params
from hbvkit.stability import (
    _classify,
    _coefficients,
    _cubic_roots,
    _deflated,
    _polish_root,
    characteristic_coefficients,
)

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


def test_eigenvalues_of_the_zero_matrix():
    assert hk.eigenvalues_3x3(np.zeros((3, 3))) == (0j, 0j, 0j)


def test_eigenvalues_of_a_triple_root_are_exact():
    # -2 I: the scaled depressed cubic has p = q = 0, its triple-root branch
    assert characteristic_coefficients(-2.0 * np.eye(3)) == (6.0, 12.0, 8.0)
    assert hk.eigenvalues_3x3(-2.0 * np.eye(3)) == (-2 + 0j, -2 + 0j, -2 + 0j)


@pytest.mark.parametrize(
    "J", [np.eye(2), np.diag([1.0, math.nan, 1.0])], ids=["2x2", "nan-entry"]
)
def test_characteristic_coefficients_need_a_finite_3x3_matrix(J):
    with pytest.raises(ValueError, match="need a finite 3x3 matrix"):
        characteristic_coefficients(J)


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
        c2, c1, c0 = characteristic_coefficients(J)
        norm = max(1.0, float(np.linalg.norm(J)))  # Frobenius
        for lam in hk.eigenvalues_3x3(J):
            assert abs(((lam + c2) * lam + c1) * lam + c0) / norm**3 <= 1e-9


def test_eigenvalues_against_lapack_oracle():
    rng = np.random.default_rng(17)
    for _ in range(500):
        J = rng.uniform(-100.0, 100.0, (3, 3))
        mine = hk.eigenvalues_3x3(J)
        ref = np.linalg.eigvals(J)
        scale = max(1.0, float(np.abs(ref).max()))
        for lam in mine:
            assert min(abs(lam - r) for r in ref) <= 1e-8 * scale


def _sweep_draws(n):
    """The first n (lam, params) draws of a sweep with seed 42 over the default box."""
    rng = np.random.default_rng(42)
    return [_draw_params(rng, DEFAULT_SWEEP_BOX) for _ in range(n)]


# Draws of _sweep_draws whose endemic Jacobian has eigenvalues spread up to
# max|lam|/min|lam| ~ 1e9; the closed-form roots once merged the two small
# ones, and a Newton polish from there jumped far off (797: +10659.6 against
# -0.01054). The first nine are those it classified as unstable. Each of them
# misses the cubic's constant term after the polish and takes the deflation.
STIFF_ENDEMIC_DRAWS = (797, 1655, 4286, 6361, 7402, 8265, 17398, 18120, 19219)
STIFF_ENDEMIC_WRONG_RATE_DRAWS = (6237, 11327, 13689, 14114, 19084, 19183)
# Draws of _sweep_draws whose polish stalled without refusing a step, when a
# refused step decided the deflation: their small eigenvalues were off by
# 3.7e-2, 1.6e-6 and 1.5e-3 relative to LAPACK's
COARSE_ROOT_DRAWS = (278, 670, 848)

# Largest relative distance of an endemic eigenvalue from LAPACK's: measured
# at most 8.1e-9 over the 14,501 infection-free and feasible endemic states
# of 1,000 draws with seed 42 and 5,000 each with seeds 7 and 3 (default box)
EIGENVALUE_REL_BOUND = 1e-8


@pytest.fixture(scope="module")
def sweep_draws():
    return _sweep_draws(1 + max(STIFF_ENDEMIC_DRAWS + STIFF_ENDEMIC_WRONG_RATE_DRAWS))


def _endemic_jacobian(lam, params):
    end = hk.endemic(params, hk.ConstantForcing(lam))
    return hk.jacobian(params, end.state) if end.feasible else None


@pytest.fixture(scope="module")
def endemic_jacobians(sweep_draws):
    """Index -> endemic Jacobian of the first 3000 draws and the stiff ones, where feasible."""
    indices = list(range(3000)) + list(STIFF_ENDEMIC_DRAWS + STIFF_ENDEMIC_WRONG_RATE_DRAWS)
    jacobians = {i: _endemic_jacobian(*sweep_draws[i]) for i in indices}
    return {i: J for i, J in jacobians.items() if J is not None}


def test_endemic_jacobians_against_lapack_oracle(endemic_jacobians):
    for i, J in endemic_jacobians.items():
        mine = hk.eigenvalues_3x3(J)
        ref = np.linalg.eigvals(J)
        scale = float(np.abs(ref).max())
        for lam in mine:
            assert min(abs(lam - r) for r in ref) <= 1e-8 * scale, i
        for r in ref:
            assert min(abs(lam - r) for lam in mine) <= 1e-8 * scale, i
    assert len(endemic_jacobians) > 900


def _relative_distance_from_lapack(J) -> float:
    """The largest distance of an eigenvalue from the nearest of LAPACK's, or
    of one of LAPACK's from the nearest eigenvalue, relative to LAPACK's: the
    small eigenvalues are held to their own size, not the largest."""
    mine = hk.eigenvalues_3x3(J)
    ref = np.linalg.eigvals(J)
    return max(
        *(min(abs(lam - r) / abs(r) for r in ref) for lam in mine),
        *(min(abs(lam - r) for lam in mine) / abs(r) for r in ref),
    )


def test_endemic_eigenvalues_against_lapack_relative(endemic_jacobians):
    assert set(COARSE_ROOT_DRAWS) <= set(endemic_jacobians)
    for i, J in endemic_jacobians.items():
        assert _relative_distance_from_lapack(J) <= EIGENVALUE_REL_BOUND, i


def test_a_polish_step_off_a_near_double_root_is_not_taken():
    """Draw 1919 of a default-box sweep with seed 3: a Newton step from the
    closed-form roots raises the residual past 16-fold here. Taken, it jumps
    off a near-double root, and the deflation then divides out the jumped
    root (relative error 26)."""
    rng = np.random.default_rng(3)
    lam, params = [_draw_params(rng, DEFAULT_SWEEP_BOX) for _ in range(1920)][1919]
    assert _relative_distance_from_lapack(_endemic_jacobian(lam, params)) <= EIGENVALUE_REL_BOUND


def test_stable_endemic_state_reports_two_small_negative_eigenvalues():
    """Log-rates (0, 0, -4.5, -4.5, 4, 4.25, 4), no treatment: the polish
    stalled here without refusing a step, and the state, stable, reported
    (+0.0203, -0.0426) for LAPACK's (-0.01097, -0.01125)."""
    lam, mu1, mu2, mu3, beta, p, q = map(math.exp, (0, 0, -4.5, -4.5, 4, 4.25, 4))
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=0.0, epsilon=0.0, p=p, q=q)
    forcing = hk.ConstantForcing(lam)
    end = hk.endemic(params, forcing)
    assert end.feasible
    J = hk.jacobian(params, end.state)
    assert _relative_distance_from_lapack(J) <= EIGENVALUE_REL_BOUND
    small = [round(lam.real, 5) for lam in hk.eigenvalues_3x3(J)[:2]]
    assert small == [-0.01097, -0.01125]
    report = hk.stability_report(params, forcing, end.state)
    assert report.classification == "stable" and report.max_real_part < 0.0


def test_overflowing_coefficients_give_nan_roots_without_raising():
    """c1 and c0 overflow to NaN here: a NaN product decides no deflation,
    and the roots stay NaN."""
    J = np.array([[-1e200, 1.0, -1e200], [1e200, -1.0, 1e200], [0.0, 1e200, -1e200]])
    c2, c1, c0 = characteristic_coefficients(J)
    assert c2 == 2e200 and math.isnan(c1) and math.isnan(c0)
    eigs = hk.eigenvalues_3x3(J)
    assert len(eigs) == 3 and all(cmath.isnan(lam) for lam in eigs)


# the infection-free Jacobian's cubic overflows on this draw: its
# eigenvalues are NaN
_OVERFLOW_BOX = {"lam": (1e100, 1e100), "mu1": (1e-100, 1e-100), "p": (1e200, 1e200), "beta": (1.0, 1.0)}


def test_sweep_completes_where_the_cubic_overflows():
    result = hk.sweep(1, 0, box=_OVERFLOW_BOX)
    assert result.counts == {
        "draws": 1, "feasible": 1, "threshold_violations": 0, "dfe_residual_failures": 0,
        "endemic_residual_failures": 0, "eig_sign_violations": 0, "positivity_violations": 0,
        "bound_violations": 0,
    }


def test_sweep_leaves_a_nan_eigenvalue_sign_blank():
    """A NaN max_re_dfe checks no sign: eig_sign_ok is blank."""
    (row,) = hk.sweep(1, 0, box=_OVERFLOW_BOX).rows
    assert math.isnan(row["max_re_dfe"]) and row["eig_sign_ok"] is None


@pytest.mark.parametrize("index", STIFF_ENDEMIC_DRAWS)
def test_stiff_endemic_states_classify_stable(sweep_draws, index):
    lam, params = sweep_draws[index]
    forcing = hk.ConstantForcing(lam)
    end = hk.endemic(params, forcing)
    assert end.feasible
    assert hk.routh_hurwitz_stable(hk.jacobian(params, end.state))
    assert hk.stability_report(params, forcing, end.state).classification == "stable"


def _cubic_algebra(entries):
    """The coefficients, the closed-form roots and the polished roots (of
    the upper-half-plane copies) that ``eigenvalues_3x3`` computes from nine
    entries, before it decides the deflation."""
    c = _coefficients(*entries)
    roots = _cubic_roots(*c)
    return c, roots, [_polish_root(complex(r.real, abs(r.imag)), *c) for r in roots]


def _bits(values):
    """Each real or complex value as the hex strings of its parts, so -0.0
    and 0.0 differ."""
    return [(float(complex(v).real).hex(), float(complex(v).imag).hex()) for v in values]


def _assert_same_eigenvalue_bits(J) -> bool:
    """Whether the polished roots miss the cubic's constant term, so that
    ``eigenvalues_3x3`` deflates; asserts first that the algebra on the float
    entries and on the np.float64 ones gives the same bits, and that the
    eigenvalues are the polished roots, deflated exactly where they miss."""
    c, roots, polished = _cubic_algebra(J.ravel().tolist())
    c64, roots64, polished64 = _cubic_algebra(list(J.ravel()))
    assert all(type(v) is float for v in c) and all(type(v) is np.float64 for v in c64)
    assert _bits(c) == _bits(c64)
    assert _bits(roots) == _bits(roots64)
    assert _bits(polished) == _bits(polished64)
    # the whole pipeline, against entries taken as np.float64, as _entries gave them before
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stab, "_entries", lambda M: list(np.asarray(M, dtype=float).ravel()))
        before = hk.eigenvalues_3x3(J)
    assert _bits(hk.eigenvalues_3x3(J)) == _bits(before)
    # conjugates of the lower-half-plane roots, reals real, as eigenvalues_3x3 takes them
    roots = [
        lam if r.imag > 0 else lam.conjugate() if r.imag < 0 else complex(lam.real, 0.0)
        for r, lam in zip(roots, polished)
    ]
    deflates = abs(roots[0] * roots[1] * roots[2] + c[2]) > 1e-9 * abs(c[2])
    expected = _deflated(roots, c[1], c[2]) if deflates else roots
    assert _bits(hk.eigenvalues_3x3(J)) == _bits(sorted(expected, key=lambda lam: (-lam.real, lam.imag)))
    return deflates


# the default sweep box, its corners (collapsed intervals) included
_corner_rate = st.floats(1e-2, 1e2) | st.sampled_from([1e-2, 1e2])
_corner_fraction = st.floats(0.0, 0.9) | st.sampled_from([0.0, 0.9])


@settings(max_examples=500, deadline=None)
@given(rates=st.tuples(*[_corner_rate] * 7), fractions=st.tuples(_corner_fraction, _corner_fraction))
@example(rates=(1e-2,) * 7, fractions=(0.0, 0.0))
@example(rates=(1e2, 1e-2, 1e2, 1e-2, 1e2, 1e2, 1e-2), fractions=(0.9, 0.9))
def test_eigenvalues_are_bit_identical_on_floats_and_float64(rates, fractions):
    """The cubic's algebra computes the same bits on Python floats as on
    np.float64 entries, at the infection-free state and at a feasible
    persistent one."""
    params, lam = _signs_case(rates, fractions)
    forcing = hk.ConstantForcing(lam)
    end = hk.endemic(params, forcing)
    for state in [hk.disease_free(params, forcing).state] + ([end.state] if end.feasible else []):
        _assert_same_eigenvalue_bits(hk.jacobian(params, state))


def test_stiff_eigenvalues_are_bit_identical_on_floats_and_float64(sweep_draws):
    """The stiff draws take the deflation."""
    deflated = [
        _assert_same_eigenvalue_bits(_endemic_jacobian(*sweep_draws[index]))
        for index in STIFF_ENDEMIC_DRAWS + STIFF_ENDEMIC_WRONG_RATE_DRAWS
    ]
    assert all(deflated)


_log_rate = st.floats(math.log(1e-2), math.log(1e2))


@settings(max_examples=500, deadline=None)
@given(
    log_rates=st.tuples(*[_log_rate] * 7),
    fractions=st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 0.9)),
)
# a stable endemic state whose polish stalled without refusing a step: it
# reported max Re +0.0203
@example(log_rates=(0.0, 0.0, -4.5, -4.5, 4.0, 4.25, 4.0), fractions=(0.0, 0.0))
def test_classification_agrees_with_routh_hurwitz(log_rates, fractions):
    """No band: the float max Re is held to the exact class wherever it lies
    one ulp of the Jacobian's largest entry or more from 0."""
    lam, mu1, mu2, mu3, beta, p, q = map(math.exp, log_rates)
    eta, epsilon = fractions
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=epsilon, p=p, q=q)
    forcing = hk.ConstantForcing(lam)
    end = hk.endemic(params, forcing)
    states = [hk.disease_free(params, forcing).state] + ([end.state] if end.feasible else [])
    for state in states:
        J = hk.jacobian(params, state)
        report = hk.stability_report(params, forcing, state)
        assert (report.classification == "stable") == hk.routh_hurwitz_stable(J)
        if abs(report.max_real_part) >= math.ulp(np.abs(J).max()):
            assert report.classification == ("stable" if report.max_real_part < 0.0 else "unstable")


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


def test_routh_hurwitz_returns_a_builtin_bool(clearing_params):
    for J in (hk.jacobian(clearing_params, DFE2), np.diag([1.0, -2.0, -3.0])):
        assert type(hk.routh_hurwitz_stable(J)) is bool


def _fraction_hurwitz(J):
    """Oracle: the criterion on the coefficients of J's entries as rationals."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(v) for v in row] for row in np.asarray(J, dtype=float)]
    c2 = -(a + e + i)
    c1 = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    c0 = -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    return c2 > 0 and c0 > 0 and c2 * c1 > c0


# entries with dyadic values and zeros mixed in, so that coefficients tie
_entry = st.floats(-100.0, 100.0) | st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


@settings(max_examples=500, deadline=None)
@given(entries=st.lists(_entry, min_size=9, max_size=9))
@example(entries=[-1.0, 0.5, -1.0, 0.0, -1.0, 1.0, 0.0, 1.0, -1.0])  # c0 = 0
def test_routh_hurwitz_matches_a_fraction_oracle(entries):
    J = np.array(entries).reshape(3, 3)
    assert hk.routh_hurwitz_stable(J) == _fraction_hurwitz(J)


def test_routh_hurwitz_is_exact_where_float_products_tie():
    """e*i = 1 + 2**-53 - 2**-105 and f*h = 1 round to the same float, so c0
    computed in floats is 0; the exact block determinant is positive."""
    e, i = -(1.0 + 2.0**-52), -(1.0 - 2.0**-53)
    J = np.array([[-1.0, 0.0, 0.0], [0.0, e, 1.0], [0.0, 1.0, i]])
    assert characteristic_coefficients(J)[2] == 0.0
    assert hk.routh_hurwitz_stable(J) and _fraction_hurwitz(J)


def _companion(c2, c1, c0):
    """A matrix whose characteristic cubic is lam^3 + c2 lam^2 + c1 lam + c0."""
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-c0, -c1, -c2]])


@pytest.mark.parametrize("J, expected", [
    (np.diag([0.0, -1.0, -2.0]), "marginal"),
    (np.diag([0.0, 1.0, -1.0]), "unstable"),
    (np.diag([0.0, 0.0, -1.0]), "marginal"),
    (np.diag([0.0, 0.0, 1.0]), "unstable"),
    (np.triu(np.ones((3, 3)), 1), "marginal"),  # nilpotent
    (np.array([[2.0, -4.0, 0.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]), "marginal"),  # nilpotent
    (_companion(1.0, 1.0, 1.0), "marginal"),  # (lam + 1)(lam^2 + 1)
    (_companion(-1.0, 1.0, -1.0), "unstable"),  # (lam - 1)(lam^2 + 1)
    (_companion(0.0, 1.0, 0.0), "marginal"),  # lam (lam^2 + 1)
    (_companion(-1.0, 0.0, 0.0), "unstable"),  # lam^2 (lam - 1)
    (_companion(1.0, -1.0, 0.0), "unstable"),  # lam (lam^2 + lam - 1)
    (np.diag([-1.0, -2.0, -3.0]), "stable"),
])
def test_class_rule_on_the_imaginary_axis(J, expected):
    assert _classify(J) == expected
    assert hk.routh_hurwitz_stable(J) == (expected == "stable")


# small integers and dyadic fractions: roots on the axis, ties and repeats
_small_entry = st.integers(-4, 4).map(float) | st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.5, -1.5])


@settings(max_examples=500, deadline=None)
@given(entries=st.lists(_small_entry, min_size=9, max_size=9))
def test_class_rule_matches_numpy_eigenvalues(entries):
    """Wherever LAPACK's max Re clears 1e-6 of max|J|, its sign is the class.

    A root on the axis moves by rounding, by about sqrt(1e-16) of max|J| for
    a double root; a nilpotent J, whose cubic is lam^3, moves by the cube
    root, about 5e-6, so the named nilpotent cases above hold it instead.
    Coefficients of these entries are exact in floats."""
    J = np.array(entries).reshape(3, 3)
    max_re = float(np.linalg.eigvals(J).real.max())
    if abs(max_re) > 1e-6 * np.abs(J).max() and any(characteristic_coefficients(J)):
        assert _classify(J) == ("stable" if max_re < 0.0 else "unstable")


# }}}


# {{{ exact threshold signs


def _fraction_signs(params, lam):
    """Oracle: the sign of the rational endemic y_bar of the float rates, and
    the class at the float infection-free state (lam/mu1, 0, 0). There the
    float Jacobian is -mu1 plus a 2x2 block of negative trace, so the sign
    of the block's determinant, as a Fraction, is the class."""
    beta_eff, prod_eff, loss_y = Fraction(params.beta_eff), Fraction(params.prod_eff), Fraction(params.loss_y)
    mu3 = Fraction(params.mu3)
    x_bar = loss_y * mu3 / (beta_eff * prod_eff)
    y_bar = (Fraction(lam) - Fraction(params.mu1) * x_bar) / Fraction(params.mu2)
    J = hk.jacobian(params, (lam / params.mu1, 0.0, 0.0))
    det = Fraction(J[1, 1]) * Fraction(J[2, 2]) - Fraction(J[1, 2]) * Fraction(J[2, 1])
    return y_bar > 0, "stable" if det > 0 else "marginal" if det == 0 else "unstable"


def _exact_signs(params, lam):
    """(feasible, DFE class) as ``endemic`` and ``stability_report`` decide
    them; the DFE class is the class rule on the Jacobian at the DFE."""
    forcing = hk.ConstantForcing(lam)
    dfe = hk.disease_free(params, forcing)
    J = hk.jacobian(params, dfe.state)
    cls = hk.stability_report(params, forcing, dfe.state).classification
    assert hk.routh_hurwitz_stable(J) == (cls == "stable")
    return hk.endemic(params, forcing).feasible, cls


def _signs_case(rates, fractions):
    lam, mu1, mu2, mu3, beta, p, q = rates
    eta, epsilon = fractions
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=epsilon, p=p, q=q)
    return params, lam


# the default sweep box, with dyadic values mixed in so that products tie
_box_rate = st.floats(1e-2, 1e2) | st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
_box_fraction = st.floats(0.0, 0.9) | st.sampled_from([0.0, 0.5, 0.75])


@settings(max_examples=500, deadline=None)
@given(rates=st.tuples(*[_box_rate] * 7), fractions=st.tuples(_box_fraction, _box_fraction))
@example(rates=(1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0), fractions=(0.0, 0.0))  # r0 = 1 exactly
@example(rates=(1 / 3, 1.0, 0.5, 1.0, 3.0, 1.0, 0.5), fractions=(0.0, 0.0))  # beta*lam/mu1 rounds to 1
def test_exact_threshold_signs_match_a_fraction_oracle(rates, fractions):
    params, lam = _signs_case(rates, fractions)
    assert _exact_signs(params, lam) == _fraction_signs(params, lam)


def test_exact_threshold_signs_decide_ties():
    """Every rate in {0.5, 1, 2} and fraction in {0, 0.5}: products tie often,
    and a tie is neither feasible nor DFE-stable, but marginal."""
    ties = 0
    for case in itertools.product(*[(0.5, 1.0, 2.0)] * 7):
        for fractions in itertools.product((0.0, 0.5), repeat=2):
            params, lam = _signs_case(case, fractions)
            signs = _exact_signs(params, lam)
            assert signs == _fraction_signs(params, lam)
            if params.beta_eff * params.prod_eff * lam == params.mu1 * params.mu3 * params.loss_y:
                assert signs == (False, "marginal")
                ties += 1
    assert ties > 100


def test_exact_threshold_signs_need_a_constant_rate(clearing_params, wave_forcing):
    for solve in (hk.endemic, hk.disease_free):
        with pytest.raises(hk.UnsupportedForcingError):
            solve(clearing_params, wave_forcing)


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


@pytest.mark.parametrize("b1", [math.nan, math.inf, -100.0])
def test_nonauto_b1_must_be_finite_and_nonnegative(clearing_params, wave_forcing, b1):
    with pytest.raises(ValueError, match="b1 must be finite and nonnegative"):
        hk.condition_margins("nonauto", clearing_params, wave_forcing, b1=b1)


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


def _hand_built(times, states, params, forcing):
    """A trajectory of the given points, as no integration would record them."""
    bounds = hk.analytic_bounds(params, forcing, states[0])
    return hk.Trajectory([float(t) for t in times], list(states), (), params, forcing, bounds, hk.AdaptiveStep())


@pytest.mark.parametrize(
    "xs", [(2.0, 1.5, 1.0, 1.0), (2.0, 1.5, 1.25, 1.0)], ids=["no-positive", "one-positive"]
)
def test_lyapunov_fit_is_degenerate_with_under_two_positive_values_in_its_half(
    clearing_params, clearing_forcing, xs
):
    traj = _hand_built(range(4), [(x, 0.0, 0.0) for x in xs], clearing_params, clearing_forcing)
    trace = hk.lyapunov_fit(traj, (1.0, 0.0, 0.0))
    assert trace.values[0] == 1.0
    assert (trace.degenerate, trace.rate, trace.fit_quality) == (True, 0.0, 0.0)


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


def test_contraction_is_degenerate_with_under_two_positive_distances_in_its_half(
    clearing_params, clearing_forcing
):
    a = _hand_built(range(6), [(1.0, 1.0, 1.0)] * 6, clearing_params, clearing_forcing)
    xs = (2.0, 1.5, 1.2, 1.0, 1.0, 1.0)
    b = _hand_built(range(6), [(x, 1.0, 1.0) for x in xs], clearing_params, clearing_forcing)
    assert hk.contraction_fit(a, b) == hk.ContractionFit(0.0, 0.0, 0.0, True)


@pytest.mark.parametrize("start", [3.0, 4.0], ids=["touching", "apart"])
def test_contraction_refuses_runs_that_do_not_overlap(clearing_params, clearing_forcing, start):
    a = _hand_built([0.0, 1.0, 2.0, 3.0], [(1.0, 1.0, 1.0)] * 4, clearing_params, clearing_forcing)
    b = _hand_built([start + i for i in range(4)], [(2.0, 1.0, 1.0)] * 4, clearing_params, clearing_forcing)
    with pytest.raises(ValueError, match="trajectories do not overlap in time"):
        hk.contraction_fit(a, b)


def _same_grid_shortcut(traj1, traj2):
    """``stability._common_grid``'s former branch for two runs on one grid."""
    return traj1.times, traj1.states, traj2.states


_RATE_SETS = sorted({sc.params for sc in hk.SCENARIOS.values()}, key=repr)
_FORCINGS = {
    "constant": hk.ConstantForcing(9.8135),
    "sinusoid": hk.SinusoidForcing(amplitude=1.0, omega=2.0, phase=math.pi / 3.0, offset=10.0),
    "table": hk.PiecewiseLinearForcing((0.0, 0.7, 1.9, 3.0), (9.0, 12.5, 8.5, 10.0)),
}
_state_part = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 50.0)


@settings(max_examples=150, deadline=None)
@given(
    params=st.sampled_from(_RATE_SETS),
    kind=st.sampled_from(sorted(_FORCINGS)),
    u1=st.tuples(_state_part, _state_part, _state_part),
    u2=st.tuples(_state_part, _state_part, _state_part),
    h=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
    t_end=st.sampled_from([1.0, 2.0, 3.0]),
)
@example(
    params=_RATE_SETS[0], kind="sinusoid", u1=(1.0, -0.0, 2.0), u2=(3.0, 0.0, -0.0), h=0.05, t_end=2.0
)
def test_contraction_on_one_grid_keeps_the_shortcut_bits(params, kind, u1, u2, h, t_end):
    ctl = hk.FixedStep(h=h)
    a = hk.integrate(params, _FORCINGS[kind], u1, 0.0, t_end, ctl)
    b = hk.integrate(params, _FORCINGS[kind], u2, 0.0, t_end, ctl)
    assume(a.time_list == b.time_list)  # a run cut short by an event ends its grid early
    times, s1, s2 = stab._common_grid(a, b)
    want_times, want_s1, want_s2 = _same_grid_shortcut(a, b)
    assert times.tobytes() == want_times.tobytes() and s1.tobytes() == want_s1.tobytes()
    # a node's resampled floats are its own, up to the sign of an exact zero
    assert np.array_equal(s2, want_s2)
    assert np.sum((s1 - s2) ** 2, axis=1).tobytes() == np.sum((want_s1 - want_s2) ** 2, axis=1).tobytes()
    got = hk.contraction_fit(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stab, "_common_grid", _same_grid_shortcut)
        want = hk.contraction_fit(a, b)
    assert got.degenerate == want.degenerate
    for name in ("K", "alpha", "fit_quality"):
        assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name


def test_contraction_on_one_grid_needs_four_samples(clearing_params, clearing_forcing):
    # on one grid as on two, a fit needs four samples in the overlap
    ctl = hk.FixedStep(h=0.5)
    a = hk.integrate(clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, ctl)
    b = hk.integrate(clearing_params, clearing_forcing, (2.0, 2.0, 2.0), 0.0, 1.0, ctl)
    assert a.time_list == b.time_list == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="too few overlapping samples"):
        hk.contraction_fit(a, b)


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
