import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.model import as_state, field_names, make_rhs


def _random_params(rng):
    lo, hi = math.log(1e-2), math.log(1e2)
    mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 6))
    eta, eps = rng.uniform(0.0, 0.9, 2)
    return hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q)


# {{{ forcing


def test_sinusoid_value_and_bounds(wave_forcing):
    assert wave_forcing(0.0) == pytest.approx(10.5, abs=1e-14)  # cos(pi/3) = 1/2
    assert wave_forcing.bounds == (9.0, 11.0)


def test_constant_ignores_time():
    f = hk.ConstantForcing(9.8135)
    assert f(7.3) == 9.8135
    assert f.bounds == (9.8135, 9.8135)


def test_piecewise_linear_interpolates_and_bounds():
    f = hk.PiecewiseLinearForcing(times=(0.0, 1.0, 3.0), values=(2.0, 4.0, 1.0))
    assert f(0.5) == pytest.approx(3.0)
    assert f(2.0) == pytest.approx(2.5)
    assert f.bounds == (1.0, 4.0)


def test_piecewise_linear_out_of_domain(clearing_params):
    f = hk.PiecewiseLinearForcing(times=(0.0, 1.0), values=(2.0, 3.0))
    for t in (-0.1, 1.5, math.nan):  # every comparison with NaN is false
        with pytest.raises(hk.OutOfDomainError):
            f(t)
        with pytest.raises(hk.OutOfDomainError):
            hk.vector_field(clearing_params, f, t, (1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: hk.ConstantForcing(0.0),
        lambda: hk.ConstantForcing(-1.0),
        lambda: hk.SinusoidForcing(amplitude=2.0, omega=1.0, phase=0.0, offset=1.5),
        lambda: hk.PiecewiseLinearForcing(times=(0.0, 1.0), values=(1.0, 0.0)),
        lambda: hk.PiecewiseLinearForcing(times=(1.0, 0.0), values=(1.0, 1.0)),
    ],
)
def test_forcing_must_stay_positive(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("field", ["amplitude", "omega", "phase", "offset"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sinusoid_coefficients_must_be_finite(field, value):
    coefficients = dict(amplitude=1.0, omega=2.0, phase=0.0, offset=10.0) | {field: value}
    with pytest.raises(ValueError, match="sinusoid coefficients must be finite"):
        hk.SinusoidForcing(**coefficients)


@pytest.mark.parametrize(
    "times, values",
    [((0.0,), (1.0,)), ((0.0, 1.0), (1.0, 2.0, 3.0)), ((0.0, 1.0, 2.0), (1.0, 2.0))],
    ids=["one-knot", "more-values", "more-times"],
)
def test_a_table_needs_two_knots_of_equal_length(times, values):
    with pytest.raises(ValueError, match="need at least two"):
        hk.PiecewiseLinearForcing(times=times, values=values)


@st.composite
def _tables_and_times(draw):
    """A knot table and times in its range: knot hits, both ends, the
    neighbours of each knot one float away, and arbitrary points between."""
    times = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=16, unique=True
    )))
    values = draw(st.lists(st.floats(1e-6, 1e6), min_size=len(times), max_size=len(times)))
    lo, hi = times[0], times[-1]
    near = [math.nextafter(k, d) for k in times for d in (-math.inf, math.inf)]
    inside = st.one_of(
        st.sampled_from(times),
        st.sampled_from([t for t in near if lo <= t <= hi]),
        st.floats(lo, hi),
    )
    return times, values, [lo, hi] + draw(st.lists(inside, min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(_tables_and_times())
def test_piecewise_linear_matches_np_interp_bit_for_bit(clearing_params, table):
    times, values, points = table
    forcing = hk.PiecewiseLinearForcing(times=tuple(times), values=tuple(values))
    rhs = make_rhs(clearing_params, forcing)
    for t in points:
        expected = float(np.interp(t, times, values))
        assert forcing(t) == expected
        assert rhs(t, 0.0, 0.0, 0.0)[0] == expected  # dx at the origin is L(t) exactly


def _arrangements(points):
    """Call orders of the points: as drawn, forward, backward, each twice in
    a row, and forward with a step back after each call, as after a
    rejected step."""
    forward = sorted(points)
    return {
        "drawn": points,
        "forward": forward,
        "backward": forward[::-1],
        "repeated": [t for t in points for _ in range(2)],
        "step_back": [t for a, b in zip(forward, forward[1:]) for t in (b, a)],
    }


@settings(max_examples=200, deadline=None)
@given(_tables_and_times())
def test_table_rhs_matches_np_interp_over_call_sequences(clearing_params, table):
    times, values, points = table
    forcing = hk.PiecewiseLinearForcing(times=tuple(times), values=tuple(values))
    lo, hi = times[0], times[-1]
    for order, sequence in _arrangements(points).items():
        rhs = make_rhs(clearing_params, forcing)
        for t in sequence:
            assert rhs(t, 0.0, 0.0, 0.0)[0] == float(np.interp(t, times, values)), (order, t)
    # past either end or NaN, after a call at the last knot or inside a segment,
    # raises the domain error, and the closure answers the next call correctly
    rhs = make_rhs(clearing_params, forcing)
    for before in (hi, points[-1]):
        for bad in (math.nextafter(hi, math.inf), math.nextafter(lo, -math.inf), math.nan):
            assert rhs(before, 0.0, 0.0, 0.0)[0] == float(np.interp(before, times, values))
            with pytest.raises(hk.OutOfDomainError, match="outside the tabulated range"):
                rhs(bad, 0.0, 0.0, 0.0)
    assert rhs(points[-1], 0.0, 0.0, 0.0)[0] == float(np.interp(points[-1], times, values))


def test_rhs_closures_hold_no_state(clearing_params, wave_forcing):
    """A closure reads only the field values it was built with, and no call
    rebinds them: a call leaves nothing behind for the next one."""
    table = hk.PiecewiseLinearForcing(times=(0.0, 1.0, 2.0, 3.0), values=(1.0, 2.0, 4.0, 3.0))
    assert [f.name for f in dataclasses.fields(table)] == ["times", "values"]  # segments is no field
    for forcing in (hk.ConstantForcing(2.0), wave_forcing, table):
        rhs = make_rhs(clearing_params, forcing)
        kind, values = rhs.field
        expected = dict(zip(field_names(kind), values))
        for t in (2.5, 0.5, 3.0, 1.0, 0.0):
            rhs(t, 1.0, 2.0, 3.0)
            cells = {name: cell.cell_contents for name, cell in zip(rhs.__code__.co_freevars, rhs.__closure__)}
            assert cells == {name: expected[name] for name in cells}
            assert rhs(t, 0.0, 0.0, 0.0)[0] == forcing(t)


def test_table_forcing_does_not_call_np_interp(monkeypatch, persistent_params):
    def fail(*args, **kwargs):
        raise AssertionError("np.interp called")

    monkeypatch.setattr(np, "interp", fail)
    table = hk.PiecewiseLinearForcing(times=(0.0, 0.3, 2.0, 5.0), values=(20.0, 23.5, 17.25, 19.6))
    for control in (hk.FixedStep(h=0.01), hk.AdaptiveStep()):
        traj = hk.integrate(persistent_params, table, (1.0, 1.0, 1.0), 0.0, 5.0, control)
        assert traj.final_time == 5.0 and not traj.terminated


def test_forcing_outputs_inside_declared_bounds(wave_forcing):
    rng = np.random.default_rng(7)
    table = hk.PiecewiseLinearForcing(times=(0.0, 2.0, 5.0, 9.0), values=(3.0, 1.0, 6.0, 2.0))
    for forcing, t_lo, t_hi in ((wave_forcing, -50.0, 50.0), (table, 0.0, 9.0)):
        lo, hi = forcing.bounds
        for t in rng.uniform(t_lo, t_hi, 10_000):
            assert lo <= forcing(t) <= hi


# }}}


# {{{ parameters / state validation


def test_parameters_reject_nonpositive_rates():
    with pytest.raises(ValueError):
        hk.Parameters(mu1=0.0, mu2=1, mu3=1, beta=1, eta=0, epsilon=0, p=1, q=1)
    with pytest.raises(ValueError):
        hk.Parameters(mu1=1, mu2=1, mu3=1, beta=-2, eta=0, epsilon=0, p=1, q=1)


def test_parameters_reject_full_treatment():
    with pytest.raises(ValueError):
        hk.Parameters(mu1=1, mu2=1, mu3=1, beta=1, eta=1.0, epsilon=0, p=1, q=1)
    with pytest.raises(ValueError):
        hk.Parameters(mu1=1, mu2=1, mu3=1, beta=1, eta=0, epsilon=-0.1, p=1, q=1)


def test_as_state_validation():
    with pytest.raises(ValueError):
        as_state((1.0, 2.0))
    with pytest.raises(ValueError):
        as_state((1.0, math.nan, 0.0))
    with pytest.raises(ValueError):
        as_state((1.0, -1.0, 0.0), require_nonnegative=True)


@pytest.mark.parametrize("u", [(1, 2, 3), [1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0]), np.arange(1, 4), (np.float32(1.0), 2, True)])
def test_as_state_returns_three_python_floats(u):
    state = as_state(u)
    assert type(state) is tuple and len(state) == 3
    assert all(type(v) is float for v in state)
    assert state == tuple(np.asarray(u, dtype=float).tolist())


@pytest.mark.parametrize(
    "u",
    [
        np.ones((3, 1)), np.ones((1, 3)), [[1.0], [2.0], [3.0]], [[1.0, 2.0, 3.0]], (1.0, 2.0), np.ones(2),
        (1.0, 2.0, 3.0, 4.0), 1.0, np.float64(1.0), np.array(1.0), "123", None,
        (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 0.0, math.nan), (None, 0.0, 0.0),
    ],
)
def test_as_state_rejects_other_shapes_and_nonfinite_parts(u):
    with pytest.raises(ValueError):
        as_state(u)


def test_as_state_keeps_the_error_types_of_its_checks():
    with pytest.raises(ValueError, match="nonnegative"):
        as_state(np.array([1.0, 0.0, -1e-300]), require_nonnegative=True)
    assert as_state((1.0, -0.0, 0.0), require_nonnegative=True) == (1.0, -0.0, 0.0)
    assert as_state((1.0, -1.0, 0.0)) == (1.0, -1.0, 0.0)
    with pytest.raises(TypeError):
        as_state((1.0, 2j, 0.0))
    for not_a_sequence in ({1.0, 2.0, 3.0}, (v for v in (1.0, 2.0, 3.0)), {0: 1.0, 1: 2.0, 2: 3.0}):
        with pytest.raises(TypeError):
            as_state(not_a_sequence)


# }}}


# {{{ vector field


def test_vector_field_is_zero_at_infection_free_point(clearing_params, clearing_forcing):
    dfe = (9.8135 / 2.0, 0.0, 0.0)
    f = hk.vector_field(clearing_params, clearing_forcing, 0.0, dfe)
    assert np.max(np.abs(f)) <= 1e-14 * max(1.0, clearing_forcing.value)


def test_vector_field_at_origin_is_pure_production(clearing_params, clearing_forcing):
    f = hk.vector_field(clearing_params, clearing_forcing, 0.0, (0.0, 0.0, 0.0))
    assert f[0] == clearing_forcing.value
    assert f[1] == 0.0 and f[2] == 0.0


def test_vector_field_term_by_term(clearing_params, clearing_forcing):
    # independent evaluation, one term at a time
    lam, mu1, mu2, mu3 = 9.8135, 2.0, 3.0, 7.0
    beta, eta, eps, p, q = 0.2, 0.2, 0.5, 0.01, 5.0
    x = y = z = 1.0
    expected = (
        lam - mu1 * x - (1 - eta) * beta * x * z + q * y,
        (1 - eta) * beta * x * z - mu2 * y - q * y,
        (1 - eps) * p * y - mu3 * z,
    )
    f = hk.vector_field(clearing_params, clearing_forcing, 0.0, (x, y, z))
    assert f == pytest.approx(expected, rel=1e-15)
    assert f == pytest.approx((12.6535, -7.84, -6.995), abs=1e-12)


def test_xy_sum_identity_random():
    # the infection and cure terms cancel between the x and y equations
    rng = np.random.default_rng(11)
    for _ in range(300):
        params = _random_params(rng)
        forcing = hk.ConstantForcing(float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2)))))
        u = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        f = hk.vector_field(params, forcing, 0.0, u)
        target = forcing.value - params.mu1 * u[0] - params.mu2 * u[1]
        scale = (
            forcing.value
            + params.mu1 * u[0]
            + params.mu2 * u[1]
            + 2 * (1 - params.eta) * params.beta * u[0] * u[2]
            + 2 * params.q * u[1]
        )
        assert abs((f[0] + f[1]) - target) <= 1e-13 * scale


# }}}


# {{{ jacobian


def test_jacobian_at_infection_free_point(clearing_params):
    J = hk.jacobian(clearing_params, (4.90675, 0.0, 0.0))
    expected = np.array(
        [
            [-2.0, 5.0, -0.78508],
            [0.0, -8.0, 0.78508],
            [0.0, 0.005, -7.0],
        ]
    )
    assert np.allclose(J, expected, rtol=1e-12, atol=0.0)


def test_jacobian_at_origin_kills_bilinear_terms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = _random_params(rng)
        J = hk.jacobian(params, (0.0, 0.0, 0.0))
        expected = np.array(
            [
                [-params.mu1, params.q, 0.0],
                [0.0, -(params.mu2 + params.q), 0.0],
                [0.0, (1 - params.epsilon) * params.p, -params.mu3],
            ]
        )
        assert np.array_equal(J, expected)


def test_jacobian_x_z_entry(clearing_params):
    J = hk.jacobian(clearing_params, (1.0, 1.0, 1.0))
    assert J[0, 2] == pytest.approx(-0.16, rel=1e-15)  # -(1-eta)*beta*x


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(23)
    forcing = hk.ConstantForcing(1.0)  # jacobian ignores forcing; any value works
    worst = 0.0
    for _ in range(1000):
        params = _random_params(rng)
        u = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))
        J = hk.jacobian(params, u)
        J_fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * max(1.0, abs(u[j]))
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            J_fd[:, j] = (
                hk.vector_field(params, forcing, 0.0, up)
                - hk.vector_field(params, forcing, 0.0, dn)
            ) / (2.0 * h)
        err = np.max(np.abs(J - J_fd)) / max(1.0, np.max(np.abs(J)))
        worst = max(worst, err)
    assert worst <= 1e-6


# }}}


# {{{ analytic bounds


def test_bounds_clearing_set(clearing_params, clearing_forcing):
    rep = hk.analytic_bounds(clearing_params, clearing_forcing, (1.0, 1.0, 1.0))
    assert rep.M == pytest.approx(4.90675, rel=1e-15)  # production/loss ratio dominates


def test_bounds_persistent_set(persistent_params, persistent_forcing):
    rep = hk.analytic_bounds(persistent_params, persistent_forcing, (3.0, 0.5, 1.0))
    assert rep.M == pytest.approx(3.5, rel=1e-15)  # x0+y0 dominates 20/6
    assert rep.z_ceiling == pytest.approx(157.5, rel=1e-14)


def test_bounds_wave_l1_fields(clearing_params, wave_forcing):
    rep = hk.analytic_bounds(clearing_params, wave_forcing, (1.0, 1.0, 1.0))
    assert rep.l1_alpha == pytest.approx(2.0, rel=1e-15)  # min(2, 3 - 0.005, 7)
    assert rep.l1_ceiling == pytest.approx(5.5, rel=1e-15)  # 11 / 2


def test_bounds_l1_fields_absent_when_production_dominates():
    params = hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=2.0, q=1.0)
    rep = hk.analytic_bounds(params, hk.ConstantForcing(1.0), (1.0, 1.0, 1.0))
    assert rep.l1_alpha is None and rep.l1_ceiling is None


def test_bounds_reject_negative_start(clearing_params, clearing_forcing):
    with pytest.raises(ValueError):
        hk.analytic_bounds(clearing_params, clearing_forcing, (-1.0, 0.0, 0.0))


# }}}
