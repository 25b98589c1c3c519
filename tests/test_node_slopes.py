"""Trajectories store times and states; Hermite node slopes come on demand.

The slopes are the vector field at the accepted points, evaluated through
``hbvkit.integrate.make_rhs`` once per trajectory, on the first ``sample``.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import hbvkit as hk
from hbvkit.model import vector_field

integrate_module = importlib.import_module("hbvkit.integrate")

FORCINGS = {
    "constant": hk.ConstantForcing(9.8135),
    "sinusoid": hk.SinusoidForcing(amplitude=1.0, omega=2.0, phase=1.0, offset=10.0),
    "piecewise_linear": hk.PiecewiseLinearForcing((0.0, 1.5, 3.0), (9.0, 12.0, 8.5)),
}
CONTROLS = {
    "adaptive": hk.StepControl.adaptive(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25),
    "fixed": hk.StepControl.fixed(h=0.01),
}


@pytest.fixture()
def rhs_calls(monkeypatch):
    """A one-element list holding the number of rhs calls made so far."""
    calls = [0]
    original = integrate_module.make_rhs

    def counting_make_rhs(params, forcing):
        rhs = original(params, forcing)

        def counted(t, x, y, z):
            calls[0] += 1
            return rhs(t, x, y, z)

        return counted

    monkeypatch.setattr(integrate_module, "make_rhs", counting_make_rhs)
    return calls


def test_trajectory_has_no_stored_slope_field():
    assert "derivs" not in {f.name for f in dataclasses.fields(hk.Trajectory)}


def test_fixed_rk4_makes_four_rhs_calls_a_step(rhs_calls, clearing_params, clearing_forcing):
    traj = hk.integrate(
        clearing_params, clearing_forcing, (1.0, 1.0, 1.0), 0.0, 1.0, hk.StepControl.fixed(h=0.01)
    )
    n_steps = len(traj.times) - 1
    assert n_steps == 100
    assert rhs_calls[0] == 4 * n_steps


@pytest.mark.parametrize("mode", list(CONTROLS))
def test_slopes_are_built_once_on_first_sample(rhs_calls, mode, clearing_params, clearing_forcing):
    u0 = (1.0, 1.0, 1.0)
    traj = hk.integrate(clearing_params, clearing_forcing, u0, 0.0, 1.0, CONTROLS[mode])
    after_integrate = rhs_calls[0]
    traj.sample(0.123)
    assert rhs_calls[0] == after_integrate + len(traj.times)
    traj.sample(0.456)
    traj.sample(1.0)
    assert rhs_calls[0] == after_integrate + len(traj.times)


@pytest.mark.parametrize("mode", list(CONTROLS))
@pytest.mark.parametrize("kind", list(FORCINGS))
def test_node_slopes_equal_the_vector_field(mode, kind, persistent_params):
    forcing = FORCINGS[kind]
    traj = hk.integrate(persistent_params, forcing, (1.0, 1.0, 1.0), 0.0, 3.0, CONTROLS[mode])
    assert len(traj.times) > 10
    for i, (t, u) in enumerate(zip(traj.times, traj.states)):
        assert np.all(traj.derivs[i] == vector_field(persistent_params, forcing, t, u))
        assert np.all(traj.sample(t) == u)
