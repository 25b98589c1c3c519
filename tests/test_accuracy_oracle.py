"""The registry runs against an independent high-accuracy solution.

The byte pins hold the integrator to its own earlier output, which a step
that is wrong but deterministic would also satisfy. Here scipy's DOP853 at
rtol = atol = 1e-13 gives the reference at every accepted node; the
Dormand-Prince run must stay within a few times its own tolerance of it.
scipy is used by the tests only.
"""

import numpy as np
import pytest

import hbvkit as hk
from hbvkit.model import make_rhs

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

# measured errors are 0.24 to 0.61 of atol + rtol * |u|
ERROR_FACTOR = 3.0


@pytest.mark.parametrize("sid", list(hk.SCENARIOS))
def test_registry_run_matches_dop853_at_the_accepted_nodes(sid):
    s = hk.SCENARIOS[sid]
    t0, t_end = s.t_span
    traj = hk.integrate(s.params, s.forcing, s.u0, t0, t_end, s.control)
    assert not traj.terminated
    rhs = make_rhs(s.params, s.forcing)
    ref = solve_ivp(
        lambda t, u: rhs(t, *u), (t0, t_end), s.u0, method="DOP853",
        rtol=1e-13, atol=1e-13, t_eval=traj.times,
    )
    assert ref.success, ref.message
    scale = s.control.abs_tol + s.control.rel_tol * np.abs(ref.y.T)
    ratio = np.abs(traj.states - ref.y.T) / scale
    assert ratio.max() <= ERROR_FACTOR, (sid, ratio.max())
