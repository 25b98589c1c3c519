"""The registry runs and table-forcing runs against an independent
high-accuracy solution.

The byte pins hold the integrator to its own earlier output, which a step
that is wrong but deterministic would also satisfy. Here scipy's DOP853 at
rtol = atol = 1e-13 gives the reference at every accepted node; the
Dormand-Prince run must stay within a few times its own tolerance of it.
Under a piecewise-linear table the reference is split at the knots, where
the slope of the production rate jumps. scipy is used by the tests only.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

import hbvkit as hk
from hbvkit.model import make_rhs, run_stops

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from test_run_bytes import TABLE, TABLE_CONTROLS  # noqa: E402
from workloads import CONFIG_BASES, make_config  # noqa: E402

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


# Final-state error of a table run against DOP853, as a fraction of the
# largest recorded |u|. On the cases below, steps across the knots give
# 1.4e-10 to 8.3e-10, and steps that land on them below 2.5e-11.
TABLE_ERROR_CAP = 1e-10


def _split_reference(params, forcing, u0, t0, t_end):
    """DOP853 from t0 to t_end, restarted at each knot inside the span."""
    rhs = make_rhs(params, forcing)
    u, start = np.array(u0, dtype=float), t0
    for stop in run_stops(forcing, t0, t_end):
        ref = solve_ivp(lambda t, u: rhs(t, *u), (start, stop), u, method="DOP853", rtol=1e-13, atol=1e-13)
        assert ref.success, ref.message
        u, start = ref.y[:, -1], stop
    return u


def _config_case(seed, base):
    """The adaptive config ``make_config`` draws for ``base`` when it draws one
    per base from ``random.Random(seed)``, in base order."""
    rng = random.Random(seed)
    docs = {b: make_config(hk, rng, f"{b}-{seed}", b, "adaptive") for b in CONFIG_BASES}
    s = hk.scenarios.scenario_from_dict(docs[base])
    return s.params, s.forcing, s.u0, s.t_span, s.control


def _table_case(persistent_params):
    return persistent_params, TABLE, (1.0, 1.0, 1.0), (0.0, 5.0), TABLE_CONTROLS["adaptive"][0]


@pytest.mark.parametrize(
    "case", ["table", (1, "set2-auto-boundcheck"), (2, "table2-dfe"), (2, "set2-auto-boundcheck"),
             (5, "set2-auto-boundcheck")],
    ids=str,
)
def test_table_run_final_state_matches_split_dop853(case, persistent_params):
    params, forcing, u0, (t0, t_end), ctl = _table_case(persistent_params) if case == "table" else _config_case(*case)
    traj = hk.integrate(params, forcing, u0, t0, t_end, ctl)
    assert not traj.terminated
    ref = _split_reference(params, forcing, u0, t0, t_end)
    error = np.abs(traj.final_state - ref).max() / np.abs(traj.states).max()
    assert error <= TABLE_ERROR_CAP, error
