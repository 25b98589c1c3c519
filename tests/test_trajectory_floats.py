"""Trajectories keep the floats their run recorded.

``time_list`` and ``state_list`` are what a run stores; the ``times`` and
``states`` arrays are built on first read. Hermite resampling runs on the
floats and must give the bits of the numpy-scalar code it replaced, a
reference copy of which is kept here.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk

PARAMS = hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)
FORCINGS = {
    "constant": hk.ConstantForcing(20.0),
    "sinusoid": hk.SinusoidForcing(amplitude=1.0, omega=2.0, phase=1.0, offset=10.0),
    "piecewise_linear": hk.PiecewiseLinearForcing((0.0, 1.5, 3.0), (9.0, 12.0, 8.5)),
}
CONTROLS = {
    "adaptive": hk.AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25),
    "fixed": hk.FixedStep(h=0.01),
}


def _run(kind, mode, u0=(1.0, 1.0, 1.0), params=PARAMS, t_end=3.0):
    return hk.integrate(params, FORCINGS[kind], u0, 0.0, t_end, CONTROLS[mode])


def _numpy_scalar_sample(traj, t):
    """``Trajectory.sample`` as it was written on numpy scalars and arrays."""
    times, states, derivs = traj.times, traj.states, np.array(traj._slopes)
    if not (times[0] <= t <= times[-1]):
        raise ValueError(f"t={t!r} outside trajectory range")
    i = int(np.searchsorted(times, t, side="right") - 1)
    if i >= len(times) - 1:
        return states[-1].copy()
    t0, t1 = times[i], times[i + 1]
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * states[i] + h10 * h * derivs[i] + h01 * states[i + 1] + h11 * h * derivs[i + 1]


def _arrays_built(traj) -> set:
    return {"times", "states"} & traj.__dict__.keys()


@st.composite
def _queries(draw):
    """A run under a drawn forcing kind, mode and u0, and times on it: nodes,
    the final time and points between nodes."""
    kind = draw(st.sampled_from(sorted(FORCINGS)))
    mode = draw(st.sampled_from(sorted(CONTROLS)))
    u0 = tuple(draw(st.floats(0.0, 30.0)) for _ in range(3))
    traj = _run(kind, mode, u0)
    times = traj.time_list
    n = len(times) - 1
    queries = [times[-1]]
    for _ in range(draw(st.integers(1, 40))):
        i = draw(st.integers(0, n))
        queries.append(times[i])
        if i < n:
            frac = draw(st.floats(0.0, 1.0))
            queries.append(min(times[i] + frac * (times[i + 1] - times[i]), times[-1]))
    return traj, queries


@settings(max_examples=60, deadline=None)
@given(case=_queries())
def test_sample_matches_the_numpy_scalar_reference_bit_for_bit(case):
    traj, queries = case
    fresh = dataclasses.replace(traj)  # the reference builds arrays; sample must not need them
    for t in queries:
        got = fresh.sample(t)
        assert got.shape == (3,)
        assert np.array_equal(got, _numpy_scalar_sample(traj, t)), t
        assert np.array_equal(got, _numpy_scalar_sample(traj, np.float64(t))), t
    assert np.array_equal(fresh.sample(queries), np.stack([fresh.sample(t) for t in queries]))
    assert not _arrays_built(fresh)


@pytest.mark.parametrize("mode", sorted(CONTROLS))
def test_sample_of_a_sequence_stacks_single_samples(mode):
    traj = _run("sinusoid", mode)
    ts = np.linspace(0.0, 3.0, 37)
    stacked = np.stack([traj.sample(t) for t in ts])
    for seq in (ts, ts.tolist(), tuple(ts.tolist())):
        assert np.array_equal(traj.sample(seq), stacked)
    assert traj.sample([]).shape == (0, 3)


def test_sample_keeps_the_numpy_scalar_rounding_at_a_pinned_time():
    # On this segment at this time, taking (1 - s)**2 in either basis function
    # as a square rather than by glibc's pow, or grouping either slope
    # weight's product another way, moves the sample. A vectorised basis
    # (an array ** 2 squares) would move the contraction bits in report.json.
    sc = hk.SCENARIOS["table2-dfe"]
    base = hk.integrate(sc.params, sc.forcing, sc.u0, 0.0, 1.0, sc.control)
    two = dataclasses.replace(base, time_list=[0.0, 0.3], state_list=[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
    t = 0.062470520899192056
    s = t / 0.3
    assert (1 - s) ** 2 != (np.array([1 - s]) ** 2)[0]
    assert np.array_equal(two.sample(t), _numpy_scalar_sample(two, t))


@pytest.mark.parametrize("mode", sorted(CONTROLS))
@pytest.mark.parametrize("kind", sorted(FORCINGS))
def test_identical_runs_compare_equal_and_a_changed_rate_does_not(kind, mode):
    a, b = _run(kind, mode), _run(kind, mode)
    assert a == b
    a.states, a._slopes  # cached arrays and slopes are not compared
    assert a == b
    changed = _run(kind, mode, params=dataclasses.replace(PARAMS, mu3=PARAMS.mu3 * (1.0 + 2.0**-20)))
    assert a != changed


def test_a_run_reads_its_floats_without_building_arrays(tmp_path):
    traj = _run("piecewise_linear", "adaptive")
    assert not _arrays_built(traj)
    assert traj.final_time == traj.time_list[-1] == 3.0
    assert np.array_equal(traj.final_state, traj.state_list[-1])
    traj.sample(1.25)
    traj.sample([0.5, 2.5])
    traj.to_csv(tmp_path / "trajectory.csv")
    assert not _arrays_built(traj)
    assert np.array_equal(traj.times, traj.time_list)
    assert traj.states.shape == (len(traj.time_list), 3)
    assert _arrays_built(traj) == {"times", "states"}


def _collect_runs(monkeypatch, module_name):
    """Every trajectory ``integrate`` returns to the named hbvkit module."""
    module = importlib.import_module(module_name)
    runs = []
    original = module.integrate

    def collecting(*args, **kwargs):
        traj = original(*args, **kwargs)
        runs.append(traj)
        return traj

    monkeypatch.setattr(module, "integrate", collecting)
    return runs


def test_sweep_draws_build_no_arrays(monkeypatch):
    runs = _collect_runs(monkeypatch, "hbvkit.scenarios")
    hk.sweep(5, 1)
    assert len(runs) == 5
    assert [r for r in runs if _arrays_built(r)] == []


def test_process_solve_and_pullback_build_no_arrays(monkeypatch):
    runs = _collect_runs(monkeypatch, "hbvkit.process")
    ctl = CONTROLS["adaptive"]
    forcing = FORCINGS["sinusoid"]
    end = hk.process_solve(PARAMS, forcing, (1.0, 2.0, 3.0), 0.0, 1.0, ctl)
    assert np.array_equal(end, runs[-1].state_list[-1])
    hk.pullback_estimate(PARAMS, forcing, 0.0, (1.0, 2.0), ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)), 1e-3, ctl)
    assert len(runs) == 5
    assert [r for r in runs if _arrays_built(r)] == []


def test_contraction_fit_resamples_in_one_call(monkeypatch):
    main = _run("sinusoid", "adaptive", (1.0, 1.0, 1.0))
    partner = _run("sinusoid", "adaptive", (2.0, 2.0, 2.0))
    assert main.time_list != partner.time_list
    calls = []
    original = hk.Trajectory.sample

    def counted(self, t):
        calls.append(len(t))
        return original(self, t)

    monkeypatch.setattr(hk.Trajectory, "sample", counted)
    fit = hk.contraction_fit(main, partner)
    assert calls == [len(main.time_list)]
    assert not fit.degenerate
    assert not _arrays_built(main) and not _arrays_built(partner)
