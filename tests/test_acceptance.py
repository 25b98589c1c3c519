"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here; nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

import hbvkit as hk

DFE2 = np.array([4.90675, 0.0, 0.0])


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def box_draws():
    """1000 seeded draws from the validity box: rates log-uniform in
    [1e-2, 1e2], treatment fractions uniform in [0, 0.9]."""
    rng = np.random.default_rng(42)
    draws = []
    lo, hi = math.log(1e-2), math.log(1e2)
    for _ in range(1000):
        lam, mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 7))
        eta, eps = rng.uniform(0.0, 0.9, 2)
        draws.append(
            (
                hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q),
                hk.ConstantForcing(lam),
            )
        )
    return draws


@pytest.fixture(scope="module")
def benchmark_trajectories():
    """One integration per registry scenario, shared across criteria."""
    runs = {}
    for sid, s in hk.SCENARIOS.items():
        runs[sid] = hk.integrate(s.params, s.forcing, s.u0, *s.t_span, s.control)
    return runs


def test_c01_equilibrium_residual_certification(box_draws):
    worst_dfe, worst_endemic = 0.0, 0.0
    for params, forcing in box_draws:
        dfe = hk.disease_free(params, forcing)
        worst_dfe = max(worst_dfe, dfe.residual_norm / max(1.0, forcing.value))
        rep = hk.endemic(params, forcing)
        if rep.feasible:
            worst_endemic = max(worst_endemic, rep.residual_norm)
    ok = worst_dfe <= 1e-14 and worst_endemic <= 1e-10
    assert _verdict(
        "C01 equilibrium residuals",
        ok,
        f"worst scaled dfe residual {worst_dfe:.2e} (cap 1e-14), "
        f"worst feasible endemic residual {worst_endemic:.2e} (cap 1e-10)",
    )


def test_c02_feasibility_iff_threshold(box_draws):
    violations, checked = 0, 0
    for params, forcing in box_draws:
        r0 = hk.r0_all(params, forcing).ngm
        if abs(r0 - 1.0) < 1e-6:
            continue
        checked += 1
        if hk.endemic(params, forcing).feasible != (r0 > 1.0):
            violations += 1
    ok = violations == 0
    assert _verdict(
        "C02 feasibility iff r0_ngm > 1", ok, f"{violations} violations over {checked} draws"
    )


def test_c03_eigenvalue_threshold_and_routh_hurwitz(box_draws):
    sign_violations, checked = 0, 0
    for params, forcing in box_draws:
        r0 = hk.r0_all(params, forcing).ngm
        if abs(r0 - 1.0) < 1e-3:
            continue
        checked += 1
        J = hk.jacobian(params, (forcing.value / params.mu1, 0.0, 0.0))
        max_re = max(lam.real for lam in hk.eigenvalues_3x3(J))
        if (max_re > 0.0) != (r0 > 1.0):
            sign_violations += 1

    rng = np.random.default_rng(99)
    rh_violations = 0
    for _ in range(10_000):
        J = rng.uniform(-100.0, 100.0, (3, 3))
        max_re = max(lam.real for lam in hk.eigenvalues_3x3(J))
        if abs(max_re) < 1e-9:
            continue
        if hk.routh_hurwitz_stable(J) != (max_re < 0.0):
            rh_violations += 1

    ok = sign_violations == 0 and rh_violations == 0
    assert _verdict(
        "C03 eigenvalue threshold + Routh-Hurwitz",
        ok,
        f"{sign_violations} sign mismatches over {checked} draws; "
        f"{rh_violations} RH mismatches over 10000 matrices",
    )


def test_c04_clearing_benchmark(benchmark_trajectories):
    s = hk.SCENARIOS["table2-dfe"]
    traj = benchmark_trajectories["table2-dfe"]

    final_gap = float(np.max(np.abs(traj.final_state - DFE2)))
    eigs = hk.eigenvalues_3x3(hk.jacobian(s.params, DFE2))
    eig_gap = max(
        abs(lam.real - want) for lam, want in zip(eigs, (-2.0, -6.9961, -8.0039))
    )
    r0 = hk.r0_all(s.params, s.forcing).ngm
    margin = hk.condition_margins("dfe", s.params, s.forcing).lines[0].margin

    ok = (
        final_gap <= 1e-5
        and eig_gap <= 1e-3
        and abs(r0 - 7.0096e-5) <= 1e-8
        and abs(margin - (-1.78508)) <= 1e-5
        and margin < 0.0
    )
    assert _verdict(
        "C04 clearing benchmark",
        ok,
        f"final gap {final_gap:.2e} (cap 1e-5), eig gap {eig_gap:.2e} (cap 1e-3), "
        f"r0_ngm {r0:.6e}, violated first margin {margin:.6f}",
    )


def test_c05a_subthreshold_r0_and_infeasibility():
    s = hk.SCENARIOS["table3-dfe-check"]
    r0 = hk.r0_all(s.params, s.forcing).ngm
    rep = hk.endemic(s.params, s.forcing)
    ok = abs(r0 - 0.68923) <= 1e-5 and rep.feasible is False and abs(rep.state[1] - (-6.4413)) <= 1e-4
    assert _verdict(
        "C05a subthreshold r0 and infeasibility",
        ok,
        f"r0_ngm {r0:.6f}, y_bar {rep.state[1]:.5f} (infeasible: {not rep.feasible})",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "target unreachable from u0=(1,1,1): the slowest eigenvalue at (20,0,0) is "
        "-0.55955, so the remaining gap at t=10 is about 3.5e-3; a 1e-4 gap needs "
        "t of roughly 17.5. Kept at the stated tolerance rather than loosened."
    ),
)
def test_c05b_subthreshold_trajectory_convergence(benchmark_trajectories):
    traj = benchmark_trajectories["table3-dfe-check"]
    gap = float(np.max(np.abs(traj.final_state - np.array([20.0, 0.0, 0.0]))))
    assert _verdict(
        "C05b subthreshold convergence by t=10", gap <= 1e-4, f"gap {gap:.2e} (cap 1e-4)"
    )


def test_c06_persistent_autonomous_bounds(benchmark_trajectories):
    s = hk.SCENARIOS["set2-auto-boundcheck"]
    traj = benchmark_trajectories["set2-auto-boundcheck"]
    z_ok = bool(np.all(traj.states[:, 2] <= traj.bounds.z_ceiling * (1.0 + 1e-3)))
    no_blowup = not any(e.kind in ("blow_up", "nonfinite") for e in traj.events)
    rep = hk.endemic(s.params, s.forcing)
    state_gap = float(
        np.max(np.abs(np.array(rep.state) - np.array([2.5185, 0.6984, 31.4286])))
    )
    ok = z_ok and no_blowup and state_gap <= 1e-3 and rep.residual_norm <= 1e-10
    assert _verdict(
        "C06 persistent-set boundedness",
        ok,
        f"z max {traj.states[:, 2].max():.4f} vs ceiling {traj.bounds.z_ceiling}, "
        f"blow-up: {not no_blowup}, endemic gap {state_gap:.2e}, "
        f"residual {rep.residual_norm:.2e}",
    )


def test_c07_integrator_order():
    s = hk.SCENARIOS["table2-dfe"]
    order = hk.richardson_order(s.params, s.forcing, s.u0, 0.0, 2.0, 0.05)
    ok = 3.7 <= order <= 4.3
    assert _verdict("C07 observed order", ok, f"Richardson estimate {order:.4f} (band [3.7, 4.3])")


def test_c08_monitors_silent_on_benchmarks(benchmark_trajectories):
    offenders = []
    for sid, traj in sorted(benchmark_trajectories.items()):
        kinds = {e.kind for e in traj.events}
        if kinds & {"positivity_violation", "bound_violation"}:
            offenders.append(f"{sid}:{sorted(kinds)}")
    ok = not offenders
    assert _verdict(
        "C08 positivity/bounds monitors", ok, "no events" if ok else "; ".join(offenders)
    )


def test_c09_process_laws():
    s = hk.SCENARIOS["set1-nonauto"]
    u0 = (1.0, 1.0, 1.0)
    echo = hk.process_solve(s.params, s.forcing, u0, 3.0, 3.0, s.control)
    initial_exact = bool(np.array_equal(echo, np.array(u0)))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        ts = tuple(np.sort(rng.uniform(0.0, 5.0, 3)))
        worst = max(worst, hk.semigroup_check(s.params, s.forcing, u0, ts, s.control))
    ok = initial_exact and worst <= 1e-8
    assert _verdict(
        "C09 process laws",
        ok,
        f"initial property exact: {initial_exact}, worst semigroup gap {worst:.2e} (cap 1e-8)",
    )


def test_c10_pullback():
    s = hk.SCENARIOS["set1-nonauto"]
    est = hk.pullback_estimate(
        s.params, s.forcing, 0.0, (5.0, 10.0, 20.0, 40.0),
        [(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)], 1e-6, s.control,
    )
    auto = hk.SCENARIOS["table2-dfe"]
    est_auto = hk.pullback_estimate(
        auto.params, auto.forcing, 0.0, (5.0, 10.0, 20.0, 40.0),
        [(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)], 1e-6, auto.control,
    )
    dfe_gap = float(np.max(np.abs(est_auto.attractor_point - DFE2)))
    ok = (
        est.cauchy_gaps[-1] <= 1e-6
        and est.cross_seed_gap <= 1e-6
        and est.converged
        and dfe_gap <= 1e-6
    )
    assert _verdict(
        "C10 pullback",
        ok,
        f"wave: last gap {est.cauchy_gaps[-1]:.2e}, cross-seed {est.cross_seed_gap:.2e}; "
        f"constant-forcing endpoint gap {dfe_gap:.2e} (caps 1e-6)",
    )


def test_c11_contraction():
    s = hk.SCENARIOS["set1-nonauto"]
    t1 = hk.integrate(s.params, s.forcing, (1.0, 1.0, 1.0), 0.0, 5.0, s.control)
    t2 = hk.integrate(s.params, s.forcing, (2.0, 2.0, 2.0), 0.0, 5.0, s.control)
    wave_fit = hk.contraction_fit(t1, t2)

    auto = hk.SCENARIOS["table2-dfe"]
    a = hk.integrate(
        auto.params, auto.forcing, DFE2 + np.array([0.05, 0.01, 0.01]), 0.0, 5.0, auto.control
    )
    b = hk.integrate(
        auto.params, auto.forcing, DFE2 + np.array([0.01, 0.0, 0.0]), 0.0, 5.0, auto.control
    )
    near_fit = hk.contraction_fit(a, b)

    ok = wave_fit.alpha > 0.0 and abs(near_fit.alpha - 4.0) <= 0.25 * 4.0
    assert _verdict(
        "C11 contraction",
        ok,
        f"wave alpha {wave_fit.alpha:.4f} (> 0), near-equilibrium alpha {near_fit.alpha:.4f} "
        f"(within 25% of 4)",
    )


def test_c12_jacobian_vs_finite_differences():
    rng = np.random.default_rng(23)
    forcing = hk.ConstantForcing(1.0)
    lo, hi = math.log(1e-2), math.log(1e2)
    worst = 0.0
    for _ in range(1000):
        mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 6))
        eta, eps = rng.uniform(0.0, 0.9, 2)
        params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q)
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
        worst = max(worst, float(np.max(np.abs(J - J_fd)) / max(1.0, np.max(np.abs(J)))))
    ok = worst <= 1e-6
    assert _verdict("C12 jacobian vs central differences", ok, f"worst relative error {worst:.2e}")


def test_c13_determinism(tmp_path):
    hk.run_scenario("table2-dfe", tmp_path / "a")
    hk.run_scenario("table2-dfe", tmp_path / "b")
    scenario_same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("trajectory.csv", "report.json", "plot.gp")
    )
    hk.sweep(60, 42, out_path=tmp_path / "s1.csv")
    hk.sweep(60, 42, out_path=tmp_path / "s2.csv")
    sweep_same = (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    ok = scenario_same and sweep_same
    assert _verdict(
        "C13 determinism", ok, f"scenario bytes identical: {scenario_same}, sweep bytes identical: {sweep_same}"
    )
