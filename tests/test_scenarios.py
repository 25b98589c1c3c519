import dataclasses
import json
import math

import numpy as np
import pytest

import hbvkit as hk
from hbvkit.scenarios import scenario_from_dict, scenario_to_dict


def test_registry_contents():
    assert set(hk.SCENARIOS) == {
        "table2-dfe",
        "table3-dfe-check",
        "set1-nonauto",
        "set2-nonauto",
        "set2-auto-boundcheck",
    }
    for scenario in hk.SCENARIOS.values():
        assert scenario.t_span[1] > scenario.t_span[0]
        assert scenario.analyses


def test_registry_round_trips_through_config(tmp_path):
    for sid, scenario in hk.SCENARIOS.items():
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario, sid
        path = tmp_path / f"{sid}.json"
        hk.save_config(scenario, path)
        assert hk.load_config(path) == scenario, sid


def test_config_error_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "id": "x",\n  "params": oops\n}\n')
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "line 3" in str(err.value)


def test_config_error_names_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"id": "x", "params": {"mu1": 1.0}}))
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "forcing" in str(err.value) or "missing" in str(err.value)


def test_config_error_on_invalid_values(tmp_path):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc["params"]["mu1"] = -2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "mu1" in str(err.value)


def test_run_scenario_clearing_benchmark(tmp_path):
    report = hk.run_scenario("table2-dfe", tmp_path / "run")
    assert not report.terminated
    doc = report.document

    final = np.array(doc["trajectory"]["final_state"])
    assert np.max(np.abs(final - np.array([4.90675, 0.0, 0.0]))) <= 1e-5
    assert doc["events"] == []

    r0 = doc["analyses"]["stability"]["disease_free"]["r0"]
    assert r0["ngm"] == pytest.approx(7.0096e-5, abs=1e-8)

    dfe_margins = next(
        m for m in doc["analyses"]["conditions"] if m["condition_set"] == "dfe"
    )
    first = dfe_margins["lines"][0]
    assert first["margin"] == pytest.approx(-1.78508, abs=1e-5)
    assert first["satisfied"] is False
    assert dfe_margins["all_satisfied"] is False

    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert (tmp_path / "run" / "plot.gp").exists()


def test_run_scenario_nonauto_skips_constant_only_analyses(tmp_path):
    scenario = hk.SCENARIOS["set1-nonauto"]
    report = hk.run_scenario(scenario, tmp_path / "run")
    assert "conditions" in report.document["analyses"]
    assert "absorbing" in report.document["analyses"]
    assert report.document["analyses"]["pullback"]["converged"] is True
    assert report.document["analyses"]["absorbing"]["ceiling"] == pytest.approx(5.5)


def test_run_scenario_unknown_id(tmp_path):
    with pytest.raises(hk.UnknownScenarioError):
        hk.run_scenario("not-a-scenario", tmp_path)


def test_scenario_runs_are_byte_identical(tmp_path):
    a = hk.run_scenario("table2-dfe", tmp_path / "a")
    b = hk.run_scenario("table2-dfe", tmp_path / "b")
    for name in ("trajectory.csv", "report.json", "plot.gp"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a.document == b.document


def test_trajectory_csv_has_seventeen_digit_columns(tmp_path):
    hk.run_scenario("table2-dfe", tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert all(line.count(",") == 3 for line in lines[1:])


def test_sweep_deterministic(tmp_path):
    r1 = hk.sweep(60, 42, out_path=tmp_path / "s1.csv")
    r2 = hk.sweep(60, 42, out_path=tmp_path / "s2.csv")
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    assert r1.counts == r2.counts


def test_sweep_seed_changes_draws(tmp_path):
    r1 = hk.sweep(10, 1, out_path=tmp_path / "s1.csv")
    r2 = hk.sweep(10, 2, out_path=tmp_path / "s2.csv")
    assert (tmp_path / "s1.csv").read_bytes() != (tmp_path / "s2.csv").read_bytes()


def test_sweep_properties_hold_on_box(tmp_path):
    res = hk.sweep(200, 42, out_path=tmp_path / "sweep.csv")
    assert res.counts["threshold_violations"] == 0
    assert res.counts["dfe_residual_failures"] == 0
    assert res.counts["endemic_residual_failures"] == 0
    assert res.counts["eig_sign_violations"] == 0
    assert res.counts["positivity_violations"] == 0
    assert res.counts["bound_violations"] == 0
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("index,lam,mu1")


def test_sweep_collapsed_box_matches_scenario_flags(tmp_path):
    scenario = hk.SCENARIOS["table2-dfe"]
    p = scenario.params
    box = {
        "lam": (9.8135, 9.8135),
        "mu1": (p.mu1, p.mu1),
        "mu2": (p.mu2, p.mu2),
        "mu3": (p.mu3, p.mu3),
        "beta": (p.beta, p.beta),
        "p": (p.p, p.p),
        "q": (p.q, p.q),
        "eta": (p.eta, p.eta),
        "epsilon": (p.epsilon, p.epsilon),
    }
    res = hk.sweep(1, 123, box=box)
    row = res.rows[0]
    assert row["r0_ngm"] == pytest.approx(7.0096e-5, abs=1e-8)
    assert row["feasible"] is False
    # scenario report shows a clean run; the sweep flags must agree
    report = hk.run_scenario(scenario, tmp_path)
    assert report.document["events"] == []
    assert row["positivity_ok"] and row["bounds_ok"]
    assert row["threshold_ok"] and row["eig_sign_ok"]


# r0_ngm = 1.0 and y_bar = 0 exactly
_THRESHOLD_BOX = {
    name: (value, value)
    for name, value in dict(lam=1.0, mu1=1.0, mu2=1.0, mu3=1.0, q=1.0, p=1.0, beta=2.0, eta=0.0, epsilon=0.0).items()
}


def _failures(result):
    return {k: v for k, v in result.counts.items() if k not in ("draws", "feasible") and v}


def test_sweep_checks_the_exact_threshold_point():
    result = hk.sweep(1, 0, box=_THRESHOLD_BOX)
    row = result.rows[0]
    assert row["r0_ngm"] == 1.0 and row["feasible"] is False
    assert row["threshold_ok"] and row["eig_sign_ok"]
    assert _failures(result) == {}


def _decided(row):
    """Whether the row's float r0_ngm and eigenvalue lie beyond the rounding
    within which the sweep does not compare their signs."""
    params = hk.Parameters(**{f.name: row[f.name] for f in dataclasses.fields(hk.Parameters)})
    J = hk.jacobian(params, (row["lam"] / params.mu1, 0.0, 0.0))
    return abs(row["r0_ngm"] - 1.0) > 4.0 * math.ulp(1.0) and abs(row["max_re_dfe"]) >= math.ulp(np.abs(J).max())


def test_sweep_checks_every_draw_beside_the_threshold():
    """Every draw lies within 1e-6 of r0 = 1, and every check runs on it."""
    result = hk.sweep(400, 1, box=_THRESHOLD_BOX | {"lam": (1.0 - 1e-9, 1.0 + 1e-9)})
    assert all(abs(row["r0_ngm"] - 1.0) < 1e-6 and _decided(row) for row in result.rows)
    assert 0 < result.counts["feasible"] < 400
    assert _failures(result) == {}


def _pinned_box(lam, beta):
    rates = dict(lam=lam, beta=beta, mu1=1.0, mu3=1.0, p=1.0, mu2=0.5, q=0.5, eta=0.0, epsilon=0.0)
    return {name: (value, value) for name, value in rates.items()}


@pytest.mark.parametrize("box, feasible", [
    # beta*lam = 1 + 2**-54: r0_ngm and the Jacobian entry beta*x round to 1
    (_pinned_box(0.2, 5.0), True),
    # beta*lam = 1 - 2**-54, rounding the same way
    (_pinned_box(1 / 3, 3.0), False),
    # the float block products mu3*loss_y and beta*x*p tie, the exact ones do not
    (_pinned_box(0.6, 0.1) | {"mu3": (0.3, 0.3), "mu2": (0.1, 0.1), "q": (0.1, 0.1)}, False),
])
def test_sweep_counts_no_rounding_as_a_violation(box, feasible):
    """Draws whose float r0_ngm is 1.0 and whose float eigenvalue at the
    infection-free state is 0.0: feasibility is the exact side, the exact
    checks run, and no float verdict is held to the exact sign."""
    result = hk.sweep(1, 0, box=box)
    row = result.rows[0]
    assert row["r0_ngm"] == 1.0 and row["max_re_dfe"] == 0.0 and not _decided(row)
    assert row["feasible"] is feasible
    assert _failures(result) == {}


def test_sweep_flags_a_sign_that_disagrees_beyond_rounding(monkeypatch):
    """A wrong exact sign, or a float r0_ngm on the wrong side of 1 by more
    than its rounding, is counted on a draw beside the threshold."""
    box = _THRESHOLD_BOX | {"lam": (1.0 + 1e-9, 1.0 + 1e-9)}
    assert _failures(hk.sweep(1, 0, box=box)) == {}
    stable = hk.stability.routh_hurwitz_stable
    monkeypatch.setattr(hk.stability, "routh_hurwitz_stable", lambda J: not stable(J))
    counts = hk.sweep(1, 0, box=box).counts
    assert counts["threshold_violations"] == counts["eig_sign_violations"] == 1
    monkeypatch.undo()
    r0_all = hk.stability.r0_all
    monkeypatch.setattr(hk.stability, "r0_all", lambda *a: dataclasses.replace(r0_all(*a), ngm=1.0 - 1e-9))
    assert _failures(hk.sweep(1, 0, box=box)) == {"threshold_violations": 1}


def test_sweep_checks_draws_within_ulps_of_the_threshold():
    """lam steps ulp by ulp across the float threshold of a few rate sets; the
    exact checks hold on every draw, and the float ones beyond rounding."""
    for beta, mu2, p in ((5.0, 0.5, 1.0), (3.0, 0.5, 1.0), (0.7, 0.3, 1.1), (7.0, 0.1, 0.3)):
        box = _pinned_box(1.0, beta) | {"mu2": (mu2, mu2), "p": (p, p)}
        params = hk.Parameters(**{name: lo for name, (lo, _) in box.items() if name != "lam"})
        lam0 = params.mu1 * params.mu3 * params.loss_y / (params.beta_eff * params.prod_eff)
        for k in range(-12, 13):
            lam = lam0
            for _ in range(abs(k)):
                lam = math.nextafter(lam, math.copysign(math.inf, k))
            result = hk.sweep(1, 0, box=box | {"lam": (lam, lam)})
            assert _failures(result) == {}, (beta, mu2, p, k)


def test_sweep_rows_hold_builtin_values():
    rows = hk.sweep(50, 42).rows
    json.dumps(rows)
    flags = ("feasible", "threshold_ok", "dfe_residual_ok", "endemic_residual_ok", "eig_sign_ok")
    assert all(type(row[flag]) is bool for row in rows for flag in flags)
    # the run checks are blank (None) exactly on the draws cut short (draw 11)
    for row in rows:
        short = row["t_reached"] < 2.0
        for flag in ("positivity_ok", "bounds_ok"):
            assert (row[flag] is None) if short else (type(row[flag]) is bool), (row["index"], flag)
    assert [row["index"] for row in rows if row["t_reached"] < 2.0] == [11]


def test_piecewise_forcing_scenario_round_trip_and_run(tmp_path, clearing_params):
    forcing = hk.PiecewiseLinearForcing(times=(0.0, 2.0, 5.0), values=(9.0, 11.0, 10.0))
    scenario = hk.Scenario(
        id="tabulated-production",
        params=clearing_params,
        forcing=forcing,
        u0=(1.0, 1.0, 1.0),
        t_span=(0.0, 5.0),
        control=hk.AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25),
        analyses=("conditions", "absorbing"),
    )
    path = tmp_path / "tabulated.json"
    hk.save_config(scenario, path)
    assert hk.load_config(path) == scenario

    report = hk.run_scenario(path, tmp_path / "run")
    assert not report.terminated
    assert report.document["events"] == []
    assert report.document["analyses"]["conditions"][0]["condition_set"] == "nonauto"
    assert report.document["analyses"]["absorbing"]["holds"] is True


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        hk.sweep(0, 42)
    with pytest.raises(ValueError):
        hk.sweep(1, 42, box={"nope": (1, 2)})
    with pytest.raises(ValueError):
        hk.sweep(1, 42, box={"lam": (0.0, 1.0)})
    with pytest.raises(ValueError, match="'mu1'"):
        hk.sweep(2, 1, box={"mu1": (1.0, math.inf)})
