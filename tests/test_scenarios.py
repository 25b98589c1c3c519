import json

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
    assert res.counts["rh_violations"] == 0
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
    assert row["threshold_ok"] and row["eig_sign_ok"] and row["rh_agree"]


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
