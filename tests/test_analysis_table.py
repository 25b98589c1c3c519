"""The analysis table shared by run_scenario and the CLI."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import hbvkit as hk
from hbvkit import cli
from hbvkit.cli import main
from hbvkit.scenarios import ANALYSES, scenario_to_dict

# a registry scenario on which each analysis applies
APPLICABLE = {
    "equilibria": "set2-auto-boundcheck",
    "stability": "set2-auto-boundcheck",
    "conditions": "set1-nonauto",
    "r0": "table2-dfe",
    "lyapunov": "table2-dfe",
    "contraction": "set1-nonauto",
    "pullback": "set1-nonauto",
    "absorbing": "set2-nonauto",
}


def test_every_analysis_has_an_applicable_scenario():
    assert set(APPLICABLE) == set(ANALYSES)


@pytest.mark.parametrize("name", list(ANALYSES))
def test_cli_output_equals_report_entry(name, tmp_path, capsys):
    sid = APPLICABLE[name]
    scenario = dataclasses.replace(hk.SCENARIOS[sid], analyses=(name,))
    report = hk.run_scenario(scenario, tmp_path / "run")
    doc = json.loads(report.report_path.read_text())
    assert doc["skipped"] == {}

    assert main([name, "--config", sid]) == 0
    assert json.loads(capsys.readouterr().out) == doc["analyses"][name]


@pytest.mark.parametrize("name", list(ANALYSES))
def test_cli_integrates_only_analyses_that_need_a_trajectory(name, monkeypatch, capsys):
    calls = []
    integrate = cli.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", counting)
    assert main([name, "--config", APPLICABLE[name]]) == 0
    _, integrates = ANALYSES[name]
    assert len(calls) == int(integrates == "trajectory")


def test_seed_is_accepted_by_sweep_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["r0", "--config", "table2-dfe", "--seed", "7"])
    assert exc.value.code == 2


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(hk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
                ]
    assert offenders == []


# {{{ contraction against a partner run that terminated


@pytest.fixture()
def partner_blowup_scenario():
    # the primary run peaks at 28.92 and reaches t_end; the u0+1 partner
    # peaks at 29.98 and terminates on the blow-up threshold
    s = hk.SCENARIOS["set2-auto-boundcheck"]
    ctl = dataclasses.replace(s.control, blow_up_threshold=29.45)
    return dataclasses.replace(s, id="partner-blowup", control=ctl, analyses=("contraction",))


def test_run_scenario_skips_contraction_when_partner_terminates(tmp_path, partner_blowup_scenario):
    report = hk.run_scenario(partner_blowup_scenario, tmp_path / "run")
    assert not report.terminated
    assert "contraction" not in report.document["analyses"]
    assert "terminated" in report.document["skipped"]["contraction"]


def test_contraction_command_exits_3_when_partner_terminates(
    tmp_path, capsys, partner_blowup_scenario
):
    path = tmp_path / "partner.json"
    hk.save_config(partner_blowup_scenario, path)
    assert main(["contraction", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "terminated" in captured.err


@pytest.fixture()
def blowup_scenario():
    # the run itself stops on blow_up at t = 48.9 of 200
    s = hk.SCENARIOS["set2-auto-boundcheck"]
    ctl = dataclasses.replace(s.control, blow_up_threshold=5.0)
    return dataclasses.replace(s, id="blowup", control=ctl)


@pytest.mark.parametrize("name", ["lyapunov", "absorbing", "contraction"])
def test_run_scenario_skips_verdicts_on_a_terminated_run(tmp_path, blowup_scenario, name):
    scenario = dataclasses.replace(blowup_scenario, analyses=(name,))
    report = hk.run_scenario(scenario, tmp_path / "run")
    assert report.terminated
    assert report.document["analyses"] == {}
    reason = report.document["skipped"][name]
    assert reason.startswith(f"scenario run terminated at t={report.trajectory.final_time}")
    assert "blow_up" in reason


@pytest.mark.parametrize("name", ["lyapunov", "absorbing", "contraction"])
def test_analysis_command_exits_3_on_a_terminated_run(tmp_path, capsys, blowup_scenario, name):
    path = tmp_path / "blowup.json"
    hk.save_config(blowup_scenario, path)
    assert main([name, "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "terminated" in captured.err


# }}}


# {{{ forcing tables that do not cover the time span


def _table_config(tmp_path, times, t_span):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc["id"] = "short-table"
    doc["forcing"] = {"kind": "piecewise_linear", "times": times, "values": [9.0] * len(times)}
    doc["t_span"] = t_span
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_config_rejects_table_ending_before_span(tmp_path):
    path = _table_config(tmp_path, [0.0, 5.0], [0.0, 15.0])
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "forcing.times ends at 5.0" in str(err.value)
    assert "15.0" in str(err.value)


def test_load_config_rejects_table_starting_after_span(tmp_path):
    path = _table_config(tmp_path, [1.0, 15.0], [0.0, 15.0])
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "forcing.times starts at 1.0" in str(err.value)


def test_simulate_short_table_exits_2_without_run_dir(tmp_path):
    path = _table_config(tmp_path, [0.0, 5.0], [0.0, 15.0])
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "short-table").exists()


# }}}
