import argparse
import dataclasses
import json
import math
import subprocess
import sys

import pytest

import hbvkit as hk
from hbvkit import cli, scenarios
from hbvkit.cli import build_parser, main
from hbvkit.scenarios import ANALYSES, scenario_to_dict


@pytest.fixture()
def blowup_config(tmp_path):
    """A config whose fixed step is far outside the stability region."""
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc["id"] = "blowup"
    doc["control"] = {"mode": "fixed", "h": 1.0}
    doc["analyses"] = []
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    return path


def test_scenario_command_success(tmp_path, capsys):
    assert main(["scenario", "table2-dfe", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "table2-dfe" / "trajectory.csv").exists()
    assert (tmp_path / "table2-dfe" / "report.json").exists()


def test_scenario_command_unknown_id(tmp_path):
    assert main(["scenario", "nope", "--out", str(tmp_path)]) == 2


# {{{ one scenario reference for every subcommand


def test_scenario_command_runs_a_config_and_the_analyses_it_lists(tmp_path, capsys):
    scenario = dataclasses.replace(hk.SCENARIOS["set1-nonauto"], id="every", analyses=tuple(ANALYSES))
    path = tmp_path / "every.json"
    hk.save_config(scenario, path)
    assert main(["scenario", str(path), "--out", str(tmp_path / "runs")]) == 0
    report = json.loads((tmp_path / "runs" / "every" / "report.json").read_text())
    analyses, skipped = report["analyses"].keys(), report["skipped"].keys()
    assert analyses | skipped == set(ANALYSES)
    assert not analyses & skipped
    assert "pullback" in analyses and "absorbing" in analyses
    assert capsys.readouterr().err.startswith(f"wrote {tmp_path / 'runs' / 'every' / 'trajectory.csv'} and ")


@pytest.mark.parametrize("command", ["scenario", "simulate", *ANALYSES])
def test_registry_id_and_its_saved_config_give_the_same_output(command, tmp_path, capsys):
    path = tmp_path / "saved.json"
    hk.save_config(hk.SCENARIOS["table2-dfe"], path)
    outputs = []
    for ref, out in (("table2-dfe", tmp_path / "a"), (str(path), tmp_path / "b")):
        argv = [command, ref] if command == "scenario" else [command, "--config", ref]
        code = main([*argv, "--out", str(out)])
        run = out / "table2-dfe"
        files = {f.name: f.read_bytes() for f in run.iterdir()} if run.exists() else {}
        outputs.append((code, capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    code, stdout, files = outputs[0]
    assert code == 0
    if command in ("scenario", "simulate"):
        assert (stdout, sorted(files)) == ("", ["plot.gp", "report.json", "trajectory.csv"])
    else:
        assert json.loads(stdout) and files == {}


def test_scenario_command_names_both_reference_forms(tmp_path, capsys):
    assert main(["scenario", "nope", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'nope' is neither a registered scenario id" in err
    assert "nor a config file path" in err
    assert list(tmp_path.iterdir()) == []


def test_scenario_command_tol_on_a_fixed_step_config_exits_2(fixed_step_config, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["scenario", str(fixed_step_config), "--out", str(out), "--tol", "1e-6"]) == 2
    assert "--tol applies to adaptive stepping only" in capsys.readouterr().err
    assert not out.exists()


# }}}


def test_simulate_blowup_exits_3_with_partial_outputs(tmp_path, blowup_config):
    code = main(["simulate", "--config", str(blowup_config), "--out", str(tmp_path)])
    assert code == 3
    report = json.loads((tmp_path / "blowup" / "report.json").read_text())
    kinds = {e["kind"] for e in report["events"]}
    assert kinds & {"blow_up", "nonfinite"}
    assert (tmp_path / "blowup" / "trajectory.csv").exists()


def test_fixed_step_span_too_long_to_count_exits_2(tmp_path, capsys):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc |= {"id": "long", "t_span": [0, 1e308], "control": {"mode": "fixed", "h": 1e-10}, "analyses": []}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: (t_end - t0) / h is not finite") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "lyapunov"])
def test_span_shorter_than_h_min_exits_2(command, tmp_path, capsys):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc |= {"id": "short", "t_span": [0, 1e-13], "analyses": []}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: the span [0.0, 1e-13] is shorter than one adaptive step of h_min=1e-12")
    assert captured.out == ""
    assert not list(tmp_path.glob("runs/**/*.*"))


@pytest.mark.parametrize("refused", [
    {"t_span": [0, 1e-13]},
    {"t_span": [0, 1e300], "control": {"mode": "fixed", "h": 1e-300}},
], ids=["span-below-h_min", "uncountable-fixed-step"])
def test_a_refused_simulate_makes_no_run_directory(refused, tmp_path, capsys):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"]) | {"id": "refused", "analyses": []} | refused
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "runs").exists()


def test_pullback_horizon_shorter_than_h_min_exits_2(capsys):
    assert main(["pullback", "--config", "set1-nonauto", "--horizons=1e-300,1"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: the span [-1e-300, 0.0] is shorter than one adaptive step")
    assert captured.out == ""


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN, Infinity and -Infinity raise."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture()
def underflow_configs(tmp_path):
    """table2-dfe's rates with q = 1e-320 and constant forcing 9.8, whose
    endemic state's alternative form is non-finite, and rates whose products
    underflow in the reproduction numbers' divisors."""
    base = hk.SCENARIOS["table2-dfe"]
    paths = {}
    for name, change in (
        ("q-underflow", {"q": 1e-320}),
        ("divisor-underflow", {"mu1": 1e-200, "mu2": 1e-200, "mu3": 1e-200}),
    ):
        scenario = dataclasses.replace(
            base, id=name, params=dataclasses.replace(base.params, **change),
            forcing=hk.ConstantForcing(9.8), analyses=("equilibria", "r0"),
        )
        paths[name] = tmp_path / f"{name}.json"
        hk.save_config(scenario, paths[name])
    return paths


def test_non_finite_values_print_as_strict_json(underflow_configs, capsys):
    assert main(["equilibria", "--config", str(underflow_configs["q-underflow"])]) == 0
    endemic = _strict_json(capsys.readouterr().out)["endemic"]
    assert endemic["alt_residual"] == "nan"
    assert endemic["alt_state"][:2] == ["inf", "-inf"] and math.isfinite(endemic["alt_state"][2])
    assert main(["r0", "--config", str(underflow_configs["divisor-underflow"])]) == 0
    r0 = _strict_json(capsys.readouterr().out)
    assert r0["ngm"] == r0["alt"] == "inf" and r0["lambda"] == 9.8


def test_report_json_is_strict_json(underflow_configs, tmp_path):
    for name, path in underflow_configs.items():
        report = hk.run_scenario(path, tmp_path / "runs" / name)
        text = report.report_path.read_text()
        assert '"inf"' in text or '"nan"' in text
        doc = _strict_json(text)
        assert set(doc["analyses"]) == {"equilibria", "r0"}


def test_dumps_spells_each_non_finite_float_as_its_csv_cell():
    doc = {"a": [math.nan, (math.inf, -math.inf)], "b": {"c": 1.5, "d": None, "e": True, "f": 2}}
    text = scenarios.dumps(doc)
    assert _strict_json(text) == {"a": ["nan", ["inf", "-inf"]], "b": {"c": 1.5, "d": None, "e": True, "f": 2}}
    # a finite document is written as before
    finite = doc["b"]
    assert scenarios.dumps(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_equilibria_command_output(capsys):
    assert main(["equilibria", "--config", "set2-auto-boundcheck"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["endemic"]["feasible"] is True
    assert doc["endemic"]["state"] == pytest.approx([2.5185185, 0.6984127, 31.4285714], abs=1e-6)


def test_r0_command_output(capsys):
    assert main(["r0", "--config", "table2-dfe"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngm"] == pytest.approx(7.0096e-5, abs=1e-8)


def test_r0_command_uses_bound_for_wave(capsys):
    assert main(["r0", "--config", "set1-nonauto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 11.0


def test_conditions_command_specific_set(capsys):
    assert main(["conditions", "--config", "set2-auto-boundcheck", "--set", "nonauto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["condition_set"] == "nonauto"
    lines = doc[0]["lines"]
    assert lines[0]["satisfied"] and lines[1]["satisfied"] and not lines[2]["satisfied"]


def test_stability_command(capsys):
    assert main(["stability", "--config", "table2-dfe"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["disease_free"]["classification"] == "stable"
    assert "endemic" not in doc  # infeasible below threshold


def test_lyapunov_command(capsys):
    assert main(["lyapunov", "--config", "table2-dfe"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["degenerate"]
    assert doc["rate"] > 0.0


def test_contraction_command(capsys):
    assert main(["contraction", "--config", "set1-nonauto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] > 0.0


def test_pullback_command(capsys):
    assert main(["pullback", "--config", "set1-nonauto", "--horizons", "5,10,20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True


def test_negative_flag_values_in_the_equals_form_reach_the_analysis(capsys):
    # after a space argparse takes "-1e3" and "-0.5,0,0" for flags; the = form
    # passes them as values, and each flag's help says so
    assert main(["pullback", "--config", "set1-nonauto", "--t-star=-1e3", "--horizons", "5,10"]) == 0
    assert json.loads(capsys.readouterr().out)["t_star"] == -1000.0
    assert main(["contraction", "--config", "table2-dfe", "--offset=-0.5,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["partner_u0"] == [0.5, 1.0, 1.0]
    for command, form in (("pullback", "--t-star=-1e3"), ("contraction", "--offset=-0.5,0,0")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert form in capsys.readouterr().out


@pytest.mark.parametrize("command, config", [("lyapunov", "set1-nonauto"), ("stability", "set2-nonauto")])
def test_equilibrium_under_a_time_varying_rate_names_the_state_not_a_subcommand(command, config, capsys):
    assert main([command, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err == "error: the infection-free equilibrium: defined only for a constant production rate\n"


def test_absorbing_command(capsys):
    assert main(["absorbing", "--config", "set1-nonauto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
    assert doc["ceiling"] == pytest.approx(5.5)


def test_absorbing_command_precondition_exit_2(tmp_path, capsys):
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc["params"]["p"] = 100.0  # (1-eps)*p = 50 > mu2: l1 bound inapplicable
    path = tmp_path / "noabsorb.json"
    path.write_text(json.dumps(doc))
    assert main(["absorbing", "--config", str(path)]) == 2


def test_sweep_command(tmp_path, capsys):
    assert main(["sweep", "--n", "5", "--seed", "7", "--out", str(tmp_path)]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["draws"] == 5
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_command_notes_draws_cut_short(tmp_path, capsys):
    # draw 11 of seed 42 runs out of the step budget at t = 1.870; its
    # positivity and bounds flags are left blank, and the CLI says so
    assert main(["sweep", "--n", "12", "--seed", "42", "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    notes = [line for line in err.splitlines() if "stopped short" in line]
    assert len(notes) == 1
    assert "1 of 12 draws" in notes[0]
    assert "smallest t_reached 1.87, draw 11" in notes[0]
    assert "positivity_ok and bounds_ok are left blank unless a violation fired" in notes[0]
    counts = json.loads(out)
    assert counts["positivity_violations"] == counts["bound_violations"] == 0
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), rows[11].split(",")))
    assert (cells["index"], cells["positivity_ok"], cells["bounds_ok"]) == ("11", "", "")
    assert main(["sweep", "--n", "11", "--seed", "42", "--out", str(tmp_path)]) == 0
    assert "stopped short" not in capsys.readouterr().err


def test_sweep_command_with_box_file(tmp_path, capsys):
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps({"lam": [5.0, 5.0], "q": [1.0, 2.0]}))
    code = main(
        ["sweep", "--n", "3", "--seed", "7", "--out", str(tmp_path), "--box", str(box_path)]
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 5.0 for r in rows)  # lam pinned by the box


def test_sweep_command_rejects_bad_box(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["sweep", "--n", "3", "--out", str(tmp_path), "--box", str(empty)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lam": [0.0, 1.0]}))  # lo must be positive
    assert main(["sweep", "--n", "3", "--out", str(tmp_path), "--box", str(bad)]) == 2


def test_sweep_reversed_fraction_bounds_state_the_rule(tmp_path, capsys):
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps({"eta": [0.5, 0.2]}))
    assert main(["sweep", "--n", "3", "--out", str(tmp_path), "--box", str(box_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: sweep box for 'eta' must satisfy 0 <= lo <= hi < 1, got (0.5, 0.2)"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "entry", ["12", {"0.5": 1, "3": 2}, [1.0], [1.0, 2.0, 3.0], 5.0, [1.0, math.inf]]
)
def test_sweep_box_entry_must_be_a_two_element_array(tmp_path, capsys, entry):
    # a two-character string or a two-key object would unpack into (lo, hi)
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps({"lam": entry}))
    assert main(["sweep", "--n", "3", "--out", str(tmp_path), "--box", str(box_path)]) == 2
    assert "'lam'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config", "table2-dfe"], ["scenario", "table2-dfe"], ["sweep", "--n", "2"]],
    ids=["simulate", "scenario", "sweep"],
)
def test_an_out_that_is_a_file_exits_2(argv, tmp_path, capsys, monkeypatch):
    """An --out naming a regular file is a usage error: one line on stderr, no
    traceback, and the sweep fails before its first draw."""

    def no_draw(*args):
        raise AssertionError("a draw ran before the output directory was made")

    monkeypatch.setattr(scenarios, "_sweep_row", no_draw)
    out = tmp_path / "file"
    out.write_text("")
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert "Traceback" not in captured.err and captured.out == ""
    assert out.read_text() == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hbvkit", "r0", "--config", "table2-dfe"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ngm"] == pytest.approx(7.0096e-5, abs=1e-8)


def test_every_option_of_every_subcommand_carries_help():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [
        (name, action.dest)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not action.help
    ]
    assert bare == []
    assert len(subparsers.choices) == 2 + len(ANALYSES) + 1


def test_tol_override_applies(tmp_path):
    code = main(["scenario", "table2-dfe", "--out", str(tmp_path), "--tol", "1e-6"])
    assert code == 0
    report = json.loads((tmp_path / "table2-dfe" / "report.json").read_text())
    assert report["scenario"]["control"]["abs_tol"] == 1e-6


# {{{ one parser per process


def test_reused_parser_keeps_no_flag_between_calls(capsys):
    assert main(["conditions", "--config", "table2-dfe", "--set", "dfe"]) == 0
    first = [m["condition_set"] for m in json.loads(capsys.readouterr().out)]
    assert main(["conditions", "--config", "table2-dfe"]) == 0
    second = [m["condition_set"] for m in json.loads(capsys.readouterr().out)]
    assert (first, second) == (["dfe"], ["dfe", "endemic"])


def test_reused_parser_restores_default_tolerance(tmp_path):
    assert main(["simulate", "--config", "table2-dfe", "--out", str(tmp_path / "a"), "--tol", "1e-8"]) == 0
    assert main(["simulate", "--config", "table2-dfe", "--out", str(tmp_path / "b")]) == 0
    tols = [
        json.loads((tmp_path / d / "table2-dfe" / "report.json").read_text())["scenario"]["control"]["abs_tol"]
        for d in ("a", "b")
    ]
    assert tols == [1e-8, hk.SCENARIOS["table2-dfe"].control.abs_tol]


@pytest.mark.parametrize("bad", [["simulate"], ["r0", "--config", "table2-dfe", "--tol", "abc"], ["nope"]])
def test_usage_error_then_valid_call(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["r0", "--config", "table2-dfe"]) == 0
    assert json.loads(capsys.readouterr().out)["ngm"] == pytest.approx(7.0096e-5, abs=1e-8)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert main(["r0", "--config", "table2-dfe"]) == 0
        assert main(["r0", "--config", "set1-nonauto"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


# }}}


# {{{ option values outside their domain


@pytest.fixture()
def fixed_step_config(tmp_path):
    """table2-dfe under fixed steps: a run from -inf fails at once instead of never returning."""
    doc = scenario_to_dict(hk.SCENARIOS["table2-dfe"])
    doc["control"] = {"mode": "fixed", "h": 0.05}
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["absorbing", "--config", "set2-nonauto", "--slack", "inf"],
        ["conditions", "--config", "set2-nonauto", "--b1", "nan"],
        ["conditions", "--config", "set2-nonauto", "--b1=-100"],
        ["pullback", "--config", "table2-dfe", "--t-star", "inf"],
        # an infinite tol reports any horizon ladder as converged
        ["pullback", "--config", "set2-nonauto", "--ptol", "inf", "--horizons", "0.01,0.02"],
        ["pullback", "--config", "set2-nonauto", "--ptol", "nan", "--horizons", "0.01,0.02"],
    ],
    ids=["slack-inf", "b1-nan", "b1-negative", "t-star-inf", "ptol-inf", "ptol-nan"],
)
def test_option_value_that_makes_a_verdict_vacuous_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv, sets",
    [
        (["--config", "table2-dfe", "--set", "dfe"], "dfe"),
        (["--config", "table2-dfe"], "dfe, endemic"),  # the sets of a constant rate
    ],
    ids=["set-dfe", "constant-default-sets"],
)
def test_b1_without_the_nonauto_set_exits_2(argv, sets, capsys):
    assert main(["conditions", *argv, "--b1", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the sets evaluated are {sets}" in captured.err


def test_b1_with_the_nonauto_set_is_read(capsys):
    assert main(["conditions", "--config", "table2-dfe", "--set", "nonauto", "--b1", "5"]) == 0
    [margins] = json.loads(capsys.readouterr().out)
    assert margins["aux"]["b1"] == 5.0


@pytest.mark.parametrize("command", [name for name, (_, integrates) in ANALYSES.items() if integrates is None])
def test_tol_on_a_subcommand_that_does_not_integrate_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "table2-dfe", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--t-star", "1e300", "--horizons", "0.5,1"], ["--t-star", "1e17", "--horizons", "1,2,4"]],
    ids=["t-star-1e300", "t-star-1e17"],
)
def test_pullback_ladder_whose_starts_round_to_t_star_exits_2(argv, capsys):
    assert main(["pullback", "--config", "set1-nonauto", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "each start time t_star - T strictly below the last" in captured.err


def test_pullback_seeds_that_collide_exit_2(tmp_path, capsys):
    # the second seed is u0 + 1, which rounds back to u0 from 2**53 up
    doc = scenario_to_dict(hk.SCENARIOS["set1-nonauto"])
    doc["u0"] = [2.0**53] * 3
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["pullback", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seeds must be pairwise distinct" in captured.err


def test_pullback_infinite_horizon_exits_2(fixed_step_config, capsys):
    assert main(["pullback", "--config", str(fixed_step_config), "--horizons", "5,inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "horizons must be finite" in captured.err


# }}}
