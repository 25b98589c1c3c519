"""The config schema: JSON objects built from the dataclasses' own fields."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.cli import main
from hbvkit.scenarios import ANALYSES, dumps, load_box, scenario_from_dict, scenario_to_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _base_doc():
    return scenario_to_dict(hk.SCENARIOS["table2-dfe"])


@pytest.mark.parametrize("span", [[0.0, math.inf], [-math.inf, 5.0]])
def test_non_finite_t_span_is_a_config_error(tmp_path, span):
    doc = _base_doc()
    doc["t_span"] = span  # written as the JSON token Infinity, which Python's reader accepts
    with pytest.raises(hk.ConfigError, match="t_span must be finite"):
        hk.load_config(_write(tmp_path, doc))


def test_simulate_with_an_infinite_t_span_exits_2(tmp_path):
    doc = _base_doc()
    doc["t_span"] = [0.0, math.inf]
    assert main(["simulate", "--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "runs")]) == 2
    assert not (tmp_path / "runs").exists()


# {{{ malformed and unread keys


@pytest.mark.parametrize("key, value", [("control", "adaptive"), ("forcing", [1, 2])])
def test_non_object_section_is_a_config_error(tmp_path, key, value):
    doc = _base_doc() | {key: value}
    path = _write(tmp_path, doc)
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert f"{key} must be an object" in str(err.value)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2


def test_unhashable_forcing_kind_is_a_config_error(tmp_path):
    doc = _base_doc() | {"forcing": {"kind": ["constant"], "value": 1.0}}
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(_write(tmp_path, doc))
    assert "forcing.kind" in str(err.value)


def _unknown_top_level(doc):
    doc["contol"] = {"mode": "fixed", "h": 0.01}
    return "contol"


def _unknown_param(doc):
    doc["params"]["mu4"] = 1.0
    return "mu4"


def _other_forcing_field(doc):
    doc["forcing"]["omega"] = 2.0  # a sinusoid field on a constant forcing
    return "omega"


def _other_mode_field(doc):
    doc["control"] = {"mode": "fixed", "h": 0.01, "abs_tol": 1e-6}
    return "abs_tol"


def _analyses_as_string(doc):
    doc["analyses"] = "equilibria"
    return "analyses"


def _unknown_mode(doc):
    doc["control"] = {"mode": "other"}
    return "control.mode"


@pytest.mark.parametrize(
    "edit",
    [_unknown_top_level, _unknown_param, _other_forcing_field, _other_mode_field,
     _analyses_as_string, _unknown_mode],
)
def test_unread_key_is_rejected_by_name(tmp_path, edit):
    doc = _base_doc()
    key = edit(doc)
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(_write(tmp_path, doc))
    assert key in str(err.value)


def test_tol_on_fixed_step_scenario_is_a_usage_error(tmp_path, capsys):
    doc = _base_doc() | {"control": {"mode": "fixed", "h": 0.01}}
    path = _write(tmp_path, doc)
    assert main(["lyapunov", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["lyapunov", "--config", str(path), "--tol", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("bad_id", ["../escape", "..", ".", "a/b", "/abs", "a\\b", ""])
def test_id_that_is_not_one_path_component_is_rejected(tmp_path, bad_id):
    path = _write(tmp_path, _base_doc() | {"id": bad_id})
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert "id" in str(err.value)


def test_simulate_rejects_an_id_that_escapes_out(tmp_path):
    path = _write(tmp_path, _base_doc() | {"id": "../escape"})
    out = tmp_path / "runs" / "inner"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["h", "abs_tol", "rel_tol", "h_init", "h_min", "h_max", "blow_up_threshold", "positivity_tol"],
)
def test_non_finite_step_control_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        (hk.FixedStep if field == "h" else hk.AdaptiveStep)(**{field: value})


@pytest.mark.parametrize(
    "times", ["[0, NaN, 20]", "[0, 5, Infinity]", "[-Infinity, 5, 20]", "[-1e308, 5, 1e308]"]
)
def test_non_finite_knot_time_is_a_config_error(times):
    # every comparison with NaN is false, so NaN passes an ordering check
    doc = _base_doc()
    doc["forcing"] = json.loads(
        f'{{"kind": "piecewise_linear", "times": {times}, "values": [9.0, 9.5, 10.0]}}'
    )
    with pytest.raises(hk.ConfigError, match="forcing") as err:
        scenario_from_dict(doc)
    assert "finite" in str(err.value)


def _table(times, values):
    return {"kind": "piecewise_linear", "times": times, "values": values}


# (section or None for the top level, key, JSON value of the wrong type)
_WRONG_TYPES = [
    ("control", "h", True),
    ("control", "h", "0.5"),
    ("control", "abs_tol", None),
    ("control", "h_max", True),
    ("params", "mu1", "2.0"),
    ("params", "mu1", False),
    ("params", "beta", [0.2]),
    ("forcing", "value", "9.8"),
    (None, "id", 5),
    (None, "u0", [1.0, True, 1.0]),
    (None, "u0", [1.0, "1.0", 1.0]),
    (None, "t_span", [0.0, "15"]),
    (None, "analyses", ["equilibria", 5]),
]


@pytest.mark.parametrize("section, key, value", _WRONG_TYPES)
def test_value_of_the_wrong_json_type_is_rejected_by_name(tmp_path, section, key, value):
    doc = _base_doc()
    if key == "h":
        doc["control"] = {"mode": "fixed", "h": 0.01}
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(_write(tmp_path, doc))
    assert str(err.value).startswith(f"{section + '.' if section else ''}{key}: ")


@pytest.mark.parametrize(
    "times, values, key",
    [
        ([0, "5", 20], [9.0, 9.5, 10.0], "forcing.times"),
        ([0, 5, 20], [9.0, True, 10.0], "forcing.values"),
        ([0, 5, 20], [9.0, None, 10.0], "forcing.values"),
    ],
)
def test_knot_of_the_wrong_json_type_is_rejected_by_name(times, values, key):
    doc = _base_doc() | {"forcing": _table(times, values)}
    with pytest.raises(hk.ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith(f"{key}: ")


def test_integer_too_large_for_a_float_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    doc = _base_doc() | {"control": {"mode": "fixed", "h": 0.01}}
    path.write_text(json.dumps(doc).replace('"h": 0.01', '"h": 1' + "0" * 400))
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(path)
    assert str(err.value).startswith("control.h: ")


@pytest.mark.parametrize("pair", [[True, 2.0], ["0.1", 2.0], [0.1, None]])
def test_box_pair_of_the_wrong_json_type_is_rejected_by_name(tmp_path, pair):
    path = _write(tmp_path, {"mu1": pair}, name="box.json")
    with pytest.raises(hk.ConfigError) as err:
        load_box(path)
    assert "'mu1'" in str(err.value)


def test_nan_positivity_tol_in_config_is_a_config_error(tmp_path):
    doc = _base_doc()
    doc["control"]["positivity_tol"] = math.nan  # json.dumps writes NaN, json.loads reads it
    with pytest.raises(hk.ConfigError) as err:
        hk.load_config(_write(tmp_path, doc))
    assert "positivity_tol" in str(err.value)


# }}}


# {{{ round trip


_rate = st.floats(1e-3, 1e3)
_fraction = st.floats(0.0, 0.99)
_params = st.builds(
    hk.Parameters, mu1=_rate, mu2=_rate, mu3=_rate, beta=_rate,
    eta=_fraction, epsilon=_fraction, p=_rate, q=_rate,
)


@st.composite
def _forcing_and_span(draw):
    kind = draw(st.sampled_from(["constant", "sinusoid", "piecewise_linear"]))
    if kind == "piecewise_linear":
        steps = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
        times = [draw(st.floats(-5.0, 5.0))]
        for dt in steps:
            times.append(times[-1] + dt)
        values = draw(st.lists(_rate, min_size=len(times), max_size=len(times)))
        return hk.PiecewiseLinearForcing(tuple(times), tuple(values)), (times[0], times[-1])
    if kind == "sinusoid":
        amplitude = draw(st.floats(-10.0, 10.0))
        forcing = hk.SinusoidForcing(
            amplitude=amplitude, omega=draw(st.floats(-10.0, 10.0)),
            phase=draw(st.floats(-4.0, 4.0)), offset=abs(amplitude) + draw(_rate),
        )
    else:
        forcing = hk.ConstantForcing(draw(_rate))
    return forcing, (0.0, draw(st.floats(0.1, 100.0)))


@st.composite
def _control(draw):
    thresholds = dict(
        blow_up_threshold=draw(st.floats(1.0, 1e15)), positivity_tol=draw(st.floats(0.0, 1e-3))
    )
    if draw(st.booleans()):
        return hk.FixedStep(h=draw(st.floats(1e-6, 1.0)), **thresholds)
    h_min, h_init, h_max = sorted(draw(st.floats(1e-14, 1.0)) for _ in range(3))
    return hk.AdaptiveStep(
        abs_tol=draw(st.floats(1e-14, 1e-2)), rel_tol=draw(st.floats(1e-14, 1e-2)),
        h_init=h_init, h_min=h_min, h_max=h_max, **thresholds,
    )


# any single path component: no separator or NUL, not "." or ".."
_ids = st.text(min_size=1, max_size=8).filter(
    lambda s: s not in (".", "..") and not any(c in s for c in "/\\\0")
)


@st.composite
def _scenarios(draw):
    forcing, t_span = draw(_forcing_and_span())
    return hk.Scenario(
        id=draw(_ids),
        params=draw(_params),
        forcing=forcing,
        u0=tuple(draw(st.floats(0.0, 1e3)) for _ in range(3)),
        t_span=t_span,
        control=draw(_control()),
        analyses=tuple(draw(st.lists(st.sampled_from(list(ANALYSES)), unique=True))),
    )


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_config_json_round_trip(scenario):
    assert scenario_from_dict(json.loads(dumps(scenario_to_dict(scenario)))) == scenario


def test_integer_json_number_loads_as_float(tmp_path):
    doc = _base_doc()
    doc["forcing"] = {"kind": "constant", "value": 10}
    scenario = hk.load_config(_write(tmp_path, doc))
    assert type(scenario.forcing.value) is float
    assert '"value": 10.0' in dumps(scenario_to_dict(scenario))


def test_integer_json_array_elements_load_as_floats(tmp_path):
    doc = _base_doc() | {"u0": [1, 1, 1], "t_span": [0, 15], "forcing": _table([0, 20], [9, 10])}
    scenario = hk.load_config(_write(tmp_path, doc))
    numbers = (*scenario.u0, *scenario.t_span, *scenario.forcing.times, *scenario.forcing.values)
    assert all(type(v) is float for v in numbers)


def test_readme_config_schema_block_loads():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Config schema\s+```json\n(.*?)```", text, re.S)
    assert block is not None
    scenario = scenario_from_dict(json.loads(block.group(1)))
    assert scenario.id == "my-run"


# }}}


def test_sweep_csv_header(tmp_path):
    hk.sweep(2, 3, out_path=tmp_path / "sweep.csv")
    header = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "index,lam,mu1,mu2,mu3,beta,eta,epsilon,p,q,"
        "r0_ngm,feasible,threshold_ok,"
        "dfe_residual,dfe_residual_ok,endemic_residual,endemic_residual_ok,"
        "max_re_dfe,eig_sign_ok,"
        "positivity_ok,bounds_ok,t_reached"
    )
