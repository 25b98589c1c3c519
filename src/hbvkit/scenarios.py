"""Benchmark scenario registry, config files, run orchestration and sweeps.

A scenario bundles parameters, forcing, initial state, time span, step
control and a list of requested analyses. Five benchmark scenarios ship
in the registry; arbitrary ones round-trip through JSON config files.

Each run writes, into its own directory: ``trajectory.csv`` (columns
``t,x,y,z`` at full double precision), ``report.json`` with every
requested analysis (or an explicit skip reason), and ``plot.gp``, a
gnuplot script over the CSV. Runs are deterministic: identical configs
produce byte-identical files. Wall-clock timing is returned to the
caller but deliberately kept out of the files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_args

import numpy as np

from . import equilibria as eq
from . import process as proc
from . import stability as stab
from .integrate import AdaptiveStep, StepControl, Trajectory, integrate
from .model import (
    ConstantForcing,
    Forcing,
    Parameters,
    SinusoidForcing,
    as_state,
    jacobian,
    run_stops,
)

__all__ = [
    "Scenario",
    "RunReport",
    "SweepResult",
    "ConfigError",
    "UnknownScenarioError",
    "SCENARIOS",
    "ANALYSES",
    "DEFAULT_SWEEP_BOX",
    "dumps",
    "load_box",
    "load_config",
    "save_config",
    "scenario_from_dict",
    "scenario_to_dict",
    "run_scenario",
    "sweep",
]

PULLBACK_HORIZONS = (5.0, 10.0, 20.0, 40.0)
PULLBACK_TOL = 1e-6


class ConfigError(ValueError):
    """A config file could not be parsed or validated."""


class UnknownScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    id: str
    params: Parameters
    forcing: Forcing
    u0: tuple[float, float, float]
    t_span: tuple[float, float]
    control: StepControl = AdaptiveStep()
    analyses: tuple[str, ...] = ()

    def __post_init__(self):
        # runs are written to <out>/<id>, so the id must stay inside <out>
        if self.id in ("", ".", "..") or any(c in self.id for c in "/\\\0"):
            raise ValueError(f"id must be a single plain path component, got {self.id!r}")
        object.__setattr__(self, "u0", as_state(self.u0, True))
        t0, t1 = (float(t) for t in self.t_span)
        object.__setattr__(self, "t_span", (t0, t1))
        run_stops(self.forcing, t0, t1)  # the span must be finite and increasing, and a table must cover it
        object.__setattr__(self, "analyses", tuple(self.analyses))
        for name in self.analyses:
            if name not in ANALYSES:
                raise ValueError(f"unknown analysis {name!r}; expected one of {tuple(ANALYSES)}")


# {{{ analyses
#
# Each entry maps an analysis name to fn(scenario, traj, **options) -> dict
# and what fn integrates: "trajectory", the scenario run; "own", runs of its
# own; None, nothing. run_scenario calls fn with the defaults below; each CLI
# subcommand passes its flags as the options and fn's docstring as its help.


def _equilibria(scenario: Scenario, traj) -> dict:
    """infection-free and persistent equilibria"""
    return {
        key: {k: v for k, v in asdict(rep).items() if v is not None}
        for key, rep in (
            ("disease_free", eq.disease_free(scenario.params, scenario.forcing)),
            ("endemic", eq.endemic(scenario.params, scenario.forcing)),
        )
    }


def _stability_dict(rep: stab.StabilityReport) -> dict:
    return asdict(rep) | {"eigenvalues": [[lam.real, lam.imag] for lam in rep.eigenvalues]}


def _stability(scenario: Scenario, traj) -> dict:
    """eigenvalues, classification, R0 variants, margins"""
    params, forcing = scenario.params, scenario.forcing
    dfe = eq.disease_free(params, forcing)
    out = {"disease_free": _stability_dict(
        stab.stability_report(params, forcing, dfe.state, margin_sets=("dfe",))
    )}
    end = eq.endemic(params, forcing)
    if end.feasible:
        out["endemic"] = _stability_dict(
            stab.stability_report(params, forcing, end.state, margin_sets=("endemic", "equilibrium"))
        )
    return out


def _conditions(scenario: Scenario, traj, condition_set=None, b1=None) -> list:
    """numeric margins of the stability condition sets"""
    params, forcing = scenario.params, scenario.forcing
    if condition_set is not None:
        sets = (condition_set,)
    elif forcing.is_constant:
        sets = ("dfe", "endemic")
    else:
        sets = ("nonauto",)
    if b1 is None:
        b1 = 0.0
    elif "nonauto" not in sets:
        raise ValueError(f"b1 is read by the nonauto set only; the sets evaluated are {', '.join(sets)}")
    out = []
    for set_id in sets:
        equilibrium = None
        if set_id == "equilibrium":
            end = eq.endemic(params, forcing)
            equilibrium = end.state if end.feasible else eq.disease_free(params, forcing).state
        out.append(asdict(stab.condition_margins(set_id, params, forcing, equilibrium, b1=b1)))
    return out


def _r0(scenario: Scenario, traj) -> dict:
    """reproduction-number variants"""
    forcing = scenario.forcing
    if not forcing.is_constant:
        # time-varying production: report the variants at the upper bound
        forcing = ConstantForcing(forcing.lambda_max)
    return {"lambda": forcing.value} | asdict(stab.r0_all(scenario.params, forcing))


def _lyapunov(scenario: Scenario, traj: Trajectory) -> dict:
    """decay-rate fit of the squared distance to the infection-free state"""
    reference = eq.disease_free(scenario.params, scenario.forcing).state
    trace = stab.lyapunov_fit(traj, reference)
    return {
        "reference": list(reference),
        "rate": trace.rate,
        "fit_quality": trace.fit_quality,
        "degenerate": trace.degenerate,
        "initial_value": float(trace.values[0]),
        "final_value": float(trace.values[-1]),
    }


def _contraction(scenario: Scenario, traj: Trajectory, offset=(1.0, 1.0, 1.0)) -> dict:
    """empirical contraction fit between two runs"""
    partner_u0 = tuple(v + d for v, d in zip(scenario.u0, offset))
    partner = integrate(
        scenario.params, scenario.forcing, partner_u0, *scenario.t_span, scenario.control
    )
    proc.require_complete(partner, "partner run from u0+offset")
    return {"partner_u0": list(partner_u0)} | asdict(stab.contraction_fit(traj, partner))


def _pullback(
    scenario: Scenario, traj, t_star=None, horizons=PULLBACK_HORIZONS, ptol=PULLBACK_TOL
) -> dict:
    """pullback limit estimate over a horizon ladder"""
    t_star = scenario.t_span[0] if t_star is None else t_star
    seeds = (scenario.u0, tuple(v + 1.0 for v in scenario.u0))
    return asdict(proc.pullback_estimate(
        scenario.params, scenario.forcing, t_star, horizons, seeds, ptol, scenario.control
    ))


def _absorbing(scenario: Scenario, traj: Trajectory, slack=None) -> dict:
    """l1 absorbing-ball check on a scenario trajectory"""
    return asdict(proc.absorbing_check(traj, slack=slack))


ANALYSES = {
    "equilibria": (_equilibria, None),
    "stability": (_stability, None),
    "conditions": (_conditions, None),
    "r0": (_r0, None),
    "lyapunov": (_lyapunov, "trajectory"),
    "contraction": (_contraction, "trajectory"),
    "pullback": (_pullback, "own"),
    "absorbing": (_absorbing, "trajectory"),
}


# }}}


def _registry() -> dict[str, Scenario]:
    ctl = AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25)
    # benchmark rate sets: infection clearing, subthreshold (R0 < 1 with a
    # large production rate), and persistent infection (R0 > 1)
    clearing = Parameters(mu1=2.0, mu2=3.0, mu3=7.0, beta=0.2, eta=0.2, epsilon=0.5, p=0.01, q=5.0)
    subthreshold = Parameters(mu1=5.0, mu2=7.0, mu3=2.0, beta=0.7, eta=0.2, epsilon=0.2, p=2.0, q=6.0)
    persistent = Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)
    wave = SinusoidForcing(amplitude=1.0, omega=2.0, phase=math.pi / 3.0, offset=10.0)
    one = (1.0, 1.0, 1.0)
    scenarios = (
        Scenario(
            "table2-dfe", clearing, ConstantForcing(9.8135), one, (0.0, 15.0), ctl,
            ("equilibria", "stability", "conditions", "lyapunov", "contraction"),
        ),
        Scenario(
            "table3-dfe-check", subthreshold, ConstantForcing(100.0), one, (0.0, 10.0), ctl,
            ("equilibria", "stability", "conditions"),
        ),
        Scenario(
            "set1-nonauto", clearing, wave, one, (0.0, 5.0), ctl,
            ("conditions", "absorbing", "pullback", "contraction"),
        ),
        Scenario(
            "set2-nonauto", persistent, wave, one, (0.0, 5.0), ctl,
            ("conditions", "absorbing"),
        ),
        Scenario(
            "set2-auto-boundcheck", persistent, ConstantForcing(20.0), one, (0.0, 200.0), ctl,
            ("equilibria", "stability", "conditions"),
        ),
    )
    return {s.id: s for s in scenarios}


SCENARIOS = _registry()


# {{{ config serialization
#
# A config is the JSON form of a Scenario. Each object holds the fields of its
# dataclass; "forcing" adds the "kind" naming its class and "control" the
# "mode" naming its class.

FORCING_KINDS = {cls.kind: cls for cls in get_args(Forcing)}

CONTROL_MODES = {cls.mode: cls for cls in get_args(StepControl)}


def _number(value) -> float:
    # JSON true/false load as bool, an int subclass, but are not numbers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is out of the float range") from None


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


_SCALARS = {"float": _number, "str": _string}


def _coercer(annotation: str):
    """The check and conversion of a JSON value for a field of this type."""
    kind, _, args = annotation.partition("[")
    if kind != "tuple":
        return _SCALARS[kind]
    element = _SCALARS[args.split(",")[0].rstrip("]")]

    def array(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected an array, got {type(value).__name__}")
        return tuple(map(element, value))

    return array


def _build(cls, obj, where: str, tag: str | None = None, default=None, **convert):
    """The dataclass ``cls`` built from the JSON object ``obj``.

    ``obj`` must hold each field of ``cls`` that has no default, and no key
    that is not a field. A float field takes only a number (not a bool), a
    str field only a string, and a tuple field an array of those; a field
    named in ``convert`` goes through that function instead. With ``tag``,
    ``cls`` is a table of classes and ``obj[tag]`` (``default`` when absent)
    picks the entry.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {type(obj).__name__}")
    prefix = f"{where}: " if where else ""
    if tag is not None:
        choice = obj.get(tag, default)
        if not isinstance(choice, str) or choice not in cls:
            raise ConfigError(f"{where}.{tag} must be one of {', '.join(map(repr, cls))}, got {choice!r}")
        cls = cls[choice]
    known = {f.name: f for f in fields(cls)}
    for key in obj:
        if key not in known and key != tag:
            variant = f" for {tag} {choice!r}" if tag else ""
            raise ConfigError(f"{prefix}unknown field {key!r}{variant}; expected {', '.join(known)}")
    for name, f in known.items():
        if name not in obj and f.default is MISSING:
            raise ConfigError(f"{prefix}missing field {name!r}")
    kwargs = {}
    for name, value in obj.items():
        if name == tag:
            continue
        coerce = convert.get(name) or _coercer(known[name].type)
        try:
            kwargs[name] = coerce(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where + '.' if where else ''}{name}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def scenario_to_dict(s: Scenario) -> dict:
    return asdict(s) | {
        "forcing": {"kind": s.forcing.kind} | asdict(s.forcing),
        "control": {"mode": s.control.mode} | asdict(s.control),
    }


def scenario_from_dict(d: dict) -> Scenario:
    return _build(
        Scenario, d, "",
        params=lambda v: _build(Parameters, v, "params"),
        forcing=lambda v: _build(FORCING_KINDS, v, "forcing", tag="kind"),
        control=lambda v: _build(CONTROL_MODES, v, "control", tag="mode", default="adaptive"),
    )


def _read_json(path, what: str):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_config(path) -> Scenario:
    return scenario_from_dict(_read_json(path, "config"))


def save_config(s: Scenario, path) -> None:
    Path(path).write_text(dumps(scenario_to_dict(s)), encoding="utf-8")


def dumps(doc) -> str:
    """JSON text as written to report files and printed by the CLI. It is
    strict JSON (RFC 8259): a non-finite float is written as the string its
    CSV cell shows, ``"nan"``, ``"inf"`` or ``"-inf"``."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float: spell it, then write again
        text = json.dumps(_spelled(doc), indent=2, sort_keys=True, allow_nan=False)
    return text + "\n"


def _spelled(value):
    """``value`` with each non-finite float, in any dict, list or tuple,
    replaced by its CSV cell text."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _cell(value)
    if isinstance(value, dict):
        return {key: _spelled(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(v) for v in value]
    return value


# }}}


@dataclass
class RunReport:
    """Everything a scenario run produced, plus where it was written."""

    scenario: Scenario
    trajectory: Trajectory
    document: dict
    trajectory_path: Path
    report_path: Path
    duration_seconds: float

    @property
    def terminated(self) -> bool:
        return self.trajectory.terminated


_PLOT_SCRIPT = """\
set datafile separator ","
set key autotitle columnhead
set xlabel "t"
set ylabel "compartment size"
plot "trajectory.csv" using 1:2 with lines title "x (uninfected)", \\
     "trajectory.csv" using 1:3 with lines title "y (infected)", \\
     "trajectory.csv" using 1:4 with lines title "z (virions)"
"""


def resolve_scenario(ref) -> Scenario:
    """Registry id, config file path, or Scenario instance -> Scenario."""
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, str) and ref in SCENARIOS:
        return SCENARIOS[ref]
    path = Path(ref)
    if path.is_file():
        return load_config(path)
    raise UnknownScenarioError(
        f"{ref!r} is neither a registered scenario id ({', '.join(sorted(SCENARIOS))}) "
        "nor a config file path"
    )


def run_scenario(ref, out_dir) -> RunReport:
    """Integrate a scenario, run its analyses and write the run directory."""
    scenario = resolve_scenario(ref)
    started = time.perf_counter()

    t0, t_end = scenario.t_span
    traj = integrate(scenario.params, scenario.forcing, scenario.u0, t0, t_end, scenario.control)

    analyses: dict = {}
    skipped: dict = {}
    for name in scenario.analyses:
        fn, integrates = ANALYSES[name]
        try:
            if integrates == "trajectory":
                proc.require_complete(traj, "scenario run")
            analyses[name] = fn(scenario, traj)
        except (ValueError, proc.ProcessTerminatedError) as exc:
            skipped[name] = str(exc)

    doc = {
        "scenario": scenario_to_dict(scenario),
        "trajectory": {
            "path": "trajectory.csv",
            "n_points": len(traj.time_list),
            "final_time": traj.final_time,
            "final_state": list(traj.state_list[-1]),
            "terminated": traj.terminated,
        },
        "events": [asdict(e) for e in traj.events],
        "analyses": analyses,
        "skipped": skipped,
    }

    out_dir = Path(out_dir)  # made only now: a run integrate refuses writes nothing
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory_path = out_dir / "trajectory.csv"
    report_path = out_dir / "report.json"
    traj.to_csv(trajectory_path)
    report_path.write_text(dumps(doc), encoding="utf-8")
    (out_dir / "plot.gp").write_text(_PLOT_SCRIPT, encoding="utf-8")

    return RunReport(
        scenario=scenario,
        trajectory=traj,
        document=doc,
        trajectory_path=trajectory_path,
        report_path=report_path,
        duration_seconds=time.perf_counter() - started,
    )


# {{{ parameter sweep


# Rates (and the production rate lam) are drawn log-uniform, treatment
# fractions uniform.
_PARAMETER_NAMES = tuple(f.name for f in fields(Parameters))
DEFAULT_SWEEP_BOX = {"lam": (1e-2, 1e2)} | {
    name: (0.0, 0.9) if name in Parameters.FRACTIONS else (1e-2, 1e2) for name in _PARAMETER_NAMES
}

# count key -> (row flag, the flag value it counts); a blank (None) flag
# counts under neither value
_SWEEP_COUNTS = {
    "feasible": ("feasible", True),
    "threshold_violations": ("threshold_ok", False),
    "dfe_residual_failures": ("dfe_residual_ok", False),
    "endemic_residual_failures": ("endemic_residual_ok", False),
    "eig_sign_violations": ("eig_sign_ok", False),
    "positivity_violations": ("positivity_ok", False),
    "bound_violations": ("bounds_ok", False),
}

_SWEEP_SPAN = 2.0
_SWEEP_MAX_STEPS = 4000
_SWEEP_CTL = AdaptiveStep(abs_tol=1e-10, rel_tol=1e-9, h_init=1e-3, h_min=1e-14, h_max=0.25)


def load_box(path) -> dict[str, tuple[float, float]]:
    """The ``sweep`` box overrides in a JSON file of ``name: [lo, hi]`` pairs."""
    raw = _read_json(path, "box file")
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("box file must be a nonempty object of name: [lo, hi] pairs")
    box = {}
    for name, pair in raw.items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"box entry {name!r} must be a [lo, hi] array, got {pair!r}")
        try:
            box[name] = (_number(pair[0]), _number(pair[1]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"box entry {name!r} must hold two numbers: {exc}") from exc
    return box


@dataclass
class SweepResult:
    counts: dict
    rows: list
    csv_path: Path | None

    def coverage_note(self) -> str | None:
        """One line on the draws whose run stopped short of the sweep span, or None."""
        short = [row for row in self.rows if row["t_reached"] < _SWEEP_SPAN]
        if not short:
            return None
        first = min(short, key=lambda row: row["t_reached"])
        return (
            f"{len(short)} of {len(self.rows)} draws stopped short of t = {_SWEEP_SPAN:g} "
            f"on the step budget or a terminal event (smallest t_reached {first['t_reached']:.3g}, "
            f"draw {first['index']}); their positivity_ok and bounds_ok are left blank "
            "unless a violation fired before the stop"
        )


def _draw_params(rng, box):
    """Draws the rates in box order, then the fractions; returns (lam, params).
    ``sweep`` has checked the box."""
    values = {}
    for name in box:
        if name in Parameters.FRACTIONS:
            continue
        lo, hi = box[name]
        drawn = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        # a collapsed interval pins the value exactly (exp/log round-trip
        # would otherwise perturb the last bit); the rng draw is still
        # consumed so the stream stays aligned across boxes
        values[name] = lo if lo == hi else drawn
    for name in Parameters.FRACTIONS:
        lo, hi = box[name]
        drawn = rng.uniform(lo, hi)
        values[name] = lo if lo == hi else drawn
    lam = values.pop("lam")
    return lam, Parameters(**values)


def _sweep_row(index: int, lam: float, params: Parameters) -> dict:
    forcing = ConstantForcing(lam)
    r0 = stab.r0_all(params, forcing).ngm
    dfe = eq.disease_free(params, forcing)
    end = eq.endemic(params, forcing)

    # a DFE state past the float range, or a Jacobian entry there, leaves the
    # cells read off the Jacobian blank (None)
    threshold_ok = max_re = eig_sign_ok = None
    j_dfe = jacobian(params, dfe.state) if all(map(math.isfinite, dfe.state)) else None
    if j_dfe is not None and all(map(math.isfinite, entries := j_dfe.ravel().tolist())):
        dfe_stable = stab.routh_hurwitz_stable(j_dfe)
        max_re = max(lam_i.real for lam_i in stab.eigenvalues_3x3(j_dfe))
        # floats decide a side beyond their rounding: r0_ngm carries five and
        # the Jacobian's beta_eff*x two, inside 4 ulps of 1; an eigenvalue
        # below one ulp of the Jacobian's largest entry is rounding of that
        # matrix. A NaN checks nothing, and its flag is left blank.
        r0_decided = abs(r0 - 1.0) > 4.0 * math.ulp(1.0)
        eig_decided = abs(max_re) >= math.ulp(max(map(abs, entries)))
        threshold_ok = None if math.isnan(r0) else not r0_decided or (r0 > 1.0) == end.feasible != dfe_stable
        eig_sign_ok = None if math.isnan(max_re) else not eig_decided or (max_re < 0.0) == dfe_stable

    traj = integrate(
        params, forcing, (1.0, 1.0, 1.0), 0.0, _SWEEP_SPAN, _SWEEP_CTL,
        max_steps=_SWEEP_MAX_STEPS,
    )
    kinds = {e.kind for e in traj.events}
    positivity_ok = "positivity_violation" not in kinds and "nonfinite" not in kinds
    bounds_ok = "bound_violation" not in kinds and "blow_up" not in kinds
    # a run cut short passes no check over the part it did not run: its flag
    # is left blank (None) unless a violation already fired
    short = traj.final_time < _SWEEP_SPAN

    return {
        "index": index,
        "lam": lam,
        **{name: getattr(params, name) for name in _PARAMETER_NAMES},
        "r0_ngm": r0,
        "feasible": end.feasible,
        "threshold_ok": threshold_ok,
        "dfe_residual": dfe.residual_norm,
        "dfe_residual_ok": eq.certified(params, forcing, dfe),
        "endemic_residual": end.residual_norm if end.feasible else None,
        "endemic_residual_ok": not end.feasible or eq.certified(params, forcing, end),
        "max_re_dfe": max_re,
        "eig_sign_ok": eig_sign_ok,
        "positivity_ok": None if short and positivity_ok else positivity_ok,
        "bounds_ok": None if short and bounds_ok else bounds_ok,
        "t_reached": traj.final_time,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def sweep(n_draws: int, seed: int, out_path=None, box: dict | None = None) -> SweepResult:
    """Randomized property sweep; one CSV row per draw, pass/fail flags per
    property. The per-draw trajectory check integrates over a short window
    with a step budget so stiff corners of the box cannot stall the sweep
    (``t_reached`` records how far each run got)."""
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    full_box = dict(DEFAULT_SWEEP_BOX)
    if box:
        unknown = set(box) - set(full_box)
        if unknown:
            raise ValueError(f"unknown sweep box entries: {sorted(unknown)}")
        full_box.update(box)
    # the rates in box order, then the fractions, as _draw_params draws them
    for name in [name for name in full_box if name not in Parameters.FRACTIONS]:
        lo, hi = full_box[name]
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"sweep box for {name!r} must satisfy 0 < lo <= hi < inf, got {full_box[name]}")
    for name in Parameters.FRACTIONS:
        lo, hi = full_box[name]
        if not 0.0 <= lo <= hi < 1.0:
            raise ValueError(f"sweep box for {name!r} must satisfy 0 <= lo <= hi < 1, got {full_box[name]}")

    # a refused seed makes no directory; an unusable one fails before the first draw
    rng = np.random.default_rng(seed)
    csv_path = None if out_path is None else Path(out_path)
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)

    rows = [_sweep_row(i, *_draw_params(rng, full_box)) for i in range(n_draws)]
    counts = {"draws": n_draws} | {
        key: sum(1 for row in rows if row[flag] == value)
        for key, (flag, value) in _SWEEP_COUNTS.items()
    }

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(rows[0]) + "\n")
            for row in rows:
                fh.write(",".join(map(_cell, row.values())) + "\n")
    return SweepResult(counts=counts, rows=rows, csv_path=csv_path)


# }}}
