"""Command-line surface.

Every subcommand but ``sweep`` takes a scenario reference: a registry id or
a JSON config path. ``scenario`` and ``simulate`` are one run; ``scenario``
writes the analyses its scenario lists, ``simulate`` none.

Exit codes: 0 success, 2 usage or config problems or an ``--out`` that
cannot be written, 3 when integration was cut short by a numerical event
(blow-up, non-finite state or step-size floor). On exit 3 ``scenario`` and
``simulate`` still write the partial trajectory and report; an analysis
subcommand prints nothing.

Analysis results go to stdout as JSON; progress and file locations go to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import process as proc
from . import stability as stab
from .integrate import integrate
from .scenarios import (
    ANALYSES,
    ConfigError,
    Scenario,
    dumps,
    load_box,
    resolve_scenario,
    run_scenario,
    sweep,
)

USAGE_ERROR = 2
NUMERICAL_EVENT = 3


def _with_tol(scenario: Scenario, tol: float | None) -> Scenario:
    if tol is None:
        return scenario
    if scenario.control.mode != "adaptive":
        raise ConfigError(f"--tol applies to adaptive stepping only; {scenario.id} uses fixed steps")
    ctl = dataclasses.replace(scenario.control, abs_tol=tol, rel_tol=tol)
    return dataclasses.replace(scenario, control=ctl)


def _load(args) -> Scenario:
    return _with_tol(resolve_scenario(args.config), args.tol)


def _emit(doc) -> None:
    sys.stdout.write(dumps(doc))


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_triple(text: str) -> tuple[float, float, float]:
    values = _parse_floats(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return values


# Flags of each analysis subcommand, passed to its ANALYSES entry as keyword
# options; an absent flag leaves the entry's default in force.
_ANALYSIS_FLAGS = {
    "conditions": (
        ("--set", dict(dest="condition_set", choices=stab.CONDITION_SETS,
                       help="evaluate one specific set")),
        ("--b1", dict(type=float, help="finite virion bound >= 0, read by the nonauto set only (default 0)")),
    ),
    "contraction": (
        ("--offset", dict(type=_parse_triple, help="partner start = u0 + offset (default 1,1,1)")),
    ),
    "pullback": (
        ("--t-star", dict(dest="t_star", type=float, help="finite observation time; each start time t_star - T "
                          "must round below the one before, t_star first (default: span start)")),
        ("--horizons", dict(type=_parse_floats, help="finite increasing horizons T > 0, each giving its own "
                            "start time t_star - T (default 5,10,20,40)")),
        ("--ptol", dict(type=float, help="finite convergence tolerance > 0 (default 1e-6)")),
    ),
    "absorbing": (
        ("--slack", dict(type=float, help="finite ball slack > 0 (default 1e-6 * ceiling)")),
    ),
}

_COMMON_ARGS = ("command", "func", "config", "out", "tol")


# {{{ subcommand handlers


def _cmd_run(args) -> int:
    scenario = _load(args)
    if args.command == "simulate":
        scenario = dataclasses.replace(scenario, analyses=())
    report = run_scenario(scenario, Path(args.out) / scenario.id)
    print(
        f"wrote {report.trajectory_path} and {report.report_path} "
        f"({report.duration_seconds:.2f}s)",
        file=sys.stderr,
    )
    return NUMERICAL_EVENT if report.terminated else 0


def _cmd_analysis(args) -> int:
    fn, integrates = ANALYSES[args.command]
    scenario = _load(args)
    traj = None
    if integrates == "trajectory":
        traj = integrate(
            scenario.params, scenario.forcing, scenario.u0, *scenario.t_span, scenario.control
        )
        proc.require_complete(traj, "scenario run")
    options = {k: v for k, v in vars(args).items() if k not in _COMMON_ARGS}
    _emit(fn(scenario, traj, **options))
    return 0


def _cmd_sweep(args) -> int:
    box = None if args.box is None else load_box(args.box)
    out_path = Path(args.out) / "sweep.csv"
    result = sweep(args.n, args.seed, out_path=out_path, box=box)
    _emit(result.counts)
    note = result.coverage_note()
    if note:
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


# }}}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``hbvkit`` command line; ``main`` reuses one."""
    parser = argparse.ArgumentParser(
        prog="hbvkit",
        description="Simulate and stress-test the within-host HBV model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "scenario id or JSON config path"

    def common(p, out_help="output directory (default: runs)", tol=True, config=True):
        if config:
            p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--out", default="runs", help=out_help)
        if tol:
            p.add_argument("--tol", type=float, default=None, help="override adaptive abs/rel tolerance")

    p = sub.add_parser("scenario", help="run a scenario and the analyses it lists, end to end")
    p.add_argument("config", metavar="ref", help=config_help)
    common(p, config=False)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="integrate a scenario and write the trajectory CSV")
    common(p)
    p.set_defaults(func=_cmd_run)

    for name, (fn, integrates) in ANALYSES.items():
        p = sub.add_parser(name, help=fn.__doc__)
        common(p, out_help="ignored: analysis subcommands write no files", tol=integrates is not None)
        for flag, kwargs in _ANALYSIS_FLAGS.get(name, ()):
            p.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
        p.set_defaults(func=_cmd_analysis, tol=None)

    p = sub.add_parser("sweep", help="randomized property sweep over a parameter box")
    p.add_argument("--n", type=int, default=1000, help="number of draws (default 1000)")
    p.add_argument("--seed", type=int, default=42, help="seed of the draws (default 42)")
    p.add_argument("--out", default="runs", help="directory for sweep.csv (default: runs)")
    p.add_argument(
        "--box",
        default=None,
        help="JSON file of name: [lo, hi] overrides for the draw box "
        "(rates lam, mu1..mu3, beta, p, q log-uniform; eta, epsilon uniform)",
    )
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the tree costs milliseconds (one help formatter per argument);
    # parsing keeps no state in it, since each parse fills a new Namespace
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; the process builds its parser on the first call."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except proc.ProcessTerminatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EVENT
    except (ValueError, OSError) as exc:  # a bad config, box or --out
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
