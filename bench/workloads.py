"""The three benchmark workloads: inputs from the seed, one operation per call.

Each workload is a closed loop driven by ``run.py``: one caller, one
process, and operation ``i + 1`` starts when operation ``i`` has returned.
``run(i, tracer)`` performs operation ``i`` and returns
``(started, finished, failed, bytes_written)``, where the two
``perf_counter`` readings bracket only the call into hbvkit; the
correctness checks around it run untimed and raise ``CheckError`` when an
output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RUN_FILES = ("trajectory.csv", "report.json", "plot.gp")

# A sweep draw integrates over [0, SWEEP_SPAN] on a step budget.
SWEEP_SPAN = 2.0


class CheckError(Exception):
    """An output of the program is wrong; the run must not report a result."""


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


class _Workload:
    name = ""
    reported_failures = 5

    def __init__(self, hk, work: Path):
        self._hk = hk
        self.work = work
        self._failures = 0

    def notes(self, attempted: int) -> list[str]:
        """Lines about the first ``attempted`` operations, printed with the result."""
        return []

    def _report_failure(self, i: int, detail: str) -> None:
        """Print the first few failures of a run to stderr; the count is in the result."""
        if self._failures < self.reported_failures:
            print(f"{self.name}: operation {i} failed: {detail}", file=sys.stderr)
        self._failures += 1


def digest_run_dir(path: Path) -> dict[str, str]:
    return {name: hashlib.sha256((path / name).read_bytes()).hexdigest() for name in RUN_FILES}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Sweep(_Workload):
    """One draw per operation: ``hbvkit.sweep(1, draw_seed)`` over the
    default box, each draw with its own seed so it can be timed alone.

    Each draw writes a new CSV, removed after the call: truncating the
    previous draw's file would wait on its writeback and time the disk.

    A draw that stops short of ``SWEEP_SPAN`` on the step budget is how
    ``sweep`` bounds a stiff draw, and ``t_reached`` reports it: the call
    succeeded, so it is counted apart from failures, as ``short_frac``."""

    name = "sweep"
    trace_rate, cycle = 40, 1
    count_ops = 200
    required_spans = (
        "scenarios.sweep",
        "integrate.integrate",
        "equilibria.disease_free",
        "equilibria.endemic",
        "stability.r0_all",
        "stability.eigenvalues_3x3",
        "stability.routh_hurwitz_stable",
    )

    def __init__(self, hk, seed: int, work: Path):
        super().__init__(hk, work)
        self._rng = random.Random(seed)
        self._seeds: list[int] = []
        self.short: set[int] = set()

    def draw_seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(63))
        return self._seeds[i]

    def label(self, i: int) -> str:
        return "draw"

    def run(self, i: int, tracer=None):
        seed = self.draw_seed(i)
        csv = self.work / f"sweep{i}.csv"
        started = perf_counter()
        result = _call(tracer, "scenarios.sweep", self._hk.sweep, 1, seed, out_path=csv)
        finished = perf_counter()
        written = csv.stat().st_size
        csv.unlink()
        counts = result.counts
        violations = {k: v for k, v in counts.items() if k not in ("draws", "feasible") and v}
        if counts["draws"] != 1 or violations:
            raise CheckError(f"sweep draw with seed {seed}: {counts}")
        # A draw that terminated on blow_up or nonfinite trips a violation
        # counter above; one that ran out of steps or terminated on
        # step_floor stops short of the span.
        if result.rows[0]["t_reached"] < SWEEP_SPAN:
            self.short.add(i)
        return started, finished, False, written

    def notes(self, attempted: int) -> list[str]:
        short = sum(1 for i in self.short if i < attempted)
        return [f"short_frac = {short / attempted:.6g} ({short} of {attempted} draws stopped short "
                f"of t={SWEEP_SPAN:g} on the step budget; not failures)"]


class Registry(_Workload):
    """``run_scenario`` on the five registry ids in registry order, repeated,
    each run into a fresh directory whose bytes must match the golden digests.
    The registry has no random inputs, so the seed does not change them."""

    name = "registry"
    trace_rate, cycle = 5, 5
    count_ops = 5
    required_spans = (
        "scenarios.run_scenario",
        "integrate.integrate",
        "equilibria.disease_free",
        "equilibria.endemic",
        "stability.stability_report",
        "stability.condition_margins",
        "stability.lyapunov_fit",
        "stability.contraction_fit",
        "process.pullback_estimate",
        "process.absorbing_check",
    )

    def __init__(self, hk, seed: int, work: Path):
        super().__init__(hk, work)
        self.ids = list(hk.SCENARIOS)
        self.golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if sorted(self.golden) != sorted(self.ids):
            raise CheckError(f"golden digests cover {sorted(self.golden)}, registry has {sorted(self.ids)}")

    def label(self, i: int) -> str:
        return self.ids[i % len(self.ids)]

    def run(self, i: int, tracer=None):
        sid = self.label(i)
        out = self.work / f"run{i}"
        started = perf_counter()
        try:
            report = _call(tracer, "scenarios.run_scenario", self._hk.run_scenario, sid, out)
        except Exception:
            finished = perf_counter()
            self._report_failure(i, traceback.format_exc())
            shutil.rmtree(out, ignore_errors=True)
            return started, finished, True, 0
        finished = perf_counter()
        digests = digest_run_dir(out)
        for name, digest in digests.items():
            if digest != self.golden[sid][name]:
                raise CheckError(f"registry {sid}: {name} differs from its golden bytes")
        written = tree_bytes(out)
        shutil.rmtree(out)
        if report.terminated:
            self._report_failure(i, f"{sid} trajectory terminated")
        return started, finished, report.terminated, written


# {{{ configs


CONFIG_BASES = ("table2-dfe", "table3-dfe-check", "set2-auto-boundcheck")
CONFIG_COMMANDS = ("simulate", "conditions", "absorbing")
CONFIG_MODES = ("adaptive", "fixed")
# Eight blocks, so tail percentiles rest on many configs rather than the
# costliest one or two of a single block.
CONFIG_BLOCKS = 8
CONFIG_T_END = 20.0
CONFIG_FIXED_H = 0.01
RATE_JITTER = 0.15  # rates scaled by exp(U(-j, j))
FRACTION_JITTER = 0.05  # eta, epsilon shifted by U(-j, j)
LEVEL_JITTER = 0.3  # knot values scaled by exp(U(-j, j)) around the base level


def _absorbing_applies(params: dict) -> bool:
    return params["mu2"] > (1.0 - params["epsilon"]) * params["p"]


def make_config(hk, rng: random.Random, cid: str, base: str, mode: str) -> dict:
    """A config perturbing a registry rate set, with a piecewise-linear
    production table whose knots run from 0 to ``CONFIG_T_END``."""
    scenario = hk.SCENARIOS[base]
    base_params = hk.scenarios.scenario_to_dict(scenario)["params"]
    while True:
        params = {}
        for name, value in base_params.items():
            if name in ("eta", "epsilon"):
                params[name] = min(0.95, max(0.0, value + rng.uniform(-FRACTION_JITTER, FRACTION_JITTER)))
            else:
                params[name] = value * math.exp(rng.uniform(-RATE_JITTER, RATE_JITTER))
        if _absorbing_applies(params):
            break
    n_knots = rng.randint(6, 16)
    spacing = CONFIG_T_END / (n_knots - 1)
    times = [0.0]
    for k in range(1, n_knots - 1):
        times.append(k * spacing + rng.uniform(-0.3, 0.3) * spacing)
    times.append(CONFIG_T_END)
    level = scenario.forcing.lambda_max
    values = [level * math.exp(rng.uniform(-LEVEL_JITTER, LEVEL_JITTER)) for _ in times]
    if mode == "fixed":
        control = {"mode": "fixed", "h": CONFIG_FIXED_H}
    else:
        control = {"mode": "adaptive", "abs_tol": 1e-10, "rel_tol": 1e-10, "h_init": 1e-3, "h_max": 0.25}
    return {
        "id": cid,
        "params": params,
        "forcing": {"kind": "piecewise_linear", "times": times, "values": values},
        "u0": [1.0, 1.0, 1.0],
        "t_span": [0.0, CONFIG_T_END],
        "control": control,
        "analyses": [],
    }


@dataclass
class _Config:
    id: str
    command: str
    doc: dict
    path: Path
    first_output: tuple | None = None


class Configs(_Workload):
    """Seed-generated configs through the in-process CLI ``hbvkit.cli.main``.

    Each block of ``cycle`` configs has every base rate set under every
    subcommand and both control modes, in a seeded order, so every block has
    the same mix whatever the seed: a third each of ``simulate``,
    ``conditions`` and ``absorbing``, half of them fixed-step RK4. The
    operations cycle through ``CONFIG_BLOCKS`` blocks.
    """

    name = "configs"
    cycle = len(CONFIG_BASES) * len(CONFIG_COMMANDS) * len(CONFIG_MODES)
    trace_rate = 8
    count_ops = cycle
    required_spans = (
        "cli.main",
        "scenarios.load_config",
        "scenarios.run_scenario",
        "integrate.integrate",
        "stability.condition_margins",
        "process.absorbing_check",
    )

    def __init__(self, hk, seed: int, work: Path):
        super().__init__(hk, work)
        rng = random.Random(seed)
        combos = []
        for _ in range(CONFIG_BLOCKS):
            block = [(b, c, m) for b in CONFIG_BASES for c in CONFIG_COMMANDS for m in CONFIG_MODES]
            rng.shuffle(block)
            combos += block
        cfg_dir = work / "configs"
        cfg_dir.mkdir()
        self.configs = []
        for j, (base, command, mode) in enumerate(combos):
            cid = f"cfg{j:03d}-{command}-{mode}"
            doc = make_config(hk, rng, cid, base, mode)
            path = cfg_dir / f"{cid}.json"
            path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            self._check_round_trip(doc, path)
            self.configs.append(_Config(cid, command, doc, path))

    def _check_round_trip(self, doc: dict, path: Path) -> None:
        sc = self._hk.scenarios
        loaded = self._hk.load_config(path)
        again = sc.scenario_from_dict(json.loads(json.dumps(sc.scenario_to_dict(loaded))))
        if again != loaded or sc.scenario_to_dict(loaded)["params"] != doc["params"]:
            raise CheckError(f"config {path.name} does not round-trip through load_config")
        if tuple(loaded.forcing.times) != tuple(doc["forcing"]["times"]):
            raise CheckError(f"config {path.name}: knot times changed on load")

    def label(self, i: int) -> str:
        return self.configs[i % len(self.configs)].command

    def run(self, i: int, tracer=None):
        cfg = self.configs[i % len(self.configs)]
        out = self.work / f"out{i}"
        argv = [cfg.command, "--config", str(cfg.path), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        started = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = _call(tracer, "cli.main", self._hk.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = traceback.format_exc()
        finished = perf_counter()
        if code != 0:
            self._report_failure(i, f"{' '.join(argv)} -> {code}: {stderr.getvalue().strip()}")
            shutil.rmtree(out, ignore_errors=True)
            return started, finished, True, 0
        output = (stdout.getvalue(), self._check(cfg, stdout.getvalue(), out))
        written = tree_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        if cfg.first_output is None:
            cfg.first_output = output
        elif output != cfg.first_output:
            raise CheckError(f"{cfg.id}: output differs from the first run of the same config")
        return started, finished, False, written

    def _check(self, cfg: _Config, stdout: str, out: Path):
        """Checks the invocation's output; returns the digests of its run files."""
        t_end = cfg.doc["t_span"][1]
        if cfg.command == "simulate":
            run_dir = out / cfg.id
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
            traj = report["trajectory"]
            rows = (run_dir / "trajectory.csv").read_text(encoding="utf-8").count("\n") - 1
            if traj["terminated"] or abs(traj["final_time"] - t_end) > 1e-9 * t_end:
                raise CheckError(f"{cfg.id}: simulate stopped at t={traj['final_time']} of {t_end}")
            if rows != traj["n_points"]:
                raise CheckError(f"{cfg.id}: {rows} CSV rows for {traj['n_points']} points")
            return digest_run_dir(run_dir)
        doc = json.loads(stdout)
        if cfg.command == "conditions":
            if [m["condition_set"] for m in doc] != ["nonauto"]:
                raise CheckError(f"{cfg.id}: conditions evaluated {doc!r}")
        else:
            p = cfg.doc["params"]
            alpha = min(p["mu1"], p["mu2"] - (1.0 - p["epsilon"]) * p["p"], p["mu3"])
            ceiling = max(cfg.doc["forcing"]["values"]) / alpha
            if doc["alpha"] != alpha or not math.isclose(doc["ceiling"], ceiling, rel_tol=1e-12):
                raise CheckError(f"{cfg.id}: absorbing alpha/ceiling {doc['alpha']}/{doc['ceiling']}")
            if not doc["holds"]:
                raise CheckError(f"{cfg.id}: l1 absorbing ball violated")
        return None


# }}}


WORKLOADS = {cls.name: cls for cls in (Sweep, Registry, Configs)}
