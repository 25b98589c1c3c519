"""hbvkit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {sweep,registry,configs} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; hbvkit is imported from its
``src/`` directory. With ``--trace 0`` the run measures the end-to-end
metrics of ``BENCHMARK.json`` with no tracing. With ``--trace 1`` it makes
a counting pass, then runs each operation once untraced and once under the
layer spans, and reports the per-layer metrics. Durations measured in this
process are in seconds of the reference host of ``calibrate.py``, with the
raw figures printed beside the end-to-end ones; fresh-interpreter timings
are raw. Human-readable lines come first; the last line of
stdout is the JSON result. Exit code 1 means an output check failed, 2 that
the checkout has no hbvkit source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing as tr
from calibrate import REFERENCE_S, HostClock
from stats import failed_frac, percentile, tail_percentile
from workloads import WORKLOADS, CheckError, make_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_OUT = ROOT / ".bench-out"

SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
# The traced pass stops early past this many times --seconds, so a much
# slower program still ends the run in time.
TRACE_CAP_FACTOR = 3.0


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _fresh_import(extra_flags=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra_flags, "-c", "import hbvkit"],
        env=_python_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )


# Fresh-interpreter timings are reported raw: the kernel in this process
# does not track a child's start-up, and scaling by it widened the spread
# of setup_s over ten repeats from 0.09 to 0.47.


def time_fresh_import() -> float:
    """Wall time of a fresh interpreter importing hbvkit."""
    started = perf_counter()
    _fresh_import()
    return perf_counter() - started


def measure_import_split() -> dict[str, float]:
    """Median cumulative import time of numpy and of hbvkit from ``-X importtime``."""
    found: dict[str, list[float]] = {"numpy": [], "hbvkit": []}
    for _ in range(IMPORTTIME_REPEATS):
        for line in _fresh_import(("-X", "importtime")).stderr.splitlines():
            if line.startswith("import time:"):
                _, cumulative, name = line.split("|")
                if name.strip() in found:
                    found[name.strip()].append(int(cumulative) * 1e-6)
    return {name: statistics.median(values) for name, values in found.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, seconds: float, clock: HostClock):
    _fresh_import()  # warm-up: fills the bytecode cache
    wl.run(0)  # warm-up: first-call costs inside numpy and the caches
    # The fresh imports are spread over the timed phase, between operations,
    # so their median samples many states of a drifting host.
    setup = [time_fresh_import()]
    setup_every = seconds / SETUP_REPEATS
    ops, failed = [], 0
    clock.sample()
    started_phase = perf_counter()
    deadline = started_phase + seconds
    i = 0
    while perf_counter() < deadline:
        started, finished, bad, _ = wl.run(i)
        ops.append((started, finished))
        failed += bad
        i += 1
        if finished >= started_phase + len(setup) * setup_every:
            setup.append(time_fresh_import())
        clock.maybe_sample()
    clock.sample()

    ref = clock.reference()
    n = len(ops)
    p_tail = tail_percentile(n, 90.0)
    metrics = {}

    def put(name, values, how, reduce):
        # values: (raw, reference-host) pairs
        raw = reduce([v[0] for v in values])
        metrics[name] = (reduce([v[1] for v in values]), f"{how}; raw {raw:.6g}")

    metrics["setup_s"] = (statistics.median(setup), f"median of {len(setup)} fresh interpreters, raw")
    lat = [(e - s, ref.duration(s, e)) for s, e in ops]
    put("ops_per_s", lat, f"{n} operations", lambda v: len(v) / sum(v))
    lat_ms = [(a * 1e3, b * 1e3) for a, b in lat]
    put("latency_ms_p50", lat_ms, f"n={n}", lambda v: percentile(v, 50.0))
    put("latency_ms_p90", lat_ms, f"n={n}, p{p_tail:g}", lambda v: percentile(v, p_tail))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "ru_maxrss of the workload process")
    notes = [f"failed_frac = {failed_frac(failed, n):.6g} ({failed} failed of {n} attempted)", *wl.notes(n)]
    return metrics, n, failed, notes, ref


def counting_pass(wl):
    """Fixed work under spans and an rhs counter, so its counts repeat
    exactly for a seed."""
    tracer = tr.hbvkit_tracer()
    rhs = tr.RhsCounter()
    tracer.install()
    rhs.install()
    written = 0
    try:
        for i in range(wl.count_ops):
            tracer.op = i
            written += wl.run(i, tracer)[3]
    finally:
        rhs.uninstall()
        tracer.uninstall()
    return tracer.spans, rhs.calls, written


def paired_pass(wl, seconds: float, clock: HostClock, notes: list):
    """Each operation untraced and traced, alternating which goes first, so
    host drift falls on both sides alike. Returns the tracer and the
    untraced and traced (start, end) intervals and the traced failures."""
    n_ops = math.ceil(wl.trace_rate * seconds / wl.cycle) * wl.cycle
    tracer = tr.hbvkit_tracer()
    untraced, traced, failed = [], [], 0
    cap = perf_counter() + TRACE_CAP_FACTOR * seconds
    wl.run(0)  # warm-up, as in the untraced run
    clock.sample()
    for i in range(n_ops):
        if perf_counter() > cap:
            notes.append(f"traced pass stopped at {i} of {n_ops} operations (time cap)")
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
                try:
                    started, finished, bad, _ = wl.run(i, tracer)
                finally:
                    tracer.uninstall()
                traced.append((started, finished))
                failed += bad
            else:
                untraced.append(wl.run(i)[:2])
        clock.maybe_sample()
    clock.sample()
    return tracer, untraced, traced, failed


def _timed_loops(clock: HostClock, fn, calls: int, repeats: int = 7) -> list[tuple[float, float]]:
    """(start, end) of ``repeats`` timed loops of ``calls`` calls of ``fn``."""
    intervals = []
    for _ in range(repeats):
        clock.sample()
        started = perf_counter()
        for _ in range(calls):
            fn()
        intervals.append((started, perf_counter()))
    clock.sample()
    return intervals


def microbenchmarks(hk, work: Path, clock: HostClock) -> dict[str, tuple[list, int]]:
    """Timed loops of single layer calls: name -> (intervals, calls per interval)."""
    sc = hk.SCENARIOS
    out = {}
    ts = [20.0 * k / 999 for k in range(1000)]
    doc = make_config(hk, random.Random(0), "micro", "set2-auto-boundcheck", "adaptive")
    table = hk.PiecewiseLinearForcing(tuple(doc["forcing"]["times"]), tuple(doc["forcing"]["values"]))
    for key, params, forcing in (
        ("constant", sc["table2-dfe"].params, sc["table2-dfe"].forcing),
        ("sinusoid", sc["set1-nonauto"].params, sc["set1-nonauto"].forcing),
        ("piecewise_linear", sc["set2-auto-boundcheck"].params, table),
    ):
        rhs = hk.model.make_rhs(params, forcing)

        def over_span(rhs=rhs):
            for t in ts:
                rhs(t, 1.0, 1.0, 1.0)

        out[f"rhs.{key}"] = (_timed_loops(clock, over_span, 10), 10 * len(ts))
    s = sc["set2-auto-boundcheck"]
    out["endemic"] = (_timed_loops(clock, lambda: hk.equilibria.endemic(s.params, s.forcing), 200), 200)
    jac = hk.model.jacobian(s.params, hk.equilibria.disease_free(s.params, s.forcing).state)
    out["eigenvalues"] = (_timed_loops(clock, lambda: hk.stability.eigenvalues_3x3(jac), 500), 500)
    path = work / "micro-config.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    out["load_config"] = (_timed_loops(clock, lambda: hk.load_config(path), 300), 300)
    return out


def traced_run(wl, hk, seconds: float, seed: int, clock: HostClock):
    notes = []
    count_spans, rhs_calls, written = counting_pass(wl)
    totals = tr.integrate_totals(count_spans)
    count_names = tr.span_counts(count_spans)

    tracer, untraced, traced, failed = paired_pass(wl, seconds, clock, notes)
    done = len(traced)
    produced = tr.span_counts(tracer.spans)
    missing = [name for name in wl.required_spans if not produced.get(name)]
    if missing:
        raise CheckError(f"traced run produced no spans for {', '.join(missing)}")
    micro = microbenchmarks(hk, wl.work, clock)
    imports = measure_import_split()

    TRACE_OUT.mkdir(exist_ok=True)
    spans_path = TRACE_OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    notes.append(f"spans (raw perf_counter times) written to {spans_path.relative_to(ROOT)}")

    ref = clock.reference()
    spans = [[name, ref(s), ref(e), parent, op, attrs] for name, s, e, parent, op, attrs in tracer.spans]
    kids = tr.children_of(spans)
    labels = [wl.label(i) for i in range(done)]

    def span_ms(name, p=50.0, label=None):
        ds = [r[tr.END] - r[tr.START] for r in spans
              if r[tr.NAME] == name and (label is None or labels[r[tr.OP]] == label)]
        if not ds:
            return None, 0, p
        used = tail_percentile(len(ds), p)
        return percentile(ds, used) * 1e3, len(ds), used

    def micro_us(key):
        intervals, calls = micro[key]
        return statistics.median(ref.duration(s, e) / calls for s, e in intervals) * 1e6

    traced_pass = f"traced pass of {done} operations"
    counted = f"counting pass of {wl.count_ops} operations"
    steps = totals["steps"]
    m: dict[str, tuple] = {}
    for kind in ("constant", "sinusoid", "piecewise_linear"):
        m[f"model.rhs_us.{kind}"] = (micro_us(f"rhs.{kind}"), "microbenchmark")
    m["model.rhs_calls"] = (rhs_calls / wl.count_ops, f"{rhs_calls} calls, {counted}")
    m["integrate.calls"] = (totals["calls"], counted)
    m["integrate.busy_s"] = (tr.layer_busy(spans, "integrate"), traced_pass)
    m["integrate.accepted_steps"] = (steps, counted)
    for mode in ("adaptive", "fixed"):
        value = tr.step_us(spans, mode)
        m[f"integrate.step_us.{mode}"] = (value, traced_pass if value is not None else f"n/a: no {mode} integrations")
    m["integrate.rhs_per_step"] = (rhs_calls / steps if steps else None,
                                   f"{rhs_calls} rhs calls / {steps} accepted steps")
    for p in (50.0, 99.0):
        value, n, used = span_ms("integrate.integrate", p)
        m[f"integrate.call_ms_p{p:g}"] = (value, f"n={n}, p{used:g}")
    m["integrate.truncated"] = (totals["truncated"], f"of {totals['calls']} calls, {counted}")
    m["equilibria.busy_s"] = (tr.layer_busy(spans, "equilibria"), traced_pass)
    m["equilibria.endemic_us"] = (micro_us("endemic"), "microbenchmark")
    m["stability.busy_s"] = (tr.layer_busy(spans, "stability"), traced_pass)
    m["stability.eigenvalues_us"] = (micro_us("eigenvalues"), "microbenchmark")
    value, n, _ = span_ms("stability.contraction_fit")
    m["stability.contraction_fit_ms"] = (value, f"n={n}" if n else "n/a: no contraction_fit calls")
    if any(tr.layer_of(name) == "process" for name in count_names):
        m["process.busy_s"] = (tr.layer_busy(spans, "process"), traced_pass)
        m["process.self_s"] = (tr.layer_self(spans, "process", kids), "process spans minus their children")
        m["process.integrate_calls"] = (totals["under_process"], counted)
    else:
        for key in ("process.busy_s", "process.self_s", "process.integrate_calls"):
            m[key] = (None, "n/a: workload makes no process calls")
    for sid in hk.SCENARIOS:
        value, n, _ = span_ms("scenarios.run_scenario", label=sid)
        m[f"scenarios.run_scenario_ms.{sid}"] = (value, f"n={n}" if n else "n/a: registry id not run")
    m["scenarios.self_s"] = (tr.layer_self(spans, "scenarios", kids), "scenarios spans minus their children")
    m["scenarios.bytes_written"] = (written, counted)
    m["scenarios.load_config_us"] = (micro_us("load_config"), "microbenchmark")
    value, n, _ = span_ms("cli.main")
    if n:
        m["cli.main_ms_p50"] = (value, f"n={n}")
        m["cli.self_s"] = (tr.layer_self(spans, "cli", kids), "cli.main minus its children")
    else:
        for key in ("cli.main_ms_p50", "cli.self_s"):
            m[key] = (None, "n/a: workload does not go through the CLI")
    m["import.numpy_s"] = (imports["numpy"], f"median of {IMPORTTIME_REPEATS}, -X importtime, raw")
    m["import.hbvkit_s"] = (imports["hbvkit"], f"median of {IMPORTTIME_REPEATS}, -X importtime, raw")
    untraced_s = sum(ref.duration(s, e) for s, e in untraced)
    traced_s = sum(ref.duration(s, e) for s, e in traced)
    m["trace_overhead_frac"] = (traced_s / untraced_s - 1.0,
                                f"traced {traced_s:.3f} s against untraced {untraced_s:.3f} s")
    notes.append(f"failed_frac = {failed_frac(failed, done):.6g} ({failed} failed of {done} attempted)")
    notes += wl.notes(done)
    return m, done, failed, notes, ref


def _import_hbvkit():
    if not (SRC / "hbvkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hbvkit
    import hbvkit.cli

    if Path(hbvkit.__file__).resolve().parent != SRC / "hbvkit":
        raise ImportError(f"hbvkit imported from {hbvkit.__file__}, not from {SRC}")
    return hbvkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    hk = _import_hbvkit()
    if hk is None:
        print(f"error: no hbvkit source at {SRC / 'hbvkit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        try:
            wl = WORKLOADS[args.workload](hk, args.seed, Path(work))
            clock = HostClock()
            if args.trace:
                result = traced_run(wl, hk, args.seconds, args.seed, clock)
            else:
                result = untraced_run(wl, args.seconds, clock)
        except CheckError as exc:
            print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
            return 1
    measured, attempted, failed, notes, ref = result

    names = [entry["name"] for entry in wanted]
    if sorted(names) != sorted(measured):
        raise RuntimeError(f"measured {sorted(measured)} but BENCHMARK.json lists {sorted(names)}")
    print(f"# {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    metrics = {}
    for entry in wanted:
        value, how = measured[entry["name"]]
        value = 0 if value is None else value
        print(f"{entry['name']} = {value:.6g} {entry['unit']} ({how})")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(f"host calibration: kernel median {ref.kernel_s * 1e6:.1f} us over {len(clock.times)} samples; "
          f"durations are on a host where it takes {REFERENCE_S * 1e6:.0f} us")
    for note in notes:
        print(note)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
