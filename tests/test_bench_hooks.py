"""The benchmark's tracer still finds every name it patches in ``src/``.

``bench/tracing.py`` replaces ``integrate`` as ``scenarios``, ``process``
and ``cli`` import it, every function in ``process.__all__`` and the other
traced layers, and ``integrate.make_rhs``; its integrate spans read
``traj.control.mode``. A rename there breaks the traced benchmark without
failing any other test, so one cycle of each workload runs here under the
tracer and the rhs counter.
"""

import sys
from pathlib import Path

import pytest

import hbvkit as hk
import hbvkit.cli  # noqa: F401  (the configs workload calls hbvkit.cli.main)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_cycle_under_tracer(tmp_path, name):
    wl = WORKLOADS[name](hk, 5, tmp_path)
    tracer = tr.hbvkit_tracer()
    rhs = tr.RhsCounter()
    tracer.install()
    rhs.install()
    try:
        failed = []
        for i in range(wl.cycle):
            tracer.op = i
            if wl.run(i, tracer)[2]:
                failed.append(i)
    finally:
        rhs.uninstall()
        tracer.uninstall()
    produced = tr.span_counts(tracer.spans)
    assert [span for span in wl.required_spans if not produced.get(span)] == []
    assert failed == []
    assert rhs.calls > 0
    modes = {rec[tr.ATTRS]["mode"] for rec in tracer.spans if rec[tr.NAME] == "integrate.integrate"}
    assert modes <= {"fixed", "adaptive"} and modes
