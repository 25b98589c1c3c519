"""Run the steps of a GitHub Actions workflow on this machine, in order.

Usage: python tools/ci_local.py [--workflow PATH] [--skip NAME]...

The workflow (default ``.github/workflows/tier1.yml``) is read with
``yaml.safe_load``. The ``run:`` block of each step of each job runs in
order under ``bash -eo pipefail``, from the root of the checkout. Each step
sees ``RUNNER_TEMP`` (an empty directory) and ``GITHUB_STEP_SUMMARY`` (an
empty file), both in a fresh temporary directory that is removed after the
run. An ``hbvkit`` shim, ``python -m hbvkit`` with ``src/`` on
``PYTHONPATH``, comes first on ``PATH``, with ``python`` and ``python3``
naming the interpreter that runs this script.

Each step prints its name, exit code and seconds. Each step runs in its own
process group. A step's ``timeout-minutes`` limits that step, and a job's
limits the job's steps together: when a limit passes, the step's whole
process group is killed, ``<step or job name>: timed out after N min`` is
printed and the run exits 124, as ``timeout(1)`` does. The run stops at the
first step that fails or times out and exits with its code; it exits 0 when
every step passes. What the steps wrote to ``GITHUB_STEP_SUMMARY`` is
printed last.

Limits:

* ``uses:`` steps are actions and are skipped; each is listed as skipped.
  The interpreter that runs this script stands in for ``setup-python``.
* The ``Install`` step is always skipped: ``src/`` on ``PYTHONPATH`` and the
  shim stand in for the editable install. ``--skip NAME`` skips one more
  step by its name and may be repeated.
* A step's ``env``, ``shell`` and ``working-directory`` keys are not read,
  nor a job's keys other than ``steps``, its ``name`` and ``timeout-minutes``.

PyYAML is a test dependency of hbvkit, not a runtime one.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
ALWAYS_SKIPPED = frozenset({"Install"})
TIMED_OUT = 124


def _runner_env(tmp: Path) -> dict[str, str]:
    """The environment of each step, with the runner's files under ``tmp``."""
    runner_temp = tmp / "runner-temp"
    runner_temp.mkdir()
    summary = tmp / "step-summary.md"
    summary.touch()
    bin_dir = tmp / "bin"
    bin_dir.mkdir()
    for name in ("python", "python3"):
        (bin_dir / name).symlink_to(sys.executable)
    shim = bin_dir / "hbvkit"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m hbvkit "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, (str(bin_dir), env.get("PATH"))))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env["RUNNER_TEMP"] = str(runner_temp)
    env["GITHUB_STEP_SUMMARY"] = str(summary)
    return env


def _deadline(owner: dict, name: str, start: float) -> tuple[float, str, float]:
    """(the time its limit passes, its name, the limit in minutes) of a job or
    step that starts at ``start``; an unset ``timeout-minutes`` never passes."""
    minutes = owner.get("timeout-minutes", math.inf)
    return start + 60.0 * minutes, name, minutes


def _run_steps(workflow: dict, skip: frozenset[str], env: dict[str, str]) -> int:
    for job_id, job in workflow["jobs"].items():
        job_limit = _deadline(job, job.get("name", job_id), time.monotonic())
        for step in job["steps"]:
            if "run" not in step:
                print(f"{step['uses']}: skipped (uses: action)", flush=True)
                continue
            name = step.get("name") or f"Run {step['run'].splitlines()[0]}"
            if name in skip:
                print(f"{name}: skipped", flush=True)
                continue
            print(f"== {name}", flush=True)
            started = time.perf_counter()
            deadline, who, minutes = min(job_limit, _deadline(step, name, time.monotonic()))
            # its own session, so a kill reaches every process the step started
            proc = subprocess.Popen(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]],
                cwd=ROOT, env=env, start_new_session=True,
            )
            try:
                proc.wait(None if deadline == math.inf else max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                print(f"{who}: timed out after {minutes:g} min", flush=True)
                return TIMED_OUT
            # a step killed by a signal exits as bash reports it: 128 + the signal number
            code = proc.returncode if proc.returncode >= 0 else 128 - proc.returncode
            print(f"{name}: exit {code} in {time.perf_counter() - started:.1f} s", flush=True)
            if code:
                return code
    return 0


def run_workflow(path: Path, skip: frozenset[str]) -> int:
    """Run each ``run:`` step of ``path`` in order, then print the step
    summary the steps wrote; the first non-zero exit code, or 0."""
    with open(path, encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        env = _runner_env(Path(tmp))
        code = _run_steps(workflow, skip, env)
        summary = Path(env["GITHUB_STEP_SUMMARY"]).read_text(encoding="utf-8")
    if summary:
        print(f"step summary:\n{summary}", end="" if summary.endswith("\n") else "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a GitHub Actions workflow's run: steps locally.")
    parser.add_argument("--workflow", type=Path, default=WORKFLOW, help="workflow file (default: the tier-1 workflow)")
    parser.add_argument("--skip", action="append", default=[], metavar="NAME",
                        help="skip the step of this name; may be repeated (Install is always skipped)")
    args = parser.parse_args(argv)
    return run_workflow(args.workflow, ALWAYS_SKIPPED | set(args.skip))


if __name__ == "__main__":
    sys.exit(main())
