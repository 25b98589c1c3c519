"""``tools/ci_local.py``: a workflow's run: steps, in order, on this machine."""

import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_local.py"


def _workflow(tmp_path, steps, **job):
    path = tmp_path / "workflow.yml"
    job = {"runs-on": "ubuntu-latest", **job, "steps": steps}
    doc = {"name": "fixture", "on": {"push": None}, "jobs": {"check": job}}
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return path


def _run(workflow, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), "--workflow", str(workflow), *args],
        capture_output=True, text=True, timeout=120,
    )


def _report_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("==") or ": " in line]


def test_a_failing_step_stops_the_run_with_its_code(tmp_path):
    after = tmp_path / "after"
    workflow = _workflow(tmp_path, [
        {"uses": "actions/checkout@v4"},
        {"name": "Install", "run": "exit 7"},
        # under pipefail the failed head of a pipeline fails the step, and
        # under -e the step stops there
        {"name": "Fails", "run": f"false | true\ntouch {after}.inside"},
        {"name": "After", "run": f"touch {after}"},
    ])
    done = _run(workflow)
    assert done.returncode == 1
    assert not after.exists() and not Path(f"{after}.inside").exists()
    lines = _report_lines(done.stdout)
    assert lines[:3] == ["actions/checkout@v4: skipped (uses: action)", "Install: skipped", "== Fails"]
    assert lines[3].startswith("Fails: exit 1 in ") and lines[3].endswith(" s")
    assert len(lines) == 4


def test_skip_names_a_step_and_may_be_repeated(tmp_path):
    seen = tmp_path / "seen"
    workflow = _workflow(tmp_path, [
        {"name": "Fails", "run": "exit 3"},
        {"name": "Also fails", "run": "exit 4"},
        {"name": "After", "run": f"echo after >> {seen}"},
        {"run": f"echo unnamed >> {seen}\necho second line"},
    ])
    assert _run(workflow, "--skip", "Fails").returncode == 4
    done = _run(workflow, "--skip", "Fails", "--skip", "Also fails")
    assert done.returncode == 0
    assert seen.read_text().split() == ["after", "unnamed"]
    assert f"Run echo unnamed >> {seen}: exit 0 in " in done.stdout


def test_a_step_sees_the_runner_dirs_and_the_hbvkit_shim(tmp_path):
    out = tmp_path / "out"
    workflow = _workflow(tmp_path, [
        {"name": "Probe", "run": "\n".join([
            'test -d "$RUNNER_TEMP" && test -z "$(ls -A "$RUNNER_TEMP")"',
            'test -f "$GITHUB_STEP_SUMMARY"',
            f'hbvkit --help > {out}',
            'echo "probe: $(command -v hbvkit)" >> "$GITHUB_STEP_SUMMARY"',
        ])},
    ])
    done = _run(workflow)
    assert done.returncode == 0, done.stdout + done.stderr
    assert out.read_text().startswith("usage: hbvkit")
    # the summary is printed last, and the temporary directory is gone after the run
    summary = done.stdout.splitlines()[-2:]
    assert summary[0] == "step summary:" and summary[1].startswith("probe: ")
    shim = Path(summary[1].removeprefix("probe: "))
    assert shim.name == "hbvkit" and not shim.exists()


def _running(pid):
    """True while ``pid`` is a live process: not gone and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("limits", [
    ({"timeout-minutes": 0.02}, {}, "Sleeps: timed out after 0.02 min"),
    ({}, {"timeout-minutes": 0.02}, "check: timed out after 0.02 min"),
], ids=["step", "job"])
def test_a_step_past_its_time_limit_is_killed_with_its_children(limits, tmp_path):
    step_keys, job_keys, message = limits
    pids, after = tmp_path / "pids", tmp_path / "after"
    workflow = _workflow(tmp_path, [
        # the shell and a child in the background, both in the step's group
        {"name": "Sleeps", **step_keys, "run": f"sleep 60 &\necho $$ $! > {pids}\nsleep 60"},
        {"name": "After", "run": f"touch {after}"},
    ], **job_keys)
    started = time.monotonic()
    done = _run(workflow)
    assert time.monotonic() - started < 30
    assert done.returncode == 124
    assert _report_lines(done.stdout) == ["== Sleeps", message]
    assert not after.exists()
    shell, child = map(int, pids.read_text().split())
    for _ in range(50):  # the init process reaps the killed processes
        if not (_running(shell) or _running(child)):
            break
        time.sleep(0.1)
    assert not _running(shell) and not _running(child)
