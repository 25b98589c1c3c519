"""``tools/ci_local.py``: a workflow's run: steps, in order, on this machine."""

import subprocess
import sys
from pathlib import Path

import yaml

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_local.py"


def _workflow(tmp_path, steps):
    path = tmp_path / "workflow.yml"
    doc = {"name": "fixture", "on": {"push": None}, "jobs": {"check": {"runs-on": "ubuntu-latest", "steps": steps}}}
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
