"""Run-file bytes pinned by sha256: a kernel change that moves one bit fails here.

The registry digests are read from ``bench/golden.json``, which the
benchmark checks too, and the configs block is built by the configs
workload's ``make_config``; these tests only read ``bench/``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import hbvkit as hk
import hbvkit.cli  # noqa: F401  (the configs block calls hbvkit.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))

from workloads import CONFIG_BASES, CONFIG_COMMANDS, CONFIG_MODES, RUN_FILES, make_config  # noqa: E402

# sha256 of the CSV that sweep(200, seed=42) writes; draw 11 is cut short by
# the step budget and has blank positivity_ok and bounds_ok cells.
SWEEP_200_42_SHA256 = "063442068d0ba7422c7dd857e2acae876ee1ace65888cf9522751a2e34f7de0c"
# sha256 of the CSV that sweep(1000, seed=42) writes; it holds the seven
# draws that the step budget cuts short (11, 254, 278, 670, 797, 843, 845),
# each with blank positivity_ok and bounds_ok cells.
SWEEP_1000_42_SHA256 = "03c909a92dc5caacfc25946cc121b050c2fe4f4c9a8a1832154fee125475ce34"

# sha256 over the exit code, stdout and run files of one block of configs
# (every base x command x mode, in that order) drawn from this seed.
CONFIGS_SEED = 5
CONFIGS_BLOCK_SHA256 = "099ff84158710f3be255dbc104d0833a4e97da745410bf2fefa6d3dcb11fbd9d"

# A production table whose knots are both exact binary fractions and
# inexact decimals, so steps land on knots, next to knots and between them.
TABLE = hk.PiecewiseLinearForcing(
    times=(0.0, 0.3, 1.25, 2.0, 2.7, 3.7, 5.0),
    values=(20.0, 23.5, 17.25, 21.0, 18.4, 22.1, 19.6),
)

# mode -> (step control, sha256 of the run files of a run on TABLE)
TABLE_CONTROLS = {
    "fixed": (
        hk.FixedStep(h=0.01),
        {
            "trajectory.csv": "433cdd37ccf114ba61595175f6a7441dc898812c23a895d2283abea6d8da80f0",
            "report.json": "de26d24f03ce43db7d3785ed97ce05ccbbf086c6a4f668af4628b0bb08f91867",
        },
    ),
    "adaptive": (
        hk.AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25),
        {
            "trajectory.csv": "5b7ea8bd6bd5bddfeefe27eb7c0d151b15401d7c3a1b7f95feeecb6f59e556bc",
            "report.json": "bdcd343212589cdf7d3121949fb6583d061f8d396371c56dad0c34f3d0258cfe",
        },
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_registry():
    assert sorted(_golden()) == sorted(hk.SCENARIOS)


@pytest.mark.parametrize("sid", sorted(hk.SCENARIOS))
def test_registry_run_bytes_match_golden(tmp_path, sid):
    expected = _golden()[sid]
    hk.run_scenario(sid, tmp_path)
    assert {name: _sha256(tmp_path / name) for name in expected} == expected


def test_sweep_csv_bytes(tmp_path):
    hk.sweep(200, 42, out_path=tmp_path / "sweep.csv")
    assert _sha256(tmp_path / "sweep.csv") == SWEEP_200_42_SHA256


def test_sweep_1000_csv_bytes(tmp_path):
    result = hk.sweep(1000, 42, out_path=tmp_path / "sweep.csv")
    assert _sha256(tmp_path / "sweep.csv") == SWEEP_1000_42_SHA256
    # the sweep workload's check: every count but draws and feasible is 0,
    # the seven budget-cut draws included
    assert {k: v for k, v in result.counts.items() if k not in ("draws", "feasible") and v} == {}


def test_configs_block_bytes(tmp_path):
    rng = random.Random(CONFIGS_SEED)
    digest = hashlib.sha256()
    for base in CONFIG_BASES:
        for command in CONFIG_COMMANDS:
            for mode in CONFIG_MODES:
                cid = f"{base}-{command}-{mode}"
                path = tmp_path / f"{cid}.json"
                path.write_text(json.dumps(make_config(hk, rng, cid, base, mode), indent=2), encoding="utf-8")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = hk.cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
                assert code == 0, cid
                digest.update(f"{cid} {code}\n{stdout.getvalue()}".encode())
                if command == "simulate":
                    for name in RUN_FILES:
                        digest.update((tmp_path / "out" / cid / name).read_bytes())
    assert digest.hexdigest() == CONFIGS_BLOCK_SHA256


@pytest.mark.parametrize("mode", sorted(TABLE_CONTROLS))
def test_table_forcing_run_bytes(tmp_path, persistent_params, mode):
    control, expected = TABLE_CONTROLS[mode]
    scenario = hk.Scenario(
        f"table-{mode}", persistent_params, TABLE, (1.0, 1.0, 1.0), (0.0, 5.0), control,
        ("conditions", "absorbing"),
    )
    hk.run_scenario(scenario, tmp_path)
    assert {name: _sha256(tmp_path / name) for name in expected} == expected
