"""Run-file bytes pinned by sha256: a kernel change that moves one bit fails here.

The registry digests are read from ``bench/golden.json``, which the
benchmark checks too; this test only reads that file.
"""

import hashlib
import json
from pathlib import Path

import pytest

import hbvkit as hk

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"

# sha256 of the CSV that sweep(200, seed=42) writes.
SWEEP_200_42_SHA256 = "ca439a9b19aee995741c5f70baba26dac2e82b2748d9294804d97b95e716a775"

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


@pytest.mark.parametrize("mode", sorted(TABLE_CONTROLS))
def test_table_forcing_run_bytes(tmp_path, persistent_params, mode):
    control, expected = TABLE_CONTROLS[mode]
    scenario = hk.Scenario(
        f"table-{mode}", persistent_params, TABLE, (1.0, 1.0, 1.0), (0.0, 5.0), control,
        ("conditions", "absorbing"),
    )
    hk.run_scenario(scenario, tmp_path)
    assert {name: _sha256(tmp_path / name) for name in expected} == expected
