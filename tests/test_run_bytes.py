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
