"""The block writer of ``trajectory.csv`` against the per-row writer it replaced.

Run files are compared byte for byte, so the block formatting must give
exactly the text of one ``{:.17g}`` f-string per row, on every float.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk


def _reference_csv(times, states) -> str:
    out = ["t,x,y,z\n"]
    for t, (x, y, z) in zip(times.tolist(), states.tolist()):
        out.append(f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}\n")
    return "".join(out)


def _assert_writes_reference(traj, directory) -> str:
    path = directory / "trajectory.csv"
    traj.to_csv(path)
    text = path.read_text(encoding="utf-8")
    expected = _reference_csv(traj.times, traj.states)
    if text != expected:
        # name the first differing line; a full diff of two long texts is slow
        got, want = text.splitlines(), expected.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {i}: got {got[i:i + 1]}, want {want[i:i + 1]}; {len(got)} vs {len(want)} lines")
    return text


@pytest.fixture(scope="module")
def base_traj():
    s = hk.SCENARIOS["table2-dfe"]
    return hk.integrate(s.params, s.forcing, s.u0, 0.0, 1.0, s.control)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


_SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
)
_pools = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=16)


# row counts on both sides of the block size
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
@settings(max_examples=25, deadline=None)
@given(pool=_pools, seed=st.integers(0, 2**32 - 1), nonfinite_end=st.booleans())
def test_block_writer_matches_per_row_writer(base_traj, out_dir, rows, pool, seed, nonfinite_end):
    table = np.random.default_rng(seed).choice(np.array(pool), size=(rows, 4))
    if nonfinite_end:
        table[-1, 1:] = (math.nan, math.inf, -math.inf)
    traj = dataclasses.replace(
        base_traj, time_list=table[:, 0].tolist(), state_list=[tuple(u) for u in table[:, 1:].tolist()]
    )
    _assert_writes_reference(traj, out_dir)


def test_nonfinite_run_matches_per_row_writer(tmp_path):
    s = hk.SCENARIOS["table2-dfe"]
    traj = hk.integrate(
        s.params, s.forcing, s.u0, 0.0, 15.0, hk.FixedStep(h=1.0, blow_up_threshold=1e300)
    )
    assert traj.events[-1].kind == "nonfinite"
    assert _assert_writes_reference(traj, tmp_path).endswith("nan,nan,nan\n")
