"""The Dormand-Prince step that ``hbvkit.integrate`` generates from its tableau.

``tests/test_dp5_kernel.py`` checks the step's floats against a generic
tableau loop; these tests check the generated text itself: that it is the
source Python reports for the step, that each line carries its tableau row
in order, and that a traceback through the step points at a stage line.
"""

import inspect
import linecache
import re
import sys
import traceback

import pytest

import hbvkit as hk
from hbvkit.integrate import _DP_A, _DP_C, _DP_E, _dp5_source, _dp5_step
from hbvkit.model import make_rhs

FILENAME = "<hbvkit.integrate._dp5_step>"
_TERM = re.compile(r"(-?[0-9][0-9.e+-]*) \* k(\d)([xyz])")


def _line(source, prefix):
    (line,) = [s.strip() for s in source.splitlines() if s.strip().startswith(prefix)]
    return line


def _terms(line):
    return [(float(a), int(j), u) for a, j, u in _TERM.findall(line)]


def test_getsource_returns_the_generated_text():
    source = _dp5_source()
    assert _dp5_step.__code__.co_filename == FILENAME
    linecache.checkcache()  # an entry with mtime None is kept, not checked against a file
    assert inspect.getsource(_dp5_step) == source
    assert source.startswith("def _dp5_step(rhs, t, h, x, y, z, k1, atol, rtol):\n")
    # the tableau is written once, in _DP_A/_DP_C/_DP_E: no scalar copies remain
    assert not any(re.fullmatch(r"_[ACE]\d+", name) for name in vars(sys.modules["hbvkit.integrate"]))


@pytest.mark.parametrize("u", "xyz")
def test_each_sum_is_its_tableau_row_in_order(u):
    source = inspect.getsource(_dp5_step)
    for i, (row, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), 2):
        line = _line(source, f"{u}{i} = {u} + h * (")
        assert _terms(line) == [(a, j, u) for j, a in enumerate(row, 1)]
        assert f"k{i} = rhs(t + {c!r} * h, x{i}, y{i}, z{i})" in source
    line = _line(source, f"r{u} = h * (")
    assert _terms(line) == [(e, j, u) for j, e in enumerate(_DP_E, 1)]
    assert line.endswith(f"/ (atol + rtol * (b{u} if b{u} > a{u} else a{u}))")


def test_traceback_points_at_the_generated_stage(persistent_params):
    base = make_rhs(persistent_params, hk.ConstantForcing(20.0))
    calls = 0

    def rhs(t, x, y, z):
        nonlocal calls
        calls += 1
        if calls == 3:  # k2, k3, then k4
            raise RuntimeError("stage rhs failed")
        return base(t, x, y, z)

    k1 = base(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(RuntimeError) as info:
        _dp5_step(rhs, 0.0, 0.01, 1.0, 1.0, 1.0, k1, 1e-10, 1e-8)
    frames = [f for f in traceback.extract_tb(info.value.__traceback__) if f.filename == FILENAME]
    assert len(frames) == 1
    assert frames[0].name == "_dp5_step"
    assert frames[0].line == "k4 = rhs(t + 0.8 * h, x4, y4, z4)"
    assert "k4 = rhs(t + 0.8 * h, x4, y4, z4)" in "".join(traceback.format_exception(info.value))
