"""The run kernels that ``hbvkit.integrate`` generates from its templates.

``tests/test_dp5_kernel.py`` checks the kernels' floats against a generic
tableau loop; these tests check the generated text itself: that it is the
source Python reports for each kernel, that each DP5 line carries the
nonzero terms of its tableau row in order, that an inlined stage is the field text ``make_rhs``
compiles, that a stage sets the production rate ``lam`` unless the stage
before ran at the same time, and that a traceback through a stage points at
its line.
"""

import inspect
import linecache
import re
import sys
import traceback

import pytest

import hbvkit as hk
from hbvkit.integrate import _DP_A, _DP_C, _DP_E, _QUIET, _kernel, _Recorder
from hbvkit.model import _rhs_factory, analytic_bounds, field_lines, field_setup, make_rhs, rate_lines
from hbvkit.scenarios import FORCING_KINDS

_TERM = re.compile(r"(-?[0-9][0-9.e+-]*) \* k(\d)([xyz])")
STAGES = ("call", *FORCING_KINDS)
# the forcing kinds whose production rate reads the time
VARYING = ("sinusoid", "piecewise_linear")
KERNELS = [(mode, stages) for mode in ("fixed", "adaptive") for stages in STAGES]
# RK4 stage i, its time and state, and the line it follows
RK4_STAGES = (
    (1, "t", ("x", "y", "z"), 'return rec.stop("step_floor", t, "h", h)'),
    (2, "t + h2", ("x2", "y2", "z2"), "x2, y2, z2 = x + h2 * k1x, y + h2 * k1y, z + h2 * k1z"),
    (3, "t + h2", ("x3", "y3", "z3"), "x3, y3, z3 = x + h2 * k2x, y + h2 * k2y, z + h2 * k2z"),
    (4, "t + step", ("x4", "y4", "z4"), "x4, y4, z4 = x + step * k3x, y + step * k3y, z + step * k3z"),
)


def _rk4_rate(stages, i):
    """The lines before RK4 stage i's field under a rate that varies in time,
    and the stage's time: stage 2 sets lam and stage 3 reads it; stage 4 sets
    it at t4, which stage 1 of the next step reads unless t differs from t4."""
    return {
        1: (["if t != t4:", *rate_lines(stages, "t")], "t"),
        2: (rate_lines(stages, "t + h2"), "t + h2"),
        3: ([], "t + h2"),
        4: (["t4 = t + step", *rate_lines(stages, "t4")], "t4"),
    }[i]


def _lines(kernel):
    return [s.strip() for s in inspect.getsource(kernel).splitlines()]


def _line(lines, prefix):
    (line,) = [s for s in lines if s.startswith(prefix)]
    return line


def _terms(line):
    return [(float(a), int(j), u) for a, j, u in _TERM.findall(line)]


def _stage(stages, i, t, u, rate=True):
    """The lines a kernel writes for stage i at time t and state u: a call, or
    the lines that set lam at t, unless ``rate`` is false, then the field."""
    out = f"k{i}x, k{i}y, k{i}z = "
    if stages == "call":
        return [f"{out}rhs({t}, {', '.join(u)})"]
    return [*(rate_lines(stages, t) if rate else []), *field_lines(*u, out)]


def _assert_stage_follows(lines, before, stage):
    start = lines.index(before) + 1
    assert lines[start:start + len(stage)] == stage


def test_getsource_returns_the_generated_text():
    for mode, stages in KERNELS:
        kernel = _kernel(mode, stages)
        filename = kernel.__code__.co_filename
        assert filename == f"<hbvkit.integrate._{'rk4' if mode == 'fixed' else 'dp5'}_{stages}>"
        linecache.checkcache()  # an entry with mtime None is kept, not checked against a file
        source = "".join(linecache.getlines(filename))
        assert inspect.getsource(kernel) == source
        assert source.startswith(f"def {kernel.__name__}(rhs, field, u0, t0, stops, ctl, rec, budget):\n")
        assert _kernel(mode, stages) is kernel  # compiled once per process
        assert f"        if {_QUIET}:\n" in source  # the one written quiet test
    # the tableau is written once, in _DP_A/_DP_C/_DP_E: no scalar copies remain
    assert not any(re.fullmatch(r"_[ACE]\d+", name) for name in vars(sys.modules["hbvkit.integrate"]))


@pytest.mark.parametrize("u", "xyz")
def test_each_sum_is_its_tableau_row_in_order(u):
    for stages in STAGES:
        lines = _lines(_kernel("adaptive", stages))
        k1 = _stage(stages, 1, "t", ("x", "y", "z"))
        end = lines.index("h = ctl.h_init")
        assert lines[end - len(k1):end] == k1
        for i, (row, c) in enumerate(zip(_DP_A[1:], _DP_C[1:]), 2):
            line = _line(lines, f"{u}{i} = {u} + h * (")
            assert _terms(line) == [(a, j, u) for j, a in enumerate(row, 1) if a]
            # the stage follows its last component's sum; stage 7 shares
            # stage 6's time t + 1.0 * h, so it reads the lam stage 6 set
            stage = _stage(stages, i, f"t + {c!r} * h", (f"x{i}", f"y{i}", f"z{i}"), rate=i != 7)
            _assert_stage_follows(lines, _line(lines, f"z{i} = z + h * ("), stage)
        assert _DP_C[5] == _DP_C[6] and len(set(_DP_C)) == 6
        line = _line(lines, f"r{u} = h * (")
        assert _terms(line) == [(e, j, u) for j, e in enumerate(_DP_E, 1) if e]
        assert line.endswith(f"/ (atol + rtol * (b{u} if b{u} > a{u} else a{u}))")
    # b2 = 0 in the 5th-order row and e2 = 0 in the error row are left out
    assert _DP_A[6][1] == _DP_E[1] == 0.0
    assert "k2" not in _line(lines, f"{u}7 = {u} + h * (") and "k2" not in line


def test_no_dp5_line_multiplies_by_zero():
    # any line: stage sums, error sums, stage fields and rate lines
    zero_product = re.compile(r"(?<![\w.])0\.0 \*")
    for stages in STAGES:
        source = inspect.getsource(_kernel("adaptive", stages))
        assert [line for line in source.splitlines() if zero_product.search(line)] == []


@pytest.mark.parametrize("stages", STAGES)
def test_rk4_stages_keep_their_update(stages):
    lines = _lines(_kernel("fixed", stages))
    for i, t, u, before in RK4_STAGES:
        if stages in VARYING:
            rate, t = _rk4_rate(stages, i)
            _assert_stage_follows(lines, before, rate + _stage(stages, i, t, u, rate=False))
        else:  # stage 3 reads stage 2's lam; a constant rate writes no rate lines
            _assert_stage_follows(lines, before, _stage(stages, i, t, u, rate=i != 3))
    if stages in VARYING:  # no rate is taken before the first step
        _assert_stage_follows(lines, "n_whole -= 1", ["t4 = nan  # the time of the rate in lam: none yet"])
    for u in "xyz":
        assert f"{u} + s * (k1{u} + 2.0 * (k2{u} + k3{u}) + k4{u})," in lines
    assert "t_next = t0 + (steps + 1) * h" in lines


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
@pytest.mark.parametrize("stages", STAGES)
def test_only_a_rate_that_varies_in_time_is_shared(mode, stages):
    """A calling kernel binds no rate local, and every field kernel binds lam.
    Only a rate that varies in time is shared from step to step, through
    RK4's t4; a constant rate sets lam once, before the loop."""
    kernel = _kernel(mode, stages)
    names = set(kernel.__code__.co_varnames)
    if stages == "call":
        assert names & {"lam", "t4"} == set()
    elif stages in VARYING:
        assert names & {"lam", "t4"} == ({"lam", "t4"} if mode == "fixed" else {"lam"})
    else:
        assert names & {"lam", "t4"} == {"lam"}
        lines = _lines(kernel)
        (i,) = [i for i, line in enumerate(lines) if line.startswith("lam =")]
        assert [lines[i]] == list(field_setup(stages)) and i < lines.index("while t < t_stop:")


@pytest.mark.parametrize("kind", FORCING_KINDS)
def test_inlined_stages_are_the_field_make_rhs_compiles(kind):
    """A closure runs the setup lines, sets lam at t, then runs the field
    lines that the kernels write into their stages."""
    closure = linecache.getlines(_rhs_factory(kind).__code__.co_filename)
    body = [*field_setup(kind), *rate_lines(kind, "t"), *field_lines("x", "y", "z", "return ")]
    assert closure[2:-1] == [f"        {line}\n" for line in body]


def _frames(info, filename):
    return [f for f in traceback.extract_tb(info.value.__traceback__) if f.filename == filename]


def test_traceback_points_at_the_generated_stage(persistent_params):
    forcing = hk.ConstantForcing(20.0)
    base = make_rhs(persistent_params, forcing)
    for mode, ctl, line in (
        ("adaptive", hk.AdaptiveStep(h_init=0.01), "k4x, k4y, k4z = rhs(t + 0.8 * h, x4, y4, z4)"),
        ("fixed", hk.FixedStep(h=0.01), "k4x, k4y, k4z = rhs(t + step, x4, y4, z4)"),
    ):
        calls = 0

        def rhs(t, x, y, z):
            nonlocal calls
            calls += 1
            if calls == 4:  # k1, k2, k3, then k4
                raise RuntimeError("stage rhs failed")
            return base(t, x, y, z)

        rec = _Recorder(ctl, analytic_bounds(persistent_params, forcing, (1.0, 1.0, 1.0)))
        with pytest.raises(RuntimeError) as info:
            _kernel(mode, "call")(rhs, None, (1.0, 1.0, 1.0), 0.0, (1.0,), ctl, rec, 100)
        (frame,) = _frames(info, _kernel(mode, "call").__code__.co_filename)
        assert frame.name == _kernel(mode, "call").__name__
        assert frame.line == line
        assert line in "".join(traceback.format_exception(info.value))


def test_traceback_points_at_the_inlined_stage(persistent_params):
    # omega * t overflows first at k4's time, t + 0.8 * h = 1.8, and cos(inf)
    # raises: the traceback shows the rate line written into stage 4
    forcing = hk.SinusoidForcing(amplitude=1.0, omega=1e308, phase=0.0, offset=20.0)
    ctl = hk.AdaptiveStep(h_init=1.0, h_max=1.0)
    rec = _Recorder(ctl, analytic_bounds(persistent_params, forcing, (1.0, 1.0, 1.0)))
    rhs = make_rhs(persistent_params, forcing)
    with pytest.raises(ValueError, match="math domain error") as info:
        _kernel("adaptive", "sinusoid")(rhs, rhs.field[1], (1.0, 1.0, 1.0), 1.0, (3.0,), ctl, rec, 100)
    (frame,) = _frames(info, _kernel("adaptive", "sinusoid").__code__.co_filename)
    assert frame.line == _stage("sinusoid", 4, "t + 0.8 * h", ("x4", "y4", "z4"))[0]
    assert frame.line == "lam = offset + amplitude * cos(omega * (t + 0.8 * h) + phase)"
