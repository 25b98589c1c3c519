"""The ``make_rhs`` closures against a fixed copy of an earlier closure text.

``ORACLE`` is the text ``make_rhs`` compiled when each forcing kind wrote its
production rate inline into dx. The closures compiled from today's field text
must give the same floats, bit for bit, and raise the same errors: for any
state part, negative, infinite and NaN included, and at any time, table knots
and times off a table included.
"""

import math
from inspect import signature

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.model import _knot_index, compile_function, make_rhs

ORACLE = {
    "constant": """\
def constant_rhs(mu1, mu3, q, beta_eff, prod_eff, loss_y, value):
    def rhs(t, x, y, z):
        infect = beta_eff * x * z
        return value - mu1 * x - infect + q * y, infect - loss_y * y, prod_eff * y - mu3 * z
    return rhs
""",
    "sinusoid": """\
def sinusoid_rhs(mu1, mu3, q, beta_eff, prod_eff, loss_y, offset, amplitude, omega, phase):
    def rhs(t, x, y, z):
        infect = beta_eff * x * z
        return offset + amplitude * cos(omega * t + phase) - mu1 * x - infect + q * y, infect - loss_y * y, prod_eff * y - mu3 * z
    return rhs
""",
    "piecewise_linear": """\
def piecewise_linear_rhs(mu1, mu3, q, beta_eff, prod_eff, loss_y, times, segments):
    def rhs(t, x, y, z):
        x0, x1, y0, slope = segments[0]
        ts = t
        if not (x0 <= ts < x1): x0, x1, y0, slope = segments[_knot_index(ts, times)]
        infect = beta_eff * x * z
        return (y0 if ts == x0 else slope * (ts - x0) + y0) - mu1 * x - infect + q * y, infect - loss_y * y, prod_eff * y - mu3 * z
    return rhs
""",
}
FACTORIES = {
    kind: compile_function(source, f"<oracle {kind}_rhs>", {"cos": math.cos, "_knot_index": _knot_index})
    for kind, source in ORACLE.items()
}

_rate = st.floats(1e-3, 1e3)
_params = st.builds(
    hk.Parameters, mu1=_rate, mu2=_rate, mu3=_rate, beta=_rate,
    eta=st.floats(0.0, 0.99), epsilon=st.floats(0.0, 0.99), p=_rate, q=_rate,
)


@st.composite
def _sinusoids(draw):
    amplitude = draw(st.floats(-1e3, 1e3))
    return hk.SinusoidForcing(
        amplitude=amplitude, omega=draw(st.floats(-1e3, 1e3)), phase=draw(st.floats(-10.0, 10.0)),
        offset=abs(amplitude) + draw(_rate),
    )


@st.composite
def _tables(draw):
    times = sorted(set(draw(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8))))
    assume(len(times) >= 2)
    values = draw(st.lists(_rate, min_size=len(times), max_size=len(times)))
    return hk.PiecewiseLinearForcing(tuple(times), tuple(values))


_forcing = st.one_of(st.builds(hk.ConstantForcing, _rate), _sinusoids(), _tables())
# any float: negative, +-0, +-inf and NaN included
_part = st.floats()


def _outcome(rhs, t, x, y, z):
    """The hex of each derivative, or the type and text of what the call raised."""
    try:
        return tuple(map(float.hex, rhs(t, x, y, z)))
    except (ValueError, hk.OutOfDomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(params=_params, forcing=_forcing, x=_part, y=_part, z=_part, data=st.data())
@example(
    params=hk.Parameters(mu1=1.0, mu2=1.0, mu3=1.0, beta=1.0, eta=0.0, epsilon=0.0, p=1.0, q=1.0),
    forcing=hk.PiecewiseLinearForcing((0.0, 0.3, 1.0), (2.0, 5.0, 3.0)),
    x=-math.inf, y=math.nan, z=-0.0, data=None,
)
def test_each_closure_gives_the_oracle_floats(params, forcing, x, y, z, data):
    times = getattr(forcing, "times", (-100.0, 100.0))
    if data is None:  # the explicit example: its knots, and one ulp off the table
        ts = (*times, math.nextafter(times[0], -math.inf), math.nextafter(times[-1], math.inf))
    else:  # a knot, a time on the table's range or any float, NaN included
        ts = (data.draw(st.one_of(st.sampled_from(times), st.floats(times[0], times[-1]), st.floats())),)
    factory = FACTORIES[forcing.kind]
    values = [getattr(forcing if hasattr(forcing, n) else params, n) for n in signature(factory).parameters]
    oracle, rhs = factory(*values), make_rhs(params, forcing)
    for t in ts:
        assert _outcome(rhs, t, x, y, z) == _outcome(oracle, t, x, y, z), t
