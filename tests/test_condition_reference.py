"""The printed condition sets against a reference copy of their first form.

``condition_margins`` evaluates the DFE, general-equilibrium and
nonautonomous sets as one set under a bound on z. The reference below keeps
the earlier form, one branch per set with the mu2 + q sums written out, and
every set must match it bit for bit: lines, margins and the aux entries in
their order.
"""

import math
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

import hbvkit as hk
from hbvkit.model import constant_rate
from hbvkit.stability import ConditionLine, ConditionMargins, R0Variants


def _line(label, lhs, rhs):
    return ConditionLine(label, lhs, rhs, lhs - rhs, lhs - rhs > 0.0)


def reference_condition_margins(set_id, params, forcing, equilibrium=None, b1=0.0):
    mu1, mu2, mu3, q = params.mu1, params.mu2, params.mu3, params.q
    beta_eff = params.beta_eff
    prod_eff = params.prod_eff
    mu_star = min(mu1, mu2)

    if set_id == "nonauto":
        lam = forcing.lambda_max
    else:
        lam = constant_rate(forcing, f"condition set {set_id!r}")
    load = beta_eff * lam / mu_star
    aux = {"mu_star": mu_star, "lambda": lam}

    if set_id in ("equilibrium", "dfe"):
        z_bar = float(equilibrium[2]) if set_id == "equilibrium" else 0.0
        lines = (
            _line("x-damping", 2.0 * mu1 + beta_eff * z_bar, load + q),
            _line("y-damping", 2.0 * mu2 + q, beta_eff * z_bar + load + prod_eff),
            _line("z-damping", 2.0 * mu3, prod_eff + load),
        )
        nu1 = 2.0 * mu1 + beta_eff * z_bar - load - q
        nu2 = mu2 + q - beta_eff * z_bar - load - prod_eff
        nu3 = 2.0 * mu3 - prod_eff - load
        aux.update(z_bar=z_bar, nu1=nu1, nu2=nu2, nu3=nu3, k=min(nu1, nu2, nu3))
    elif set_id == "endemic":
        lines = (
            _line(
                "x-damping",
                mu1 * mu2 * mu3 + (1.0 - params.epsilon) * (1.0 - params.eta) * lam * params.beta * q,
                (1.0 - params.eta) * lam * params.beta * mu2 * mu3 / mu_star
                + q * mu2 * mu3
                + params.p * mu1 * mu3,
            ),
            _line(
                "y-damping",
                2.0 * mu2 * mu2 + mu1 * mu2 + params.p * mu1 + q,
                (1.0 - params.eta) * (1.0 - params.epsilon) * params.beta * lam * q / mu3 + load,
            ),
            _line("z-damping", 2.0 * mu3, prod_eff + load),
        )
    else:
        lines = (
            _line("x-damping", 2.0 * mu1 + beta_eff * b1, load + q),
            _line("y-damping", 2.0 * mu2 + q, beta_eff * (b1 + lam / mu_star) + prod_eff),
            _line("z-damping", 2.0 * mu3, prod_eff + load),
        )
        nu1 = 2.0 * mu1 + beta_eff * b1 - load - q
        nu2 = mu2 + q - beta_eff * b1 - load - prod_eff
        nu3 = 2.0 * mu3 - prod_eff - load
        aux.update(b1=b1, nu1=nu1, nu2=nu2, nu3=nu3, k=min(nu1, nu2, nu3))

    return ConditionMargins(set_id, lines, all(line.satisfied for line in lines), aux)


def reference_r0_all(params, forcing):
    lam = forcing.value
    beta_eff, prod_eff = params.beta_eff, params.prod_eff
    simple = beta_eff * (lam / params.mu1) / (params.mu2 + params.q)
    alt = (
        lam * params.beta * params.p * (1.0 - params.epsilon) * (1.0 - params.eta)
        / (params.mu1 * params.mu2 * (params.mu1 + prod_eff))
    )
    ngm = beta_eff * prod_eff * lam / (params.mu1 * params.mu3 * (params.mu2 + params.q))
    return R0Variants(simple, alt, ngm)


rates = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
fractions = st.floats(0.0, 0.9)
parameters = st.builds(
    hk.Parameters, mu1=rates, mu2=rates, mu3=rates, beta=rates, eta=fractions, epsilon=fractions, p=rates, q=rates
)
bounds = st.one_of(st.just(0.0), st.floats(0.0, 1e4), st.floats(-3.0, 6.0).map(lambda e: 10.0**e))


def _same(a, b):
    assert repr(asdict(a)) == repr(asdict(b))


@settings(max_examples=400, deadline=None)
@given(params=parameters, lam=rates, excess=st.floats(-3.0, 3.0), b1=bounds)
def test_condition_sets_match_the_reference_bit_for_bit(params, lam, excess, b1):
    # a free production rate, and one above the threshold at which the
    # persistent-infection state turns feasible
    threshold = params.mu1 * params.mu3 * (params.mu2 + params.q) / (params.beta_eff * params.prod_eff)
    for rate in (lam, threshold * (1.0 + 10.0**excess)):
        if not (math.isfinite(rate) and rate > 0.0):
            continue
        forcing = hk.ConstantForcing(rate)
        _same(hk.r0_all(params, forcing), reference_r0_all(params, forcing))
        for set_id in ("dfe", "endemic"):
            _same(hk.condition_margins(set_id, params, forcing),
                  reference_condition_margins(set_id, params, forcing))
        _same(hk.condition_margins("nonauto", params, forcing, b1=b1),
              reference_condition_margins("nonauto", params, forcing, b1=b1))
        states = [hk.disease_free(params, forcing).state]
        endemic = hk.endemic(params, forcing)
        if endemic.feasible:
            states.append(endemic.state)
        for state in states:
            _same(hk.condition_margins("equilibrium", params, forcing, state),
                  reference_condition_margins("equilibrium", params, forcing, state))


def test_equilibrium_set_at_a_persistent_state_matches_the_reference(persistent_params, persistent_forcing):
    endemic = hk.endemic(persistent_params, persistent_forcing)
    assert endemic.feasible and endemic.state[2] > 0.0
    _same(hk.condition_margins("equilibrium", persistent_params, persistent_forcing, endemic.state),
          reference_condition_margins("equilibrium", persistent_params, persistent_forcing, endemic.state))
