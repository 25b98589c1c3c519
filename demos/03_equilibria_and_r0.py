"""Equilibria with residual certification and the reproduction numbers.

The persistent-infection state comes from steady-state elimination; when
feasible, ``endemic`` polishes it with a few damped Newton steps of its
own (there is no public solver to call). The max-norm residual of the
vector field is reported as the certificate. Feasibility of that state is equivalent to the
next-generation reproduction number exceeding one, which the sweep below
spot-checks on random parameters.
"""

import math

import numpy as np

import hbvkit as hk

for sid in ("table2-dfe", "table3-dfe-check", "set2-auto-boundcheck"):
    s = hk.SCENARIOS[sid]
    dfe = hk.disease_free(s.params, s.forcing)
    end = hk.endemic(s.params, s.forcing)
    r0 = hk.r0_all(s.params, s.forcing)
    print(f"{sid}:")
    print(f"  infection-free state {np.round(dfe.state, 6)}  residual {dfe.residual_norm:.2e}")
    print(
        f"  persistent state     {np.round(end.state, 6)}  residual {end.residual_norm:.2e}"
        f"  feasible: {end.feasible}"
    )
    # the alternative closed form is kept only as a diagnostic; its residual
    # shows it does not solve the steady-state equations here
    print(f"  alternative closed form residual: {end.alt_residual:.3e}")
    print(f"  r0 variants: simple {r0.simple:.4e}  alt {r0.alt:.4e}  ngm {r0.ngm:.4e}")
    print()

# feasibility <=> r0_ngm > 1, checked on random draws
rng = np.random.default_rng(7)
lo, hi = math.log(1e-2), math.log(1e2)
agree = total = 0
for _ in range(300):
    lam, mu1, mu2, mu3, beta, p, q = np.exp(rng.uniform(lo, hi, 7))
    eta, eps = rng.uniform(0.0, 0.9, 2)
    params = hk.Parameters(mu1=mu1, mu2=mu2, mu3=mu3, beta=beta, eta=eta, epsilon=eps, p=p, q=q)
    forcing = hk.ConstantForcing(lam)
    r0 = hk.r0_all(params, forcing).ngm
    if abs(r0 - 1.0) < 1e-6:
        continue
    total += 1
    agree += hk.endemic(params, forcing).feasible == (r0 > 1.0)
print(f"feasibility matched the r0_ngm threshold on {agree}/{total} random draws")
