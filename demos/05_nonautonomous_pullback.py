"""Time-varying production: process laws, pullback limit, absorbing ball.

With L(t) = cos(2t + pi/3) + 10 the system has no equilibria, so the
right notions are the two-parameter solution operator phi(t, t0, u0),
the pullback limit (start ever earlier, observe at a fixed time) and the
l1 absorbing ball of radius lambda_max / alpha.
"""

import numpy as np

import hbvkit as hk

s = hk.SCENARIOS["set1-nonauto"]
u0 = (1.0, 1.0, 1.0)

# process laws: identity at t = t0, and composition over a midpoint
echo = hk.process_solve(s.params, s.forcing, u0, 2.0, 2.0, s.control)
print("phi(t0, t0, u0) == u0:", bool(np.array_equal(echo, np.array(u0))))
gap = hk.semigroup_check(s.params, s.forcing, u0, (0.0, 1.0, 2.0), s.control)
print(f"evolution-property gap over (0, 1, 2): {gap:.3e}")

# pullback: integrate from t_star - T for a ladder of horizons T; the
# endpoints become Cauchy and seed-independent, pinning a single point
est = hk.pullback_estimate(
    s.params, s.forcing, 0.0, (5.0, 10.0, 20.0, 40.0),
    [(1.0, 1.0, 1.0), (4.0, 1.0, 2.0)], 1e-6, s.control,
)
print("\npullback ladder at t* = 0:")
for T, gap in zip(est.horizons[1:], est.cauchy_gaps):
    print(f"  horizon {T:5.1f}: gap to previous endpoint {gap:.3e}")
print(f"cross-seed gap {est.cross_seed_gap:.3e}, converged: {est.converged}")
print("pullback point:", est.attractor_point)

# the l1 ball: x+y+z decays toward lambda_max / alpha and never leaves
traj = hk.integrate(s.params, s.forcing, u0, 0.0, 5.0, s.control)
rep = hk.absorbing_check(traj)
l1 = traj.states.sum(axis=1)
print(f"\nabsorbing ball: alpha = {rep.alpha}, radius = {rep.ceiling}")
print(f"l1 along the run: start {l1[0]:.3f}, max {l1.max():.3f}, end {l1[-1]:.3f}")
print(f"entered for good at t = {rep.entry_time}, bound held throughout: {rep.holds}")
