"""Integration with runtime monitors.

Every accepted step is checked for positivity, the analytic ceilings,
blow-up and non-finite values. Violations become data on the trajectory
instead of exceptions, so a diverging run can be inspected afterwards.
"""

import numpy as np

import hbvkit as hk

scenario = hk.SCENARIOS["table2-dfe"]
params, forcing = scenario.params, scenario.forcing

# adaptive run: the infection clears and the state lands on (L/mu1, 0, 0)
traj = hk.integrate(params, forcing, (1.0, 1.0, 1.0), 0.0, 15.0, scenario.control)
print(f"adaptive run: {len(traj.times)} accepted steps, events: {list(traj.events)}")
print("final state:", traj.final_state)

# dense output samples between accepted steps via cubic Hermite
for t in (0.5, 1.0, 2.0):
    print(f"  u({t}) =", traj.sample(t))

# a fixed step of 1.0 puts h*lambda far outside the RK4 stability region;
# the true solution is bounded but the numerical one explodes, and the
# blow-up monitor records exactly that
bad = hk.integrate(params, forcing, (1.0, 1.0, 1.0), 0.0, 15.0, hk.FixedStep(h=1.0))
print("\noversized fixed step:")
for event in bad.events:
    print("  ", event.detail)
print(f"  terminated early at t = {bad.final_time}")

# observed convergence order of the fixed-step method (RK4 -> about 4)
order = hk.richardson_order(params, forcing, (1.0, 1.0, 1.0), 0.0, 2.0, 0.05)
print(f"\nRichardson order estimate: {order:.3f}")

# trajectories serialize as plain CSV
traj.to_csv("/tmp/hbv_trajectory.csv")
print("\nwrote /tmp/hbv_trajectory.csv with columns t,x,y,z")
