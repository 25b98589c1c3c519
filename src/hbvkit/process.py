"""Two-parameter process view of the model and pullback diagnostics.

The solution operator phi(t, t0, u0) satisfies the initial property
phi(t0, t0, u0) = u0 and the evolution property
phi(t2, t0, u0) = phi(t2, t1, phi(t1, t0, u0)); both are checked here
numerically. Pullback behaviour is probed by integrating from ever
earlier start times to a fixed observation time and watching the
endpoints become Cauchy, and the l1 absorbing ball is verified directly
on computed trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .integrate import ProcessTerminatedError, StepControl, Trajectory, integrate, require_complete
from .model import Forcing, Parameters, as_state

__all__ = [
    "PullbackEstimate",
    "AbsorbingSetReport",
    "ProcessTerminatedError",
    "require_complete",
    "process_solve",
    "semigroup_check",
    "pullback_estimate",
    "absorbing_check",
]


@dataclass(frozen=True)
class PullbackEstimate:
    """Endpoints phi(t_star, t_star - T, seed) over a ladder of horizons T.

    ``endpoints[i][j]`` is the endpoint for seed i and horizon j.
    ``cauchy_gaps[j]`` is the largest (over seeds) max-norm gap between the
    endpoints at horizons j and j+1; ``cross_seed_gap`` compares different
    seeds at the largest horizon. Convergence requires both the last
    Cauchy gap and the cross-seed gap to fall below the tolerance.
    """

    t_star: float
    horizons: tuple[float, ...]
    endpoints: tuple[tuple[tuple[float, float, float], ...], ...]
    cauchy_gaps: tuple[float, ...]
    cross_seed_gap: float
    converged: bool
    tol: float

    @property
    def attractor_point(self) -> tuple[float, float, float]:
        """Deepest-horizon endpoint of the first seed; under uniform
        contraction the attractor at t_star is this single point."""
        return self.endpoints[0][-1]


@dataclass(frozen=True)
class AbsorbingSetReport:
    """l1-ball absorption diagnostics for one trajectory.

    alpha = min(mu1, mu2 - (1-epsilon)*p, mu3) and ceiling = lambda_max /
    alpha. ``holds`` records whether |u|_1 stayed below
    max(|u0|_1, ceiling) + slack throughout; ``entry_time`` is the first
    sample time after which the trajectory stays inside the ceiling+slack
    ball (None if it never settles there).
    """

    alpha: float
    ceiling: float
    entry_time: float | None
    holds: bool
    slack: float


def process_solve(
    params: Parameters,
    forcing: Forcing,
    u0,
    t0: float,
    t: float,
    ctl: StepControl,
) -> tuple[float, float, float]:
    """Evaluate phi(t, t0, u0) as three floats; at t == t0 they are u0's, unchanged.

    Raises ProcessTerminatedError when the integration ends on a
    terminating monitor event, so a partial run is never taken for phi, and
    ValueError for t < t0 (``model.run_stops``), before any step.
    """
    u0 = as_state(u0, require_nonnegative=True)
    if t == t0:
        return u0
    traj = integrate(params, forcing, u0, t0, t, ctl)
    require_complete(traj, f"integration from t0={t0} to t={t}")
    return traj.state_list[-1]


def semigroup_check(
    params: Parameters,
    forcing: Forcing,
    u0,
    times: tuple[float, float, float],
    ctl: StepControl,
) -> float:
    """Max-norm gap between the one-hop and two-hop solution operators."""
    t0, t1, t2 = times
    if not (t0 <= t1 <= t2):
        raise ValueError(f"times must be ordered t0 <= t1 <= t2, got {times}")
    direct = process_solve(params, forcing, u0, t0, t2, ctl)
    mid = process_solve(params, forcing, u0, t0, t1, ctl)
    # the relay state may carry sub-tolerance negative noise; clamp it for the
    # nonnegativity contract of process_solve (0.0 first: -0.0 reads +0.0)
    relayed = process_solve(params, forcing, [max(0.0, v) for v in mid], t1, t2, ctl)
    return _gap(direct, relayed)


def _gap(u, v) -> float:
    """Max-norm distance between two endpoints given as float tuples."""
    return max(abs(a - b) for a, b in zip(u, v))


def pullback_estimate(
    params: Parameters,
    forcing: Forcing,
    t_star: float,
    horizons,
    seeds,
    tol: float,
    ctl: StepControl,
) -> PullbackEstimate:
    """Estimate the pullback limit at t_star from a horizon ladder.

    Needs at least two horizons T and two distinct seeds so that both the
    Cauchy property in the horizon and the independence from the initial
    state can be observed. Each start time t_star - T must round strictly
    below the one before, t_star first, so the horizons are positive and
    strictly increasing and none rounds away. ``tol`` must be finite and
    positive: an infinite tol would report any ladder as converged.
    """
    if not math.isfinite(t_star):
        raise ValueError(f"t_star must be finite, got {t_star}")
    horizons = tuple(float(T) for T in horizons)
    if not all(map(math.isfinite, horizons)):
        raise ValueError(f"horizons must be finite, got {horizons}")
    if len(horizons) < 2:
        raise ValueError("need at least two horizons to measure Cauchy gaps")
    starts = [t_star - T for T in horizons]
    if any(b >= a for a, b in zip([t_star, *starts], starts)):
        raise ValueError(f"horizons must be positive and strictly increasing, each start time t_star - T "
                         f"strictly below the last; at t_star={t_star} horizons {horizons} give {tuple(starts)}")
    seed_states = [as_state(s, require_nonnegative=True) for s in seeds]
    if len(seed_states) < 2:
        raise ValueError("need at least two seeds to measure seed independence")
    if len(set(seed_states)) < len(seed_states):
        raise ValueError("seeds must be pairwise distinct to measure seed independence")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")

    endpoints = tuple(
        tuple(process_solve(params, forcing, seed, t0, t_star, ctl) for t0 in starts)
        for seed in seed_states
    )
    cauchy = [max(_gap(row[j + 1], row[j]) for row in endpoints) for j in range(len(horizons) - 1)]
    cross = max(_gap(a[-1], b[-1]) for a, b in itertools.combinations(endpoints, 2))
    converged = cauchy[-1] <= tol and cross <= tol
    return PullbackEstimate(
        t_star=t_star,
        horizons=horizons,
        endpoints=endpoints,
        cauchy_gaps=tuple(cauchy),
        cross_seed_gap=cross,
        converged=converged,
        tol=tol,
    )


def absorbing_check(traj: Trajectory, slack: float | None = None) -> AbsorbingSetReport:
    """Check the l1 absorbing ball on a computed trajectory.

    Applicable only when mu2 > (1-epsilon)*p, which makes the total
    population x+y+z decay toward lambda_max/alpha. The rates, alpha and
    the ceiling are those of the run (``traj.params``, ``traj.bounds``).
    ``slack`` must be finite and positive (default 1e-6 * ceiling): an
    infinite slack holds for any trajectory.
    """
    alpha, ceiling = traj.bounds.l1_alpha, traj.bounds.l1_ceiling
    if alpha is None:
        raise ValueError(
            f"absorbing bound needs mu2 > (1-epsilon)*p, got {traj.params.mu2} <= {traj.params.prod_eff}"
        )
    if slack is None:
        slack = 1e-6 * ceiling
    elif not (math.isfinite(slack) and slack > 0.0):
        raise ValueError(f"slack must be finite and positive, got {slack}")

    # x + y + z is the order np.sum(states, axis=1) adds a row in
    l1 = [x + y + z for x, y, z in traj.state_list]
    ball = ceiling + slack
    # the points outside the ball, NaN included: the cap is at least the
    # ball, so only these can pass it
    outside = [i for i, v in enumerate(l1) if not v <= ball]
    cap = max(l1[0], ceiling) + slack
    holds = all(l1[i] <= cap for i in outside)
    # the first point after the last one outside, if the run ends inside
    first = outside[-1] + 1 if outside else 0
    entry_time = float(traj.time_list[first]) if first < len(l1) else None
    return AbsorbingSetReport(
        alpha=alpha, ceiling=ceiling, entry_time=entry_time, holds=holds, slack=float(slack)
    )
