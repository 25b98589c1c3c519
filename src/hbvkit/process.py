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
from dataclasses import dataclass

import numpy as np

from .integrate import StepControl, Trajectory, integrate
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


class ProcessTerminatedError(RuntimeError):
    """The underlying integration ended on a terminating monitor event."""


def require_complete(traj: Trajectory, what: str) -> None:
    """Raise ProcessTerminatedError, naming the final time and the sorted
    event kinds, when ``traj`` ended on a terminating monitor event; a
    verdict on the part that ran would claim more than was integrated."""
    if traj.terminated:
        kinds = ", ".join(sorted({e.kind for e in traj.events}))
        raise ProcessTerminatedError(f"{what} terminated at t={traj.final_time} ({kinds})")


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
    def attractor_point(self) -> np.ndarray:
        """Deepest-horizon endpoint of the first seed; under uniform
        contraction the attractor at t_star is this single point."""
        return np.array(self.endpoints[0][-1])


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
) -> np.ndarray:
    """Evaluate phi(t, t0, u0); the t == t0 case returns u0 unchanged.

    Raises ProcessTerminatedError when the integration ends on a
    terminating monitor event, so a partial run is never taken for phi.
    """
    if t < t0:
        raise ValueError(f"need t >= t0, got t={t}, t0={t0}")
    u0 = as_state(u0, require_nonnegative=True)
    if t == t0:
        return u0.copy()
    traj = integrate(params, forcing, u0, t0, t, ctl)
    require_complete(traj, f"integration from t0={t0} to t={t}")
    return traj.final_state


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
    # the relay state may carry sub-tolerance negative noise; clamp so the
    # nonnegativity contract of process_solve holds
    relayed = process_solve(params, forcing, np.maximum(mid, 0.0), t1, t2, ctl)
    return float(np.max(np.abs(direct - relayed)))


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

    Needs at least two strictly increasing horizons and two seeds so that
    both the Cauchy property in the horizon and the independence from the
    initial state can be observed.
    """
    horizons = tuple(float(T) for T in horizons)
    if len(horizons) < 2:
        raise ValueError("need at least two horizons to measure Cauchy gaps")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    if not horizons[0] > 0.0:
        raise ValueError(f"horizons must be positive, got {horizons[0]}")
    seed_states = [as_state(s, require_nonnegative=True) for s in seeds]
    if len(seed_states) < 2:
        raise ValueError("need at least two seeds to measure seed independence")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    endpoints = []
    for seed in seed_states:
        row = []
        for T in horizons:
            end = process_solve(params, forcing, seed, t_star - T, t_star, ctl)
            row.append(tuple(float(v) for v in end))
        endpoints.append(tuple(row))
    endpoints = tuple(endpoints)

    cauchy = []
    for j in range(len(horizons) - 1):
        gap = max(
            float(np.max(np.abs(np.array(row[j + 1]) - np.array(row[j]))))
            for row in endpoints
        )
        cauchy.append(gap)
    cross = max(
        float(np.max(np.abs(np.array(a[-1]) - np.array(b[-1]))))
        for a, b in itertools.combinations(endpoints, 2)
    )
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


def absorbing_check(
    params: Parameters,
    forcing: Forcing,
    traj: Trajectory,
    slack: float | None = None,
) -> AbsorbingSetReport:
    """Check the l1 absorbing ball on a computed trajectory.

    Applicable only when mu2 > (1-epsilon)*p, which makes the total
    population x+y+z decay toward lambda_max/alpha. ``params`` and
    ``forcing`` must be those ``traj`` was integrated with; alpha and the
    ceiling are read from ``traj.bounds``.
    """
    if traj.params != params or traj.forcing != forcing:
        raise ValueError("trajectory comes from different parameters or forcing")
    alpha, ceiling = traj.bounds.l1_alpha, traj.bounds.l1_ceiling
    if alpha is None:
        raise ValueError(
            f"absorbing bound needs mu2 > (1-epsilon)*p, got {params.mu2} <= {params.prod_eff}"
        )
    if slack is None:
        slack = 1e-6 * ceiling
    elif not slack > 0.0:
        raise ValueError("slack must be positive")

    l1 = np.sum(traj.states, axis=1)
    cap = max(float(l1[0]), ceiling)
    holds = bool(np.all(l1 <= cap + slack))

    inside = l1 <= ceiling + slack
    entry_time = None
    if inside[-1]:
        # last index after which the trajectory never leaves the ball
        outside = np.nonzero(~inside)[0]
        first = 0 if len(outside) == 0 else int(outside[-1]) + 1
        entry_time = float(traj.times[first])
    return AbsorbingSetReport(
        alpha=alpha, ceiling=ceiling, entry_time=entry_time, holds=holds, slack=float(slack)
    )
