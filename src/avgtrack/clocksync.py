"""Finite-time synchronization of the agents' local clocks through the
signed square-root coupling, run as a pre-phase before tracking.

The coupling sign matters: with the attracting convention (the default)
clock offsets contract to zero in finite time; the literal-plus convention
is retained as an option purely to demonstrate that offsets then grow.
The square-root term is not Lipschitz at zero, so a dead band treats
offsets below 1e-12 as already synchronized.

clock_law is the one form of the law. The sync pre-phase steps the
attracting convention by a linearly implicit Euler step with each edge's
weight frozen at the start of the step (the consistent discretization of
finite-time stable systems of Polyakov, Efimov & Brogliato, 2019), which
cannot overshoot, so the spread never grows and stepping stops at the first
step below tol. The literal convention, which has no such step, is stepped
through matkernel.rk4 to its horizon. The simulation engine's clock rows
scatter clock_law's per-edge term, edge_coupling, through the engine's
edge operators, which gives clock_law bit for bit, and the engine calls
clock_law itself where it steps everything but the direction term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Topology
from .matkernel import rk4, solve

ATTRACTING = "attracting"
PAPER_LITERAL = "paper_literal"

DEAD_BAND = 1e-12

DEFAULT_TOL = 1e-9
DEFAULT_STEP = 1e-4


def coupling_sign(convention: str) -> float:
    """sigma of clock_law: -1 attracting, +1 literal, ValueError otherwise."""
    if convention not in (ATTRACTING, PAPER_LITERAL):
        raise ValueError(f"unknown convention {convention!r}")
    return -1.0 if convention == ATTRACTING else 1.0


def clock_spread(clocks) -> np.ndarray | float:
    """max_i t_i - min_i t_i over the last axis: per sample of a trajectory,
    or a float for one clock vector."""
    if clocks.ndim == 1:
        # the stop test of every sync step: Python's max and min of a short
        # list cost less than two numpy reductions, and both are exact
        values = clocks.tolist()
        return max(values) - min(values)
    # not np.ptp, whose subtract holds both reductions and a third array; the
    # operator reuses the temporary max in place
    return clocks.max(axis=-1) - clocks.min(axis=-1)


@dataclass(frozen=True)
class ClockState:
    """Local clock readings plus the coupling sign convention."""

    times: np.ndarray
    convention: str = ATTRACTING

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        if not np.all(np.isfinite(times)):
            raise ValueError("clock times must be finite")
        coupling_sign(self.convention)
        object.__setattr__(self, "times", times)

    @property
    def spread(self) -> float:
        return float(clock_spread(self.times))


def edge_coupling(diff: np.ndarray) -> np.ndarray:
    """sign(d) sqrt(|d|) of clock differences d = t_i - t_j, zero inside the
    dead band, as a new array."""
    out = np.abs(diff)
    dead = out < DEAD_BAND
    np.sqrt(out, out=out)
    np.copysign(out, diff, out=out)
    out[dead] = 0.0
    return out


def clock_law(t: float, clocks: np.ndarray, sigma: float, sources, targets) -> np.ndarray:
    """dt_i/dt = 1 + sigma * sum_{j in N_i} edge_coupling(t_i - t_j), summed
    with bincount over the arcs i -> j of Topology.arcs(), sigma being +1 or
    -1 (coupling_sign). The law is autonomous: t is there so that rk4 steps
    it as it is, as the engine and the literal convention's sync do; the
    attracting sync's implicit step (_implicit_clock_step) takes its
    right-hand side from the same per-edge term. Returns a new array, which
    rk4 may overwrite."""
    # t_j - t_i is -(t_i - t_j) exactly and edge_coupling is odd, so for
    # sigma = -1 the sum over t_j - t_i is sigma times the sum, bit for bit,
    # without a multiplication
    first, second = (targets, sources) if sigma < 0.0 else (sources, targets)
    diff = clocks[first]
    diff -= clocks[second]
    rates = np.bincount(sources, edge_coupling(diff), clocks.shape[0])
    rates += 1.0
    return rates


@dataclass(frozen=True)
class SyncResult:
    """Clock trajectory from a synchronization pre-phase."""

    times: np.ndarray  # sample instants, shape (S,)
    clocks: np.ndarray  # clock readings, shape (S, N)
    settled_at: float | None
    horizon: float  # the phase's length in whole steps, whether or not stepping stopped early

    @property
    def spreads(self) -> np.ndarray:
        return clock_spread(self.clocks)

    @property
    def handover(self) -> float:
        """Common clock at the end of the phase, mean(initial) + horizon: each
        edge's coupling is antisymmetric, so the mean clock runs at rate 1 and
        this is where the full-horizon trajectory's mean ends, less roundoff."""
        return float(self.clocks[0].mean() + self.horizon)


@dataclass(frozen=True)
class SyncPlan:
    """A sync pre-phase fixed before it runs: validated initial clocks and a
    whole number of steps of the given size."""

    state: ClockState
    step: float
    steps: int

    @property
    def horizon(self) -> float:
        return self.steps * self.step


def plan_sync(
    vertex_count: int,
    initial,
    convention: str = ATTRACTING,
    tol: float = DEFAULT_TOL,
    step: float = DEFAULT_STEP,
    horizon: float | None = None,
) -> SyncPlan:
    """Checks run_sync's arguments and fixes its length: ValueError for a
    tol or step that is not positive and finite, a horizon that is not
    nonnegative and finite, bad clocks or convention, or a clock count other
    than vertex_count. The horizon defaults to max(1, 4 sqrt(max(spread,
    tol))), a generous multiple of the worst-offset settling estimate, and is
    rounded to whole steps."""
    for name, value in (("tol", tol), ("step", step)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if horizon is not None and not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    state = ClockState(times=initial, convention=convention)
    if state.times.shape[0] != vertex_count:
        raise ValueError("initial clock vector and topology disagree on the agent count")
    if horizon is None:
        # two-agent closed form settles at sqrt(offset); scale up for safety
        horizon = max(1.0, 4.0 * np.sqrt(max(state.spread, tol)))
    return SyncPlan(state=state, step=step, steps=int(round(horizon / step)))


def _implicit_clock_step(topology: Topology, step: float):
    """The attracting law's linearly implicit Euler step of the given size,
    as a function of the clocks t: the t+ solving (I + L_g) t+ = t + step,
    L_g the graph Laplacian with edge weights g = step / sqrt|t_i - t_j|
    frozen at t, and 0 inside the dead band. I + L_g is a symmetric M-matrix
    with unit row sums, so its inverse is nonnegative with unit row sums: t+
    is an average of t + step, and its spread is at most t's.

    It is solved for the increment, t+ = t + step + d with
    (I + L_g) d = -L_g t, so that rounding scales with d, not with t: the
    mean clock advances by step to rounding of d. L_g t is the law's
    coupling times step: g (t_i - t_j) = step sig(t_i - t_j) sqrt|t_i - t_j|."""
    n = topology.vertex_count
    tails, heads = topology.tails, topology.heads
    # flat indices of the diagonal's unit entries, of each edge's (i, i),
    # (j, j), (i, j) and (j, i) entries, then of the right-hand side past the
    # n x n matrix, so that one bincount sums the whole system
    index = np.concatenate((
        np.arange(n) * (n + 1), tails * (n + 1), heads * (n + 1),
        tails * n + heads, heads * n + tails, n * n + tails, n * n + heads,
    ))
    ones = np.ones(n)

    def advance(clocks: np.ndarray) -> np.ndarray:
        diff = clocks[tails] - clocks[heads]
        gap = np.abs(diff)
        gap[gap < DEAD_BAND] = np.inf  # a weight of 0
        weight = step / np.sqrt(gap)
        flux = weight * diff  # each edge's term of L_g t
        negative = -weight
        values = np.concatenate((ones, weight, weight, negative, negative, -flux, flux))
        system = np.bincount(index, values, n * (n + 1))
        increment = solve(system[: n * n].reshape(n, n), system[n * n:])
        increment += step
        increment += clocks
        return increment

    return advance


def run_sync(
    topology: Topology,
    initial: np.ndarray,
    convention: str = ATTRACTING,
    tol: float = DEFAULT_TOL,
    step: float = DEFAULT_STEP,
    horizon: float | None = None,
) -> SyncResult:
    """Step the clock dynamics until the spread is below tol.

    Steps of the given size, for the length plan_sync fixes (which also
    checks the arguments). The attracting convention takes linearly implicit
    Euler steps (_implicit_clock_step), whose spread never grows, and stops
    at the first step whose spread is below tol: from there on the spread
    stays below tol. The literal convention, whose spread grows, takes
    classical fourth-order steps of clock_law to the horizon.

    Returns the trajectory up to the last step taken, so settling can be
    audited; ``settled_at`` is None when the spread never stayed below tol.
    ``handover`` is the common clock at the horizon either way.
    """
    n = topology.vertex_count
    plan = plan_sync(n, initial, convention, tol, step, horizon)
    times0, steps = plan.state.times, plan.steps
    attracting = convention == ATTRACTING
    if attracting:
        advance = _implicit_clock_step(topology, step)
    else:
        sigma = coupling_sign(convention)
        sources, targets = topology.arcs()

        def advance(clocks):
            return rk4(clock_law, 0.0, clocks, step, sigma, sources, targets)

    # sized for the whole horizon, so that a horizon too long to store fails
    # here; rows past the stop are never written, so never resident
    try:
        out_c = np.empty((steps + 1, n))
    except ValueError as exc:  # more rows than numpy can index
        raise MemoryError(f"{steps + 1} rows of {n} clocks") from exc
    out_c[0] = times0
    clk = times0
    k = 0
    while k < steps and not (attracting and clock_spread(clk) < tol):
        clk = advance(clk)
        k += 1
        out_c[k] = clk
    times = np.arange(k + 1) * step
    clocks = out_c[: k + 1]
    return SyncResult(
        times=times,
        clocks=clocks,
        settled_at=settling_time(times, clock_spread(clocks), tol),
        horizon=plan.horizon,
    )


def settling_time(times, spreads, tol: float) -> float | None:
    """First instant at which the spread drops below tol and stays there for
    the remainder of the trace; None if that never happens."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    spreads = np.asarray(spreads, dtype=float)
    below = spreads < tol
    if not below.any():
        return None
    # last index where the spread was still at or above tol
    above_idx = np.nonzero(~below)[0]
    first_persistent = 0 if above_idx.size == 0 else above_idx[-1] + 1
    if first_persistent >= times.shape[0]:
        return None
    return float(times[first_persistent])
