"""Per-agent reference implementations of the inputs f_i(t) and the
reference derivative, of the edge laws, of the clock law and of the real PBH
rank test, kept as independent oracles for the compiled engine,
clocksync.clock_law and the complex PBH test in the package, and the
clock-sync pre-phase stepped to its full horizon, implicitly (attracting) and
by RK4 (literal), the oracles for the sync's stop rule. Also the centering matrix and the engine's flat state layout,
which only the tests need.

Each law is written agent by agent and edge by edge, straight from its
formula, so the tests can check the engine's fused and edge-indexed
operators against a path that shares none of their code.
"""

import math

import numpy as np

from avgtrack.clocksync import DEAD_BAND, ClockState, clock_law, clock_spread, coupling_sign
from avgtrack.controllers import AdaptiveParams, GainSet
from avgtrack.graph import Topology, laplacian
from avgtrack.matkernel import RANK_RTOL, as_matrix, rk4
from avgtrack.signals import InputFamily, Plant


def input_value(family: InputFamily, i: int, t: float) -> np.ndarray:
    """f_i(t) for a single agent, from the family's evaluation terms."""
    if not 0 <= i < family.agent_count:
        raise IndexError(f"agent index {i} out of range")
    offset, amp, omega, phase = family.evaluation_terms()
    return offset[i] + amp[i] * np.sin(omega[i] * t + phase[i])


def reference_derivative(plant: Plant, r_i, f_i) -> np.ndarray:
    """dr_i/dt = A r_i + B f_i for one agent."""
    r = np.asarray(r_i, dtype=float).reshape(-1)
    f = np.asarray(f_i, dtype=float).reshape(-1)
    if r.shape != (plant.state_dim,) or f.shape != (plant.input_dim,):
        raise ValueError("reference state or input has the wrong length")
    return plant.a @ r + plant.b @ f


def arcs(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets): each edge tail to head, then head to tail."""
    return (
        np.concatenate((topology.tails, topology.heads)),
        np.concatenate((topology.heads, topology.tails)),
    )


def neighbors(topology: Topology, i: int) -> list[int]:
    """N_i in edge order."""
    out = []
    for a, b in topology.edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return out


def boundary_layer(w, t_local: float, eps: float, phi: float) -> np.ndarray:
    """Continuous direction term w / (||w|| + eps * exp(-phi * t_local)).

    The result norm is strictly below 1 for eps > 0. eps = 0 is accepted as
    the degenerate discontinuous limit (then identical to ``signum_dir``).
    """
    if eps < 0.0 or phi < 0.0:
        raise ValueError("eps and phi must be nonnegative")
    v = np.asarray(w, dtype=float)
    denom = np.linalg.norm(v) + eps * np.exp(-phi * t_local)
    if denom == 0.0:
        return np.zeros_like(v)
    return v / denom


def signum_dir(w) -> np.ndarray:
    """Unit direction w / ||w||, with 0 mapped to 0."""
    v = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return np.zeros_like(v)
    return v / nrm


def _direction(w, t_local: float, gains: GainSet, discontinuous: bool) -> np.ndarray:
    if discontinuous:
        return signum_dir(w)
    return boundary_layer(w, t_local, gains.eps, gains.phi)


def static_control(
    i: int,
    x_all,
    gains: GainSet,
    t_local: float,
    topology: Topology,
    discontinuous: bool = False,
):
    """Static-gain law for agent i:
    u_i = c1 * sum_j K (x_i - x_j) + c2 * sum_j h(K (x_i - x_j), t_i).

    Returns (u_i, per-edge terms), the latter mapping each neighbor j to its
    additive contribution to u_i. Only neighbor-relative states enter.
    """
    x = np.asarray(x_all, dtype=float)
    k = gains.k_mat
    u = np.zeros(k.shape[0])
    per_edge: dict[int, np.ndarray] = {}
    for j in neighbors(topology, i):
        w = k @ (x[i] - x[j])
        term = gains.c1 * w + gains.c2 * _direction(w, t_local, gains, discontinuous)
        per_edge[j] = term
        u += term
    return u, per_edge


def modified_control(
    i: int,
    x_all,
    gains: GainSet,
    t_local: float,
    topology: Topology,
    discontinuous: bool = False,
) -> np.ndarray:
    """Modified law: u_i = K x_i + c2 * sum_j h(K (x_i - x_j), t_i).

    The absolute-state feedback term removes the zero-initial-filter-state
    requirement (the filter sum then decays under the Hurwitz A + B K).
    """
    x = np.asarray(x_all, dtype=float)
    k = gains.k_mat
    u = k @ x[i]
    for j in neighbors(topology, i):
        w = k @ (x[i] - x[j])
        u = u + gains.c2 * _direction(w, t_local, gains, discontinuous)
    return u


def adaptive_control(
    i: int,
    x_all,
    gains: GainSet,
    adapt: AdaptiveParams,
    alpha,
    beta,
    t_local: float,
    topology: Topology,
    discontinuous: bool = False,
):
    """Adaptive law for agent i with per-edge coupling strengths.

    u_i = sum_j alpha_e * K (x_i - x_j) + sum_j beta_e * h(K (x_i - x_j), t_i)

    alpha and beta are indexed by the undirected edge (one shared state per
    edge, which keeps alpha_ij = alpha_ji exact). Returns (u_i, alpha_dot,
    beta_dot) where the rate dicts map edge index -> derivative:

      alpha_dot_e = mu * (-theta * alpha_e + (x_i - x_j)^T Gamma (x_i - x_j))
      beta_dot_e  = nu * (-chi * beta_e + ||w||^2 / (||w|| + eps * e^{-phi t}))

    with w = K (x_i - x_j). The boundary layer uses the calling agent's
    clock; across a shared edge the two endpoints' rates coincide once the
    clocks agree.
    """
    x = np.asarray(x_all, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    k = gains.k_mat
    u = np.zeros(k.shape[0])
    alpha_dot: dict[int, float] = {}
    beta_dot: dict[int, float] = {}
    for e, (a, b) in enumerate(topology.edges):
        if i == a:
            j = b
        elif i == b:
            j = a
        else:
            continue
        d = x[i] - x[j]
        w = k @ d
        u += alpha[e] * w + beta[e] * _direction(w, t_local, gains, discontinuous)
        nrm = np.linalg.norm(w)
        if discontinuous:
            beta_source = nrm
        else:
            layer = nrm + gains.eps * np.exp(-gains.phi * t_local)
            beta_source = nrm**2 / layer if layer > 0.0 else 0.0
        alpha_dot[e] = adapt.mu * (-adapt.theta * alpha[e] + float(d @ gains.gamma_mat @ d))
        beta_dot[e] = adapt.nu * (-adapt.chi * beta[e] + beta_source)
    return u, alpha_dot, beta_dot


def pbh_rank_real(a, b, sigma_re: float, omega_im: float) -> int:
    """Rank of the real stacked PBH form [ (A-sI)^2 + w^2 I, B, (A-sI)B ]
    for the conjugate eigenvalue pair s +- j*w. Agrees with the complex
    PBH rank decision; kept for validation."""
    am = as_matrix(a)
    n = am.shape[0]
    bm = as_matrix(b, rows=n)
    shifted = am - sigma_re * np.eye(n)
    stacked = np.hstack([shifted @ shifted + omega_im**2 * np.eye(n), bm, shifted @ bm])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _sync_steps(topology: Topology, clk: np.ndarray, tol: float, step: float,
                horizon: float | None) -> int:
    if horizon is None:  # the default of run_sync, lambda2 from eigvalsh
        v0 = 0.5 * float(np.sum((clk - clk.mean()) ** 2))
        bound = 0.0
        if v0 > 0.0:
            lam2 = np.linalg.eigvalsh(laplacian(topology))[1]
            bound = 4.0 * v0**0.25 / (2.0 * lam2) ** 0.75
        horizon = max(1.0, 4.0 * np.sqrt(max(float(clock_spread(clk)), tol)), bound)
    return int(round(horizon / step))


def full_horizon_sync(topology: Topology, initial, convention: str, tol: float, step: float,
                      horizon: float | None = None):
    """Every RK4 step of the clock law up to the horizon, with no early stop:
    (times (S,), clocks (S, N)). The horizon defaults as in run_sync."""
    clk = np.asarray(initial, dtype=float)
    sigma = coupling_sign(convention)
    steps = _sync_steps(topology, clk, tol, step, horizon)
    clocks = np.empty((steps + 1, clk.shape[0]))
    clocks[0] = clk
    for k in range(steps):
        clk = rk4(clock_law, k * step, clk, step, sigma, topology)
        clocks[k + 1] = clk
    return np.arange(steps + 1) * step, clocks


def full_horizon_implicit_sync(topology: Topology, initial, tol: float, step: float,
                               horizon: float | None = None):
    """Every linearly implicit Euler step of the attracting clock law up to
    the horizon, with no early stop: (times (S,), clocks (S, N)). Each step
    assembles I + L_g edge by edge, with weight g = step / sqrt|t_i - t_j|
    frozen at the step's start (none inside the dead band), and solves
    (I + L_g) t+ = t + step. The horizon defaults as in run_sync."""
    clk = np.asarray(initial, dtype=float)
    n = clk.shape[0]
    steps = _sync_steps(topology, clk, tol, step, horizon)
    clocks = np.empty((steps + 1, n))
    clocks[0] = clk
    for k in range(steps):
        matrix = np.eye(n)
        for i, j in topology.edges:
            gap = abs(clk[i] - clk[j])
            if gap < DEAD_BAND:
                continue
            g = step / math.sqrt(gap)
            matrix[i, i] += g
            matrix[j, j] += g
            matrix[i, j] -= g
            matrix[j, i] -= g
        clk = np.linalg.solve(matrix, clk + step)
        clocks[k + 1] = clk
    return np.arange(steps + 1) * step, clocks


def sig_half(x):
    """sign(x) * sqrt(|x|), elementwise."""
    arr = np.asarray(x, dtype=float)
    result = np.sign(arr) * np.sqrt(np.abs(arr))
    if np.ndim(x) == 0:
        return float(result)
    return result


def clock_rates(state: ClockState, topology: Topology) -> np.ndarray:
    """dt_i/dt = 1 + sigma * sum_j sig_half(t_i - t_j), sigma the
    convention's coupling_sign: the clock law edge by edge, with the dead
    band, against clocksync.clock_law."""
    times = state.times
    if times.shape[0] != topology.vertex_count:
        raise ValueError("clock vector and topology disagree on the agent count")
    sigma = coupling_sign(state.convention)
    rates = np.ones(topology.vertex_count)
    for i, j in topology.edges:
        diff = times[i] - times[j]
        if abs(diff) < DEAD_BAND:
            continue
        coupling = sig_half(diff)
        rates[i] += sigma * coupling
        rates[j] -= sigma * coupling
    return rates


def implicit_matrix_bincount(topology: Topology, kb, f_t, f_h) -> np.ndarray:
    """I - (W D^T) kron (K B), W = Dp diag(f_t) - Dm diag(f_h), summed with
    one bincount over each edge's (t,t), (t,h), (h,t), (h,h) entries into a
    fresh N x N array: the implicit step's matrix before its fixed-index
    build, with the same summation order."""
    n = topology.vertex_count
    tails, heads = topology.tails, topology.heads
    pair_index = np.concatenate(
        [tails * n + tails, tails * n + heads, heads * n + tails, heads * n + heads]
    )
    node = np.bincount(
        pair_index, np.concatenate((f_t, -f_t, -f_h, f_h)), n * n
    ).reshape(n, n)
    kb = np.asarray(kb, dtype=float)
    if kb.shape == (1, 1):
        lhs = node
        lhs *= -kb[0, 0]
    else:
        lhs = np.kron(node, -kb)
    lhs += np.eye(lhs.shape[0])
    return lhs


def affine_rk4_recursion(dyn, t: float, y, dt: float) -> np.ndarray:
    """The RK4 step of an equal-clock, one-wave _Dynamics without its
    direction term as the polynomial in the drift D, formed by repeated
    products with D:

        y + sum_{j=1..4} dt^j / j! D^{j-1} (D y + c)
          + dt/6 (s0 + 4 sm + s1) a + dt^2/6 (s0 + 2 sm) D a
          + dt^3/12 (s0 + sm) D^2 a + dt^4/24 s0 D^3 a,

    c the affine column, a the wave's amplitude and s0, sm, s1 the wave at
    t, t + dt/2 and t + dt."""
    powers = np.zeros((8, dyn.dim))
    dyn._linear(y, powers[0])
    powers[0] += dyn.const
    for j in range(1, 4):
        dyn._linear(powers[j - 1], powers[j])
    s0 = sm = s1 = 0.0
    if dyn.has_wave:
        powers[4] = dyn.in_amp
        for j in range(5, 8):
            dyn._linear(powers[j - 1], powers[j])
        omega, phase = dyn.wave_omega, dyn.wave_phase
        s0 = math.sin(omega * t + phase)
        sm = math.sin(omega * (t + 0.5 * dt) + phase)
        s1 = math.sin(omega * (t + dt) + phase)
    coef = np.array(
        [
            dt, dt**2 / 2.0, dt**3 / 6.0, dt**4 / 24.0,
            dt / 6.0 * (s0 + 4.0 * sm + s1), dt**2 / 6.0 * (s0 + 2.0 * sm),
            dt**3 / 12.0 * (s0 + sm), dt**4 / 24.0 * s0,
        ]
    )
    return y + coef.dot(powers)


def general_implicit_step(dyn, t: float, y, dt: float) -> np.ndarray:
    """An equal-clock implicit step of a _Dynamics by the general route:
    RK4 of without_direction to y*, then implicit_step's node-space system
    built by its NodeSystem's matrix and solved by np.linalg.solve (LU), its
    solution v moving s by (I kron B) v."""
    y_star = rk4(dyn.without_direction, t, y, dt, False)
    _, _, nrm, _ = dyn._edge_terms(y)
    inv, _ = dyn._direction_coeffs(y, nrm, True)
    f = (dt * dyn.c2) * inv
    edge = (dyn._edge_scale(f) * dyn._gather_w(y_star)).reshape(dyn.n_edges, dyn.p)
    v = np.linalg.solve(dyn.system.matrix(f, f), dyn.topo.scatter(edge).ravel())
    y_star[dyn.sl_s] += dyn._apply_b(v)
    return y_star


def centering_matrix(n: int) -> np.ndarray:
    """M = I - (1/N) * ones: idempotent projector removing the mean."""
    if n < 1:
        raise ValueError("N must be positive")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def pack_state(s, r, clocks, alpha, beta) -> np.ndarray:
    """The engine's flat state y = [s | r | clocks | alpha | beta]."""
    return np.concatenate(
        [np.asarray(part, dtype=float).ravel() for part in (s, r, clocks, alpha, beta)]
    )


def start_vector(scenario) -> np.ndarray:
    """A scenario's initial state, packed, its adaptive gains at zero: the
    vector engine.run starts from."""
    gains = np.zeros(scenario.topology.edge_count)
    return pack_state(scenario.s0, scenario.r0, scenario.clocks0, gains, gains)


def controls_at(dyn, y) -> np.ndarray:
    """The compiled dynamics' stacked controls u (N, p) at one state y."""
    u = dyn.controls(np.asarray(y)[None], np.empty((1, dyn.n_agents * dyn.p)))
    return u.reshape(dyn.n_agents, dyn.p)
