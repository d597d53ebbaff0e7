"""Per-agent reference implementations of the edge laws and of the real
PBH rank test, kept as independent oracles for the compiled engine and the
complex PBH test in the package, and the clock-sync pre-phase stepped to its
full horizon, the oracle for the sync's stop rule.

Each law is written agent by agent and edge by edge, straight from its
formula, so the tests can check the engine's fused and edge-indexed
operators against a path that shares none of their code.
"""

import numpy as np

from avgtrack.clocksync import clock_law, clock_spread, coupling_sign
from avgtrack.controllers import AdaptiveParams, GainSet
from avgtrack.graph import Topology
from avgtrack.matkernel import RANK_RTOL, as_matrix, rk4


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


def full_horizon_sync(topology: Topology, initial, convention: str, tol: float, step: float,
                      horizon: float | None = None):
    """Every RK4 step of the clock law up to the horizon, with no early stop:
    (times (S,), clocks (S, N)). The horizon defaults as in run_sync."""
    clk = np.asarray(initial, dtype=float)
    if horizon is None:
        horizon = max(1.0, 4.0 * np.sqrt(max(float(clock_spread(clk)), tol)))
    sigma = coupling_sign(convention)
    sources, targets = topology.arcs()
    steps = int(round(horizon / step))
    clocks = np.empty((steps + 1, clk.shape[0]))
    clocks[0] = clk
    for k in range(steps):
        clk = rk4(clock_law, k * step, clk, step, sigma, sources, targets)
        clocks[k + 1] = clk
    return np.arange(steps + 1) * step, clocks
