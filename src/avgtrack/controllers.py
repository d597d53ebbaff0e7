"""Riccati-based gain design for the three edge-based control laws
(static, modified, adaptive), the adaptive constants with their feasibility
test, and the ultimate-bound radii. The laws themselves are evaluated by the
simulation engine's compiled right-hand side.

Conventions adopted throughout:
  * The second coupling strength and the adaptive bound constant use the
    f0*(N-1)*sqrt(N) form required by the convergence analysis; the weaker
    f0*(N-1) variant is not sufficient.
  * Auto-designed gains sit exactly at their smallest admissible values,
    c1 = 1/(2*lambda2) and c2 = f0*(N-1)*sqrt(N).
  * The adaptive law's direction term enters the control without an extra
    input-matrix factor, matching the closed-loop error dynamics; the
    filter integration applies B once.
  * The boundary layer is always evaluated at the calling agent's own
    clock, so edge antisymmetry (and hence exact average preservation)
    holds once the clocks are synchronized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError
from .graph import Topology, is_connected, lambda2
from .matkernel import as_matrix, solve_care, sym_eigen
from .signals import InputFamily, Plant

_GAIN_ATOL = 1e-12


@dataclass(frozen=True)
class GainSet:
    """Designed gains for one plant/topology/input-family combination.

    With K = -B^T P the quadratic-form matrix Gamma = P B B^T P is K^T K,
    derived from k_mat. The lower bounds c1 >= 1/(2*lambda2) and
    c2 >= f0*(N-1)*sqrt(N) are enforced at construction; c1 or c2 given as
    None is set to its bound.
    """

    p_mat: np.ndarray
    k_mat: np.ndarray
    c1: float | None
    c2: float | None
    lam2: float
    f0: float
    gamma_rate: float
    eps: float
    phi: float
    agent_count: int

    def __post_init__(self):
        object.__setattr__(self, "p_mat", as_matrix(self.p_mat))
        object.__setattr__(self, "k_mat", as_matrix(self.k_mat))
        if self.eps < 0.0 or self.phi < 0.0:
            raise ValueError("eps and phi must be nonnegative")
        if self.lam2 <= 0.0 or self.gamma_rate <= 0.0:
            raise ValueError("lambda2 and gamma_rate must be positive")
        if self.f0 < 0.0:
            raise ValueError("f0 must be nonnegative")
        if self.c1 is None:
            object.__setattr__(self, "c1", self.c1_floor)
        if self.c2 is None:
            object.__setattr__(self, "c2", self.c2_floor)
        if self.c1 < self.c1_floor - _GAIN_ATOL:
            raise DesignError(
                f"c1 = {self.c1} below the admissible floor 1/(2*lambda2) = {self.c1_floor}"
            )
        if self.c2 < self.c2_floor - _GAIN_ATOL:
            raise DesignError(
                f"c2 = {self.c2} below the admissible floor f0*(N-1)*sqrt(N) = {self.c2_floor}"
            )

    @property
    def gamma_mat(self) -> np.ndarray:
        """Gamma = P B B^T P = K^T K."""
        return self.k_mat.T @ self.k_mat

    @property
    def c1_floor(self) -> float:
        """Smallest admissible first coupling strength, 1/(2*lambda2); also
        the adaptive analysis constant alpha-bar."""
        return 1.0 / (2.0 * self.lam2)

    @property
    def c2_floor(self) -> float:
        """Smallest admissible second coupling strength, f0*(N-1)*sqrt(N);
        also the adaptive analysis constant beta-bar."""
        return self.f0 * (self.agent_count - 1) * np.sqrt(self.agent_count)

    @property
    def p_min_eig(self) -> float:
        return float(sym_eigen(self.p_mat).values[0])


@dataclass(frozen=True)
class AdaptiveParams:
    """Adaptation-rate (mu, nu) and leakage (theta, chi) constants, with the
    combined decay rate rho = max(mu*theta, nu*chi)."""

    mu: float
    nu: float
    theta: float
    chi: float

    def __post_init__(self):
        if min(self.mu, self.nu, self.theta, self.chi) <= 0.0:
            raise ValueError("mu, nu, theta, chi must all be positive")

    @property
    def rho(self) -> float:
        return max(self.mu * self.theta, self.nu * self.chi)

    def feasible(self, gains: GainSet) -> bool:
        """rho < gamma, the condition for the exponential bound omega2."""
        return self.rho < gains.gamma_rate


def design_adaptive_params(
    gains: GainSet, mu: float, nu: float, theta: float, chi: float, strict: bool = False
) -> AdaptiveParams:
    """Bundle adaptive constants and compute rho = max(mu*theta, nu*chi).

    With strict=True the combination is rejected unless rho < gamma_rate,
    the feasibility condition for the exponential tracking bound.
    """
    params = AdaptiveParams(mu=mu, nu=nu, theta=theta, chi=chi)
    if strict and not params.feasible(gains):
        raise DesignError(
            f"infeasible adaptive design: rho = {params.rho} >= gamma = {gains.gamma_rate}"
        )
    return params


def design_gains(
    plant: Plant,
    topology: Topology,
    family: InputFamily,
    q,
    eps: float,
    phi: float,
    c1: float | None = None,
    c2: float | None = None,
) -> GainSet:
    """Full gain design: Riccati solve, feedback gain, coupling strengths.

    Steps: check connectivity and stabilizability, solve the Riccati
    equation for P, set K = -B^T P (so Gamma = K^T K), then pick
    c1 = 1/(2*lambda2) and c2 = f0*(N-1)*sqrt(N) unless explicit values are
    supplied (which must still clear those floors).

    Raises DesignError naming the failed assumption.
    """
    if not is_connected(topology):
        raise DesignError("communication graph must be connected")
    if family.agent_count != topology.vertex_count:
        raise ValueError("input family and topology disagree on the agent count")
    if family.input_dim != plant.input_dim:
        raise ValueError("input family and plant disagree on the input dimension")

    q_mat = as_matrix(q, rows=plant.state_dim, cols=plant.state_dim)
    p_mat = solve_care(plant.a, plant.b, q_mat)  # validates stabilizability and Q > 0
    k_mat = -plant.b.T @ p_mat

    lam2 = lambda2(topology)
    f0 = family.bound()
    n_agents = topology.vertex_count
    gamma_rate = float(sym_eigen(q_mat).values[0] / sym_eigen(p_mat).values[-1])

    return GainSet(
        p_mat=p_mat,
        k_mat=k_mat,
        c1=None if c1 is None else float(c1),
        c2=None if c2 is None else float(c2),
        lam2=lam2,
        f0=f0,
        gamma_rate=gamma_rate,
        eps=eps,
        phi=phi,
        agent_count=n_agents,
    )


@dataclass(frozen=True)
class OmegaRadii:
    """Ultimate-bound radii: omega0 for the static law with phi = 0, omega2
    and the V2 level bound omega1_level for the adaptive law."""

    omega0: float
    omega2: float | None = None
    omega1_level: float | None = None


def omega_radii(
    gains: GainSet, adapt: AdaptiveParams | None, topology: Topology
) -> OmegaRadii:
    """Evaluate the bounded-set radii for the given design.

    omega0      = sqrt(c2 * sum|N_i| * eps / (gamma * lam_min(P)))
    omega2      = sqrt(sum|N_i| * (theta*abar^2 + chi*bbar^2)
                       / (2 * lam_min(P) * (gamma - rho)))       [needs rho < gamma]
    omega1_level = (1/delta) * sum|N_i| * (theta*abar^2 + chi*bbar^2) / 2,
                   delta = min(gamma, mu*theta, nu*chi)

    with abar = 1/(2*lambda2) and bbar = f0*(N-1)*sqrt(N). omega1_level
    bounds the V2 level set, not a state-space norm.
    """
    degree_sum = float(np.sum(topology.neighbor_counts()))
    p_min = gains.p_min_eig
    omega0 = float(np.sqrt(gains.c2 * degree_sum * gains.eps / (gains.gamma_rate * p_min)))
    if adapt is None:
        return OmegaRadii(omega0=omega0)

    if not adapt.feasible(gains):
        raise DesignError(
            f"omega2 undefined: rho = {adapt.rho} >= gamma = {gains.gamma_rate}"
        )
    abar = gains.c1_floor
    bbar = gains.c2_floor
    leak = adapt.theta * abar**2 + adapt.chi * bbar**2
    omega2 = float(
        np.sqrt(degree_sum * leak / (2.0 * p_min * (gains.gamma_rate - adapt.rho)))
    )
    delta = min(gains.gamma_rate, adapt.mu * adapt.theta, adapt.nu * adapt.chi)
    omega1_level = float(degree_sum * leak / (2.0 * delta))
    return OmegaRadii(omega0=omega0, omega2=omega2, omega1_level=omega1_level)
