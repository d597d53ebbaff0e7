"""Deterministic fixed-step integration of the coupled tracking system
(reference signals, filter states, local clocks, per-edge adaptive gains)
plus every trajectory metric the analysis needs: consensus and tracking
errors, the quadratic certificates V1/V2, the decay-inequality audit, and
control total variation.

The flat state vector is laid out as

    y = [ s (N*n) | r (N*n) | clocks (N) | alpha (E) | beta (E) ]

and every law is written once, as edge-indexed operators, as in the
paper's edge-based design: each coupling is formed from the edge
differences x_tail - x_head and t_tail - t_head through index arrays, K, A
and B act as small per-agent matmuls, and the edge terms are summed back
into the agents with bincount, so cost and memory grow with N + E. One
operator gathers the edge quantities; the other is linear in the state,
the per-edge terms and a constant 1, and gives the derivative. Up to a
state dimension of DENSE_MAX_DIM the scenario also compiles to the dense
form, those two operators' matrices read off their values on the unit
vectors, so one evaluation is one matrix-vector product whatever the
control law. The same compiled object reproduces the per-agent control
values for trace samples. The clock rows scatter the per-edge term of the
sync pre-phase's clock law, clocksync.edge_coupling, and equal
clocksync.clock_law bit for bit.

Each step is classical fourth-order Runge-Kutta (matkernel.rk4, as in the
sync pre-phase) while the step resolves the boundary layer eps e^{-phi t}
of the static and modified laws. Their
c2-weighted direction term c2 w / (||w|| + eps e^{-phi t}) grows stiff as
the layer thins, and once the step leaves RK4's stability interval the
sampled trajectory would chatter on a band proportional to the step. From
there on RK4 steps everything else and the direction term takes a linearly
implicit Euler step, the chattering-free discretisation of Acary and
Brogliato (Systems & Control Letters, 2010). The adaptive law and the
discontinuous direction w/||w|| keep explicit RK4 throughout. The layer is
floored at LAYER_FLOOR c2 rho(K B), so that on long horizons it stays
positive and the implicit step's matrix stays nonsingular in floating point.

With equal clocks that matrix is I + D diag(f) D^T kron B^T P B, symmetric
positive definite, and from one step to the next only the edge weights f
change. Above the dense limit it is solved by conjugate gradients that
apply it through the edge index arrays, start from the last step's solution
and are preconditioned with the inverse of an earlier step's matrix,
refreshed when they miss their iteration cap (_solve_lagged). On a ring
plus N/2 chords (one BLAS thread, 2-vCPU x86 VM shared with other load)
that takes about 6.3 iterations a step and 3 refreshes in 500 steps at
N = 200, a median of 0.58 ms a step against 1.20 ms with LU, and 3.8-4.2
ms against 33 ms at N = 1000. The dense form and unequal clocks keep LU.

At small N a step's cost is the number of numpy calls, not arithmetic, so
the step keeps that number low where the system allows. The fused map's
input is written through fixed views of one array. With equal clocks the
layer eps e^{-phi t} is one value for every edge, and with one input wave
as well "everything else" is affine in the state, the affine column and
the wave; its RK4 step is matkernel.rk4 of without_direction on every
route, the equal-clock path's matrix included. The implicit step's node
matrix is written at fixed indices into one reused array.

The dense form with every clock equal at the start, on a connected graph
with one input wave and the continuous direction term, takes the
equal-clock path (equalclock.EqualClockLoop): one loop that owns its
buffers and steps a whole sample interval per call, each step a few
products with matrices read off the edge operators once. An RK4 stage is
one product with the stage map and one more combines the four slopes; an
implicit step is one product with [P ; G_w P ; G_w 0], P the matrix of
one matkernel.rk4 step without the direction term and G_w the gather's w
rows, one with the map of the edge weights to the node matrix I + L f and
the right-hand side, and LAPACK's LU solve without numpy's wrapper
(matkernel.solve). The clocks then stay bitwise equal and
the layer is one Python float a step. run keeps each sample as one row of
the state and computes the path's sampled controls after the loop, one
product per block of samples. On the shipped static system (N = 6, one
BLAS thread, 2-vCPU x86 VM shared with other load; three alternating pairs
of processes, best of five 2000-step runs each) an implicit step took
7.2-8.4 us in the loop and 9.6-11.0 us as one call of advance, and an
RK4 step 17.0-17.5 us and 19.6-20.2 us, against 11.5-12.9 us and
24.1-24.9 us when each step was its own chain of calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clocksync import ATTRACTING, clock_law, clock_spread, coupling_sign, edge_coupling
from .controllers import AdaptiveParams, GainSet
from .errors import DesignError, NumericalError
from .graph import Topology, incidence, is_connected, laplacian
from .matkernel import RK4_STABILITY_LIMIT, is_hurwitz, matrix_of, rk4, solve
from .signals import InputFamily, Plant

_CONTROLLERS = ("static", "modified", "adaptive")

# Largest state dimension compiled to the dense fused map. Up to it one
# evaluation of the right-hand side is a single matrix-vector product, which
# at small N costs less than the string of small numpy calls of the
# edge-indexed form. Above it the map's dim^2 entries are almost all zero
# and the edge-indexed form, whose cost and memory grow with N + E, is used.
# Per step, dense against edge form (static law on a ring plus N/2 chords,
# p = 1, one BLAS thread, 2-vCPU x86 VM shared with other load; best of
# five 400-step runs, two runs of the script):
#   unequal clocks (the general route): dim = 240 (N = 30, n = 2) RK4
#     137-141 us against 214-216 us, implicit 124-125 against 147-148 us;
#     dim = 300 (N = 50, n = 1) RK4 203-231 against 213-232 us, implicit
#     148-153 against 163-169 us: about the same near dim = 300.
#   equal clocks (the dense form's equal-clock loop): dim = 240 RK4 86-98
#     against 170-177 us, implicit 29-38 against 146-151 us; dim = 300 RK4
#     161-167 against 168-172 us, implicit 56-59 against 148-157 us.
# So for equal clocks the crossover lies above 300. The limit stays: the
# dense form's memory grows as dim^2 and no workload runs near it.
DENSE_MAX_DIM = 300

# Floor of the boundary layer eps e^{-phi t}, relative to c2 rho(K B). The
# implicit step's matrix is I + f |KB| L with f = dt c2 / (||w|| + layer);
# the floor keeps f rho(KB) <= 1e12 dt, so that the identity still shows in
# the matrix where some w_e is exactly zero, and keeps the layer positive
# where eps e^{-phi t} would underflow. It binds only on long horizons: in
# the shipped static scenario from t of about 48 s on.
LAYER_FLOOR = 1e-12

# The equal-clock implicit solve above the dense limit (_solve_lagged):
# conjugate gradients to a residual of ITERATIVE_RTOL ||rhs||, refreshing its
# preconditioner past ITERATIVE_CAP iterations.
ITERATIVE_RTOL = 1e-13
ITERATIVE_CAP = 8


@dataclass(frozen=True)
class Scenario:
    """Everything one simulation needs, validated at construction.

    sample_every counts integrator steps between trace samples, so the
    sampling interval is sample_every * step.
    """

    plant: Plant
    topology: Topology
    family: InputFamily
    controller: str
    gains: GainSet
    adapt: AdaptiveParams | None = None
    r0: np.ndarray | None = None
    s0: np.ndarray | None = None
    clocks0: np.ndarray | None = None
    step: float = 1e-3
    horizon: float = 30.0
    sample_every: int = 10
    discontinuous: bool = False
    clock_convention: str = ATTRACTING

    def __post_init__(self):
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller must be one of {_CONTROLLERS}")
        if self.controller == "adaptive" and self.adapt is None:
            raise ValueError("adaptive controller requires adaptive parameters")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError("step must be positive and finite")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError("horizon must be nonnegative and finite")
        every = self.sample_every
        if not (math.isfinite(every) and every == int(every) and every >= 1):
            raise ValueError("sample_every must be a positive integer")
        coupling_sign(self.clock_convention)
        if self.family.agent_count != self.topology.vertex_count:
            raise ValueError("input family and topology disagree on the agent count")
        if self.family.input_dim != self.plant.input_dim:
            raise ValueError("input family and plant disagree on the input dimension")

        n_agents = self.topology.vertex_count
        n = self.plant.state_dim
        r0 = np.zeros((n_agents, n)) if self.r0 is None else np.array(self.r0, dtype=float)
        s0 = np.zeros((n_agents, n)) if self.s0 is None else np.array(self.s0, dtype=float)
        clocks0 = (
            np.zeros(n_agents)
            if self.clocks0 is None
            else np.array(self.clocks0, dtype=float).reshape(-1)
        )
        for name, arr, shape in (("r0", r0, (n_agents, n)), ("s0", s0, (n_agents, n))):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
        if clocks0.shape != (n_agents,) or not np.all(np.isfinite(clocks0)):
            raise ValueError(f"clocks0 must be {n_agents} finite values")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "clocks0", clocks0)

        # Average preservation needs the filter sum to start at zero whenever
        # the plant cannot dissipate it; the modified law lifts this.
        if self.controller in ("static", "adaptive") and not is_hurwitz(self.plant.a):
            if np.any(s0 != 0.0):
                raise DesignError(
                    f"the {self.controller} law with a non-Hurwitz plant requires "
                    "zero initial filter states"
                )

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.step))


class _Dynamics:
    """Scenario-compiled right-hand side of the stacked ODE.

    __call__(t, y) evaluates the derivative; advance(t, y, dt) takes one
    step, RK4 or, where layer_unresolved says so, implicit_step;
    controls(t, y) reproduces the stacked control inputs u (N, p) for trace
    sampling.

    The edge operators define each law: _gather_edges forms the edge
    quantities and _rates_edges, linear in the state, the per-edge terms
    and a constant 1, sums them into the derivative. dense says whether the
    scenario also compiled to their matrices, gather and the fused map
    out_map (see DENSE_MAX_DIM), which __call__ then applies in their place.
    """

    def __init__(self, sc: Scenario):
        plant, topo, gains = sc.plant, sc.topology, sc.gains
        n_agents, n, p = topo.vertex_count, plant.state_dim, plant.input_dim
        n_edges = topo.edge_count
        self.n_agents, self.n, self.p, self.n_edges = n_agents, n, p, n_edges
        self.sizes = (n_agents * n, n_agents * n, n_agents, n_edges, n_edges)
        dim = sum(self.sizes)
        self.dim = dim
        self.sl_s = slice(0, n_agents * n)
        self.sl_r = slice(n_agents * n, 2 * n_agents * n)
        self.sl_c = slice(2 * n_agents * n, 2 * n_agents * n + n_agents)
        self.sl_a = slice(self.sl_c.stop, self.sl_c.stop + n_edges)
        self.sl_b = slice(self.sl_a.stop, self.sl_a.stop + n_edges)

        self.controller = sc.controller
        self.adaptive = sc.controller == "adaptive"
        self.discontinuous = sc.discontinuous
        self.eps = gains.eps
        self.phi = gains.phi
        self.gamma_mat = gains.gamma_mat
        self.adapt = sc.adapt
        self.c1 = gains.c1
        self.c2 = gains.c2
        k_mat = gains.k_mat
        self.k_t = k_mat.T
        self.sigma = coupling_sign(sc.clock_convention)

        self.tails, self.heads = tails, heads = topo.tails, topo.heads
        self.arcs = topo.arcs()
        self.connected = is_connected(topo)
        self.dense = False  # until the dense form is built, below
        self.a_t = plant.a.T
        self.b_t = plant.b.T
        # bincount bins of every edge's tail and head entries, then the same
        # per input channel
        self._ends = self.arcs[0]
        self._ends_p = (self._ends[:, None] * p + np.arange(p)).ravel()
        # u = gain (Dp z_t - Dm z_h) + the law's linear feedback (_control)
        self.gain = 1.0 if self.adaptive else gains.c2
        self.single_channel = p == 1

        # The gathered edge quantities [w | t_tail - t_head | dx] (_gather_edges)
        # and _rates' input [y | z_t | z_h | sig (| quad | source) | 1], which
        # __call__ rewrites through fixed views: at small N that costs a
        # fraction of one np.concatenate.
        self.i_w = slice(0, n_edges * p)
        self.i_clk = slice(n_edges * p, n_edges * p + n_edges)
        self.i_dx = slice(self.i_clk.stop, self.i_clk.stop + n_edges * n)
        widths = [dim, n_edges * p, n_edges * p, n_edges] + [n_edges] * (2 * self.adaptive)
        ends = np.cumsum(widths)
        self._in_parts = tuple(slice(end - width, end) for end, width in zip(ends, widths))
        self._stacked = np.zeros(ends[-1] + 1)
        self._stacked[-1] = 1.0
        self._stacked_parts = tuple(self._stacked[part] for part in self._in_parts)

        # Clock base rate plus any constant reference input: the affine
        # column. The reference inputs add (I kron B) f(t) to the r rows.
        # When every agent shares one frequency and phase this reduces to a
        # fixed offset (folded into the affine column) plus one sine-scaled
        # vector; otherwise the full family is evaluated per call.
        self.const = np.zeros(dim)
        self.const[self.sl_c] = 1.0
        offset, amp, omega, phase = sc.family.evaluation_terms()
        self.uniform_wave = bool(np.all(omega == omega[0]) and np.all(phase == phase[0]))
        self.family = sc.family
        if self.uniform_wave:
            self.const[self.sl_r] += self._apply_b(offset)
            self.wave_omega = float(omega[0])
            self.wave_phase = float(phase[0])
            self.in_amp = np.zeros(dim)
            self.in_amp[self.sl_r] = self._apply_b(amp)

        # The dense form is the matrix of the edge operators, read off their
        # values on the unit vectors before dense switches the primitives
        # over to it.
        self._gather, self._rates = self._gather_edges, self._rates_edges
        if dim <= DENSE_MAX_DIM:
            self.gather = matrix_of(self._gather_edges, dim)
            self.out_map = matrix_of(self._rates_edges, self._stacked.size)
            self.sb = matrix_of(self._apply_b, n_agents * p)
            self.d_inc = incidence(topo)
            self.d_plus = np.maximum(self.d_inc, 0.0)
            self.d_minus = self.d_plus - self.d_inc
            self.gather_w = self.gather[self.i_w]
            self._gather, self._rates = self.gather.dot, self.out_map.dot
            self.dense = True

        self.has_wave = self.uniform_wave and (self.wave_omega != 0.0 or self.wave_phase != 0.0)
        self._no_sig = np.zeros(n_edges)

        # The c2-weighted direction term of the static and modified laws
        # linearises at w = 0 to (c2 / delta) (L kron B K), delta the layer
        # eps e^{-phi t}; its spectral radius is stiffness / delta, and for
        # K = -B^T P, rho(K B) = lambda_max(B^T P B).
        self.kb = k_mat @ plant.b
        rho_kb = float(np.max(np.abs(np.linalg.eigvals(self.kb))))
        self.layer_floor = LAYER_FLOOR * gains.c2 * rho_kb
        self.stiffness = 0.0
        if sc.controller != "adaptive" and not sc.discontinuous and n_edges:
            self.stiffness = float(gains.c2 * np.linalg.eigvalsh(laplacian(topo))[-1] * rho_kb)
            # _implicit_matrix's buffers: [f_t | f_h] for the two ends of
            # every edge, the node matrix W D^T (written in place of the
            # matrix itself when there is one channel) and the flat indices
            # of each edge's (t,h) and (h,t) entries; every entry off the
            # diagonal and those indices stays zero
            self._f_ends = np.empty(2 * n_edges)
            self._f_halves = (self._f_ends[:n_edges], self._f_ends[n_edges:])
            self._node = np.zeros((n_agents, n_agents))
            self._node_flat = self._node.reshape(-1)
            self._node_diag = self._node_flat[:: n_agents + 1]
            self._off_index = np.concatenate((tails * n_agents + heads, heads * n_agents + tails))
            if self.single_channel:
                self._kb1 = float(self.kb[0, 0])
            else:
                self._eye = np.eye(n_agents * p)
            # _solve_lagged's preconditioner and last solution
            self._precond = self._solution = None

        # The equal-clock path of advance: the dense form, every clock equal
        # at the start of a connected graph, one input wave, and the
        # continuous c2-weighted direction term with a layer (eps > 0).
        self.equal_clock_path = bool(
            self.dense and self.connected and self.uniform_wave and self.stiffness > 0.0
            and self.eps > 0.0 and np.all(sc.clocks0 == sc.clocks0[0])
        )
        self.loop = None
        if self.equal_clock_path:
            # imported here, so that a run off the path does not compile it
            from .equalclock import EqualClockLoop

            self.loop = EqualClockLoop(self)

    # -- operator primitives ---------------------------------------------------
    #
    # Each law is written once, on the edge index arrays: _gather_edges forms
    # the edge differences and _rates_edges sums the edge terms back into the
    # agents. The dense form is their matrix, and the primitives below that
    # branch on dense only pick the cheaper way to apply the same map.

    def _gather_edges(self, y):
        """[w | t_tail - t_head | (adaptive laws) x_tail - x_head], flat: the
        edge inputs w = K (x_tail - x_head), (E*p,), the clock differences,
        (E,), and the state differences, (E*n,)."""
        dx = self._state_differences(y)
        clk = y[self.sl_c]
        parts = [(dx @ self.k_t).ravel(), clk[self.tails] - clk[self.heads]]
        if self.adaptive:
            parts.append(dx.ravel())
        return np.concatenate(parts)

    def _rates_edges(self, v):
        """The derivative less the reference inputs, as a linear map of
        v = [y | z_t | z_h | sig (| quad | source) | 1]: the plant on s and
        r, u = gain (Dp z_t - Dm z_h) plus the law's linear feedback through
        B on s, sigma D sig on the clocks, the adaptive gain laws, and v[-1]
        times the affine column. z_t and z_h are the per-edge terms (E*p,)
        at the tail and head clocks, sig the clock couplings (E,), and quad
        and source the adaptive laws' per-edge sources (E,)."""
        y, z_t, z_h, sig, *sources = (v[part] for part in self._in_parts)
        shape = (self.n_edges, self.p)
        u = self._control(y, None, z_t.reshape(shape), z_h.reshape(shape))
        out = self._assemble(y, u, np.empty(self.dim))
        # the scatter only adds zeros when every clock coupling is zero
        if sig.any():
            out[self.sl_c] = self.sigma * self._scatter(sig, sig)
        if self.adaptive:
            (quad, source), adapt = sources, self.adapt
            out[self.sl_a] = adapt.mu * (quad - adapt.theta * y[self.sl_a])
            out[self.sl_b] = adapt.nu * (source - adapt.chi * y[self.sl_b])
        out += v[-1] * self.const
        return out

    def _edge_terms(self, y):
        """Edge inputs w = K (x_tail - x_head), flat (E*p,), clock
        differences, their norms, and (adaptive laws) the state differences
        x_tail - x_head (E, n)."""
        g = self._gather(y)
        w = g[self.i_w]
        dclk = g[self.i_clk]
        dx = g[self.i_dx].reshape(self.n_edges, self.n) if self.adaptive else None
        return w, dclk, self._norms(w), dx

    def _norms(self, w):
        """Per-edge norms ||w_e|| of flat edge inputs w (..., E*p), (..., E)."""
        if self.single_channel:
            return np.abs(w)
        w2 = w.reshape(*w.shape[:-1], self.n_edges, self.p)
        return np.sqrt((w2 * w2).sum(axis=-1))

    def _gather_w(self, y):
        """The edge inputs w = K (x_tail - x_head) alone, flat (E*p,)."""
        if self.dense:
            return self.gather_w.dot(y)
        return (self._state_differences(y) @ self.k_t).ravel()

    def _state_differences(self, y):
        """x_tail - x_head per edge, (E, n)."""
        x = (y[self.sl_s] + y[self.sl_r]).reshape(self.n_agents, self.n)
        return x.take(self.tails, axis=0) - x.take(self.heads, axis=0)

    def _scatter(self, tail, head):
        """Dp tail - Dm head: per-edge rows (E,) or (E, p) summed into the
        tail and head agents, (N,) or (N, p)."""
        if self.dense:
            if head is tail:
                return self.d_inc.dot(tail)
            out = self.d_plus.dot(tail)
            out -= self.d_minus.dot(head)
            return out
        if tail.ndim == 1:
            bins, shape = self._ends, (self.n_agents,)
        else:
            bins, shape = self._ends_p, (self.n_agents, self.p)
        weights = np.concatenate((tail.ravel(), -head.ravel()))
        return np.bincount(bins, weights, math.prod(shape)).reshape(shape)

    def _apply_b(self, f):
        """(I kron B) applied to stacked inputs f (N, p) or (N*p,), flat."""
        if self.dense:
            return self.sb.dot(f.ravel())
        return (f.reshape(self.n_agents, self.p) @ self.b_t).ravel()

    def _linear(self, v, out):
        """out = D v, D the drift of the static and modified laws (the plant
        on s and r and the law's linear feedback through B): _rates_edges
        with no edge terms and no affine column, in fewer operations."""
        return self._assemble(v, self._feedback(v), out)

    def _assemble(self, y, u, out):
        """out = [A s + B u | A r | 0], u the stacked controls (N, p)."""
        n_agents, n = self.n_agents, self.n
        s = y[self.sl_s].reshape(n_agents, n)
        r = y[self.sl_r].reshape(n_agents, n)
        out[self.sl_s] = (s @ self.a_t + u @ self.b_t).ravel()
        out[self.sl_r] = (r @ self.a_t).ravel()
        out[self.sl_c.start :] = 0.0
        return out

    # -- edge quantities -------------------------------------------------

    def _direction_coeffs(self, y, nrm, synced):
        """Per-edge reciprocal denominators at the tail and head clocks, the
        layer floored at layer_floor (LAYER_FLOOR); synced says both ends of
        every edge read the same time, so the two are one array, and on a
        connected graph every agent reads it, so the layer is one value. The
        discontinuous direction and a zero layer (eps = 0), its limit, take
        1/||w||, set to zero where w = 0."""
        if self.discontinuous or self.eps == 0.0:
            inv = np.divide(1.0, nrm, out=np.zeros_like(nrm), where=nrm > 0.0)
            return inv, inv
        if synced and self.connected:
            inv = 1.0 / (nrm + self._synced_layer(y))
            return inv, inv
        lay = self.eps * np.exp(-self.phi * y[self.sl_c])
        np.maximum(lay, self.layer_floor, out=lay)
        inv_t = 1.0 / (nrm + lay[self.tails])
        if synced:
            return inv_t, inv_t
        return inv_t, 1.0 / (nrm + lay[self.heads])

    def _synced_layer(self, y):
        """The layer eps e^{-phi t} at the first clock, floored at
        layer_floor: every agent's layer when the clocks are equal."""
        # np.exp, not math.exp, whose last bits differ from the array form's
        # in _direction_coeffs
        lay = self.eps * np.exp(-self.phi * y[self.sl_c.start])
        if lay < self.layer_floor:  # cheaper than max() on a numpy scalar
            lay = self.layer_floor
        return lay

    def _edge_scale(self, coeff):
        if self.single_channel:
            return coeff
        return np.repeat(coeff, self.p)

    def _add_inputs(self, t, ydot):
        if self.has_wave:
            ydot += self.in_amp * math.sin(self.wave_omega * t + self.wave_phase)
        elif not self.uniform_wave:
            ydot[self.sl_r] += self._apply_b(self.family.value_all(t))
        return ydot

    def _feedback(self, y, w2=None):
        """The law's linear feedback: c1 D w on the static law's edge inputs
        w2 (E, p), gathered from y when not given, K x_i on the modified
        law's states."""
        if self.controller == "static":
            if w2 is None:
                w2 = self._gather_w(y).reshape(self.n_edges, self.p)
            return self.c1 * self._scatter(w2, w2)
        x = (y[self.sl_s] + y[self.sl_r]).reshape(self.n_agents, self.n)
        return x @ self.k_t

    def _control(self, y, w2, z_t, z_h):
        """Stacked controls u (N, p) = gain (Dp z_t - Dm z_h) plus, for the
        static and modified laws, their linear feedback (_feedback)."""
        u = self.gain * self._scatter(z_t, z_h)
        if not self.adaptive:
            u += self._feedback(y, w2)
        return u

    def _edge_inputs(self, y, w, inv_t, inv_h):
        """z_t and z_h, flat (E*p,): the direction terms w inv at the tail
        and head clocks (_direction_coeffs), and for the adaptive law
        alpha w + beta times them. One array when inv_h is inv_t and the law
        is not adaptive."""
        dir_t = w * self._edge_scale(inv_t)
        dir_h = dir_t if inv_h is inv_t else w * self._edge_scale(inv_h)
        if not self.adaptive:
            return dir_t, dir_h
        alpha_w = self._edge_scale(y[self.sl_a]) * w
        beta = self._edge_scale(y[self.sl_b])
        return alpha_w + beta * dir_t, alpha_w + beta * dir_h

    # -- derivative and controls -----------------------------------------

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        w, dclk, nrm, dx = self._edge_terms(y)
        synced = not np.count_nonzero(dclk)
        inv_t, inv_h = self._direction_coeffs(y, nrm, synced)
        sig = self._no_sig if synced else edge_coupling(dclk)
        parts = (y, *self._edge_inputs(y, w, inv_t, inv_h), sig)
        if self.adaptive:
            quad = ((dx @ self.gamma_mat) * dx).sum(axis=1)
            parts += (quad, nrm if self.discontinuous else nrm * nrm * inv_t)
        for view, part in zip(self._stacked_parts, parts):
            view[...] = part
        return self._add_inputs(t, self._rates(self._stacked))

    # -- past the resolution limit -------------------------------------------

    def advance(self, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """One step of the stacked system from (t, y): classical
        fourth-order Runge-Kutta while it resolves the boundary layer, and
        implicit_step past that (see layer_unresolved). On the equal-clock
        path the step is the loop's (equalclock.EqualClockLoop.steps), which
        reads every clock off the first: along a trajectory from the
        scenario's equal start they stay bitwise equal.

        The implicit step above the dense limit with equal clocks keeps
        state between calls, so one _Dynamics serves one trajectory (see
        implicit_step)."""
        if self.equal_clock_path:
            return self.loop.steps(y, (t,), dt).copy()
        if self.layer_unresolved(y, dt):
            return self.implicit_step(t, y, dt)
        return rk4(self, t, y, dt)

    def layer_unresolved(self, y: np.ndarray, dt: float) -> bool:
        """Whether RK4 at step dt no longer resolves the c2-weighted
        direction term at y: dt * stiffness / delta_min exceeds
        RK4_STABILITY_LIMIT, delta_min = eps e^{-phi max_i t_i} being the
        thinnest layer, floored as in _direction_coeffs. Always False for
        the adaptive and discontinuous laws, and for a zero layer (eps = 0),
        which is the discontinuous direction."""
        if self.stiffness == 0.0 or self.eps == 0.0:
            return False
        delta_min = self.eps * math.exp(-self.phi * max(y[self.sl_c].tolist()))
        return dt * self.stiffness > RK4_STABILITY_LIMIT * max(delta_min, self.layer_floor)

    def without_direction(self, t: float, y: np.ndarray, couple_clocks: bool) -> np.ndarray:
        """Derivative at (t, y) less the c2-weighted direction term. With
        couple_clocks False every clock runs at the base rate 1, which is
        exact while all clocks are equal."""
        ydot = self._linear(y, np.empty(self.dim))
        ydot += self.const
        if couple_clocks:
            ydot[self.sl_c] = clock_law(t, y[self.sl_c], self.sigma, *self.arcs)
        return self._add_inputs(t, ydot)

    def implicit_step(self, t: float, y: np.ndarray, dt: float) -> np.ndarray:
        """One step from (t, y) once RK4 no longer resolves the layer.

        RK4 (matkernel.rk4 of without_direction) advances everything but
        the c2-weighted direction term to y*; equal clocks run at the base
        rate 1 and stay equal through every stage, so they need no coupling.
        The direction term then takes one linearly implicit Euler step with
        each edge's denominator ||w_e|| + eps e^{-phi t} frozen at y. With
        f = dt c2 / denominator at the tail and head clocks and
        W = Dp diag(f_t) - Dm diag(f_h), the term adds (I kron B) v to s,
        where v = (W kron I_p) w(x* + (I kron B) v) and w(x) = (D^T kron K) x
        stacks the edge inputs. That is one (N p) x (N p) solve in node
        space,

            (I - (W D^T) kron (K B)) v = (W kron I_p) w(x*).

        The right-hand side is formed from the edge differences w(x*), not
        as (W D^T kron K) x*, which would cancel large terms and lose the
        average. W D^T is the Laplacian of a weighted digraph (zero row
        sums, spectrum in the closed right half-plane) and
        K B = -B^T P B <= 0, so the matrix is nonsingular for any dt in exact
        arithmetic; with equal clocks it is symmetric positive definite
        (_implicit_matrix). In floating point the identity is lost where
        some w_e is exactly zero and f |KB| nears 1e16 (4.5e15 in the shipped
        static run at t = 78.7 s with no floor); the layer floor
        (LAYER_FLOOR) keeps f |KB| <= 1e12 dt.

        Above the dense limit an equal-clock solve is _solve_lagged, which
        starts from the last call's solution and is preconditioned with the
        inverse of an earlier call's matrix, both kept on this object. Its
        answer, accurate to ITERATIVE_RTOL, then depends to rounding (about
        1e-13 of it) on the calls before it, so one _Dynamics serves one
        trajectory: run compiles a fresh one per run.
        """
        n_agents, p, n_edges = self.n_agents, self.p, self.n_edges
        _, dclk, nrm, _ = self._edge_terms(y)
        synced = not np.count_nonzero(dclk)
        inv_t, inv_h = self._direction_coeffs(y, nrm, synced)
        y_next = rk4(self.without_direction, t, y, dt, not synced)

        f_t = (dt * self.c2) * inv_t
        f_h = f_t if synced else (dt * self.c2) * inv_h
        w = self._gather_w(y_next)
        tail = (self._edge_scale(f_t) * w).reshape(n_edges, p)
        head = tail if synced else (self._edge_scale(f_h) * w).reshape(n_edges, p)
        rhs = self._scatter(tail, head).ravel()
        if synced and not self.dense:
            v = self._solve_lagged(f_t, rhs)
        else:
            v = solve(self._implicit_matrix(f_t, f_h), rhs)
        s_next = y_next[self.sl_s]
        s_next += self._apply_b(v)
        return y_next

    def _solve_lagged(self, f, rhs):
        """The equal-clock implicit solve A v = rhs by conjugate gradients,
        A = I - (D diag(f) D^T) kron (K B) symmetric positive definite and
        applied in O(N + E) (_implicit_product). It starts from the last
        call's solution and is preconditioned with the inverse of an earlier
        call's matrix, which from one step to the next differs only in f.
        Past ITERATIVE_CAP iterations short of ITERATIVE_RTOL ||rhs||, on a
        breakdown, on the first call, or where ||rhs||^2 overflows, it
        refreshes: the inverse of this call's matrix gives the answer, with
        one step of iterative refinement, and becomes the preconditioner
        (Hairer and Wanner, Solving ODEs II, IV.8; Saad, Iterative Methods
        for Sparse Linear Systems, 2003, ch. 9). Over 500 steps on a ring of
        200 plus 100 chords, starting from the last solution takes 6.3
        iterations a solve and 3 refreshes where starting from zero takes
        7.6 and 4."""
        precond = self._precond
        tol2 = ITERATIVE_RTOL * ITERATIVE_RTOL * rhs.dot(rhs)
        # past ||rhs|| of about 1e154 tol2 overflows, and so would the
        # iteration's inner products: refresh
        if precond is not None and tol2 < math.inf:
            v = self._solution.copy()
            res = rhs - self._implicit_product(v, f)
            if res.dot(res) <= tol2:
                return v
            d = z = precond.dot(res)
            rz = res.dot(z)
            for _ in range(ITERATIVE_CAP):
                q = self._implicit_product(d, f)
                dq = d.dot(q)
                # a lagged inverse of a nearly singular matrix can lose its
                # definiteness in floating point; that, too, ends in a refresh
                if not (rz > 0.0 and dq > 0.0):
                    break
                alpha = rz / dq
                v += alpha * d
                res -= alpha * q
                if res.dot(res) <= tol2:
                    self._solution = v
                    return v
                z = precond.dot(res)
                rz, rz_last = res.dot(z), rz
                d = z + (rz / rz_last) * d
        # the old inverse is let go first, so the new one does not add to
        # its memory at the peak
        precond = self._precond = None
        precond = self._precond = np.linalg.inv(self._implicit_matrix(f, f))
        v = precond.dot(rhs)
        v += precond.dot(rhs - self._implicit_product(v, f))
        self._solution = v
        return v

    def _implicit_product(self, v, f):
        """A v for the equal-clock matrix A = I - (D diag(f) D^T) kron (K B)
        of implicit_step, v flat (N*p,), through the edge index arrays."""
        nodes = v.reshape(self.n_agents, self.p)
        edge = nodes.take(self.tails, axis=0) - nodes.take(self.heads, axis=0)
        edge *= f[:, None]
        lap = self._scatter(edge, edge)
        if self.single_channel:
            return v - self._kb1 * lap.ravel()
        return v - (lap @ self.kb.T).ravel()

    def _implicit_matrix(self, f_t, f_h):
        """I - (W D^T) kron (K B) of implicit_step, W = Dp diag(f_t) - Dm diag(f_h).

        W D^T is -f_t at each edge's (t,h) entry, -f_h at its (h,t) entry,
        and on the diagonal the sum of f over the edge ends at each agent.
        It is written at fixed indices into one N x N array that the next
        call overwrites: fresh N^2 arrays, page-faulted in anew each step,
        cost 17 times the arithmetic at N = 200. With one input channel that
        array is the matrix itself, scaled by -kb as it is written.
        """
        f_ends = self._f_ends
        self._f_halves[0][...] = f_t
        self._f_halves[1][...] = f_h
        diag = np.bincount(self.arcs[0], f_ends, self.n_agents)
        if self.single_channel:
            kb = self._kb1
            self._node_flat[self._off_index] = f_ends * kb
            diag *= -kb
            np.add(diag, 1.0, out=self._node_diag)
            return self._node
        self._node_flat[self._off_index] = -f_ends
        self._node_diag[...] = diag
        lhs = np.kron(self._node, -self.kb)
        lhs += self._eye
        return lhs

    def controls(self, t: float, y: np.ndarray) -> np.ndarray:
        """Stacked control inputs u (N, p) at the given state."""
        w, dclk, nrm, _ = self._edge_terms(y)
        inv_t, inv_h = self._direction_coeffs(y, nrm, not np.count_nonzero(dclk))
        shape = (self.n_edges, self.p)
        # two reshaped views even of one array: the dense _scatter then sums
        # Dp z_t - Dm z_h, where one product with D would round the traced
        # controls differently
        z_t, z_h = (z.reshape(shape) for z in self._edge_inputs(y, w, inv_t, inv_h))
        return self._control(y, w.reshape(shape), z_t, z_h)

    def component_name(self, flat_index: int) -> str:
        """Human-readable name of a flat state entry, for blow-up reports."""
        n_agents, n = self.n_agents, self.n
        if flat_index < self.sl_s.stop:
            return f"s[{flat_index // n},{flat_index % n}]"
        if flat_index < self.sl_r.stop:
            k = flat_index - self.sl_r.start
            return f"r[{k // n},{k % n}]"
        if flat_index < self.sl_c.stop:
            return f"clock[{flat_index - self.sl_c.start}]"
        if flat_index < self.sl_a.stop:
            return f"alpha[{flat_index - self.sl_a.start}]"
        return f"beta[{flat_index - self.sl_b.start}]"


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory with per-sample metrics. Sample times strictly
    increase with a constant stride of scenario.sample_every * scenario.step."""

    scenario: Scenario
    times: np.ndarray  # (S,)
    s: np.ndarray  # (S, N, n)
    r: np.ndarray  # (S, N, n)
    clocks: np.ndarray  # (S, N)
    alpha: np.ndarray  # (S, E)
    beta: np.ndarray  # (S, E)
    u: np.ndarray  # (S, N, p)
    xi: np.ndarray  # (S, N, n)
    xi_norm: np.ndarray  # (S,)
    v1: np.ndarray  # (S,)
    v2: np.ndarray | None  # (S,) for adaptive runs
    clock_spread: np.ndarray  # (S,)

    @property
    def x(self) -> np.ndarray:
        return self.s + self.r

    @property
    def sample_count(self) -> int:
        return self.times.shape[0]


def _check_finite(dyn: _Dynamics, y: np.ndarray, t: float):
    if not np.all(np.isfinite(y)):
        bad = int(np.nonzero(~np.isfinite(y))[0][0])
        raise NumericalError(
            f"integration produced a non-finite value in "
            f"{dyn.component_name(bad)} by t = {t:.6g}"
        )


def run(scenario: Scenario) -> Trace:
    """Integrate the scenario and sample states, controls, and metrics.

    The step count must be a whole multiple of sample_every so the final
    sample lands exactly on the horizon.
    """
    steps = scenario.steps
    if abs(steps * scenario.step - scenario.horizon) > 1e-9 * max(1.0, scenario.horizon):
        raise ValueError("horizon must be a whole number of steps")
    if steps % scenario.sample_every != 0:
        raise ValueError("step count must be a multiple of sample_every")

    dyn = _Dynamics(scenario)
    n_agents, n, p = dyn.n_agents, dyn.n, dyn.p
    n_samples = steps // scenario.sample_every + 1
    synced = dyn.equal_clock_path

    times = np.empty(n_samples)
    rows = np.empty((n_samples, dyn.dim))  # one sampled state a row
    u_out = np.empty((n_samples, n_agents * p))

    # the layout of _Dynamics, the adaptive gains starting at zero
    y = np.concatenate(
        (scenario.s0.ravel(), scenario.r0.ravel(), scenario.clocks0, np.zeros(2 * dyn.n_edges))
    )
    dt = scenario.step
    every = scenario.sample_every

    # Non-finite values are sticky through every term of the dynamics, so
    # checking at sample instants still catches any blow-up; a sum is finite
    # when every entry is, and _check_finite looks closer when it is not.
    for sample in range(n_samples):
        k = sample * every
        if sample and synced:
            y = dyn.loop.steps(y, (j * dt for j in range(k - every, k)), dt)
        elif sample:
            for j in range(k - every, k):
                y = dyn.advance(j * dt, y, dt)
        t = k * dt
        if not math.isfinite(y.sum()):
            _check_finite(dyn, y, t)
        times[sample] = t
        rows[sample] = y
        if not synced:
            u_out[sample] = dyn.controls(t, y).ravel()
    if synced:
        dyn.loop.controls(rows, u_out)
    s_out = rows[:, dyn.sl_s].reshape(n_samples, n_agents, n)
    r_out = rows[:, dyn.sl_r].reshape(n_samples, n_agents, n)
    c_out, a_out, b_out = rows[:, dyn.sl_c], rows[:, dyn.sl_a], rows[:, dyn.sl_b]

    gains, adapt = scenario.gains, scenario.adapt
    xi, xi_norm = consensus_error(s_out + r_out)
    v1 = _quadratic_form(xi, gains.p_mat)
    v2 = None
    if scenario.controller == "adaptive":
        v2 = v1 + _gain_deviation(
            a_out, b_out, gains.c1_floor, gains.c2_floor, adapt.mu, adapt.nu
        )

    return Trace(
        scenario=scenario,
        times=times,
        s=s_out,
        r=r_out,
        clocks=c_out,
        alpha=a_out,
        beta=b_out,
        u=u_out.reshape(n_samples, n_agents, p),
        xi=xi,
        xi_norm=xi_norm,
        v1=v1,
        v2=v2,
        clock_spread=clock_spread(c_out),
    )


# -- trajectory metrics ----------------------------------------------------
#
# Each takes one sample, agents by state (N, n), or a stack of them with
# leading sample axes (..., N, n), and returns one value per sample.


def consensus_error(x_all):
    """Deviation of every agent's state from the instantaneous mean, plus
    the stacked two-norm. Columns of the result always sum to zero."""
    x = np.asarray(x_all, dtype=float)
    xi = x - x.mean(axis=-2, keepdims=True)
    return xi, np.sqrt((xi * xi).sum(axis=(-2, -1)))


def tracking_error(x_all, r_all) -> np.ndarray:
    """Per-agent deviation from the average reference, x_i - mean_k(r_k)."""
    x = np.asarray(x_all, dtype=float)
    r = np.asarray(r_all, dtype=float)
    return x - r.mean(axis=-2, keepdims=True)


def _quadratic_form(xi, p_mat):
    """sum_i xi_i^T P xi_i, which is xi^T (M kron P) xi for a centred xi."""
    return np.einsum("...ia,ab,...ib->...", xi, p_mat, xi)


def _gain_deviation(alpha, beta, alpha_bar, beta_bar, mu, nu):
    """sum_e (alpha_e - alpha_bar)^2 / mu + (beta_e - beta_bar)^2 / nu."""
    return ((alpha - alpha_bar) ** 2 / mu + (beta - beta_bar) ** 2 / nu).sum(axis=-1)


def lyapunov_v1(xi, p_mat):
    """Quadratic certificate xi^T (M kron P) xi. The input is centered first
    (idempotent), so the value is insensitive to a mean component."""
    z, _ = consensus_error(xi)
    return _quadratic_form(z, np.asarray(p_mat, dtype=float))


def lyapunov_v2(xi, p_mat, alpha, beta, alpha_bar, beta_bar, mu, nu):
    """Adaptive certificate: V1 plus the ordered-pair sum of squared gain
    deviations, sum_i sum_{j in N_i} (tilde_a^2/(2 mu) + tilde_b^2/(2 nu)).
    alpha and beta are per undirected edge, so each deviation enters twice."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    return lyapunov_v1(xi, p_mat) + _gain_deviation(a, b, alpha_bar, beta_bar, mu, nu)


@dataclass(frozen=True)
class DecayReport:
    """Result of auditing dV1/dt <= -gamma V1 + forcing along a trace."""

    checked: int
    violations: int
    max_excess: float


def decay_check(trace: Trace, gains: GainSet, tol_scale: float = 1e-6) -> DecayReport:
    """Differentiate V1 by central differences at the sample stride and count
    samples violating

        dV1/dt <= -gamma V1 + c2 * sum_i |N_i| * eps * e^{-phi t_i} + tol

    with tol = tol_scale * (1 + |V1|). The gamma argument comes from the
    gains so a deliberately wrong rate can be audited (falsification runs).
    """
    v1 = trace.v1
    times = trace.times
    if v1.shape[0] < 3:
        return DecayReport(checked=0, violations=0, max_excess=0.0)
    degrees = trace.scenario.topology.neighbor_counts().astype(float)
    forcing = gains.c2 * gains.eps * (
        np.exp(-gains.phi * trace.clocks) @ degrees
    )
    vdot = (v1[2:] - v1[:-2]) / (times[2:] - times[:-2])
    rhs = -gains.gamma_rate * v1[1:-1] + forcing[1:-1] + tol_scale * (1.0 + np.abs(v1[1:-1]))
    excess = vdot - rhs
    violations = int(np.sum(excess > 0.0))
    return DecayReport(
        checked=int(vdot.shape[0]),
        violations=violations,
        max_excess=float(np.max(excess)) if excess.size else 0.0,
    )


def total_variation(trace: Trace) -> tuple[np.ndarray, float]:
    """Per-agent total variation of the control signal along the trace,
    sum_k ||u_i(t_{k+1}) - u_i(t_k)||, and the sum over agents."""
    du = np.diff(trace.u, axis=0)
    per_agent = np.sqrt((du * du).sum(axis=2)).sum(axis=0)
    return per_agent, float(per_agent.sum())
