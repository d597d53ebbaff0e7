"""The engine's equal-clock path: the dense form's steps when every clock
is equal at the start.

Each clock row of every step then adds the same value, so the clocks stay
bitwise equal, the clock couplings stay zero and the boundary layer
delta = eps e^{-phi t} is one value for every edge. At N = 6 a step's cost
is the count of numpy calls, not arithmetic, so EqualClockLoop takes each
step as a few products with matrices read off the edge operators once, in
one loop over a whole sample interval that writes through buffers it owns.
The sampled controls are the dynamics' own (engine._Dynamics.controls).
"""

from __future__ import annotations

import math

import numpy as np

from .graph import incidence
from .matkernel import RK4_STABILITY_LIMIT, matrix_of, rk4, solve


class EqualClockLoop:
    """The equal-clock path of one compiled scenario (engine._Dynamics in
    its dense form, see its equal_clock_path): fixed maps and the buffers
    of steps, which one trajectory at a time writes through.

    The stage map takes [y | w | w / (||w|| + delta) | 1 | sin(omega t +
    phase)] to the derivative and its edge inputs G_w y': out_map's y
    columns, its z_t and z_h columns summed (z_t = z_h with equal clocks;
    the clock couplings' columns only ever meet zeros and go), its affine
    column and the input wave's amplitude, then those times the gather's w
    rows G_w; its w columns are zero. The implicit map takes [f | f w* | 1]
    to the implicit matrix I + L f on the entries some edge reaches
    (node_rows; the others stay those of I in the reused matrix lhs),
    L f = vec((D diag(f) D^T) kron (-K B)), and below them to the
    right-hand side (D kron I_p)(f w*); on a ring of 50 plus 25 chords all
    (N p)^2 entries would be 12 times the rows. step_matrix is built per
    step size."""

    def __init__(self, dyn):
        dim, n_edges, p = dyn.dim, dyn.n_edges, dyn.p
        ep, nodes = n_edges * p, dyn.n_agents * p
        self.dim, self.n_edges, self.p, self.nodes = dim, n_edges, p, nodes
        self.eps, self.phi, self.floor = dyn.eps, dyn.phi, dyn.layer_floor
        self.omega, self.phase = dyn.wave_omega, dyn.wave_phase
        self.stiffness, self.c2, self.single = dyn.stiffness, dyn.c2, dyn.single_channel
        self.gather_w = dyn.gather[dyn.i_w]
        self._linear, self._const, self._amp = dyn._linear, dyn.const, dyn.in_amp

        y_cols, z_t, z_h = dyn._in_parts[:3]
        out_map = dyn.out_map
        stage_map = np.column_stack((
            out_map[:, y_cols], np.zeros((dim, ep)), out_map[:, z_t] + out_map[:, z_h],
            out_map[:, -1], dyn.in_amp,
        ))
        self.stage_map = np.vstack((stage_map, self.gather_w @ stage_map))
        self.with_w = np.vstack((np.eye(dim), self.gather_w))  # y to [y | w(y)]
        d_inc = incidence(dyn.topo)
        outer = d_inc[:, None, :] * d_inc[None, :, :]
        layer_map = np.einsum("ije,ab->iajbe", outer, dyn.system.m).reshape(nodes * nodes, -1)
        self.lhs = np.eye(nodes)
        self.lhs_flat = self.lhs.reshape(-1)
        self.node_rows = np.flatnonzero(layer_map.any(axis=1))
        reached = self.node_rows.size
        d_p = np.kron(d_inc, np.eye(p))
        self.implicit_map = np.zeros((reached + nodes, n_edges + ep + 1))
        self.implicit_map[:reached, :n_edges] = layer_map[self.node_rows]
        self.implicit_map[:reached, -1] = self.lhs_flat[self.node_rows]
        self.implicit_map[reached:, n_edges:-1] = d_p
        self.b_rows = np.zeros((dim, nodes))  # I kron B on the s rows of a state
        self.b_rows[dyn.sl_s] = matrix_of(dyn._apply_b, nodes)
        self._step_dt = self._step = None

        # The buffers and their views, made once: at N = 6 making the views
        # would cost as much as a step. The state lives in the step matrix's
        # input [y | 1 | s0 | sm | s1].
        self.state_in = np.zeros(dim + 4)
        self.state_in[dim] = 1.0
        self.state = self.state_in[:dim]
        self.clocks = self.state[dyn.sl_c]
        self.stage_in = np.zeros(dim + 2 * ep + 2)  # [stage | w | direction | 1 | sin]
        self.stage_in[-2] = 1.0
        self.stage, self.stage_y = self.stage_in[: dim + ep], self.stage_in[:dim]
        self.stage_w = self.stage_in[dim : dim + ep]
        self.stage_w_edges = self.stage_w.reshape(n_edges, p)
        self.direction = self.stage_in[dim + ep : -2].reshape(n_edges, p)
        self.base = np.empty(dim + ep)  # [y | w(y)]
        self.slopes = np.empty((4, dim + ep))
        self.slope_rows = tuple(self.slopes)
        self.den, self.sq = np.empty(n_edges), np.empty(ep)  # edge norms, squares
        self.den_col, self.sq_edges = self.den[:, None], self.sq.reshape(n_edges, p)
        self.step_out = np.empty(dim + 2 * ep)  # [y* | w(y*) | w(y)]
        self.y_star, self.w_now = self.step_out[:dim], self.step_out[dim + ep :]
        self.w_star = self.step_out[dim : dim + ep].reshape(n_edges, p)
        self.weights_in = np.zeros(n_edges + ep + 1)  # [f | f w* | 1]
        self.weights_in[-1] = 1.0
        self.f, self.f_col = self.weights_in[:n_edges], self.weights_in[:n_edges, None]
        self.f_w = self.weights_in[n_edges:-1].reshape(n_edges, p)
        self.implicit_out = np.empty(reached + nodes)  # [entries of I + L f | rhs]
        self.entries, self.rhs = self.implicit_out[:reached], self.implicit_out[reached:]
        self.state_b = np.empty(dim)

    def steps(self, y: np.ndarray, times, dt: float) -> np.ndarray:
        """A step of size dt from each time in times in turn, from y.
        Returns the state in the buffer state, which the next call
        overwrites and which may be passed back in.

        Each step reads the one layer delta = eps e^{-phi t} off the common
        clock t, kept as a Python float, and takes classical RK4 while that
        resolves the layer (the test of engine's layer_unresolved) and the
        implicit step past it. An RK4 stage is one product of the stage map
        with [stage | w | w / (||w|| + delta) | 1 | sin(omega t + phase)],
        which gives the next stage's w with its slope, and one product
        combines the four slopes. An implicit step is one product of
        step_matrix with [y | 1 | s0 | sm | s1], giving y*, w* = w(y*) and
        w = w(y); f = dt c2 / (||w|| + delta) and f w*, written into
        [f | f w* | 1]; one product of the implicit map with that, giving
        I + L f (scattered into lhs) and the right-hand side D (f w*);
        LAPACK's solve for v; and y = y* + (I kron B) v. Either step adds
        6 (dt / 6) to the clocks, the bits matkernel.rk4 gives them: the
        step matrix's clock rows hold it, and the RK4 branch writes it."""
        state, clocks, z = self.state, self.clocks, self.state_in
        if y is not state:
            state[...] = y
        clock = float(clocks[0])
        eps, phi, floor = self.eps, self.phi, self.floor
        omega, phase, single, dim = self.omega, self.phase, self.single, self.dim
        stiff = dt * self.stiffness
        half, dt_c2 = 0.5 * dt, dt * self.c2
        rk4_clock = 6.0 * (dt / 6.0)
        combine = np.array([dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])
        stage_in, stage, stage_y, base = self.stage_in, self.stage, self.stage_y, self.base
        stage_w, direction, stage_map, with_w = (
            self.stage_w, self.direction, self.stage_map, self.with_w
        )
        slopes, stage_w_edges = self.slopes, self.stage_w_edges
        k1, k2, k3, k4 = self.slope_rows
        den, sq, den_col, sq_edges = self.den, self.sq, self.den_col, self.sq_edges
        step, out = self.step_matrix(dt), self.step_out
        y_star, w_star, w_now = self.y_star, self.w_star, self.w_now
        weights_in, f, f_col, f_w = self.weights_in, self.f, self.f_col, self.f_w
        implicit_map, implicit_out = self.implicit_map, self.implicit_out
        entries, rhs, node_rows = self.entries, self.rhs, self.node_rows
        lhs, lhs_flat, b_rows, state_b = self.lhs, self.lhs_flat, self.b_rows, self.state_b

        for t in times:
            lay = eps * math.exp(-phi * clock)
            if lay < floor:
                lay = floor
            s0 = math.sin(omega * t + phase)
            sm = math.sin(omega * (t + half) + phase)
            s1 = math.sin(omega * (t + dt) + phase)
            if stiff > RK4_STABILITY_LIMIT * lay:
                z[dim + 1] = s0
                z[dim + 2] = sm
                z[dim + 3] = s1
                np.dot(step, z, out=out)
                if single:
                    np.abs(w_now, out=f)
                else:
                    np.multiply(w_now, w_now, out=sq)
                    np.add.reduce(sq_edges, axis=1, out=f)
                    np.sqrt(f, out=f)
                np.add(f, lay, out=f)
                np.divide(dt_c2, f, out=f)
                np.multiply(f_col, w_star, out=f_w)
                np.dot(implicit_map, weights_in, out=implicit_out)
                lhs_flat[node_rows] = entries
                np.dot(b_rows, solve(lhs, rhs), out=state_b)
                np.add(y_star, state_b, out=state)
                clock += rk4_clock
                continue
            mid = max(eps * math.exp(-phi * (clock + half)), floor)
            end = max(eps * math.exp(-phi * (clock + dt)), floor)
            np.dot(with_w, state, out=base)
            stage[...] = base
            for last, scale, slope, layer, wave in (
                (None, 0.0, k1, lay, s0), (k1, half, k2, mid, sm),
                (k2, half, k3, mid, sm), (k3, dt, k4, end, s1),
            ):
                if scale:
                    np.multiply(last, scale, out=stage)
                    np.add(stage, base, out=stage)
                if single:
                    np.abs(stage_w, out=den)
                else:
                    np.multiply(stage_w, stage_w, out=sq)
                    np.add.reduce(sq_edges, axis=1, out=den)
                    np.sqrt(den, out=den)
                np.add(den, layer, out=den)
                np.divide(stage_w_edges, den_col, out=direction)
                stage_in[-1] = wave
                np.dot(stage_map, stage_in, out=slope)
            np.dot(combine, slopes, out=stage)
            np.add(state, stage_y, out=state)
            clock += rk4_clock
            clocks[...] = clock
        return state

    def step_matrix(self, dt: float) -> np.ndarray:
        """[P ; G_w P ; G_w 0] at step dt, to multiply [y | 1 | s0 | sm |
        s1], s0, sm and s1 the input wave at the step's start, middle and
        end. P is the matrix of one matkernel.rk4 step of
        y' = D y + c const + s(tau) a as a linear map of [y | c | s0 | sm |
        s1], D the drift, const the affine column, a the wave's amplitude
        and s(tau) the wave at rk4's stage times: at c = 1 the dynamics'
        without_direction with equal clocks. It is read off on the unit
        vectors on the first call with a step size. G_w is the gather's w
        rows, so that one product gives y*, w(y*) and w(y)."""
        if dt != self._step_dt:
            self._step = None  # the old one is let go before the new is built
            dim, linear, const, amp = self.dim, self._linear, self._const, self._amp

            def affine(tau, y, scale, wave):
                ydot = linear(y, np.empty(dim))
                ydot += scale * const
                ydot += wave[tau] * amp
                return ydot

            def step(z):
                wave = dict(zip((0.0, 0.5 * dt, dt), z[dim + 1 :]))
                return rk4(affine, 0.0, z[:dim], dt, z[dim], wave)

            prop = matrix_of(step, dim + 4)
            w_now = np.zeros((self.n_edges * self.p, dim + 4))
            w_now[:, :dim] = self.gather_w
            self._step = np.vstack((prop, self.gather_w @ prop, w_now))
            self._step_dt = dt
        return self._step
