"""Undirected communication topology, its spectral quantities and its two
graph operators.

Edges are stored as ordered pairs purely to orient the incidence matrix
(first element = tail, +1; second = head, -1); every derived quantity used
by the control laws is orientation-invariant. The same orientation gives
the edge index arrays (tails, heads) that the clock law and the simulation
engine gather through. Every sum of per-edge terms into the agents is
Topology.scatter, and the node system that both implicit steps solve is
NodeSystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError
from .matkernel import solve, sym_eigen

# NodeSystem.solve_lagged: conjugate gradients to a residual of
# ITERATIVE_RTOL ||rhs||, refreshing the preconditioner past ITERATIVE_CAP
# iterations.
ITERATIVE_RTOL = 1e-13
ITERATIVE_CAP = 8


@dataclass(frozen=True)
class Topology:
    """Communication graph on vertices 0..vertex_count-1.

    Invariants: no self-loops, no duplicate edges (as unordered pairs), all
    endpoints in range. tails and heads are read-only integer arrays of the
    edges' first and second endpoints, and ends is tails then heads, all
    derived from edges, so equality and hashing still go by the edge tuple.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    heads: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be positive")
        object.__setattr__(self, "edges", tuple(tuple(int(v) for v in e) for e in self.edges))
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"edge ({i}, {j}) out of range for N={self.vertex_count}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
        tails, heads = (np.array([e[end] for e in self.edges], dtype=int) for end in (0, 1))
        for name, index in (("tails", tails), ("heads", heads), ("ends", np.append(tails, heads))):
            index.flags.writeable = False
            object.__setattr__(self, name, index)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbor_counts(self) -> np.ndarray:
        """|N_i| for every vertex, as an integer array."""
        return np.bincount(self.ends, minlength=self.vertex_count)

    def scatter(self, tail: np.ndarray, head: np.ndarray | None = None) -> np.ndarray:
        """D+ tail - D- head, D+ and D- the incidence matrix's +1 and -1
        entries as 0/1 matrices: per-edge rows (E,) or (E, ...) summed into
        each edge's tail and, negated, its head, (N,) or (N, ...), by one
        bincount over ends. head defaults to tail, which gives D tail."""
        weights = np.concatenate((tail, -(tail if head is None else head)))
        n = self.vertex_count
        if weights.ndim == 1:
            return np.bincount(self.ends, weights, n)
        k = math.prod(weights.shape[1:])
        bins = self.ends if k == 1 else (self.ends[:, None] * k + np.arange(k)).ravel()
        return np.bincount(bins, weights.ravel(), n * k).reshape(n, *weights.shape[1:])


class NodeSystem:
    """The node system (I + (W D^T) kron M) v = b of both implicit steps,
    W = D+ diag(f_t) - D- diag(f_h) for edge weights f_t and f_h at each
    edge's tail and head, M a symmetric positive semidefinite p x p matrix:
    the tracking step's direction term with M = B^T P B = -K B
    (engine._Dynamics.implicit_step), the clock sync's step with M = 1
    (clocksync._implicit_clock_step). W D^T is the Laplacian of a weighted
    digraph (zero row sums, spectrum in the closed right half-plane), so the
    matrix is nonsingular for nonnegative weights; with f_t = f_h = f it is
    I + L_f kron M, symmetric positive definite.

    solve_lagged keeps state between calls, so one NodeSystem serves one
    trajectory."""

    def __init__(self, topology: Topology, m):
        self.topology, self.m = topology, np.atleast_2d(np.asarray(m, dtype=float))
        n, n_edges, p = topology.vertex_count, topology.edge_count, self.m.shape[0]
        self.vertex_count, self.single = n, p == 1
        # matrix's buffers: [f_t | f_h] for the two ends of every edge, the
        # node matrix W D^T (written in place of the matrix itself when there
        # is one channel) and the flat indices of each edge's (t,h) and (h,t)
        # entries; every entry off the diagonal and those indices stays zero
        self._f_ends = np.empty(2 * n_edges)
        self._node = np.zeros((n, n))
        self._node_flat = self._node.reshape(-1)
        self._node_diag = self._node_flat[:: n + 1]
        tails, heads = topology.tails, topology.heads
        self._off_index = np.concatenate((tails * n + heads, heads * n + tails))
        if self.single:
            self._m1 = float(self.m[0, 0])
        else:
            self._eye = np.eye(n * p)
        # solve_lagged's preconditioner and last solution
        self._precond = self._solution = None

    def matrix(self, f_t: np.ndarray, f_h: np.ndarray) -> np.ndarray:
        """I + (W D^T) kron M.

        W D^T is -f_t at each edge's (t,h) entry, -f_h at its (h,t) entry,
        and on the diagonal the sum of f over the edge ends at each vertex.
        It is written at fixed indices into one N x N array that the next
        call overwrites: fresh N^2 arrays, page-faulted in anew each step,
        cost 17 times the arithmetic at N = 200. With one channel that
        array is the matrix itself, scaled by M as it is written: np.kron
        there took the clock sync's step from about 11 to 28 us.
        """
        f_ends = np.concatenate((f_t, f_h), out=self._f_ends)
        diag = np.bincount(self.topology.ends, f_ends, self.vertex_count)
        if self.single:
            self._node_flat[self._off_index] = f_ends * -self._m1
            diag *= self._m1
            np.add(diag, 1.0, out=self._node_diag)
            return self._node
        self._node_flat[self._off_index] = -f_ends
        self._node_diag[...] = diag
        lhs = np.kron(self._node, self.m)
        lhs += self._eye
        return lhs

    def solve(self, f_t: np.ndarray, f_h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """v with (I + (W D^T) kron M) v = rhs, by LU (matkernel.solve)."""
        return solve(self.matrix(f_t, f_h), rhs)

    def product(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """(I + L_f kron M) v, v flat (N p,), through the edge index arrays."""
        nodes = v.reshape(self.vertex_count, -1)
        tails, heads = self.topology.tails, self.topology.heads
        edge = nodes.take(tails, axis=0) - nodes.take(heads, axis=0)
        edge *= f[:, None]
        lap = self.topology.scatter(edge)
        if self.single:
            return v + self._m1 * lap.ravel()
        return v + (lap @ self.m.T).ravel()

    def solve_lagged(self, f: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """v with (I + L_f kron M) v = rhs by conjugate gradients, the
        matrix applied in O(N + E) (product). It starts from the last
        call's solution and is preconditioned with the inverse of an earlier
        call's matrix, which from one step to the next differs only in f.
        Past ITERATIVE_CAP iterations short of ITERATIVE_RTOL ||rhs||, on a
        breakdown, on the first call, or where ||rhs||^2 overflows, it
        refreshes: the inverse of this call's matrix gives the answer, with
        one step of iterative refinement, and becomes the preconditioner
        (Hairer and Wanner, Solving ODEs II, IV.8; Saad, Iterative Methods
        for Sparse Linear Systems, 2003, ch. 9). Its answer, accurate to
        ITERATIVE_RTOL, then depends to rounding (about 1e-13 of it) on the
        calls before it.

        In the tracking step on a ring of 200 plus 100 chords (one BLAS
        thread, 2-vCPU x86 VM shared with other load), starting from the
        last solution takes 6.3 iterations a solve and 3 refreshes in 500
        steps where starting from zero takes 7.6 and 4: a median of 0.58 ms
        a step against 1.20 ms with LU, and 3.8-4.2 ms against 33 ms at
        N = 1000."""
        precond = self._precond
        tol2 = ITERATIVE_RTOL * ITERATIVE_RTOL * rhs.dot(rhs)
        # past ||rhs|| of about 1e154 tol2 overflows, and so would the
        # iteration's inner products: refresh
        if precond is not None and tol2 < math.inf:
            v = self._solution.copy()
            res = rhs - self.product(v, f)
            if res.dot(res) <= tol2:
                return v
            d = z = precond.dot(res)
            rz = res.dot(z)
            for _ in range(ITERATIVE_CAP):
                q = self.product(d, f)
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
        precond = self._precond = np.linalg.inv(self.matrix(f, f))
        v = precond.dot(rhs)
        v += precond.dot(rhs - self.product(v, f))
        self._solution = v
        return v


def incidence(t: Topology) -> np.ndarray:
    """N x E incidence matrix: +1 at each edge's tail, -1 at its head."""
    d = np.zeros((t.vertex_count, t.edge_count))
    d[t.tails, np.arange(t.edge_count)] = 1.0
    d[t.heads, np.arange(t.edge_count)] = -1.0
    return d


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: degree minus adjacency, which equals D @ D.T for the
    signed incidence matrix of a simple graph."""
    lap = np.diag(t.neighbor_counts().astype(float))
    lap[t.tails, t.heads] = lap[t.heads, t.tails] = -1.0
    return lap


def is_connected(t: Topology) -> bool:
    """Breadth-first search reachability from vertex 0."""
    if t.vertex_count == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(t.vertex_count)]
    for i, j in t.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == t.vertex_count


def lambda2(t: Topology) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    Raises DesignError on a disconnected graph, where the value would be 0.
    """
    if not is_connected(t):
        raise DesignError("graph is not connected (algebraic connectivity is zero)")
    if t.vertex_count == 1:
        raise DesignError("single-vertex graph has no coupling spectrum")
    return float(sym_eigen(laplacian(t)).values[1])
