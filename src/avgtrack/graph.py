"""Undirected communication topology and its spectral quantities.

Edges are stored as ordered pairs purely to orient the incidence matrix
(first element = tail, +1; second = head, -1); every derived quantity used
by the control laws is orientation-invariant. The same orientation gives
the edge index arrays (tails, heads) that the clock law and the simulation
engine gather and scatter through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError
from .matkernel import sym_eigen


@dataclass(frozen=True)
class Topology:
    """Communication graph on vertices 0..vertex_count-1.

    Invariants: no self-loops, no duplicate edges (as unordered pairs), all
    endpoints in range. tails and heads are read-only integer arrays of the
    edges' first and second endpoints, derived from edges, so equality and
    hashing still go by the edge tuple.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    tails: np.ndarray = field(init=False, repr=False, compare=False)
    heads: np.ndarray = field(init=False, repr=False, compare=False)

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
        for name, end in (("tails", 0), ("heads", 1)):
            index = np.array([e[end] for e in self.edges], dtype=int)
            index.flags.writeable = False
            object.__setattr__(self, name, index)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets): each edge tail to head, then head to tail."""
        return np.concatenate((self.tails, self.heads)), np.concatenate((self.heads, self.tails))

    def neighbor_counts(self) -> np.ndarray:
        """|N_i| for every vertex, as an integer array."""
        return np.bincount(self.arcs()[0], minlength=self.vertex_count)


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
