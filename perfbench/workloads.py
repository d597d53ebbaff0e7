"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into one scenario document in the program's own
JSON schema; the program only ever sees that document. The same seed gives
the same document, byte for byte. The stdlib ``random`` module is used so
the harness process does not import numpy or the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1

# Spread of the shipped six_agent_static clock offsets. Keeping it fixed keeps
# the sync horizon max(1, 4*sqrt(spread)) = 1.2 s, hence its step count, the
# same for every seed.
SYNC_SPREAD = 0.09

LARGE_AGENTS = 200
LARGE_CHORDS = 100

WHY = {
    "demo_adaptive": (
        "This is the engine at small N, where each step's cost is numpy dispatch, "
        "not arithmetic: engine.run takes about 5.7 s of about 6 s and CSV writing "
        "about 0.3 s. It has no sync pre-phase and design takes about 4 ms, so it "
        "is the control on which clocksync and design changes should show no change."
    ),
    "static_sync": (
        "This is the only workload where clocksync dominates: the sync pre-phase "
        "takes about 6.6 s, 120 000 steps at h=1e-5 with the whole trajectory "
        "stored. With the shipped offsets the sync settles at t of about 0.2003 of "
        "a 1.2 s horizon, so about 83% of those steps are not needed; seeded offsets "
        "of the same spread settle at other times. It then runs 30 000 static-law engine "
        "steps, about 3.1 s."
    ),
    "large_static": (
        "Here gain design dominates: about 3.3 s, of which about 3.2 s is Jacobi "
        "sym_eigen on the 200x200 Laplacian. The engine is the same layer as in "
        "demo_adaptive but in its dense O(dim^2) regime: about 4 ms per step, a "
        "fused map of about 32 MB and a peak of about 115 MB. It is the workload "
        "where design, scaling and memory changes show, and where small-N dispatch "
        "tricks should not."
    ),
}

WORKLOADS = tuple(WHY)


def _uniform_rows(rng: random.Random, rows: int, cols: int) -> list:
    return [[rng.uniform(-1.0, 1.0) for _ in range(cols)] for _ in range(rows)]


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))


def demo_adaptive(root: Path, seed: int) -> dict:
    """The shipped six_agent_demo scenario with seeded initial references."""
    rng = random.Random(f"demo_adaptive/{seed}")
    doc = _shipped(root, "six_agent_demo")
    n = len(doc["plant"]["A"])
    doc["initial"]["r"] = _uniform_rows(rng, doc["topology"]["vertices"], n)
    return doc


def static_sync(root: Path, seed: int) -> dict:
    """The shipped six_agent_static scenario with seeded initial references
    and clock offsets rescaled to the shipped spread."""
    rng = random.Random(f"static_sync/{seed}")
    doc = _shipped(root, "six_agent_static")
    agents = doc["topology"]["vertices"]
    doc["initial"]["r"] = _uniform_rows(rng, agents, len(doc["plant"]["A"]))
    raw = [rng.uniform(-1.0, 1.0) for _ in range(agents)]
    lo, hi = min(raw), max(raw)
    doc["clock_sync"]["initial_offsets"] = [
        SYNC_SPREAD * ((v - lo) / (hi - lo) - 0.5) for v in raw
    ]
    return doc


def large_static(root: Path, seed: int) -> dict:
    """An N=200 ring plus 100 random chords, per-agent sinusoid amplitudes,
    the static law and a 0.5 s horizon (500 steps at stride 10). Plant, Q,
    eps and phi are those of the shipped static scenario."""
    rng = random.Random(f"large_static/{seed}")
    base = _shipped(root, "six_agent_static")
    n_agents = LARGE_AGENTS
    edges = [[i, (i + 1) % n_agents] for i in range(n_agents)]
    taken = {frozenset(e) for e in edges}
    while len(edges) < n_agents + LARGE_CHORDS:
        i, j = rng.randrange(n_agents), rng.randrange(n_agents)
        if i != j and frozenset((i, j)) not in taken:
            taken.add(frozenset((i, j)))
            edges.append([i, j])
    n = len(base["plant"]["A"])
    return {
        "plant": base["plant"],
        "Q": base["Q"],
        "topology": {"vertices": n_agents, "edges": edges},
        "inputs": [
            {"type": "sinusoid", "amplitude": [rng.uniform(0.5, 3.5)], "omega": 1.0, "phase": 0.0}
            for _ in range(n_agents)
        ],
        "controller": "static",
        "eps": base["eps"],
        "phi": base["phi"],
        "clock_sync": {"enabled": False},
        "integrator": {"step": 0.001, "horizon": 0.5, "stride": 10},
        "initial": {"r": _uniform_rows(rng, n_agents, n), "s": "zero", "clocks": "zero"},
        "seed": seed,
    }


GENERATORS = {
    "demo_adaptive": demo_adaptive,
    "static_sync": static_sync,
    "large_static": large_static,
}


def scenario_text(root: Path, workload: str, seed: int) -> str:
    """The scenario document for one workload and seed, as JSON text."""
    return json.dumps(GENERATORS[workload](root, seed), indent=1) + "\n"
