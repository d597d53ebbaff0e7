"""In-process probes run by the benchmark harness, one subprocess each.

    python3 probe.py setup CONFIG
        Times the program's set-up phase (load_config, ScenarioBundle,
        design() and scenario construction) once, cold, in a fresh process,
        and prints a JSON object with that time and the environment.

    python3 probe.py trace CONFIG OUT_DIR
        Runs avgtrack.cli.cmd_run(CONFIG, out_dir=OUT_DIR), the code path of
        ``avgtrack run``, with the calls it makes into the layers wrapped in
        spans, and prints a JSON object with the spans and the counts taken
        at span boundaries. It writes the same trace.csv and summary.json as
        the CLI, so the harness can check the traced run against it.

The harness puts the program's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import functools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from avgtrack import cli, controllers, graph
from avgtrack.cli import ScenarioBundle, load_config


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def probe_setup(config: str) -> dict:
    # Only the first repetition in a process is timed: later ones would be
    # warm, and a user's ``avgtrack run`` sets up once.
    t0 = time.perf_counter()
    bundle = ScenarioBundle(load_config(config))
    gains, adapt = bundle.design()
    bundle.scenario(gains, adapt)
    return {"setup_s": time.perf_counter() - t0, "env": environment()}


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, record=None):
        """Route calls the program makes through ``owner.attr`` (a module
        global or a method) into a span; ``record(result, *args, **kwargs)``
        is called with each return value, outside the span."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            result = self.span(name, inner, *args, **kwargs)
            if record is not None:
                record(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def probe_trace(config: str, out_dir: str) -> dict:
    tracer = Tracer()
    counts: dict = {}

    def record_sync(result, topology, offsets, *, step, **_):
        counts["sync_steps"] = int(result.times.shape[0] - 1)
        if result.settled_at is not None:
            counts["sync_useful_steps"] = int(round(result.settled_at / step))
        counts["sync_stored_bytes"] = _nbytes(result.times, result.clocks)

    def record_run(trace, scenario):
        counts["engine_steps"] = int(scenario.steps)
        counts["csv_rows"] = int(trace.sample_count) + 1
        counts["trace_bytes"] = _nbytes(
            trace.times, trace.s, trace.r, trace.clocks, trace.alpha, trace.beta,
            trace.u, trace.xi, trace.xi_norm, trace.v1, trace.v2, trace.clock_spread,
        )

    # Calls cmd_run makes, through the module globals of avgtrack.cli.
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "ScenarioBundle", "cli.ScenarioBundle")
    tracer.wrap(ScenarioBundle, "design", "controllers.design")
    tracer.wrap(ScenarioBundle, "scenario", "cli.scenario")
    tracer.wrap(cli, "run_sync", "clocksync.run_sync", record_sync)
    tracer.wrap(cli, "run", "engine.run", record_run)
    tracer.wrap(cli, "write_trace_csv", "cli.write_trace_csv")
    tracer.wrap(cli, "summarize", "cli.summarize")
    tracer.wrap(cli, "omega_radii", "controllers.omega_radii")
    tracer.wrap(cli, "total_variation", "engine.total_variation")
    # Calls made inside the layers, attributed to the layer they enter.
    tracer.wrap(controllers, "solve_care", "matkernel.solve_care")
    tracer.wrap(controllers, "lambda2", "graph.lambda2")
    tracer.wrap(controllers, "sym_eigen", "matkernel.sym_eigen")
    tracer.wrap(graph, "sym_eigen", "matkernel.sym_eigen")

    tracer.span("cli.cmd_run", cli.cmd_run, config, out_dir=out_dir)
    add_pre_phase_span(tracer.spans)
    counts["csv_bytes"] = (Path(out_dir) / "trace.csv").stat().st_size
    return {"spans": tracer.spans, "counts": counts, "env": environment()}


def add_pre_phase_span(spans: list):
    """Adds a ``clocksync.pre_phase`` span over the part of cmd_run between
    design() and scenario construction: the sync pre-phase where there is
    one, else only its enabled check. Spans inside it become its children."""
    top = next(i for i, s in enumerate(spans) if s[0] == "cli.cmd_run")
    design = next(s for s in spans if s[0] == "controllers.design" and s[3] == top)
    scenario = next(s for s in spans if s[0] == "cli.scenario" and s[3] == top)
    index = len(spans)
    start, end = design[2], scenario[1]
    for s in spans:
        if s[3] == top and start <= s[1] and s[2] <= end:
            s[3] = index
    spans.append(["clocksync.pre_phase", start, end, top])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        result = probe_setup(argv[1])
    elif len(argv) == 3 and argv[0] == "trace":
        result = probe_trace(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
