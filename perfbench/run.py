"""avgtrack benchmark: time to solution, set-up time and peak memory of
``avgtrack run`` on three seeded workloads, plus per-layer timings and
counts from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads in turn and prefixes each metric
with its workload's name. BENCHMARK.json lists static_sync and large_static
only: runs long enough to steady wall_s on a 2-vCPU shared host leave time
for two workloads, and demo_adaptive is the one whose layers the other two
still cover (the N=6 engine runs on static_sync). It stays here, to be run
by name.

Run it from the root of a source checkout; the program is imported from
``src/`` and the shipped scenarios are read from ``scenarios/``. Work files
go to ``.perfbench_work/`` in the checkout. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report.

With ``--trace 0`` the end-to-end metrics are measured with tracing off, from
as many CLI runs as fit in --seconds, and at least MIN_RUNS:

    wall_s       the ``avgtrack run`` command, launched as a user launches it
                 (a fresh interpreter calling avgtrack.cli.main), until
                 trace.csv and summary.json are written; median of the runs.
    setup_s      load_config, ScenarioBundle, design() and scenario
                 construction timed alone, once and cold, in fresh probe
                 processes launched before each CLI run (as many as fit in
                 SETUP_BUDGET_S, at least one); median of all probes.
    peak_rss_mb  peak resident memory of the process of one CLI run
                 (wait4 ru_maxrss); median of the runs.

With ``--trace 1`` each CLI run, at least MIN_RUNS of them, is paired with
a traced run of cli.cmd_run (probe.py) that puts one span around each call
into cli, controllers, graph, matkernel, clocksync and engine; the
per-layer metrics are medians over the pairs of values from those spans and
from counts taken at their boundaries. ``signals`` and
``errors`` do no timed work of their own on these paths (every workload
shares one input frequency and phase, so the input waves are folded into
the engine's compiled right-hand side), so they get no metric.

Every CLI run, and every traced run, is checked; a run failing a check counts
as failed:
  * summary.json is byte-identical to the first run of the same workload
    and seed in this invocation (and the traced run's to the CLI's);
  * average conservation: final_tracking_error_norm^2 - final_xi_norm^2,
    which is N * |mean x - mean r|^2, is within CONSERVATION_RTOL of 0;
  * static_sync: clock_sync.settled_at is not null;
  * demo_adaptive: final_xi_norm <= the omega2 of the run's own summary;
  * trace.csv has one row per sample plus the header;
  * at the default seed, every summary scalar matches reference.json
    within REFERENCE_RTOL (relative) or REFERENCE_ATOL (absolute).

Load discipline: one workload process runs at a time, and every process
gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=BLAS_THREADS,
which must not exceed nproc.

Left out on purpose (from ROADMAP open item 1):
  * a ``--timings`` CLI flag: it changes the program; spans here are
    recorded from the benchmark's own files instead.
  * the tier-1 wall-time row and the 400k-step criterion-4 row: their runs
    are too long to repeat for every benchmark run. engine.step_us on
    static_sync stands in for the static-law step cost.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# One BLAS thread: on a 2-vCPU x86 VM two threads gave the N=200 dense
# matvec no wall-time gain for 30% more CPU time, and one thread keeps a run
# from depending on the load on the other core.
BLAS_THREADS = 1
# CLI runs (each after its set-up probes) per end-to-end measurement, and
# CLI/traced pairs per traced measurement: as many as fit in --seconds, at
# least MIN_RUNS, so every workload gets a median of at least three.
MIN_RUNS = 3
# Set-up probes before each CLI run: fresh processes until this much wall
# time has passed, at least one. A probe process costs about 0.2 s plus the
# set-up itself.
SETUP_BUDGET_S = 1.0
# Every child is killed once its workload has run this long, so a run of one
# workload ends within 180 s even if the program hangs. With --workload all
# the limit applies to each workload in turn.
HARD_LIMIT_S = 170.0
CONSERVATION_RTOL = 1e-9
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9

CLI_MAIN = "import sys; from avgtrack.cli import main; sys.exit(main())"
LAYERS = ("cli", "controllers", "graph", "matkernel", "clocksync", "engine")

# (name, unit, note); the note says how a value is derived when not timed.
PER_LAYER = (
    ("cli.load_s", "s", "load_config"),
    ("cli.bundle_s", "s", "ScenarioBundle"),
    ("cli.scenario_s", "s", "bundle.scenario"),
    ("cli.csv_s", "s", "write_trace_csv"),
    ("cli.csv_rows", "count", "computed: samples plus the header line"),
    ("cli.csv_bytes", "B", "size of trace.csv"),
    ("cli.summarize_s", "s", "summarize"),
    ("controllers.design_s", "s", "bundle.design"),
    ("graph.lambda2_s", "s", "lambda2"),
    ("matkernel.sym_eigen_s", "s", "sym_eigen on the Laplacian"),
    ("matkernel.care_s", "s", "solve_care"),
    ("clocksync.run_sync_s", "s", "cmd_run between design and scenario: the sync pre-phase, "
     "or only its enabled check"),
    ("clocksync.steps", "count", "sync RK4 steps; 0 without a sync pre-phase"),
    ("clocksync.useful_steps", "count", "computed: settled_at / sync step"),
    ("clocksync.useful_fraction", "ratio", "useful_steps / steps, i.e. settled_at / horizon"),
    ("clocksync.stored_bytes", "B", "computed: nbytes of the stored sync trajectory"),
    ("engine.run_s", "s", "run"),
    ("engine.steps", "count", "RK4 steps"),
    ("engine.rhs_evals", "count", "computed: 4 x engine.steps"),
    ("engine.step_us", "us", "engine.run_s / engine.steps"),
    ("engine.trace_bytes", "B", "computed: nbytes of the returned Trace arrays"),
) + tuple((f"{layer}.self_s", "s", "span time minus child spans") for layer in LAYERS) + (
    ("tracing.wall_s", "s", "traced run process, launch to exit"),
    ("tracing.overhead_s", "s", "tracing.wall_s minus the paired untraced wall_s"),
)


class Failure(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AVGTRACK_SEED", None)  # would override the scenario's seed
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def flatten(doc, prefix="") -> dict:
    """Scalar leaves of a summary, keyed by dotted path; lists are skipped."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        elif not isinstance(value, list):
            out[f"{prefix}{key}"] = value
    return out


def check_outputs(workload: str, out_dir: Path, expected: str | None, expected_from: str,
                  reference: dict | None) -> tuple[str | None, list]:
    """Checks one run's outputs; returns (summary text, problems). ``expected``
    is the summary text this run must reproduce byte for byte, if any."""
    try:
        text = (out_dir / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text)
        with open(out_dir / "trace.csv", "rb") as fh:
            csv_rows = sum(1 for _ in fh)
    except (OSError, ValueError) as exc:
        return None, [f"outputs unreadable: {exc}"]
    problems = []
    if expected is not None and text != expected:
        problems.append(f"summary.json differs from {expected_from}")
    try:
        problems += summary_problems(workload, summary, csv_rows, reference)
    except (KeyError, TypeError) as exc:
        problems.append(f"summary.json lacks an expected field: {exc!r}")
    return text, problems


def summary_problems(workload: str, summary: dict, csv_rows: int, reference: dict | None) -> list:
    problems = []
    if csv_rows != summary["samples"] + 1:
        problems.append(f"trace.csv has {csv_rows} rows for {summary['samples']} samples")
    track, xi = summary["final_tracking_error_norm"], summary["final_xi_norm"]
    drift = track * track - xi * xi
    if abs(drift) > CONSERVATION_RTOL * max(1.0, track * track):
        problems.append(f"average not conserved: |x-mean r|^2 - |xi|^2 = {drift:.3e}")
    if workload == "static_sync" and (summary["clock_sync"] or {}).get("settled_at") is None:
        problems.append("clock sync did not settle")
    if workload == "demo_adaptive" and not (
        summary["omega2"] is not None and xi <= summary["omega2"]
    ):
        problems.append(f"final_xi_norm {xi} exceeds omega2 {summary['omega2']}")
    if reference is not None:
        got = flatten(summary)
        for key, want in reference.items():
            have = got.get(key)
            same = have == want or (
                isinstance(have, (int, float)) and isinstance(want, (int, float))
                and math.isclose(have, want, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
            )
            if not same:
                problems.append(f"{key} = {have}, reference {want}")
    return problems


def quartile_line(name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{name:<28} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def read_probe(log: Path) -> dict:
    lines = log.read_text(encoding="utf-8").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise Failure(f"probe printed no result; see {log}") from exc


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "scenario.json"
        self.config.write_text(workloads.scenario_text(ROOT, workload, seed), encoding="utf-8")
        self.reference = None
        if seed == workloads.DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]
        self.first_summary = None
        self.attempted = 0
        self.failed = 0
        self.runs = 0

    def launch(self, argv: list, log: Path) -> tuple[float, float, int]:
        """Runs one child process, alone; returns (wall seconds, peak RSS in
        MB, exit code). Its stdout and stderr go to ``log``."""
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise Failure("out of time before launching a child process")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def fail(self, what: str, problems: list):
        self.failed += 1
        for problem in problems:
            print(f"FAILED {what}: {problem}")

    def cli_run(self) -> tuple[float, float, str | None]:
        """One ``avgtrack run``; returns (wall, peak RSS MB, summary text)."""
        out = self.dir / "cli"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-c", CLI_MAIN, "run", str(self.config), "--out", str(out)]
        self.attempted += 1
        self.runs += 1
        wall, rss, code = self.launch(argv, self.dir / "cli.log")
        if code != 0:
            self.fail(f"cli run {self.runs}", [f"exit code {code}; see {self.dir / 'cli.log'}"])
            return wall, rss, None
        text, problems = check_outputs(
            self.workload, out, self.first_summary, "the first run's", self.reference
        )
        if problems:
            self.fail(f"cli run {self.runs}", problems)
        if self.first_summary is None:
            self.first_summary = text
        return wall, rss, text

    def probe(self, *args) -> tuple[float, dict | None]:
        log = self.dir / f"probe-{args[0]}.log"
        self.attempted += 1
        wall, _, code = self.launch([sys.executable, str(PROBE), *args], log)
        if code != 0:
            self.fail(f"probe {args[0]}", [f"exit code {code}; see {log}"])
            return wall, None
        return wall, read_probe(log)

    def time_left(self, next_cost: float) -> bool:
        return time.perf_counter() - self.started + next_cost <= self.seconds

    def end_to_end(self) -> tuple[dict, dict]:
        samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
        env = None
        while True:
            t0 = time.perf_counter()
            while True:
                _, setup = self.probe("setup", str(self.config))
                if setup is not None:
                    samples["setup_s"].append(setup["setup_s"])
                    env = setup["env"]
                if time.perf_counter() - t0 >= SETUP_BUDGET_S:
                    break
            wall, rss, text = self.cli_run()
            if text is not None:
                samples["wall_s"].append(wall)
                samples["peak_rss_mb"].append(rss)
            if self.runs >= MIN_RUNS and not self.time_left(time.perf_counter() - t0):
                break
        if not (samples["wall_s"] and samples["setup_s"]):
            raise Failure("no successful run to measure")
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        for name, unit in units.items():
            print(quartile_line(name, unit, samples[name]))
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        }
        return metrics, env

    def traced(self) -> tuple[dict, dict]:
        per_pair: list[dict] = []
        all_spans = []
        env = None
        while True:
            t0 = time.perf_counter()
            wall, _, cli_text = self.cli_run()
            traced_out = self.dir / "traced"
            shutil.rmtree(traced_out, ignore_errors=True)
            traced_wall, result = self.probe("trace", str(self.config), str(traced_out))
            if result is not None:
                # The traced run's summary.json must equal the CLI's.
                _, problems = check_outputs(
                    self.workload, traced_out, cli_text, "the CLI run's", self.reference
                )
                if problems:
                    self.fail("traced run", problems)
                if cli_text is not None:
                    values = layer_metrics(result["spans"], result["counts"])
                    values["tracing.wall_s"] = traced_wall
                    values["tracing.overhead_s"] = traced_wall - wall
                    per_pair.append(values)
                    all_spans.append(result["spans"])
                    env = result["env"]
            if self.runs >= MIN_RUNS and not self.time_left(time.perf_counter() - t0):
                break
        if not per_pair:
            raise Failure("no successful traced pair")
        # Spans are kept in memory and written once, at the end.
        (self.dir / "spans.json").write_text(json.dumps(all_spans), encoding="utf-8")
        metrics = {}
        for name, unit, note in PER_LAYER:
            values = [pair[name] for pair in per_pair]
            print(f"{quartile_line(name, unit, values)}  ({note})")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        return metrics, env


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer times from [name, start, end, parent] spans, plus counts."""
    duration = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent), d in zip(spans, duration):
        if parent >= 0:
            child[parent] += d
    total: dict = {}
    values = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, _, _, parent), d, c in zip(spans, duration, child):
        total[name] = total.get(name, 0.0) + d
        values[f"{name.split('.')[0]}.self_s"] += d - c
    laplacian_eigen = sum(
        d for (name, _, _, parent), d in zip(spans, duration)
        if name == "matkernel.sym_eigen" and parent >= 0 and spans[parent][0] == "graph.lambda2"
    )
    steps = counts["engine_steps"]
    sync_steps = counts.get("sync_steps", 0)
    values.update({
        "cli.load_s": total["cli.load_config"],
        "cli.bundle_s": total["cli.ScenarioBundle"],
        "cli.scenario_s": total["cli.scenario"],
        "cli.csv_s": total["cli.write_trace_csv"],
        "cli.csv_rows": counts["csv_rows"],
        "cli.csv_bytes": counts["csv_bytes"],
        "cli.summarize_s": total["cli.summarize"],
        "controllers.design_s": total["controllers.design"],
        "graph.lambda2_s": total["graph.lambda2"],
        "matkernel.sym_eigen_s": laplacian_eigen,
        "matkernel.care_s": total["matkernel.solve_care"],
        "clocksync.run_sync_s": total["clocksync.pre_phase"],
        "clocksync.steps": sync_steps,
        "clocksync.useful_steps": counts.get("sync_useful_steps", 0),
        "clocksync.useful_fraction": (
            counts["sync_useful_steps"] / sync_steps if sync_steps else 0.0
        ),
        "clocksync.stored_bytes": counts.get("sync_stored_bytes", 0),
        "engine.run_s": total["engine.run"],
        "engine.steps": steps,
        "engine.rhs_evals": 4 * steps,
        "engine.step_us": 1e6 * total["engine.run"] / steps,
        "engine.trace_bytes": counts["trace_bytes"],
    })
    return values


def check_tree():
    needed = [SRC / "avgtrack" / "cli.py"] + [
        ROOT / "scenarios" / f"{name}.json" for name in ("six_agent_demo", "six_agent_static")
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise Failure(f"not a source checkout of avgtrack: missing {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        check_tree()
        nproc = len(os.sched_getaffinity(0))
        if BLAS_THREADS > nproc:
            raise Failure(f"BLAS thread cap {BLAS_THREADS} exceeds nproc {nproc}")
        for name in names:
            bench = Bench(name, args.seed, args.seconds)
            print(f"workload {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
            print(f"why: {workloads.WHY[name]}")
            metrics, env = bench.traced() if args.trace else bench.end_to_end()
            print(f"env: nproc {nproc}, python {env['python']}, numpy {env['numpy']}, "
                  f"blas {env['blas']}, blas thread cap {BLAS_THREADS}, one process at a time")
            print(f"checks: {bench.attempted} attempted, {bench.failed} failed "
                  f"({bench.runs} CLI runs)")
            result["correct"] = result["correct"] and bench.failed == 0
            result["attempted"] += bench.attempted
            result["failed"] += bench.failed
            prefix = f"{name}/" if len(names) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
