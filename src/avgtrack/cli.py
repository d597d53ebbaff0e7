"""Scenario ingestion, the gains/run/compare subcommands, and file emission.

Scenario files are strict JSON: unknown keys anywhere are rejected, all
dimensions must be mutually consistent, and outputs are byte-identical
across repeated invocations of the same configuration. Exit codes: 0
success, 1 file/schema problems, 2 violated design assumptions, 3 numerical
failures.

With clock sync enabled, run and compare run the sync pre-phase in a forked
copy of the CLI process alongside tracking: tracking starts from the
hand-over clock, which the inputs alone fix (clocksync.plan_sync), and the
child's outcome is read before any output is written. Where no process can
be forked the pre-phase runs in the CLI, first. Outputs, exit codes and the
stderr line are the same either way, and no child outlives the CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .clocksync import ATTRACTING, PAPER_LITERAL, clock_spread, plan_sync, run_sync
from .controllers import design_adaptive_params, design_gains, omega_radii
from .engine import Scenario, Trace, run, total_variation, tracking_error
from .errors import ConfigError, DesignError, NumericalError
from .graph import Topology
from .signals import ConstantInput, InputFamily, Plant, SinusoidInput, ZeroInput

SEED_ENV_VAR = "AVGTRACK_SEED"

# past 2**53, horizon / step is no longer a whole step count in a float
_MAX_STEPS = 2.0**53

# write_trace_csv formats at most this many values (64 KiB) at a time: the
# whole table at once was the peak of a run's memory
_CSV_VALUES = 8192

_TOP_KEYS = {
    "plant",
    "Q",
    "topology",
    "inputs",
    "controller",
    "eps",
    "phi",
    "mu",
    "nu",
    "theta",
    "chi",
    "c1",
    "c2",
    "clock_sync",
    "integrator",
    "initial",
    "output",
    "seed",
}
_ADAPTIVE_KEYS = ("mu", "nu", "theta", "chi")


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _number(value, where: str, positive=False, nonnegative=False) -> float:
    # bools are ints to Python; NaN and ints past float range fail the bound
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number")
    v = float(value)
    if positive and v <= 0.0:
        raise ConfigError(f"{where} must be positive")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{where} must be nonnegative")
    return v


def load_config(path) -> dict:
    """Read and schema-validate a scenario file, returning the raw document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    validate_config(doc)
    return doc


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _edges(value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError("topology.edges must be a list of vertex pairs")
    for k, e in enumerate(value):
        if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
            raise ConfigError(f"topology.edges[{k}] must be a pair of integer vertex indices")
    return tuple(tuple(e) for e in value)


def _parse_input_spec(spec, where: str):
    _require_keys(spec, {"type", "value", "amplitude", "omega", "phase"}, {"type"}, where)
    kind = spec["type"]
    if kind == "zero":
        _require_keys(spec, {"type"}, {"type"}, where)
        return ZeroInput()
    if kind == "constant":
        _require_keys(spec, {"type", "value"}, {"type", "value"}, where)
        return ConstantInput(value=_numbers(spec["value"], f"{where}.value"))
    if kind == "sinusoid":
        _require_keys(spec, {"type", "amplitude", "omega", "phase"}, {"type", "amplitude"}, where)
        return SinusoidInput(
            amplitude=_numbers(spec["amplitude"], f"{where}.amplitude"),
            omega=_number(spec.get("omega", 1.0), f"{where}.omega"),
            phase=_number(spec.get("phase", 0.0), f"{where}.phase"),
        )
    raise ConfigError(f"{where}.type must be zero, constant, or sinusoid")


def validate_config(doc: dict):
    """Structural validation: keys, the controller and the sections' types.
    Values are checked where ScenarioBundle reads them. Raises ConfigError
    on any schema violation."""
    _require_keys(doc, _TOP_KEYS, {"plant", "Q", "topology", "inputs", "controller"}, "config")
    _require_keys(doc["plant"], {"A", "B"}, {"A", "B"}, "plant")
    _require_keys(doc["topology"], {"vertices", "edges"}, {"vertices", "edges"}, "topology")
    if doc["controller"] not in ("static", "modified", "adaptive"):
        raise ConfigError("controller must be static, modified, or adaptive")
    if doc["controller"] == "adaptive":
        missing = [k for k in _ADAPTIVE_KEYS if k not in doc]
        if missing:
            raise ConfigError(f"adaptive controller requires key(s) {missing}")
    if not isinstance(doc["inputs"], (dict, list)):
        raise ConfigError("inputs must be an object or a per-agent list")
    if "clock_sync" in doc:
        _require_keys(
            doc["clock_sync"],
            {"enabled", "initial_offsets", "convention", "tol", "step"},
            {"enabled"},
            "clock_sync",
        )
    if "integrator" in doc:
        _require_keys(doc["integrator"], {"step", "horizon", "stride"}, set(), "integrator")
    if "initial" in doc:
        _require_keys(doc["initial"], {"r", "s", "clocks"}, set(), "initial")
    if "output" in doc:
        _require_keys(doc["output"], {"dir"}, set(), "output")
        if not isinstance(doc["output"].get("dir", ""), str):
            raise ConfigError("output.dir must be a string")


def _matrix(doc_value, where: str) -> np.ndarray:
    try:
        mat = np.array(doc_value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a nested numeric array: {exc}") from exc
    if mat.ndim != 2 or not np.all(np.isfinite(mat)):
        raise ConfigError(f"{where} must be a finite 2-D matrix")
    return mat


def _initial_block(doc: dict, key: str, shape: tuple, seed: int):
    value = doc.get("initial", {}).get(key, "zero")
    if value == "zero":
        return np.zeros(shape)
    if value == "seeded":
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, size=shape)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial.{key} must be numeric: {exc}") from exc
    if arr.shape != shape:
        raise ConfigError(f"initial.{key} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"initial.{key} entries must be finite")
    return arr


def _seed(doc: dict) -> int:
    """The seed of "seeded" initial blocks: AVGTRACK_SEED when it is set,
    else the config's seed, 0 by default. Each is checked where given."""
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    text = os.environ.get(SEED_ENV_VAR)
    if text is None:
        return seed
    try:
        seed = int(text)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be nonnegative, got {seed}")
    return seed


class ScenarioBundle:
    """Everything assembled from one config document."""

    def __init__(self, doc: dict):
        try:
            self._build(doc)
        except (ValueError, KeyError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    def _build(self, doc: dict):
        self.doc = doc
        self.plant = Plant(a=_matrix(doc["plant"]["A"], "plant.A"),
                           b=_matrix(doc["plant"]["B"], "plant.B"))
        self.q_mat = _matrix(doc["Q"], "Q")
        topo_doc = doc["topology"]
        if isinstance(topo_doc["vertices"], bool) or not isinstance(topo_doc["vertices"], int):
            raise ConfigError("topology.vertices must be an integer")
        self.topology = Topology(topo_doc["vertices"], _edges(topo_doc["edges"]))

        n_agents = self.topology.vertex_count
        inputs = doc["inputs"]
        if isinstance(inputs, dict):
            specs = (_parse_input_spec(inputs, "inputs"),) * n_agents
        else:
            if len(inputs) != n_agents:
                raise ConfigError(
                    f"inputs list has {len(inputs)} entries for {n_agents} agents"
                )
            specs = tuple(
                _parse_input_spec(spec, f"inputs[{i}]") for i, spec in enumerate(inputs)
            )
        self.family = InputFamily(specs=specs, input_dim=self.plant.input_dim)

        self.controller = doc["controller"]
        self.eps = _number(doc.get("eps", 1.0), "eps", nonnegative=True)
        self.phi = _number(doc.get("phi", 0.0), "phi", nonnegative=True)
        self.seed = _seed(doc)

        integ = doc.get("integrator", {})
        self.step = _number(integ.get("step", 1e-3), "integrator.step", positive=True)
        self.horizon = _number(integ.get("horizon", 30.0), "integrator.horizon", nonnegative=True)
        stride = integ.get("stride", 10)
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ConfigError("integrator.stride must be a positive integer")
        self.sample_every = stride

        sync = doc.get("clock_sync", {"enabled": False})
        self.sync_enabled = sync["enabled"]
        if type(self.sync_enabled) is not bool:
            raise ConfigError("clock_sync.enabled must be true or false")
        offsets = sync.get("initial_offsets", [0.0] * n_agents)
        self.sync_offsets = np.array(_numbers(offsets, "clock_sync.initial_offsets"))
        if self.sync_offsets.shape != (n_agents,):
            raise ConfigError("clock_sync.initial_offsets must list one value per agent")
        self.sync_convention = sync.get("convention", ATTRACTING)
        if self.sync_convention not in (ATTRACTING, PAPER_LITERAL):
            raise ConfigError(f"clock_sync.convention must be {ATTRACTING} or {PAPER_LITERAL}")
        self.sync_tol = _number(sync.get("tol", 1e-9), "clock_sync.tol", positive=True)
        self.sync_step = _number(sync.get("step", 1e-5), "clock_sync.step", positive=True)

        self.out_dir = Path(doc.get("output", {}).get("dir", "out"))

    def design(self):
        """Gain design plus optional adaptive parameters and radii."""
        gains = design_gains(
            self.plant,
            self.topology,
            self.family,
            self.q_mat,
            eps=self.eps,
            phi=self.phi,
            c1=None if self.doc.get("c1") is None else _number(self.doc["c1"], "c1"),
            c2=None if self.doc.get("c2") is None else _number(self.doc["c2"], "c2"),
        )
        adapt = None
        if self.controller == "adaptive":
            adapt = design_adaptive_params(
                gains,
                mu=_number(self.doc["mu"], "mu", positive=True),
                nu=_number(self.doc["nu"], "nu", positive=True),
                theta=_number(self.doc["theta"], "theta", positive=True),
                chi=_number(self.doc["chi"], "chi", positive=True),
            )
        return gains, adapt

    def scenario(
        self,
        gains,
        adapt,
        horizon: float | None = None,
        step: float | None = None,
        discontinuous: bool = False,
        clocks0=None,
    ) -> Scenario:
        n_agents, n = self.topology.vertex_count, self.plant.state_dim
        return Scenario(
            plant=self.plant,
            topology=self.topology,
            family=self.family,
            controller=self.controller,
            gains=gains,
            adapt=adapt,
            r0=_initial_block(self.doc, "r", (n_agents, n), self.seed),
            s0=_initial_block(self.doc, "s", (n_agents, n), self.seed),
            clocks0=(
                clocks0
                if clocks0 is not None
                else _initial_block(self.doc, "clocks", (n_agents,), self.seed)
            ),
            step=self.step if step is None else step,
            horizon=self.horizon if horizon is None else horizon,
            sample_every=self.sample_every,
            discontinuous=discontinuous,
            clock_convention=self.sync_convention,
        )


# -- report assembly ---------------------------------------------------------


def _matrix_list(mat) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(mat)]


def gain_report(bundle: ScenarioBundle) -> dict:
    gains, adapt = bundle.design()
    feasible = adapt is not None and adapt.feasible(gains)
    radii = omega_radii(gains, adapt if feasible else None, bundle.topology)
    return {
        "P": _matrix_list(gains.p_mat),
        "K": _matrix_list(gains.k_mat),
        "Gamma": _matrix_list(gains.gamma_mat),
        "lambda2": gains.lam2,
        "f0": gains.f0,
        "c1": gains.c1,
        "c2": gains.c2,
        "gamma": gains.gamma_rate,
        "eps": gains.eps,
        "phi": gains.phi,
        "rho": None if adapt is None else adapt.rho,
        "feasible": None if adapt is None else feasible,
        "omega0": radii.omega0,
        "omega2": radii.omega2,
        "omega1_level": radii.omega1_level,
    }


def write_trace_csv(trace: Trace, path: Path):
    """CSV schema: t, x_<i>_<k>, r_<i>_<k>, xi_<i>_<k>, u_<i>_<k>, V1
    [, V2, alpha_<e>, beta_<e>], clock_<i>; every value printed as %.17g."""
    sc = trace.scenario
    n_agents = sc.topology.vertex_count
    n = sc.plant.state_dim
    p = sc.plant.input_dim
    adaptive = sc.controller == "adaptive"

    header = ["t"]
    for tag, dim in (("x", n), ("r", n), ("xi", n)):
        header += [f"{tag}_{i}_{k}" for i in range(n_agents) for k in range(dim)]
    header += [f"u_{i}_{k}" for i in range(n_agents) for k in range(p)]
    header.append("V1")
    columns = [trace.times, trace.x, trace.r, trace.xi, trace.u, trace.v1]
    if adaptive:
        header.append("V2")
        header += [f"alpha_{e}" for e in range(sc.topology.edge_count)]
        header += [f"beta_{e}" for e in range(sc.topology.edge_count)]
        columns += [trace.v2, trace.alpha, trace.beta]
    header += [f"clock_{i}" for i in range(n_agents)]
    columns.append(trace.clocks)

    blocks = [col.reshape(trace.sample_count, -1) for col in columns]
    per_write = max(1, _CSV_VALUES // len(header))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, trace.sample_count, per_write):
            rows = slice(start, start + per_write)
            np.savetxt(fh, np.hstack([b[rows] for b in blocks]), fmt="%.17g", delimiter=",")


def summarize(trace: Trace, gains, adapt, bundle: ScenarioBundle, sync_info=None) -> dict:
    per_agent_tv, tv_total = total_variation(trace)
    tracking = tracking_error(trace.x[-1], trace.r[-1])
    radii = None
    if adapt is None or adapt.feasible(gains):
        radii = omega_radii(gains, adapt, bundle.topology)
    return {
        "final_time": float(trace.times[-1]),
        "final_xi_norm": float(trace.xi_norm[-1]),
        "final_tracking_error_norm": float(np.sqrt((tracking**2).sum())),
        "final_v1": float(trace.v1[-1]),
        "final_v2": float(trace.v2[-1]) if trace.v2 is not None else None,
        "max_clock_spread": float(trace.clock_spread.max()),
        "total_variation": {
            "per_agent": [float(v) for v in per_agent_tv],
            "total": tv_total,
        },
        "omega0": radii.omega0 if radii else None,
        "omega2": radii.omega2 if radii else None,
        "omega1_level": radii.omega1_level if radii else None,
        "clock_sync": sync_info,
        "samples": int(trace.sample_count),
    }


# -- subcommands --------------------------------------------------------------


def cmd_gains(config_path, out_dir=None) -> int:
    bundle = ScenarioBundle(load_config(config_path))
    report = gain_report(bundle)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gains.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _unstorable(key: str, what: str) -> ConfigError:
    return ConfigError(f"{key}: {what} do not fit in memory")


@contextmanager
def _stored(key: str, what: str):
    """Turns a MemoryError storing what, set by config key, into a ConfigError."""
    try:
        yield
    except MemoryError as exc:
        raise _unstorable(key, what) from exc


def _sync_outcome(bundle: ScenarioBundle) -> dict:
    """Runs the bundle's sync: its settled_at and final spread, or
    unstorable when its steps do not fit in memory."""
    try:
        result = run_sync(
            bundle.topology,
            bundle.sync_offsets,
            convention=bundle.sync_convention,
            tol=bundle.sync_tol,
            step=bundle.sync_step,
        )
    except MemoryError:
        return {"unstorable": True}
    return {"settled_at": result.settled_at, "final_spread": clock_spread(result.clocks[-1])}


def _sync_child(bundle: ScenarioBundle, parent: int, read_fd: int, write_fd: int):
    """The forked child: writes the sync outcome to write_fd as JSON, and ends
    itself within 0.1 s of its parent's death (SIGTERM ends the parent without
    clean-up). It leaves only through os._exit: it never unwinds into the
    caller's stack or flushes the stdio buffers it inherited."""
    code = 1
    try:
        import threading
        import time

        os.close(read_fd)

        def watch():
            while os.getppid() == parent:
                time.sleep(0.1)
            os._exit(1)

        threading.Thread(target=watch, daemon=True).start()
        with open(write_fd, "w", encoding="utf-8") as pipe:
            pipe.write(json.dumps(_sync_outcome(bundle)))
        code = 0
    finally:
        os._exit(code)


def _sync_info(bundle: ScenarioBundle, outcome: dict) -> dict:
    """The clock_sync block of a sync outcome, or the sync's failure."""
    if outcome.get("unstorable"):
        spread = clock_spread(bundle.sync_offsets)
        raise _unstorable(
            "clock_sync.initial_offsets", f"the sync steps for a spread of {spread:g}"
        )
    if outcome["settled_at"] is None:
        raise NumericalError(
            f"clock synchronization did not settle below {bundle.sync_tol}"
        )
    return {
        "settled_at": outcome["settled_at"],
        "final_spread": outcome["final_spread"],
        "tol": bundle.sync_tol,
    }


def _handover_clocks(bundle: ScenarioBundle) -> np.ndarray:
    """Exactly equal clocks at the sync's hand-over value; raises the sync's
    ValueErrors (run_sync's argument checks)."""
    plan = plan_sync(
        bundle.topology.vertex_count,
        bundle.sync_offsets,
        convention=bundle.sync_convention,
        tol=bundle.sync_tol,
        step=bundle.sync_step,
    )
    return np.full(bundle.topology.vertex_count, plan.handover)


def _fork_sync(bundle: ScenarioBundle):
    """(pid, read end of its pipe) of a forked child running the sync
    pre-phase (_sync_child), or None where no process can be had."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    # threading, time and warnings are imported where used: at the top, the
    # changed import order raised large_static's (no sync) peak by 0.15 MB
    import warnings

    parent = os.getpid()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork beside threads, such as OpenBLAS's
            # pool. The child makes no BLAS call (only indexing, bincount and
            # element-wise ops), so it cannot wait on a lock a pool thread held.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):  # no os.fork here, or no process
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _sync_child(bundle, parent, read_fd, write_fd)
    os.close(write_fd)
    return pid, read_fd


@contextmanager
def _sync_alongside(bundle: ScenarioBundle):
    """Yields (clocks0 for tracking, finish): finish() waits for the sync
    pre-phase and returns its clock_sync block, or raises its failure. With
    sync off, (None, a finish returning None). The pre-phase runs in a
    forked child, started here, which is killed and waited for on any exit;
    where none can be forked it runs here, first."""
    if not bundle.sync_enabled:
        yield None, lambda: None
        return
    clocks0 = _handover_clocks(bundle)
    child = _fork_sync(bundle)
    if child is None:
        info = _sync_info(bundle, _sync_outcome(bundle))
        yield clocks0, lambda: info
        return
    pid, read_fd = child
    waited = False

    def finish():
        nonlocal waited
        text = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        waited = True
        if code == 0:
            return _sync_info(bundle, json.loads(text))
        raise NumericalError(
            f"clock synchronization worker exited with code {code} and no result"
        )

    with open(read_fd, "rb") as pipe:
        try:
            yield clocks0, finish
        finally:
            if not waited:  # stop it
                os.kill(pid, 9)  # SIGKILL; importing signal adds 0.2 MB of peak
                os.waitpid(pid, 0)


def _simulate(config_path, out_dir, directions, horizon=None, step=None):
    """Load, design, sync when enabled and run once per entry of directions
    (True: discontinuous), tracking while the sync runs alongside. A failed
    sync is reported before any tracking failure, as when it ran first.
    Returns (bundle, gains, adapt, sync_info, traces, out)."""
    if horizon is not None:
        horizon = _number(horizon, "--horizon", nonnegative=True)
    if step is not None:
        step = _number(step, "--step", positive=True)
    length_key = (
        "--horizon" if horizon is not None else "--step" if step is not None
        else "integrator.horizon"
    )
    bundle = ScenarioBundle(load_config(config_path))
    gains, adapt = bundle.design()
    with _sync_alongside(bundle) as (clocks0, finish_sync):
        traces = []
        try:
            for discontinuous in directions:
                scenario = bundle.scenario(
                    gains, adapt, horizon=horizon, step=step,
                    discontinuous=discontinuous, clocks0=clocks0,
                )
                if scenario.horizon / scenario.step > _MAX_STEPS:
                    raise ConfigError(
                        f"{length_key}: {scenario.horizon:g} s in steps of "
                        f"{scenario.step:g} s is past float resolution (more than "
                        f"2**53 steps)"
                    )
                samples = scenario.steps // scenario.sample_every + 1
                with _stored(length_key, f"{samples} trace samples"):
                    traces.append(run(scenario))
        except Exception:
            finish_sync()
            raise
        sync_info = finish_sync()

    out = Path(out_dir) if out_dir is not None else bundle.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return bundle, gains, adapt, sync_info, traces, out


def cmd_run(config_path, horizon=None, step=None, out_dir=None) -> int:
    bundle, gains, adapt, sync_info, (trace,), out = _simulate(
        config_path, out_dir, (False,), horizon, step
    )
    write_trace_csv(trace, out / "trace.csv")
    summary = summarize(trace, gains, adapt, bundle, sync_info)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    return 0


def cmd_compare(config_path, out_dir=None) -> int:
    *_, sync_info, traces, out = _simulate(config_path, out_dir, (False, True))
    report = {"clock_sync": sync_info}
    for label, trace in zip(("continuous", "discontinuous"), traces):
        write_trace_csv(trace, out / f"trace_{label}.csv")
        _, tv_total = total_variation(trace)
        report[label] = {
            "total_variation": tv_total,
            "final_xi_norm": float(trace.xi_norm[-1]),
        }
    tv_disc = report["discontinuous"]["total_variation"]
    report["tv_ratio_continuous_over_discontinuous"] = (
        report["continuous"]["total_variation"] / tv_disc if tv_disc > 0.0 else None
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    (out / "comparison.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgtrack",
        description=(
            "Distributed average tracking: Riccati gain design and "
            "deterministic multi-agent simulation from JSON scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gains = sub.add_parser("gains", help="design gains and print the report")
    p_gains.add_argument("config")
    p_gains.add_argument("--out", default=None, help="also write gains.json here")

    p_run = sub.add_parser("run", help="simulate and write trace.csv + summary.json")
    p_run.add_argument("config")
    p_run.add_argument("--horizon", type=float, default=None)
    p_run.add_argument("--step", type=float, default=None)
    p_run.add_argument("--out", default=None)

    p_cmp = sub.add_parser(
        "compare", help="run the scenario with smooth and discontinuous directions"
    )
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gains":
            return cmd_gains(args.config, out_dir=args.out)
        if args.command == "run":
            return cmd_run(
                args.config, horizon=args.horizon, step=args.step, out_dir=args.out
            )
        return cmd_compare(args.config, out_dir=args.out)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but numerical
        print(f"numeric-error: linear algebra failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"schema-error: {exc}", file=sys.stderr)
        return 1
    except DesignError as exc:
        print(f"design-error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
