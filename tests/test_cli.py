import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avgtrack
from avgtrack import cli
from avgtrack.cli import (
    ScenarioBundle,
    load_config,
    main,
    validate_config,
)
from avgtrack.clocksync import plan_sync, settling_bound
from avgtrack.engine import run
from avgtrack.errors import ConfigError, NumericalError

from conftest import DEMO_CONFIG, STATIC_CONFIG


def tiny_config(**overrides):
    doc = {
        "plant": {"A": [[-1.0]], "B": [[1.0]]},
        "Q": [[1.0]],
        "topology": {"vertices": 2, "edges": [[0, 1]]},
        "inputs": {"type": "zero"},
        "controller": "static",
        "eps": 1.0,
        "phi": 0.0,
        "integrator": {"step": 0.01, "horizon": 0.1, "stride": 1},
        "initial": {"r": [[1.0], [-1.0]], "s": "zero", "clocks": "zero"},
        "seed": 7,
    }
    doc.update(overrides)
    return doc


SETTLING_SYNC = {"enabled": True, "initial_offsets": [0.01, -0.01], "tol": 1e-9, "step": 1e-5}
DIVERGING_SYNC = {
    "enabled": True,
    "initial_offsets": [0.5, -0.5],
    "convention": "paper_literal",
    "tol": 1e-6,
    "step": 1e-4,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigSchema:
    def test_round_trip_identity(self, tmp_path):
        doc = load_config(DEMO_CONFIG)
        path = write_config(tmp_path, json.loads(json.dumps(doc, indent=2, sort_keys=True)))
        assert load_config(path) == doc

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, tiny_config(extra_knob=1))
        with pytest.raises(ConfigError, match="extra_knob"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        doc = tiny_config()
        doc["integrator"]["fancy"] = True
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="fancy"):
            load_config(path)

    def test_adaptive_requires_rate_constants(self):
        with pytest.raises(ConfigError, match="mu"):
            validate_config(tiny_config(controller="adaptive"))

    def test_inputs_list_length_checked(self, tmp_path):
        doc = tiny_config(inputs=[{"type": "zero"}])
        with pytest.raises(ConfigError, match="1 entries for 2 agents"):
            ScenarioBundle(load_config(write_config(tmp_path, doc)))

    def test_dimension_mismatch_is_schema_error(self, tmp_path):
        doc = tiny_config()
        doc["initial"]["r"] = [[1.0, 2.0], [3.0, 4.0]]
        bundle = ScenarioBundle(load_config(write_config(tmp_path, doc)))
        gains, adapt = bundle.design()
        with pytest.raises(ConfigError, match="initial.r"):
            bundle.scenario(gains, adapt)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestExitCodes:
    def test_gains_ok(self, capsys):
        assert main(["gains", str(DEMO_CONFIG)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True

    def test_missing_file_is_one(self, capsys):
        assert main(["gains", "/nonexistent/nowhere.json"]) == 1
        assert capsys.readouterr().err.startswith("schema-error:")

    def test_unknown_key_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(bogus=1))
        assert main(["gains", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema-error:")
        assert len(err.strip().splitlines()) == 1

    def test_disconnected_graph_is_two(self, tmp_path, capsys):
        doc = tiny_config(topology={"vertices": 2, "edges": []})
        path = write_config(tmp_path, doc)
        assert main(["gains", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("design-error:")
        assert "connected" in err

    def test_unstabilizable_plant_is_two(self, tmp_path, capsys):
        doc = tiny_config(plant={"A": [[1.0]], "B": [[0.0]]})
        path = write_config(tmp_path, doc)
        assert main(["gains", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("design-error:")
        assert "stabilizable" in err

    def test_diverging_clock_sync_is_three(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(clock_sync=DIVERGING_SYNC))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("numeric-error:")

    def test_eigensolver_failure_is_three(self, tmp_path, capsys, monkeypatch):
        def no_convergence(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        path = write_config(tmp_path, tiny_config())
        assert main(["gains", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric-error:")
        assert len(err.strip().splitlines()) == 1

    def test_stray_linear_algebra_error_is_three(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it must not read as a schema error
        def singular(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("avgtrack.cli.run", singular)
        path = write_config(tmp_path, tiny_config())
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric-error:")
        assert len(err.strip().splitlines()) == 1

    def test_unstorable_clock_sync_is_one(self, tmp_path, capsys):
        # a spread of 1e14 sets a sync horizon of 4e7 s: 4e12 stored steps
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"]["initial_offsets"] = [1e14, 0, 0, 0, 0, 0]
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema-error: clock_sync.initial_offsets")
        assert len(err.strip().splitlines()) == 1

    def test_unindexable_clock_sync_is_one(self, tmp_path, capsys):
        # a spread of 1e30 asks for 4e20 rows, past what numpy can index
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"]["initial_offsets"] = [1e30, 0, 0, 0, 0, 0]
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema-error: clock_sync.initial_offsets: ")
        assert "do not fit in memory" in err
        assert len(err.strip().splitlines()) == 1

    def test_unstorable_trace_is_one(self, tmp_path, capsys):
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"]["enabled"] = False
        doc["integrator"] = {"step": 1e-3, "horizon": 1e12, "stride": 1}
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema-error: integrator.horizon")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value, cause",
        [
            ("--horizon", "1e12", "trace samples do not fit in memory"),
            ("--horizon", "1e300", "past float resolution"),
            ("--step", "1e-15", "past float resolution"),
        ],
        ids=["horizon-unstorable", "horizon-past-resolution", "step-past-resolution"],
    )
    def test_huge_run_length_flag_is_named(self, tmp_path, capsys, flag, value, cause):
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"]["enabled"] = False
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), flag, value, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"schema-error: {flag}: ")
        assert cause in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("topology", "edges"), [1, 2], "topology.edges[0]"),
            (("topology", "edges", 0), [0, None], "topology.edges[0]"),
            (("topology", "edges", 0), [0, 1.7], "topology.edges[0]"),
            (("topology", "edges", 0), [0, True], "topology.edges[0]"),
            (("inputs", 0, "amplitude"), 5, "inputs[0].amplitude"),
            (("c1",), [1], "c1"),
            (("c1",), True, "c1"),
            (("output", "dir"), 5, "output.dir"),
            (("integrator", "horizon"), float("inf"), "integrator.horizon"),
            (("eps",), float("nan"), "eps"),
            (("clock_sync", "initial_offsets"), [float("nan")] * 6, "clock_sync.initial_offsets"),
            (("clock_sync", "enabled"), "no", "clock_sync.enabled"),
            (("clock_sync", "enabled"), "yes", "clock_sync.enabled"),
            (("clock_sync", "enabled"), [0], "clock_sync.enabled"),
            (("clock_sync", "enabled"), 1, "clock_sync.enabled"),
            (("seed",), -5, "seed"),
        ],
        ids=[
            "edges-not-pairs", "edge-null", "edge-float", "edge-bool", "amplitude-scalar",
            "c1-list", "c1-bool", "output-dir-int", "horizon-infinite", "eps-nan", "offsets-nan",
            "enabled-no", "enabled-yes", "enabled-list", "enabled-int", "seed-negative",
        ],
    )
    def test_malformed_value_is_one_schema_line(self, tmp_path, capsys, path, value, key):
        doc = json.loads(STATIC_CONFIG.read_text())
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        assert main(["gains", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"schema-error: {key}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "value, cause",
        [("abc", "must be an integer, got 'abc'"), ("-3", "must be nonnegative, got -3")],
        ids=["not-an-integer", "negative"],
    )
    def test_bad_seed_variable_is_named(self, tmp_path, capsys, monkeypatch, value, cause):
        doc = tiny_config()
        doc["initial"]["r"] = "seeded"
        monkeypatch.setenv("AVGTRACK_SEED", value)
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"schema-error: AVGTRACK_SEED {cause}\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--horizon", "inf"), ("--horizon", "1e400"), ("--horizon", "nan"), ("--step", "inf")],
    )
    def test_nonfinite_flag_is_one_schema_line(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, tiny_config())
        assert main(["run", str(path), flag, value, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"schema-error: {flag}")
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_plant_is_three_with_one_line(self, tmp_path):
        # run as a user does, so that a numpy warning would reach stderr
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["plant"]["A"] = [[1e308, 1e308], [1e308, 1e308]]
        path = write_config(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=str(Path(avgtrack.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "avgtrack.cli", "gains", str(path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("numeric-error:")
        assert len(done.stderr.strip().splitlines()) == 1

    def test_layer_below_float_resolution_runs_silently(self, tmp_path):
        # From clocks of 1000 the layer eps e^{-phi t} is below 1e-200, far
        # under every ||w_e|| in floating point. Run as a user does, so that
        # a numpy warning would reach stderr.
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"] = {"enabled": False}
        doc["initial"]["clocks"] = [1000.0] * 6
        path = write_config(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=str(Path(avgtrack.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "avgtrack.cli", "run", str(path), "--horizon", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0
        assert done.stderr == ""

    def test_slow_unstable_plant_designs(self, tmp_path, capsys):
        # a slow unstable mode beside a fast stable one
        doc = json.loads(STATIC_CONFIG.read_text())
        doc["clock_sync"]["enabled"] = False
        doc["plant"] = {"A": [[-100.0, 0.0], [0.0, 0.01]], "B": [[1.0], [1.0]]}
        doc["Q"] = [[1e-4, 0.0], [0.0, 1e-4]]
        assert main(["gains", str(write_config(tmp_path, doc))]) == 0
        assert capsys.readouterr().err == ""

    def test_zero_layer_with_agreeing_agents_is_finite(self, tmp_path, capsys):
        # eps = 0 is the signum law: an edge whose ends agree exactly has
        # zero direction instead of 0/0
        doc = tiny_config(
            plant={"A": [[0.0, 1.0], [-1.0, -2.0]], "B": [[0.0], [1.0]]},
            Q=[[1.0, 0.0], [0.0, 1.0]],
            inputs={"type": "sinusoid", "amplitude": [1.0]},
            eps=0,
            phi=0.5,
            integrator={"step": 0.001, "horizon": 0.5, "stride": 10},
            initial={"r": [[0.3, -0.7], [0.3, -0.7]]},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert rows.shape == (51, 1 + 2 * 2 * 3 + 2 + 1 + 2)
        assert np.all(np.isfinite(rows))


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_time"] == pytest.approx(0.1)
        assert summary["samples"] == 11

    def test_csv_header_schema(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        main(["run", str(path), "--out", str(out)])
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == (
            "t,x_0_0,x_1_0,r_0_0,r_1_0,xi_0_0,xi_1_0,u_0_0,u_1_0,V1,clock_0,clock_1"
        )

    def test_adaptive_csv_carries_gain_columns(self, tmp_path):
        doc = tiny_config(controller="adaptive", mu=1.0, nu=1.0, theta=0.1, chi=0.1)
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert ",V1,V2,alpha_0,beta_0,clock_0,clock_1" in header

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(path), "--out", str(out1)])
        main(["run", str(path), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_zero_horizon_single_sample(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--horizon", "0.0", "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus the t=0 sample
        assert rows[1].startswith("0,")

    def test_step_override(self, tmp_path):
        path = write_config(tmp_path, tiny_config())
        out = tmp_path / "out"
        assert main(["run", str(path), "--step", "0.005", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 21

    def test_seed_env_override_changes_seeded_initials(self, tmp_path, monkeypatch):
        doc = tiny_config()
        doc["initial"]["r"] = "seeded"
        path = write_config(tmp_path, doc)
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        monkeypatch.setenv("AVGTRACK_SEED", "1")
        main(["run", str(path), "--out", str(out1)])
        monkeypatch.setenv("AVGTRACK_SEED", "2")
        main(["run", str(path), "--out", str(out2)])
        main(["run", str(path), "--out", str(out3)])
        first = (out1 / "trace.csv").read_bytes()
        second = (out2 / "trace.csv").read_bytes()
        third = (out3 / "trace.csv").read_bytes()
        assert first != second
        assert second == third

    def test_trace_rows_span_write_blocks(self, tmp_path):
        doc = tiny_config(integrator={"step": 0.01, "horizon": 30.0, "stride": 1})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        bundle = ScenarioBundle(load_config(path))
        trace = run(bundle.scenario(*bundle.design()))
        assert trace.sample_count > 2 * cli._CSV_VALUES // 12
        table = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        samples = trace.sample_count
        assert table.shape == (samples, 12)
        assert np.array_equal(table[:, 0], trace.times)
        assert np.array_equal(table[:, 1:3], trace.x.reshape(samples, -1))
        assert np.array_equal(table[:, -2:], trace.clocks)

    def test_sync_pre_phase_recorded(self, tmp_path):
        path = write_config(tmp_path, tiny_config(clock_sync=SETTLING_SYNC))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["clock_sync"]["settled_at"] is not None
        assert summary["clock_sync"]["final_spread"] < 1e-9
        assert summary["max_clock_spread"] == 0.0


class TestSyncHandOver:
    def test_shipped_static_scenario_hands_over_pinned_clocks(self):
        # the spread at the stop step moves with any change to the clock step's
        # arithmetic; the hand-over is mean(offsets) + horizon
        bundle = ScenarioBundle(load_config(STATIC_CONFIG))
        info, clocks0 = cli._sync_pre_phase(bundle)
        assert info["settled_at"] == 0.2015
        assert info["final_spread"] == 5.252549228895731e-10
        assert clocks0.shape == (6,)
        assert np.all(clocks0 == 1.2016666666666667)

    def test_shipped_sync_horizon_is_the_two_agent_estimate(self):
        # the settling bound of the shipped offsets is shorter than
        # 4 sqrt(spread) = 1.2 s, so the hand-over above keeps its horizon
        bundle = ScenarioBundle(load_config(STATIC_CONFIG))
        offsets = bundle.sync_offsets
        plan = plan_sync(bundle.topology, offsets, tol=bundle.sync_tol, step=bundle.sync_step)
        assert plan.steps == 12000
        assert settling_bound(bundle.topology, offsets) < 4.0 * np.sqrt(np.ptp(offsets)) == 1.2

    def test_long_path_settles_within_the_default_horizon(self, tmp_path):
        # a 10-agent path settles at about 7.06 s, past the two-agent
        # estimate 4 sqrt(spread) = 4 s and within the settling bound 11.48 s
        agents = 10
        doc = tiny_config(
            topology={"vertices": agents, "edges": [[i, i + 1] for i in range(agents - 1)]},
            initial={"r": "seeded", "s": "zero", "clocks": "zero"},
            clock_sync={
                "enabled": True, "initial_offsets": list(np.linspace(-0.5, 0.5, agents)),
                "tol": 1e-6, "step": 1e-3,
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert 4.0 < summary["clock_sync"]["settled_at"] < 11.48


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_tracking(scenario):
    raise NumericalError("tracking failed")


class TestSyncWorker:
    """The sync pre-phase runs in the CLI's process, before tracking and
    without starting a process; a failed sync is reported before any
    tracking."""

    def test_run_block_is_the_in_process_pre_phase(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(STATIC_CONFIG), "--horizon", "1", "--out", str(out)]) == 0
        assert_no_child_left()
        info, _ = cli._sync_pre_phase(ScenarioBundle(load_config(STATIC_CONFIG)))
        assert json.loads((out / "summary.json").read_text())["clock_sync"] == info

    def test_compare_block_is_the_in_process_pre_phase(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", str(STATIC_CONFIG), "--out", str(out)]) == 0
        assert_no_child_left()
        info, _ = cli._sync_pre_phase(ScenarioBundle(load_config(STATIC_CONFIG)))
        assert json.loads((out / "comparison.json").read_text())["clock_sync"] == info

    def test_tracking_failure_is_three_with_no_child_left(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("avgtrack.cli.run", fail_tracking)
        path = write_config(tmp_path, tiny_config(clock_sync=SETTLING_SYNC))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "numeric-error: tracking failed\n"
        assert_no_child_left()
        assert not (tmp_path / "out").exists()

    def test_sync_failure_beats_tracking_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("avgtrack.cli.run", fail_tracking)
        path = write_config(tmp_path, tiny_config(clock_sync=DIVERGING_SYNC))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "numeric-error: clock synchronization did not settle below 1e-06\n"
        assert_no_child_left()

    def test_dev_mode_run_is_silent(self, tmp_path):
        # -X dev shows a resource never released as a ResourceWarning, which
        # -W error makes an error on stderr
        path = write_config(tmp_path, tiny_config(clock_sync=SETTLING_SYNC))
        env = dict(os.environ, PYTHONPATH=str(Path(avgtrack.__file__).resolve().parents[1]))
        main_call = "import sys; from avgtrack.cli import main; sys.exit(main())"
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", main_call,
             "run", str(path), "--out", str(out)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout == f"wrote {out / 'trace.csv'} and {out / 'summary.json'}\n"


class TestCompareCommand:
    def test_reference_columns_identical(self, tmp_path):
        doc = tiny_config(
            inputs={"type": "sinusoid", "amplitude": [1.0], "omega": 1.0, "phase": 0.0},
            integrator={"step": 0.01, "horizon": 0.5, "stride": 5},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare", str(path), "--out", str(out)]) == 0
        cont = (out / "trace_continuous.csv").read_text().splitlines()
        disc = (out / "trace_discontinuous.csv").read_text().splitlines()
        header = cont[0].split(",")
        r_cols = [i for i, name in enumerate(header) if name.startswith("r_")]
        for row_c, row_d in zip(cont[1:], disc[1:]):
            vals_c = row_c.split(",")
            vals_d = row_d.split(",")
            assert [vals_c[i] for i in r_cols] == [vals_d[i] for i in r_cols]
        report = json.loads((out / "comparison.json").read_text())
        assert "tv_ratio_continuous_over_discontinuous" in report


class TestDemoScenarioEndToEnd:
    def test_final_error_within_adaptive_bound(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["run", str(DEMO_CONFIG), "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["omega2"] is not None
        assert summary["final_xi_norm"] <= summary["omega2"]
        assert summary["final_v2"] is not None

    def test_zero_input_zero_state_gives_zero_error_columns(self, tmp_path):
        doc = tiny_config()
        doc["initial"]["r"] = "zero"
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        xi_cols = [i for i, name in enumerate(header) if name.startswith("xi_")]
        for row in rows[1:]:
            vals = row.split(",")
            assert all(vals[i] == "0" for i in xi_cols)

    def test_explicit_gain_overrides_accepted(self, tmp_path, capsys):
        # floors for the tiny system: c1 >= 1/(2*2), c2 >= 0
        path = write_config(tmp_path, tiny_config(c1=2.0, c2=1.0))
        assert main(["gains", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c1"] == 2.0
        assert report["c2"] == 1.0

    def test_gain_override_below_floor_is_design_error(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(c1=0.01))
        assert main(["gains", str(path)]) == 2
        assert capsys.readouterr().err.startswith("design-error:")

    def test_gains_out_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gains", str(DEMO_CONFIG), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert json.loads((out / "gains.json").read_text()) == json.loads(printed)

    def test_infeasible_adaptive_combination_reported_not_fatal(self, tmp_path, capsys):
        doc = json.loads(DEMO_CONFIG.read_text())
        doc.update({"mu": 10.0, "nu": 10.0, "theta": 1.0, "chi": 1.0})  # rho = 10
        path = write_config(tmp_path, doc)
        assert main(["gains", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["omega2"] is None
        assert report["omega0"] is not None

    def test_misaligned_step_override_is_schema_error(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config())
        code = main(["run", str(path), "--step", "0.003", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("schema-error:")


class TestGainReportGolden:
    def test_demo_matches_published_values(self, capsys):
        assert main(["gains", str(DEMO_CONFIG)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["K"], [[-1.5728, -4.3293]], atol=1e-3)
        assert np.allclose(
            report["Gamma"], [[2.4738, 6.8092], [6.8092, 18.7428]], atol=2e-3
        )
        assert report["lambda2"] == pytest.approx(1.0, abs=1e-9)
        assert report["f0"] == pytest.approx(3.5)
        assert report["c1"] == pytest.approx(0.5)
        assert report["c2"] == pytest.approx(42.8661, abs=1e-3)
        assert report["rho"] == pytest.approx(0.1)
        assert report["omega2"] is not None and report["omega2"] > 0

    def test_static_variant_parses(self):
        bundle = ScenarioBundle(load_config(STATIC_CONFIG))
        gains, adapt = bundle.design()
        assert adapt is None
        assert gains.phi == 0.5
