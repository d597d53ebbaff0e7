import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_are

from conftest import DEMO_CONFIG, STATIC_CONFIG
from oracles import pbh_rank_real

from avgtrack import clocksync, engine
from avgtrack.cli import ScenarioBundle, load_config
from avgtrack.errors import DesignError, NumericalError
from avgtrack.matkernel import (
    Eigen,
    as_matrix,
    is_hurwitz,
    is_stabilizable,
    solve,
    solve_care,
    solve_lyapunov,
    sym_eigen,
)

SQRT2 = np.sqrt(2.0)


def lyapunov_quadrature(f, w, t_end=60.0, samples=6001):
    """Independent oracle: X = integral_0^inf e^{F^T t} W e^{F t} dt via
    composite Simpson on [0, t_end] (integrand decays like e^{2*max_re*t})."""
    ts = np.linspace(0.0, t_end, samples)
    vals = np.array([expm(f.T * t) @ w @ expm(f * t) for t in ts])
    h = ts[1] - ts[0]
    acc = vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0) + 2.0 * vals[2:-2:2].sum(axis=0)
    return acc * h / 3.0


def pbh_margin(a, b):
    """Smallest singular value of [A - lambda I, B] over the marginal and
    unstable eigenvalues: a quantitative stabilizability margin."""
    n = a.shape[0]
    margin = np.inf
    for lam in np.linalg.eigvals(a):
        if lam.real < -0.2:
            continue
        sv = np.linalg.svd(
            np.hstack([a - lam * np.eye(n), b]).astype(complex), compute_uv=False
        )
        margin = min(margin, sv[-1])
    return margin


def random_stabilizable(rng, n, p, margin=0.3):
    """Random pair with instability capped at 0.5 and a stabilizability
    margin bounded away from zero, so float64 can certify tight Riccati
    residuals (near-unstabilizable draws push ||P|| beyond what any solver
    can certify at 1e-8 absolute)."""
    while True:
        a = rng.normal(size=(n, n))
        shift = np.max(np.linalg.eigvals(a).real) - 0.5
        if shift > 0:
            a = a - shift * np.eye(n)
        b = rng.normal(size=(n, p))
        if pbh_margin(a, b) >= margin and is_stabilizable(a, b):
            return a, b


def random_spd(rng, n, floor=0.1):
    g = rng.normal(size=(n, n))
    return g @ g.T + floor * np.eye(n)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf]])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, 2.0]], rows=2)


class TestSymEigen:
    def test_identity(self):
        eig = sym_eigen(np.eye(3))
        assert np.allclose(eig.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        eig = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])

    def test_two_by_two_hand_solved(self):
        # char poly of [[1,-1],[-1,1]] is (1-l)^2 - 1 -> l in {0, 2}
        eig = sym_eigen([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(eig.values, [0.0, 2.0], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_random_residual_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            s = random_spd(rng, n, floor=0.0) - rng.normal() * np.eye(n)
            eig = sym_eigen(s)
            scale = max(np.linalg.norm(s), 1e-300)
            resid = s @ eig.vectors - eig.vectors * eig.values
            assert np.max(np.abs(resid)) <= 1e-9 * scale
            gram = eig.vectors.T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-9
            assert np.all(np.diff(eig.values) >= -1e-12 * max(scale, 1.0))


class TestSolveLyapunov:
    def test_minus_identity(self):
        # -X - X + 2I = 0 -> X = I
        x = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(x, np.eye(2), atol=1e-12)

    def test_scalar(self):
        x = solve_lyapunov([[-2.0]], [[4.0]])
        assert np.allclose(x, [[1.0]], atol=1e-12)

    def test_hand_solved_2x2(self):
        # F = [[0,1],[-1,-2]], W = I: the three-unknown symmetric system gives
        # x12 = 1/2 from (1,1), x22 = 1/2 from (2,2), x11 = x22 + 1 = 3/2.
        f = np.array([[0.0, 1.0], [-1.0, -2.0]])
        x = solve_lyapunov(f, np.eye(2))
        assert np.allclose(x, [[1.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_rejects_non_hurwitz(self):
        with pytest.raises(DesignError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_residual_bound_and_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=(n, n))
            f = g - (np.max(np.abs(np.linalg.eigvals(g).real)) + 0.5) * np.eye(n)
            w = random_spd(rng, n, floor=0.05)
            x = solve_lyapunov(f, w)
            resid = np.linalg.norm(f.T @ x + x @ f + w)
            bound = 1e-9 * (np.linalg.norm(f) * np.linalg.norm(x) + np.linalg.norm(w))
            assert resid <= bound
            assert np.allclose(x, x.T)
            oracle = lyapunov_quadrature(f, w)
            assert np.max(np.abs(x - oracle)) <= 1e-6


class TestIsStabilizable:
    def test_stable_modes_vacuous(self):
        # eigenvalues of A are -1, -1: no unstable modes to control
        assert is_stabilizable([[0.0, 1.0], [-1.0, -2.0]], [[0.0], [1.0]])

    def test_unstable_without_authority(self):
        assert not is_stabilizable([[1.0]], [[0.0]])

    def test_full_authority(self):
        assert is_stabilizable([[1.0]], [[1.0]])

    def test_uncontrollable_unstable_block(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        b = np.array([[0.0], [1.0]])
        assert not is_stabilizable(a, b)

    def test_imaginary_axis_pair(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert is_stabilizable(a, [[0.0], [1.0]])
        assert not is_stabilizable(a, [[0.0], [0.0]])

    def test_real_stacked_form_agrees(self):
        cases = [
            (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]), 0.0, 1.0),
            (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [0.0]]), 0.0, 1.0),
            (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[1.0], [0.0]]), 1.0, 0.0),
            (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0], [1.0]]), 1.0, 0.0),
        ]
        for a, b, sig, om in cases:
            full = pbh_rank_real(a, b, sig, om) == a.shape[0]
            assert full == is_stabilizable(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_stabilizable(np.eye(2), np.ones((3, 1)))


class TestSolveCare:
    def test_scalar_integrator(self):
        # -P^2 + 1 = 0, positive root
        p = solve_care([[0.0]], [[1.0]], [[1.0]])
        assert np.allclose(p, [[1.0]], atol=1e-10)

    def test_scalar_unstable(self):
        # 2P - P^2 + 1 = 0 -> P = 1 + sqrt(2)
        p = solve_care([[1.0]], [[1.0]], [[1.0]])
        assert np.allclose(p, [[1.0 + SQRT2]], atol=1e-10)

    def test_damped_oscillator_closed_form(self):
        # For A=[[0,1],[-1,-2]], B=[0;1], Q=I the entrywise equations give
        # b^2+2b-1=0 and c^2+4c-1-2b=0 with b=c=sqrt(2)-1, a=2b+c+bc=sqrt(2).
        a = np.array([[0.0, 1.0], [-1.0, -2.0]])
        b = np.array([[0.0], [1.0]])
        p = solve_care(a, b, np.eye(2))
        expected = np.array([[SQRT2, SQRT2 - 1.0], [SQRT2 - 1.0, SQRT2 - 1.0]])
        assert np.allclose(p, expected, atol=1e-9)

    def test_rejects_unstabilizable(self):
        with pytest.raises(DesignError):
            solve_care([[1.0]], [[0.0]], [[1.0]])

    def test_rejects_indefinite_q(self):
        with pytest.raises(DesignError):
            solve_care(np.zeros((2, 2)), np.eye(2), np.diag([1.0, 0.0]))

    def test_random_instances_residual_pd_hurwitz(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p_in = int(rng.integers(1, 3))
            a, b = random_stabilizable(rng, n, p_in)
            q = random_spd(rng, n)
            p = solve_care(a, b, q)
            resid = np.linalg.norm(p @ a + a.T @ p - p @ b @ b.T @ p + q)
            assert resid < 1e-8
            assert np.min(np.linalg.eigvalsh(p)) > 0.0
            assert is_hurwitz(a - b @ b.T @ p)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a, b = random_stabilizable(rng, n, 1)
            q = random_spd(rng, n)
            ours = solve_care(a, b, q)
            ref = solve_continuous_are(a, b, q, np.eye(1))
            assert np.max(np.abs(ours - ref)) <= 1e-7 * max(1.0, np.linalg.norm(ref))

    @pytest.mark.parametrize(
        "a, b, q",
        [
            # a slow unstable mode beside a fast stable one
            (np.diag([-100.0, 0.01]), np.ones((2, 1)), 1e-4 * np.eye(2)),
            (np.diag([-100.0, 0.05]), np.ones((2, 1)), 1e-3 * np.eye(2)),
            # unstable and stabilizable, the stable mode out of B's reach
            (np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]), np.eye(2)),
        ],
        ids=["slow-unstable-0.01", "slow-unstable-0.05", "uncontrollable-stable-mode"],
    )
    def test_non_hurwitz_plant_against_scipy(self, a, b, q):
        ours = solve_care(a, b, q)
        ref = solve_continuous_are(a, b, q, np.eye(1))
        assert np.max(np.abs(ours - ref)) <= 1e-7 * max(1.0, np.linalg.norm(ref))

    def test_hurwitz_plant_keeps_zero_start(self):
        # P of the shipped demo plant as first designed; a Hurwitz plant
        # starts Newton-Kleinman from the zero gain, any other start moves
        # these last bits
        doc = json.loads(DEMO_CONFIG.read_text())
        p = solve_care(doc["plant"]["A"], doc["plant"]["B"], doc["Q"])
        assert np.array_equal(p, [[14.284023040000001, 1.5728], [1.5728, 4.3293]])

    def test_convergence_error_is_numerical(self):
        with pytest.raises(NumericalError):
            solve_care([[1.0]], [[1.0]], [[1.0]], max_iter=1)

    def test_moderately_large_instance(self):
        rng = np.random.default_rng(41)
        a, b = random_stabilizable(rng, 8, 2)
        q = random_spd(rng, 8)
        p = solve_care(a, b, q)
        resid = np.linalg.norm(p @ a + a.T @ p - p @ b @ b.T @ p + q)
        assert resid < 1e-8
        assert is_hurwitz(a - b @ b.T @ p)


class TestSolve:
    """matkernel.solve is np.linalg.solve's LAPACK gufunc without its
    wrapper: the same bits wherever the wrapper would not raise."""

    @pytest.mark.parametrize("n", range(1, 51))
    def test_bitwise_np_linalg_solve(self, n):
        rng = np.random.default_rng(n)
        b = rng.normal(size=n)
        general = rng.normal(size=(n, n))
        for a in (general, general @ general.T + np.eye(n)):
            assert np.array_equal(solve(a, b), np.linalg.solve(a, b))

    def test_bitwise_on_the_shipped_static_scenarios_systems(self, monkeypatch):
        # the systems the sync pre-phase and the equal-clock implicit step
        # of the shipped static scenario solve, recorded as they are passed
        systems = []

        def recorded(a, b):
            systems.append((a.copy(), b.copy()))
            return solve(a, b)

        monkeypatch.setattr(clocksync, "solve", recorded)
        monkeypatch.setattr(engine, "solve", recorded)
        bundle = ScenarioBundle(load_config(STATIC_CONFIG))
        sync = clocksync.run_sync(bundle.topology, bundle.sync_offsets, step=bundle.sync_step)
        synced = len(systems)
        gains, adapt = bundle.design()
        sc = bundle.scenario(gains, adapt, horizon=0.05, clocks0=np.full(6, 20.0))
        engine.run(sc)
        assert synced == sync.clocks.shape[0] - 1 > 1000
        assert len(systems) - synced == 50
        for a, b in systems:
            assert np.array_equal(solve(a, b), np.linalg.solve(a, b))

    def test_nan_in_gives_nan_out_silently(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
        b = rng.normal(size=6)
        for where in ((0, 0), (2, 4), (5, 5)):
            bad = a.copy()
            bad[where] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = solve(bad, b)
            assert np.isnan(got).any()
            assert np.array_equal(got, np.linalg.solve(bad, b), equal_nan=True)
        b[3] = np.nan
        assert np.isnan(solve(a, b)).any()

    def test_singular_warns_and_returns_nan(self):
        # np.linalg.solve raises here; the gufunc alone warns and returns NaN
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(2))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            got = solve(a, np.ones(2))
        assert np.all(np.isnan(got))


def test_eigen_is_frozen():
    eig = sym_eigen(np.eye(2))
    assert isinstance(eig, Eigen)
    with pytest.raises(AttributeError):
        eig.values = None
