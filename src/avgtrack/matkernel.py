"""Dense real-matrix kernel: symmetric eigendecomposition, Lyapunov solves,
stabilizability test, the continuous algebraic Riccati equation solver used
by the gain design, the classical fourth-order Runge-Kutta step, the
small linear solve that the clock-sync pre-phase and the simulation engine
both take, and the matrix of a linear map read off its unit vectors.

Everything here is a pure function of its inputs. The symmetric
eigendecomposition is LAPACK's (np.linalg.eigh), so it also serves the
graph Laplacian at a thousand vertices and more; the Lyapunov and Riccati
solvers work on the plant's n x n matrices through dense n^2 x n^2
systems, which suits n up to a few tens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DesignError, NumericalError

# Rank decisions treat singular values below RANK_RTOL * sigma_max as zero.
RANK_RTOL = 1e-10

# Classical RK4 keeps a decaying real mode lambda decaying only while
# h |lambda| stays inside its real stability interval, about [-2.785, 0].
RK4_STABILITY_LIMIT = 2.785

_SYMMETRY_RTOL = 1e-12


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a 2-D float64 array with all entries finite."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def matrix_of(linear_map, n_in: int) -> np.ndarray:
    """The matrix of a linear map on R^n_in, column by column from its
    values on the unit vectors."""
    return np.stack([linear_map(unit) for unit in np.eye(n_in)], axis=1)


def _require_symmetric(s: np.ndarray, what: str) -> np.ndarray:
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"{what} must be square, got shape {s.shape}")
    scale = np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{what} must be symmetric")
    return 0.5 * (s + s.T)


@dataclass(frozen=True)
class Eigen:
    """Symmetric eigendecomposition: ascending eigenvalues and an orthonormal
    column basis with S @ vectors[:, k] = values[k] * vectors[:, k]."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(s) -> Eigen:
    """Eigendecomposition of a symmetric matrix (LAPACK, through
    np.linalg.eigh), eigenvalues ascending.

    Raises ValueError for non-square or asymmetric input and NumericalError
    if LAPACK fails to converge.
    """
    a = _require_symmetric(as_matrix(s), "sym_eigen input")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc
    return Eigen(values=values, vectors=vectors)


def eigvals_general(a) -> np.ndarray:
    """Eigenvalues of a general (possibly asymmetric) real matrix."""
    return np.linalg.eigvals(as_matrix(a))


def is_hurwitz(a, margin: float = 0.0) -> bool:
    """True when every eigenvalue of ``a`` has real part < -margin."""
    return bool(np.max(eigvals_general(a).real) < -margin)


def solve_lyapunov(f, w) -> np.ndarray:
    """Solve F^T X + X F + W = 0 for symmetric X, given Hurwitz F.

    The n^2 x n^2 Kronecker-vectorized system is solved densely, which is
    fine at the problem sizes in scope.
    """
    fm = as_matrix(f)
    wm = _require_symmetric(as_matrix(w), "Lyapunov right-hand side")
    n = fm.shape[0]
    if fm.shape[0] != fm.shape[1]:
        raise ValueError("F must be square")
    if wm.shape[0] != n:
        raise ValueError("F and W dimensions differ")
    if not is_hurwitz(fm):
        raise DesignError("Lyapunov equation requires a Hurwitz coefficient matrix")

    eye = np.eye(n)
    system = np.kron(eye, fm.T) + np.kron(fm.T, eye)
    try:
        x_vec = np.linalg.solve(system, -wm.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular vectorized Lyapunov system: {exc}") from exc
    x = x_vec.reshape((n, n), order="F")
    return 0.5 * (x + x.T)


def is_stabilizable(a, b) -> bool:
    """PBH stabilizability test: rank [A - lambda*I, B] = n for every
    eigenvalue lambda of A with nonnegative real part, the PBH matrix
    evaluated in complex arithmetic.

    Raises NumericalError when an eigenvalue of A overflows, as it can for
    entries near the float range.
    """
    am = as_matrix(a)
    n = am.shape[0]
    if am.shape[0] != am.shape[1]:
        raise ValueError("A must be square")
    bm = as_matrix(b, rows=n)

    lams = eigvals_general(am)
    if not np.all(np.isfinite(lams)):
        raise NumericalError("eigenvalues of A overflow the float range")
    for lam in lams:
        if lam.real < 0.0:
            continue
        pbh = np.hstack([am - lam * np.eye(n), bm]).astype(complex)
        sigma = np.linalg.svd(pbh, compute_uv=False)
        if np.sum(sigma > RANK_RTOL * sigma[0]) < n:
            return False
    return True


def rk4(f, t: float, y: np.ndarray, dt: float, *args) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of y' = f(t, y, *args)
    from (t, y) to t + dt, y + dt/6 (k1 + 2 (k2 + k3) + k4).

    The combination is summed in place into the arrays f returned, so f
    must return an array that nothing else holds, such as a new one on every
    call: rk4 may overwrite it, and returns one of them.
    """
    half = 0.5 * dt
    k1 = f(t, y, *args)
    stage = k1 * half
    stage += y
    k2 = f(t + half, stage, *args)
    stage = k2 * half
    stage += y
    k3 = f(t + half, stage, *args)
    stage = k3 * dt
    stage += y
    k4 = f(t + dt, stage, *args)
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, a float (m, m), b float (m,): LAPACK's LU solve
    through the gufunc np.linalg.solve calls, so the same bits, without the
    wrapper's argument checks and error-state switch: on a 6 x 6 system
    about 2.3 us against 8.1 us (2-vCPU x86 VM, numpy 2.4).

    Its callers pass I plus a positive semidefinite matrix, whose
    eigenvalues are at least 1, so it is never singular there. Without the
    wrapper a singular a does not raise LinAlgError: the gufunc warns
    (RuntimeWarning, invalid value) and returns NaN. A NaN entry gives NaN
    out silently, as np.linalg.solve does, for the caller's finiteness
    check to report.
    """
    return _umath_linalg.solve1(a, b)


def _care_residual(p, a, b, q) -> np.ndarray:
    return p @ a + a.T @ p - p @ b @ b.T @ p + q


def solve_care(a, b, q, max_iter: int = 60) -> np.ndarray:
    """Stabilizing solution of P A + A^T P - P B B^T P + Q = 0.

    Newton-Kleinman iteration, each step a dense Lyapunov solve, started
    from the zero gain when A is Hurwitz. Otherwise it starts from pinv(X),
    X solving (A + beta I) X + X (A + beta I)^T = 2 B B^T for a shift beta
    that makes -(A + beta I) Hurwitz (Bass's construction): A - B B^T X^-1
    is then Hurwitz, and pinv covers X singular on stable uncontrollable modes.

    Args:
        a: plant matrix, n x n.
        b: input matrix, n x p.
        q: symmetric positive-definite state weight.

    Returns:
        Symmetric positive-definite P with A - B B^T P Hurwitz.

    Raises:
        DesignError: unstabilizable pair or Q not positive definite.
        NumericalError: iteration failure.
    """
    am = as_matrix(a)
    n = am.shape[0]
    if am.shape[0] != am.shape[1]:
        raise ValueError("A must be square")
    bm = as_matrix(b, rows=n)
    qm = _require_symmetric(as_matrix(q, rows=n, cols=n), "Q")
    if sym_eigen(qm).values[0] <= 0.0:
        raise DesignError("Q must be positive definite")
    if not is_stabilizable(am, bm):
        raise DesignError("(A, B) is not stabilizable")

    bbt = bm @ bm.T
    lam = eigvals_general(am)
    if np.max(lam.real) < 0.0:
        p = np.zeros((n, n))
    else:  # beta half a spectral radius past the least shift; larger ill-conditions X
        beta = max(0.0, -np.min(lam.real)) + 0.5 * (np.max(np.abs(lam)) or 1.0)
        p = np.linalg.pinv(solve_lyapunov(-(am + beta * np.eye(n)).T, 2.0 * bbt))

    best_p, best_res = None, np.inf
    prev_res = np.inf
    for _ in range(max_iter):
        f = am - bbt @ p
        w = qm + p @ bbt @ p
        try:
            p_next = solve_lyapunov(f, 0.5 * (w + w.T))
        except DesignError as exc:  # iterate lost stabilizing property
            raise NumericalError(f"Riccati iterate became unstable: {exc}") from exc
        p_next = 0.5 * (p_next + p_next.T)
        residual = np.linalg.norm(_care_residual(p_next, am, bm, qm))
        p = p_next
        if residual < best_res:
            best_p, best_res = p_next, residual
        scale = max(1.0, np.linalg.norm(p))
        if residual <= 1e-13 * scale:
            break
        if residual >= 0.5 * prev_res and residual <= 1e-9 * scale:
            break  # quadratic phase exhausted; at the round-off floor
        prev_res = residual
    if best_p is None or best_res > 1e-7 * max(1.0, np.linalg.norm(best_p)):
        raise NumericalError(f"Riccati iteration did not converge in {max_iter} steps")
    p = best_p

    if sym_eigen(p).values[0] <= 0.0:
        raise NumericalError("Riccati solution is not positive definite")
    if not is_hurwitz(am - bbt @ p):
        raise NumericalError("Riccati solution does not stabilize the plant")
    return p
