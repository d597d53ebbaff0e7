"""Reference signals r_i driven by bounded inputs f_i through a shared
linear plant (A, B), plus the exact input bound the gain design needs.

Only three closed input families are supported (zero, constant, sinusoid)
so the supremum bound is exact rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matkernel import as_matrix


@dataclass(frozen=True)
class Plant:
    """The pair (A, B) generating every reference signal: dr/dt = A r + B f."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        b = as_matrix(self.b, rows=a.shape[0])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


def _as_vector(values, dim: int, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise ValueError(f"{what} must have {dim} entries, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} entries must be finite")
    return v


@dataclass(frozen=True)
class ZeroInput:
    """f_i(t) = 0."""


@dataclass(frozen=True)
class ConstantInput:
    """f_i(t) = value."""

    value: tuple[float, ...]


@dataclass(frozen=True)
class SinusoidInput:
    """f_i(t) = amplitude * sin(omega * t + phase), one common phase angle
    across channels."""

    amplitude: tuple[float, ...]
    omega: float = 1.0
    phase: float = 0.0


InputSpec = ZeroInput | ConstantInput | SinusoidInput


@dataclass(frozen=True)
class InputFamily:
    """Per-agent reference inputs. Every member evaluates to
    offset_i + amp_i * sin(omega_i * t + phase_i), which covers all three
    supported families with an exact supremum norm."""

    specs: tuple[InputSpec, ...]
    input_dim: int
    _offset: np.ndarray = field(init=False, repr=False)
    _amp: np.ndarray = field(init=False, repr=False)
    _omega: np.ndarray = field(init=False, repr=False)
    _phase: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input dimension must be positive")
        n = len(self.specs)
        if n == 0:
            raise ValueError("at least one agent input is required")
        offset = np.zeros((n, self.input_dim))
        amp = np.zeros((n, self.input_dim))
        omega = np.zeros(n)
        phase = np.zeros(n)
        for i, spec in enumerate(self.specs):
            if isinstance(spec, ZeroInput):
                pass
            elif isinstance(spec, ConstantInput):
                offset[i] = _as_vector(spec.value, self.input_dim, f"agent {i} constant")
            elif isinstance(spec, SinusoidInput):
                amp[i] = _as_vector(spec.amplitude, self.input_dim, f"agent {i} amplitude")
                if not (np.isfinite(spec.omega) and np.isfinite(spec.phase)):
                    raise ValueError(f"agent {i} sinusoid parameters must be finite")
                omega[i] = spec.omega
                phase[i] = spec.phase
            else:
                raise ValueError(f"unsupported input spec {type(spec).__name__}")
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "_amp", amp)
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_phase", phase)

    @property
    def agent_count(self) -> int:
        return len(self.specs)

    def value_all(self, t: float) -> np.ndarray:
        """Stacked f(t) for every agent, shape (N, p)."""
        return self._offset + self._amp * np.sin(self._omega * t + self._phase)[:, None]

    def bound(self) -> float:
        """f0 = sup over agents and time of ||f_i(t)||_2 (exact for the
        supported families)."""
        per_agent = np.linalg.norm(self._offset, axis=1) + np.linalg.norm(self._amp, axis=1)
        return float(np.max(per_agent))

    def evaluation_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cached (offset, amplitude, omega, phase) arrays with
        f_i(t) = offset_i + amplitude_i * sin(omega_i * t + phase_i)."""
        return self._offset, self._amp, self._omega, self._phase

