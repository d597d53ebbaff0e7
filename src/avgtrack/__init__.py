"""Distributed average tracking of reference signals generated by linear
dynamics: spectral graph utilities, Riccati-based gain design, static /
modified / adaptive edge-based control laws with boundary-layer smoothing,
finite-time clock synchronization, and a deterministic fixed-step simulation
engine with a scenario-driven CLI.
"""

from .clocksync import ClockState, run_sync, settling_time
from .controllers import (
    AdaptiveParams,
    GainSet,
    OmegaRadii,
    design_adaptive_params,
    design_gains,
    omega_radii,
)
from .engine import (
    Scenario,
    Trace,
    consensus_error,
    decay_check,
    lyapunov_v1,
    lyapunov_v2,
    run,
    total_variation,
    tracking_error,
)
from .errors import ConfigError, DesignError, NumericalError
from .graph import Topology, incidence, is_connected, lambda2, laplacian
from .matkernel import is_hurwitz, is_stabilizable, solve_care, solve_lyapunov, sym_eigen
from .signals import ConstantInput, InputFamily, Plant, SinusoidInput, ZeroInput

__version__ = "0.1.0"

__all__ = [
    "AdaptiveParams",
    "ClockState",
    "ConfigError",
    "ConstantInput",
    "DesignError",
    "GainSet",
    "InputFamily",
    "NumericalError",
    "OmegaRadii",
    "Plant",
    "Scenario",
    "SinusoidInput",
    "Topology",
    "Trace",
    "ZeroInput",
    "consensus_error",
    "decay_check",
    "design_adaptive_params",
    "design_gains",
    "incidence",
    "is_connected",
    "is_hurwitz",
    "is_stabilizable",
    "lambda2",
    "laplacian",
    "lyapunov_v1",
    "lyapunov_v2",
    "omega_radii",
    "run",
    "run_sync",
    "settling_time",
    "solve_care",
    "solve_lyapunov",
    "sym_eigen",
    "total_variation",
    "tracking_error",
]
