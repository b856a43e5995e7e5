"""Eigenphases of a unitary, solved two independent ways.

The ring route encodes the problem in a constant U(n) gauge potential on a
ring and reads eigenphases off the relocalization peaks of an evolved
packet. The register route evaluates the exact read-out of textbook phase
estimation in closed form. The two agree with each other and with direct
diagonalization, which is the whole point: `compare` checks all three.
"""

from .angles import circular_distance, wrap_to_signed, wrap_to_unit
from .encode import (
    EnergyProblem,
    UnitarySpec,
    encode_as_gauge,
    load_problem,
    phase_to_energy,
    problem_from_json,
    problem_to_json,
    unwrap_phase,
)
from .errors import (
    PhaseAliasingWarning,
    PreconditionError,
    ProblemFormatError,
    ResolutionError,
    ResourceLimitError,
    RingQpeError,
)
from .linalg import (
    EigenDecomposition,
    eig_hermitian,
    eig_unitary,
    expm_dense,
    matrix_from_json,
    matrix_to_json,
)
from .opcount import MacCounter, count_macs
from .qpe import (
    QpeConfig,
    QpeEstimate,
    Register1Distribution,
    qpe_estimate,
)
from .ring import (
    RETURN_TIME,
    VELOCITY_FACTOR,
    GaugeField,
    Peak,
    PeakSet,
    PositionDensity,
    RingState,
    estimate_phase_via_ring,
    evolve_block,
    evolve_dense,
    extract_peaks,
    initial_localized_state,
    position_density,
)

__version__ = "0.1.0"

# only the bench subcommand needs these, so the module (and csv, logging
# and statistics with it) loads on first use rather than with the package
_BENCH_NAMES = ("BenchPoint", "ScalingFit", "fit_scaling", "run_scaling_suite")


def __getattr__(name):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BenchPoint",
    "EigenDecomposition",
    "EnergyProblem",
    "GaugeField",
    "MacCounter",
    "Peak",
    "PeakSet",
    "PhaseAliasingWarning",
    "PositionDensity",
    "PreconditionError",
    "ProblemFormatError",
    "QpeConfig",
    "QpeEstimate",
    "Register1Distribution",
    "ResolutionError",
    "RETURN_TIME",
    "ResourceLimitError",
    "RingQpeError",
    "RingState",
    "ScalingFit",
    "UnitarySpec",
    "VELOCITY_FACTOR",
    "circular_distance",
    "count_macs",
    "eig_hermitian",
    "eig_unitary",
    "encode_as_gauge",
    "estimate_phase_via_ring",
    "evolve_block",
    "evolve_dense",
    "expm_dense",
    "extract_peaks",
    "fit_scaling",
    "initial_localized_state",
    "load_problem",
    "matrix_from_json",
    "matrix_to_json",
    "phase_to_energy",
    "position_density",
    "problem_from_json",
    "problem_to_json",
    "qpe_estimate",
    "run_scaling_suite",
    "unwrap_phase",
    "wrap_to_signed",
    "wrap_to_unit",
]
