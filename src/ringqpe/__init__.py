"""Eigenphases of a unitary, solved two independent ways.

The ring route reads eigenphases off the relocalization peaks of a packet
on a ring threaded by a constant U(n) gauge potential; at the revival the
ring sees only the potential's holonomy, U itself, so it reads U and no
spectrum. The register route evaluates the exact read-out of textbook phase
estimation in closed form. The two agree with each other and with direct
diagonalization, which is the whole point: `compare` checks all three.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it; a submodule (and
# numpy with it) loads the first time one of its names is used, so a
# command pays only for the modules its route runs
_EXPORTS = {
    name: module
    for module, names in {
        "angles": ("circular_distance", "wrap_to_signed", "wrap_to_unit"),
        "bench": ("BenchPoint", "ScalingFit", "fit_scaling", "run_scaling_suite"),
        "encode": ("EnergyProblem", "UnitarySpec", "encode_as_gauge",
                   "load_problem", "problem_from_json", "problem_to_json"),
        "errors": ("PhaseAliasingWarning", "PreconditionError",
                   "ProblemFormatError", "ResolutionError",
                   "ResourceLimitError", "RingQpeError"),
        "linalg": ("EigenDecomposition", "eig_hermitian", "eig_unitary",
                   "expm_dense", "matrix_from_json", "matrix_to_json"),
        "opcount": ("MacCounter", "count_macs"),
        "qpe": ("QpeConfig", "QpeEstimate", "Register1Distribution",
                "qpe_estimate"),
        "ring": ("RETURN_TIME", "VELOCITY_FACTOR", "GaugeField", "Peak",
                 "PeakSet", "PositionDensity", "RingState",
                 "estimate_phase_via_ring", "evolve_block", "evolve_dense",
                 "extract_peaks", "initial_localized_state",
                 "position_density"),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

