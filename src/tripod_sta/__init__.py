"""Geometric tripod qubit gates: pulse synthesis, dynamics, and benchmarks."""

from .controls import (
    ControlParams,
    DressingAngle,
    EnvelopeSet,
    Flavor,
    PulseShape,
    make_envelopes,
    make_pulse_shape,
    satd_dressing_angle,
)
from .dynamics import (
    NoiseModel,
    PropagationResult,
    propagate_lindblad,
    propagate_unitary,
)
from .metrics import (
    avg_gate_fidelity,
    closed_form_fidelities,
    map_fidelity,
    map_fidelity_uncertainty_avg,
)
from .qmath import IntegratorConfig, gauss_legendre, ode_solve
from .tripod import hamiltonian, ideal_gate, satd_gate

__version__ = "0.1.0"

__all__ = [
    "ControlParams",
    "DressingAngle",
    "EnvelopeSet",
    "Flavor",
    "IntegratorConfig",
    "NoiseModel",
    "PropagationResult",
    "PulseShape",
    "avg_gate_fidelity",
    "closed_form_fidelities",
    "gauss_legendre",
    "hamiltonian",
    "ideal_gate",
    "make_envelopes",
    "make_pulse_shape",
    "map_fidelity",
    "map_fidelity_uncertainty_avg",
    "ode_solve",
    "propagate_lindblad",
    "propagate_unitary",
    "satd_dressing_angle",
    "satd_gate",
    "__version__",
]
