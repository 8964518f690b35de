"""Simulator for quantum walks and walk search driven by layered XY gates
on cycles and tori, with ideal and Lindblad-noisy backends.

The dense 2^n reference the backends are tested against is
:mod:`qcawalk.reference`; it is not imported here."""

from .gates import (
    AngleSchedule,
    GateSpec,
    StepOperator,
    build_step_operator,
    pauli_rotation,
    xy_gate,
)
from .lattice import (
    Lattice,
    Tessellation,
    build_cycle_tessellations,
    build_torus_tessellations,
    tessellations_for,
)
from .metrics import (
    degraded_ratio,
    hellinger_fidelity,
    hitting_time,
    l1_distance,
    selectivity,
    success_probability,
)
from .noise import (
    DEFAULT_FIDELITY_TARGETS,
    CalibrationResult,
    GateChannel,
    NoiseModel,
    average_gate_fidelity,
    calibrate_rates,
    evolve_density,
    idle_channel,
    noisy_gate_channel,
    trajectory_run,
)
from .states import (
    LEAKAGE,
    Distribution,
    SectorDensity,
    SectorVector,
    sample_counts,
    sector_basis,
    sector_project,
)
from .walks import (
    InitSpec,
    ResourceLimitError,
    WalkBackend,
    WalkConfig,
    WalkResult,
    run_walk,
    search_initializer_gates,
    sector_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSchedule",
    "CalibrationResult",
    "DEFAULT_FIDELITY_TARGETS",
    "Distribution",
    "GateChannel",
    "GateSpec",
    "InitSpec",
    "LEAKAGE",
    "Lattice",
    "NoiseModel",
    "ResourceLimitError",
    "SectorDensity",
    "SectorVector",
    "StepOperator",
    "Tessellation",
    "WalkBackend",
    "WalkConfig",
    "WalkResult",
    "average_gate_fidelity",
    "build_cycle_tessellations",
    "build_step_operator",
    "build_torus_tessellations",
    "calibrate_rates",
    "degraded_ratio",
    "evolve_density",
    "hellinger_fidelity",
    "hitting_time",
    "idle_channel",
    "l1_distance",
    "noisy_gate_channel",
    "pauli_rotation",
    "run_walk",
    "sample_counts",
    "search_initializer_gates",
    "sector_basis",
    "sector_oracle",
    "sector_project",
    "selectivity",
    "success_probability",
    "tessellations_for",
    "trajectory_run",
    "xy_gate",
]
