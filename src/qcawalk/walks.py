"""Quantum walk and walk-search drivers plus the independent sector oracle.

``run_walk`` evolves a register by repeated application of the step
operator on one of three backends (pure statevector, density matrix,
quantum trajectories) and records exact and sampled vertex distributions
at every step, including step 0.  All three start from the same
:class:`SectorVector` (``initial_sector_state``): the initial state
prepared directly on span{vacuum, one-hot}, where the ideal backend then
stays, so no 2^V array is formed.  All three read that sector the same
way, through one :func:`vertex_distribution` call per run (vertex v from
index v+1, leakage from the vacuum at index 0, never renormalised), into
one per-step :class:`Distribution`, and one :func:`sample_counts` call
then draws the shots of every step.  The same states prepared on the
full 2^V register, which the sector path is tested against, are in
:mod:`qcawalk.reference`.

``sector_oracle`` is a deliberately independent realisation of the same
dynamics: each tessellation layer is written directly as a V x V matrix on
the one-particle sector, so statevector evolution can be cross-checked
amplitude-by-amplitude against matrix powers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import noise as _noise
from .gates import (
    MARKED_ANGLE,
    SEARCH_RZ_ANGLE,
    UNMARKED_ANGLE,
    WALK_ANGLE,
    AngleSchedule,
    GateSpec,
    apply_sector_stages,
    build_step_operator,
    lower_to_sector,
)
from .lattice import Lattice, tessellations_for
from .noise import TRAJECTORY_WORK_BYTES, NoiseModel
from .states import (
    MAX_SHOTS,
    Distribution,
    SectorDensity,
    SectorVector,
    require_count,
    sample_counts,
    sector_project,
    vertex_distribution,
)


#: Most memory a backend's state may take: the density backend's
#: (V+1) x (V+1) block (V <= 4095, e.g. a 32x32 torus, 16.8 MB, but not a
#: 64x64 one) or the trajectories backend's worst case, where every
#: trajectory has a (V+1)-amplitude column of its own beside its work arrays.
STATE_MAX_BYTES = 256 * 2**20


class ResourceLimitError(RuntimeError):
    """Raised when a backend would exceed its size bound."""


@dataclass
class InitSpec:
    """Initial-state choice: a single site, a symmetric bond pair, or the
    uniform one-particle superposition used by the search."""

    kind: str  # "single" | "symmetric" | "search_uniform"
    site: int = 0

    def __post_init__(self):
        if self.kind not in ("single", "symmetric", "search_uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        require_count("site", self.site, 0)


@dataclass
class WalkBackend:
    kind: str = "statevector"  # "statevector" | "density" | "trajectories"
    n_trajectories: int = 2000

    def __post_init__(self):
        if self.kind not in ("statevector", "density", "trajectories"):
            raise ValueError(f"unknown backend {self.kind!r}")
        require_count("n_trajectories", self.n_trajectories, 1)


@dataclass
class WalkConfig:
    """Everything needed to reproduce one walk or search run."""

    lattice: Lattice
    steps: int
    init: InitSpec = field(default_factory=lambda: InitSpec("single", 0))
    marked: int | None = None
    shots: int = 10000
    seed: int = 0
    backend: WalkBackend = field(default_factory=WalkBackend)
    initializer_mode: str = "exact"  # for search_uniform init: "exact" | "literal"

    def __post_init__(self):
        require_count("steps", self.steps, 0)
        require_count("shots", self.shots, 1, MAX_SHOTS)
        if self.marked is not None:
            require_count("marked", self.marked, 0)
            if self.marked >= self.lattice.vertex_count:
                raise ValueError(f"marked vertex {self.marked} out of range")
        if self.init.kind != "search_uniform" and not 0 <= self.init.site < self.lattice.vertex_count:
            raise ValueError(f"init site {self.init.site} out of range")
        if self.initializer_mode not in ("exact", "literal"):
            raise ValueError(f"unknown initializer mode {self.initializer_mode!r}")

    @property
    def variant(self) -> str:
        return "search" if self.marked is not None else "walk"


@dataclass
class WalkResult:
    """A run's exact and empirical per-step distributions (steps+1 rows,
    step 0 included) and its wall time."""

    exact: Distribution
    empirical: Distribution
    wall_time_s: float


def _walk_init_gates(lattice: Lattice, site: int, symmetric: bool) -> list[GateSpec]:
    if not 0 <= site < lattice.vertex_count:
        raise ValueError(f"init site {site} out of range")
    gates = [GateSpec("RX", math.pi, (site,))]
    if symmetric:
        partner = lattice.right_neighbor(site)
        # phase correction on the newly occupied qubit lines the two
        # amplitudes up to (|site> + |partner>)/sqrt(2) modulo global phase
        gates += [GateSpec("XY", WALK_ANGLE, (site, partner)),
                  GateSpec("RZ", SEARCH_RZ_ANGLE, (partner,))]
    return gates


def search_initializer_gates(vertex_count: int) -> list[GateSpec]:
    """Gate sequence preparing the uniform one-particle superposition.

    A single excitation is created on qubit 0, then log2(V) butterfly
    rounds split it: round r pairs every occupied qubit q with
    q + V / 2^(r+1) through XY(pi/4), followed by RZ(-pi/2) on the newly
    reached qubit.  Uses exactly V - 1 two-qubit gates.  (Which qubit the
    phase correction belongs to is a convention; only the probabilities
    are contractual, the per-amplitude phases are whatever the circuit
    produces.)
    """
    if vertex_count < 2 or vertex_count & (vertex_count - 1):
        raise ValueError(f"literal initializer needs a power-of-two size, got {vertex_count}")
    gates = [GateSpec("RX", math.pi, (0,))]
    occupied = [0]
    half = vertex_count // 2
    while half >= 1:
        newly = []
        for q in occupied:
            tgt = q + half
            gates.append(GateSpec("XY", WALK_ANGLE, (q, tgt)))
            gates.append(GateSpec("RZ", SEARCH_RZ_ANGLE, (tgt,)))
            newly.append(tgt)
        occupied = occupied + newly
        half //= 2
    return gates


def sector_oracle(lattice: Lattice, schedule: AngleSchedule,
                  variant: str = "walk") -> np.ndarray:
    """V x V one-particle-sector matrix of one full step, built directly.

    Each pair (a, b) of a tessellation contributes the 2x2 block
    [[cos t, i sin t], [i sin t, cos t]] on rows/columns (a, b).  For the
    search variant, every RZ(-pi/2) of an unmarked pair multiplies the
    amplitude of its own vertex by exp(-i pi/4) and every other vertex
    amplitude by exp(+i pi/4); those diagonal phases are what makes this
    oracle agree with full statevector evolution amplitude-wise, not just
    in probability.
    """
    if variant not in ("walk", "search"):
        raise ValueError(f"unknown variant {variant!r}")
    marked = schedule.marked
    V = lattice.vertex_count
    if variant == "search":
        if marked is None:
            raise ValueError("search variant needs a marked vertex on the schedule")
        if not 0 <= marked < V:
            raise ValueError(f"marked vertex {marked} out of range")
    step = np.eye(V, dtype=complex)
    for tess in tessellations_for(lattice):
        layer = np.eye(V, dtype=complex)
        rz_qubits = []
        for a, b in tess.pairs:
            if variant == "walk":
                theta = schedule.angle_for((a, b))
            elif marked in (a, b):
                theta = schedule.angle_for((a, b), MARKED_ANGLE)
            else:
                theta = schedule.angle_for((a, b), UNMARKED_ANGLE)
                rz_qubits += [a, b]
            c, s = math.cos(theta), math.sin(theta)
            layer[np.ix_([a, b], [a, b])] = np.array([[c, 1j * s], [1j * s, c]])
        if rz_qubits:
            phases = np.ones(V, dtype=complex)
            for q in rz_qubits:
                phases *= np.exp(-1j * SEARCH_RZ_ANGLE / 2)  # occupied elsewhere
                phases[q] *= np.exp(1j * SEARCH_RZ_ANGLE)    # occupied at q
            layer = phases[:, None] * layer
        step = layer @ step
    return step


def initial_sector_state(config: WalkConfig) -> SectorVector:
    """The configured initial state, prepared on span{vacuum, one-hot}.

    The uniform ``exact`` start is written directly.  Every other start
    is the gate sequence of the dense preparation
    (:func:`qcawalk.reference.initial_state`): its leading RX
    acts on the vacuum, leaving the gate's first column on (vacuum, e_q);
    the XY/RZ gates after it run through :func:`lower_to_sector`.
    """
    V = config.lattice.vertex_count
    init = config.init
    if init.kind == "search_uniform":
        if config.initializer_mode == "exact":
            amps = np.full(V + 1, 1 / math.sqrt(V), dtype=complex)
            amps[0] = 0.0
            return SectorVector(V, amps)
        gates = search_initializer_gates(V)
    else:
        gates = _walk_init_gates(config.lattice, init.site, init.kind == "symmetric")
    rx, *rest = gates
    state = SectorVector(V, np.zeros(V + 1, dtype=complex))
    state.amplitudes[[0, rx.targets[0] + 1]] = rx.matrix()[:, 0]
    return apply_sector_stages(state, lower_to_sector(rest, V))


def run_walk(config: WalkConfig, noise=None) -> WalkResult:
    """Run the configured walk and record distributions at every step.

    ``noise`` (a :class:`qcawalk.noise.NoiseModel`) is required for the
    density and trajectory backends; the statevector backend is always
    ideal.  Each backend collects every step's probabilities and reads
    them out with one :func:`vertex_distribution` call; row t of the empirical
    distribution is then drawn with the child seed (seed, shot-stream, t),
    so runs are reproducible bit-exactly.  A density block, or a
    trajectory ensemble of one column and :data:`TRAJECTORY_WORK_BYTES`
    per trajectory, above :data:`STATE_MAX_BYTES` raises
    :class:`ResourceLimitError` before anything is built.  The noisy
    backends are looked up on :mod:`qcawalk.noise` when called, so a
    wrapper installed there (``bench/spans.py``) sees every call.
    """
    t_start = time.perf_counter()
    lattice = config.lattice
    V = lattice.vertex_count
    backend = config.backend.kind
    columns = {"density": V + 1, "trajectories": config.backend.n_trajectories}
    state_bytes = (V + 1) * columns.get(backend, 1) * 16
    need, advice = f"{state_bytes} bytes", "use the trajectories backend instead"
    if backend == "trajectories":
        work_bytes = config.backend.n_trajectories * TRAJECTORY_WORK_BYTES
        state_bytes += work_bytes
        need += f" plus {work_bytes} of work arrays"
        advice = "use fewer trajectories"
    if state_bytes > STATE_MAX_BYTES:
        raise ResourceLimitError(
            f"{backend} backend needs {need} for {V} qubits, above its "
            f"bound of {STATE_MAX_BYTES} bytes; {advice}"
        )
    schedule = AngleSchedule(marked=config.marked)
    step_op = build_step_operator(lattice, schedule, config.variant)
    state = initial_sector_state(config)

    p = np.empty((config.steps + 1, V + 1))  # per step: leakage, then the vertices
    if backend == "statevector":
        for t in range(config.steps + 1):
            p[t] = sector_project(state)
            if t < config.steps:
                step_op.apply(state)
        exact = vertex_distribution(p[:, 1:], p[:, 0])
    elif backend == "density":
        model = noise if noise is not None else NoiseModel()
        rho = SectorDensity.from_statevector(state)
        for t in range(config.steps + 1):
            p[t] = rho.diagonal_probabilities()
            if t < config.steps:
                rho = _noise.evolve_density(rho, step_op, model)
        exact = vertex_distribution(p[:, 1:], p[:, 0])
    else:  # trajectories
        model = noise if noise is not None else NoiseModel()
        exact = _noise.trajectory_run(state, step_op, model,
                                      n_traj=config.backend.n_trajectories,
                                      seed=config.seed, steps=config.steps)

    empirical = sample_counts(exact, config.shots, config.seed)
    return WalkResult(exact, empirical, time.perf_counter() - t_start)
