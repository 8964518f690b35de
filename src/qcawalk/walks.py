"""Quantum walk and walk-search drivers plus the independent sector oracle.

``run_walk`` evolves a register by repeated application of the step
operator on one of three backends (pure statevector, density matrix,
quantum trajectories) and records exact and sampled vertex distributions
at every step, including step 0.  All three start from the same
:class:`SectorVector` (``initial_sector_state``): the initial state
prepared directly on span{vacuum, one-hot}, where the ideal backend then
stays, so no 2^V array is formed.  The dense ``qw_init``,
``search_initializer`` and ``initial_state`` prepare the same states on
the full register, as the reference the sector path is tested against.

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

from .gates import (
    MARKED_ANGLE,
    SEARCH_RZ_ANGLE,
    UNMARKED_ANGLE,
    WALK_ANGLE,
    AngleSchedule,
    GateSpec,
    StepOperator,
    apply_gate,
    apply_sector_stages,
    build_step_operator,
    lower_to_sector,
)
from .lattice import Lattice, tessellations_for
from .states import (
    LEAKAGE,
    SHOT_STREAM,
    Distribution,
    SectorDensity,
    SectorVector,
    StateVector,
    onehot_index,
    require_count,
    sample_counts,
    sector_project,
)


class ResourceLimitError(RuntimeError):
    """Raised when a backend would exceed its configured size cap."""


@dataclass
class InitSpec:
    """Initial-state choice: a single site, a symmetric bond pair, or the
    uniform one-particle superposition used by the search."""

    kind: str  # "single" | "symmetric" | "search_uniform"
    site: int = 0

    def __post_init__(self):
        if self.kind not in ("single", "symmetric", "search_uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")


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
    density_cap: int = 12
    full_distributions: bool = False  # record raw basis-index probabilities too

    def __post_init__(self):
        require_count("steps", self.steps, 0)
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.marked is not None and not 0 <= self.marked < self.lattice.vertex_count:
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
    """Per-step (exact, empirical) distributions and leakage series.

    ``full_per_step`` holds raw basis-index distributions (labels are
    basis indices, not vertices) when the run asked for them; it lets
    fidelities be computed over full bitstrings instead of the
    vertex+leakage compression.
    """

    per_step: list  # [(Distribution exact, Distribution empirical), ...]
    leakage_per_step: list
    metadata: dict
    full_per_step: list | None = None

    @property
    def exact(self) -> list:
        return [pair[0] for pair in self.per_step]

    @property
    def empirical(self) -> list:
        return [pair[1] for pair in self.per_step]


def qw_init(lattice: Lattice, site: int, symmetric: bool = False) -> StateVector:
    """Prepare the walk's initial state by the literal gate sequence.

    ``symmetric=False``: flip qubit ``site`` (one-hot state up to a global
    phase).  ``symmetric=True``: additionally split onto the bond
    (site, site+1) with XY(pi/4) and correct the relative phase with
    RZ(-pi/2), giving (|site> + |site+1>)/sqrt(2) up to a global phase;
    both sites then carry probability 1/2.
    """
    state = StateVector.vacuum(lattice.vertex_count)
    for g in _walk_init_gates(lattice, site, symmetric):
        apply_gate(state, g)
    return state


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


def search_initializer(lattice: Lattice, mode: str = "exact") -> StateVector:
    """Uniform superposition over all one-hot vertex states.

    ``mode="exact"`` writes amplitudes 1/sqrt(V) directly.
    ``mode="literal"`` runs the butterfly circuit; every one-hot
    probability is 1/V within 1e-10 but amplitudes carry circuit phases.
    """
    V = lattice.vertex_count
    if mode == "exact":
        amps = np.zeros(2**V, dtype=complex)
        for v in range(V):
            amps[onehot_index(v, V)] = 1 / math.sqrt(V)
        return StateVector(V, amps)
    if mode != "literal":
        raise ValueError(f"unknown initializer mode {mode!r}")
    state = StateVector.vacuum(V)
    for g in search_initializer_gates(V):
        apply_gate(state, g)
    return state


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
    if variant == "search" and marked is None:
        raise ValueError("search variant needs a marked vertex on the schedule")
    V = lattice.vertex_count
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


def initial_state(config: WalkConfig) -> StateVector:
    """The configured initial state on the dense 2^V register (reference)."""
    init = config.init
    if init.kind == "single":
        return qw_init(config.lattice, init.site, symmetric=False)
    if init.kind == "symmetric":
        return qw_init(config.lattice, init.site, symmetric=True)
    return search_initializer(config.lattice, config.initializer_mode)


def initial_sector_state(config: WalkConfig) -> SectorVector:
    """The state of :func:`initial_state`, prepared on span{vacuum, one-hot}.

    The uniform ``exact`` start is written directly.  Every other start
    is the same gate sequence as the dense preparation: its leading RX
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


def _shot_seed(seed: int, step: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, SHOT_STREAM, step])


def _record_step(dist: Distribution, shots: int, seed: int, step: int):
    empirical = sample_counts(dist, shots, _shot_seed(seed, step))
    return (dist, empirical)


def run_walk(config: WalkConfig, noise=None) -> WalkResult:
    """Run the configured walk and record distributions at every step.

    ``noise`` (a :class:`qcawalk.noise.NoiseModel`) is required for the
    density and trajectory backends; the statevector backend is always
    ideal.  The empirical distribution at step t is drawn with the child
    seed (seed, shot-stream, t), so runs are reproducible bit-exactly.
    """
    t_start = time.perf_counter()
    lattice = config.lattice
    V = lattice.vertex_count
    schedule = AngleSchedule(marked=config.marked)
    step_op = build_step_operator(lattice, schedule, config.variant)
    state = initial_sector_state(config)

    backend = config.backend.kind
    per_step: list = []
    leakage: list = []
    full_steps: list | None = [] if config.full_distributions else None
    if full_steps is not None and backend == "trajectories":
        raise ValueError("full basis-index recording is not available on the trajectories backend")

    if backend == "statevector":
        for t in range(config.steps + 1):
            sector = sector_project(state, V)
            dist = sector.to_distribution()
            per_step.append(_record_step(dist, config.shots, config.seed, t))
            leakage.append(sector.leakage_norm)
            if full_steps is not None:
                full_steps.append(_full_distribution(state.probabilities()))
            if t < config.steps:
                step_op.apply(state)
    elif backend == "density":
        from .noise import NoiseModel, evolve_density

        if V > config.density_cap:
            raise ResourceLimitError(
                f"density backend capped at {config.density_cap} qubits "
                f"(requested {V}); use the trajectories backend instead"
            )
        model = noise if noise is not None else NoiseModel()
        rho = SectorDensity.from_statevector(state)
        cache: dict = {}
        for t in range(config.steps + 1):
            dist = _density_distribution(rho, V)
            per_step.append(_record_step(dist, config.shots, config.seed, t))
            leakage.append(dist.get(LEAKAGE))
            if full_steps is not None:
                full_steps.append(_full_distribution(rho.diagonal_probabilities()))
            if t < config.steps:
                rho = evolve_density(rho, step_op, model, channel_cache=cache)
    else:  # trajectories
        from .noise import NoiseModel, trajectory_run

        model = noise if noise is not None else NoiseModel()
        dists = trajectory_run(
            state, step_op, model,
            n_traj=config.backend.n_trajectories,
            seed=config.seed,
            steps=config.steps,
            record_steps=True,
        )
        for t, dist in enumerate(dists):
            per_step.append(_record_step(dist, config.shots, config.seed, t))
            leakage.append(dist.get(LEAKAGE))

    meta = {
        "variant": config.variant,
        "backend": backend,
        "n_qubits": V,
        "steps": config.steps,
        "wall_time_s": time.perf_counter() - t_start,
        "config": {
            "lattice": {"kind": lattice.kind, "N": lattice.N},
            "init": {"kind": config.init.kind, "site": config.init.site},
            "marked": config.marked,
            "shots": config.shots,
            "seed": config.seed,
            "backend": {"kind": backend, "n_trajectories": config.backend.n_trajectories},
            "initializer_mode": config.initializer_mode,
        },
    }
    return WalkResult(per_step, leakage, meta, full_steps)


def _full_distribution(probs: np.ndarray) -> Distribution:
    """Raw basis-index distribution of (V+1) sector probabilities, zero
    entries pruned: index 0 is the vacuum (label 0), index v+1 the one-hot
    label ``1 << v``."""
    probs = np.maximum(probs, 0.0)
    total = probs.sum()
    nz = np.nonzero(probs > 1e-15)[0]
    return Distribution({(1 << (int(i) - 1) if i else 0): float(probs[i] / total) for i in nz})


def _density_distribution(rho, V: int) -> Distribution:
    """Aggregate the diagonal of rho into vertex probabilities + leakage."""
    diag = np.maximum(rho.diagonal_probabilities(), 0.0)
    if isinstance(rho, SectorDensity):
        vertex = diag[1:V + 1]
    else:
        vertex = diag[np.left_shift(1, np.arange(V))]
    leak = max(float(diag.sum() - vertex.sum()), 0.0)
    total = float(vertex.sum()) + leak
    outcomes = {v: float(vertex[v]) / total for v in range(V)}
    outcomes[LEAKAGE] = leak / total
    return Distribution(outcomes)
