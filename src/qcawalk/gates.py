"""Gate library and the layered per-step evolution operator.

The workhorse is the two-qubit XY(theta) gate

    [[1, 0,          0,          0],
     [0, cos(theta), i sin(theta), 0],
     [0, i sin(theta), cos(theta), 0],
     [0, 0,          0,          1]]

which exchanges |01>/|10> amplitude and leaves |00>, |11> alone, hence
conserves excitation number.  theta = pi/4 gives sqrt(iSWAP), theta = pi/2
gives iSWAP.

One walk step applies one layer of XY gates per tessellation, layers in
cover order (T0 then T1; T00, T01, T10, T11).  The plain walk uses
XY(pi/4) on every pair.  The search step uses XY(pi/4) on pairs incident
to the marked vertex and RZ(-pi/2) x RZ(-pi/2) . XY(pi/2) (iSWAP first,
then the phase corrections on both qubits) everywhere else.

``StepOperator.sector_stages`` lowers a step once, layer by layer: every
layer is a perfect matching (staggered tessellation model), so it becomes
the 2x2 central blocks of its XY gates on (e_b, e_a) plus one phase vector
holding its RZ gates.  All three sector backends run on it:
``StepOperator.apply`` at a few O(V) array operations per layer, and the
noisy kernels of :mod:`qcawalk.noise`.  The gate-by-gate kernel on the
dense 2^n amplitudes is :func:`qcawalk.reference.apply_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .lattice import Lattice, Tessellation, tessellations_for
from .states import SectorVector, require_sector

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Default walk angle; XY(pi/4) = sqrt(iSWAP).
WALK_ANGLE = math.pi / 4
#: Search angles: marked-incident pairs keep the walk angle, the rest get iSWAP.
MARKED_ANGLE = math.pi / 4
UNMARKED_ANGLE = math.pi / 2
#: Phase correction applied to both qubits of an unmarked search pair.
SEARCH_RZ_ANGLE = -math.pi / 2

#: Gates that keep a state inside span{vacuum, one-hot states}.
SECTOR_GATES = frozenset({"XY", "RZ"})

# dimensionless generators G with gate(theta) = expm(-i * theta * G)
_XY_GENERATOR = -(np.kron(PAULI["X"], PAULI["X"]) + np.kron(PAULI["Y"], PAULI["Y"])) / 2


def xy_gate(theta: float) -> np.ndarray:
    """4x4 XY(theta) unitary in the |q_a q_b> computational basis."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[1, 0, 0, 0],
         [0, c, 1j * s, 0],
         [0, 1j * s, c, 0],
         [0, 0, 0, 1]],
        dtype=complex,
    )


def pauli_rotation(axis: str, theta: float) -> np.ndarray:
    """R_A(theta) = exp(-i theta sigma_A / 2) for A in {X, Y, Z}."""
    if axis not in PAULI:
        raise ValueError(f"unknown rotation axis {axis!r}")
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c * np.eye(2, dtype=complex) - 1j * s * PAULI[axis]


@dataclass(frozen=True)
class GateSpec:
    """A named gate instance: angle and target qubits; its time is the noise model's."""

    name: str  # "XY" | "RX" | "RY" | "RZ"
    theta: float
    targets: tuple

    def __post_init__(self):
        if self.name not in ("XY", "RX", "RY", "RZ"):
            raise ValueError(f"unknown gate {self.name!r}")
        want = 2 if self.name == "XY" else 1
        if len(self.targets) != want:
            raise ValueError(f"{self.name} expects {want} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("gate targets must be distinct")
        if not math.isfinite(self.theta):
            raise ValueError("angle must be finite")

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def matrix(self) -> np.ndarray:
        if self.name == "XY":
            return xy_gate(self.theta)
        return pauli_rotation(self.name[1], self.theta)

    def generator(self) -> np.ndarray:
        """G such that matrix() == expm(-i * theta * G)."""
        if self.name == "XY":
            return _XY_GENERATOR.copy()
        return PAULI[self.name[1]] / 2


class SectorStage(NamedTuple):
    """Disjoint XY gates followed by a diagonal phase, on (n+1) sector indices.

    ``blocks[k]`` is the central 2x2 block of pair k's gate ``gates[k]``,
    acting on the amplitudes at ``(b[k], a[k])`` -- the order |01>, |10> of
    the gate's |q_a q_b> basis (see :func:`xy_gate`).  ``phase`` (None when
    the stage has no RZ) multiplies every index afterwards; an index no RZ
    touched gets exactly the vacuum's phase ``phase[0]``.
    """

    b: np.ndarray
    a: np.ndarray
    blocks: np.ndarray
    phase: np.ndarray | None
    gates: tuple


def lower_to_sector(gates, n_qubits: int) -> list:
    """Lower a gate sequence to :class:`SectorStage` s on span{vacuum, one-hot}.

    An XY gate leaves the vacuum and every one-hot state off its pair
    alone and mixes (e_b, e_a) by its central block.  RZ(theta) on q
    multiplies e_q by exp(i theta/2) and every other index by
    exp(-i theta/2).  A stage closes when an XY gate touches a qubit the
    stage already touched, so gate order is kept; a tessellation layer
    (a matching, RZ after XY) is one stage.  Any other gate leaves the
    span and raises ``ValueError``.
    """
    groups, touched = [[]], set()
    for g in gates:
        if g.name not in SECTOR_GATES:
            raise ValueError(f"gate {g.name} leaves span{{vacuum, one-hot}}; "
                             "run it on the dense qcawalk.reference instead")
        if not all(0 <= q < n_qubits for q in g.targets):
            raise ValueError(f"qubits {g.targets} out of range for {n_qubits} qubits")
        if g.name == "XY" and touched.intersection(g.targets):
            groups.append([])
            touched = set()
        groups[-1].append(g)
        touched.update(g.targets)
    matrices = {}  # (name, theta) -> matrix; a step repeats a few angles

    def matrix(g: GateSpec) -> np.ndarray:
        m = matrices.get((g.name, g.theta))
        if m is None:
            m = matrices[g.name, g.theta] = g.matrix()
        return m

    stages = []
    for group in filter(None, groups):
        xy = [g for g in group if g.name == "XY"]
        rz = [(g.targets[0], matrix(g)) for g in group if g.name == "RZ"]
        idx = np.array([g.targets for g in xy], dtype=np.intp).reshape(-1, 2) + 1
        blocks = np.array([matrix(g)[1:3, 1:3] for g in xy], dtype=complex)
        phase = None
        if rz:
            phase = np.full(n_qubits + 1, np.prod([m[0, 0] for _q, m in rz]), dtype=complex)
            for q, m in rz:
                phase[q + 1] *= m[1, 1] / m[0, 0]
        stages.append(SectorStage(idx[:, 1], idx[:, 0], blocks.reshape(-1, 2, 2), phase,
                                  tuple(xy)))
    return stages


def apply_sector_stages(state: SectorVector, stages) -> SectorVector:
    """Apply lowered stages to ``state`` in place; a stage costs O(n)."""
    psi = state.amplitudes
    for b, a, blocks, phase, _gates in stages:
        amp_b, amp_a = psi[b], psi[a]
        psi[b] = blocks[:, 0, 0] * amp_b + blocks[:, 0, 1] * amp_a
        psi[a] = blocks[:, 1, 0] * amp_b + blocks[:, 1, 1] * amp_a
        if phase is not None:
            psi *= phase
    return state


@dataclass
class AngleSchedule:
    """Per-pair angle assignment for the step operator.

    ``overrides`` maps a tessellation pair (either orientation) to an
    angle replacing the default.  ``marked`` carries the search target;
    it must be set for the search variant and unset for the plain walk.
    """

    default: float = WALK_ANGLE
    overrides: dict = field(default_factory=dict)
    marked: int | None = None

    def angle_for(self, pair, fallback: float | None = None) -> float:
        a, b = pair
        if (a, b) in self.overrides:
            return self.overrides[(a, b)]
        if (b, a) in self.overrides:
            return self.overrides[(b, a)]
        return self.default if fallback is None else fallback


@dataclass(frozen=True)
class StepOperator:
    """Ordered gate layers realizing one walk or search time step."""

    layers: tuple  # ((Tessellation, (GateSpec, ...)), ...)
    n_qubits: int

    def apply(self, state: SectorVector) -> SectorVector:
        """Apply one step to ``state`` in place and return it, on the cached
        sector lowering (XY/RZ gates only, else ``ValueError``)."""
        self.require_state(state, SectorVector, "StepOperator.apply")
        for stages in self.sector_stages:
            apply_sector_stages(state, stages)
        return state

    def require_state(self, state, cls: type, caller: str) -> None:
        """The sector kernels' entry check: ``TypeError`` unless ``state`` is a
        ``cls``, ``ValueError`` unless on this register; lowering checks gates."""
        require_sector(state, cls, caller)
        if state.n_qubits != self.n_qubits:
            raise ValueError(f"state has {state.n_qubits} qubits, "
                             f"step operator {self.n_qubits}")

    @cached_property
    def sector_stages(self) -> tuple:
        """Each layer lowered by :func:`lower_to_sector`, one list of stages
        per layer, computed on first use."""
        return tuple(lower_to_sector(gates, self.n_qubits) for _t, gates in self.layers)

    def two_qubit_gate_count(self) -> int:
        return sum(1 for _t, gates in self.layers for g in gates if g.n_targets == 2)


def build_step_operator(lattice: Lattice, schedule: AngleSchedule,
                        variant: str = "walk") -> StepOperator:
    """Assemble the layered step operator for a lattice and angle schedule.

    Pure function of its arguments.  For ``variant="search"`` a pair uses
    the marked angle when either endpoint equals the marked vertex;
    all other pairs get iSWAP followed by RZ(-pi/2) on both qubits.
    """
    if variant not in ("walk", "search"):
        raise ValueError(f"unknown variant {variant!r}")
    marked = schedule.marked
    if variant == "search":
        if marked is None:
            raise ValueError("search variant needs a marked vertex on the schedule")
        if not 0 <= marked < lattice.vertex_count:
            raise ValueError(f"marked vertex {marked} out of range")
    layers = []
    for tess in tessellations_for(lattice):
        gates = []
        for pair in tess.pairs:
            if variant == "walk":
                gates.append(GateSpec("XY", schedule.angle_for(pair), tuple(pair)))
            elif marked in pair:
                gates.append(GateSpec("XY", schedule.angle_for(pair, MARKED_ANGLE), tuple(pair)))
            else:
                gates.append(GateSpec("XY", schedule.angle_for(pair, UNMARKED_ANGLE), tuple(pair)))
                gates.append(GateSpec("RZ", SEARCH_RZ_ANGLE, (pair[0],)))
                gates.append(GateSpec("RZ", SEARCH_RZ_ANGLE, (pair[1],)))
        layers.append((tess, tuple(gates)))
    return StepOperator(tuple(layers), lattice.vertex_count)
