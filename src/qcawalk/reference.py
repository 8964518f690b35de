"""Dense 2^n reference, the oracle the sector backends are tested against:
the same physics on the full register (a :class:`StateVector` evolved
gate by gate, a :class:`DensityMatrix` channel by channel, the literal
state preparations) and the projection back onto the sector.  Only the
tests import it.  Bit k of a register index is qubit k, so sector index
v+1 is register index 1 << v; :func:`apply_local` is the one statement
of the register's axis order.  The dense density applies each channel's
Kraus operators, from :func:`qcawalk.noise.noisy_gate_channel` and
:func:`qcawalk.noise.idle_channel`, memoised per channel by
:func:`_channel`, gate by gate in the order :func:`_step_channels` states
for itself; the sector backends lower the same channels from their
superoperators, on the step's own sector lowering, and form no Kraus set
but the jumps'."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import GateSpec, StepOperator
from .lattice import Lattice
from .noise import (
    GateChannel,
    NoiseModel,
    _jump_operators,
    idle_channel,
    noisy_gate_channel,
)
from .states import SectorVector, _MixedState, _PureState, require_count, sector_basis
from .walks import WalkConfig, _walk_init_gates, search_initializer_gates


class StateVector(_PureState):
    """Pure state of an ``n_qubits`` register as a dense amplitude array."""

    __slots__ = ()

    @staticmethod
    def dimension(n_qubits: int) -> int:
        return 2**n_qubits


class DensityMatrix(_MixedState):
    """Mixed state of an ``n_qubits`` register as a dense 2^n x 2^n matrix."""

    __slots__ = ()

    @staticmethod
    def dimension(n_qubits: int) -> int:
        return 2**n_qubits

    @classmethod
    def from_statevector(cls, state: StateVector) -> "DensityMatrix":
        amp = state.amplitudes
        return cls(state.n_qubits, np.outer(amp, amp.conj()))


def to_sector(state: StateVector) -> SectorVector:
    """Restrict a dense state to the sector; raise if it has weight outside."""
    keep = sector_basis(state.n_qubits)
    outside = np.ones(state.amplitudes.shape, dtype=bool)
    outside[keep] = False
    if float(np.abs(state.amplitudes[outside]).max(initial=0.0)) >= 1e-12:
        raise ValueError("state has weight outside span{vacuum, one-hot}")
    return SectorVector(state.n_qubits, state.amplitudes[keep])


@dataclass
class SectorState:
    """One-particle-sector view of a register state.

    ``amplitudes[v]`` is the amplitude of the basis state with the single
    excitation at vertex ``v``; ``leakage_norm`` is whatever squared norm
    of the source state lies outside those basis states.
    """

    amplitudes: np.ndarray
    leakage_norm: float

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def sector_project(state: StateVector, vertex_count: int) -> SectorState:
    """Project a dense register state onto the one-hot states of its first
    ``vertex_count`` qubits (0..n_qubits); leakage (the norm outside them)
    is reported, never raised."""
    vertex_count = require_count("vertex_count", vertex_count, 0, state.n_qubits)
    amps = state.amplitudes[sector_basis(vertex_count)[1:]]
    total = float(np.vdot(state.amplitudes, state.amplitudes).real)
    leakage = total - float(np.vdot(amps, amps).real)
    return SectorState(amps, max(leakage, 0.0))


def apply_local(amplitudes: np.ndarray, matrix: np.ndarray, targets) -> np.ndarray:
    """Apply a 2^k x 2^k ``matrix`` to qubits ``targets`` of an n-qubit
    amplitude array (C-contiguous, 2^n entries, any shape) in place, and
    return the array.

    The one statement of the register's axis order: bit q of a basis index
    is qubit q, so qubit q is axis n-1-q of the array reshaped to [2]*n,
    and the bit of ``targets[0]`` is the most significant bit of the
    matrix's row and column index.
    """
    n = amplitudes.size.bit_length() - 1
    k = len(targets)
    if len(set(targets)) != k or not all(0 <= q < n for q in targets):
        raise ValueError(f"targets {tuple(targets)} must be distinct qubits of 0..{n - 1}")
    if matrix.shape != (2**k, 2**k) or not amplitudes.flags.c_contiguous:
        raise ValueError(f"need a {2**k}x{2**k} matrix and C-contiguous amplitudes")
    # a view of ``amplitudes`` with the target axes first, in target order
    moved = np.moveaxis(amplitudes.reshape([2] * n), [n - 1 - q for q in targets], range(k))
    moved[...] = (matrix @ moved.reshape(2**k, -1)).reshape(moved.shape)
    return amplitudes


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply ``gate`` to the dense amplitudes of ``state`` in place."""
    apply_local(state.amplitudes, gate.matrix(), gate.targets)
    return state


def apply_step(step: StepOperator, state: StateVector) -> StateVector:
    """Apply one step gate by gate to ``state`` in place; any gate runs."""
    for _tess, gates in step.layers:
        for g in gates:
            apply_gate(state, g)
    return state


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


def search_initializer(lattice: Lattice, mode: str = "exact") -> StateVector:
    """Uniform superposition over all one-hot vertex states.

    ``mode="exact"`` writes amplitudes 1/sqrt(V) directly.
    ``mode="literal"`` runs the butterfly circuit of
    :func:`qcawalk.walks.search_initializer_gates`; every one-hot
    probability is 1/V within 1e-10 but amplitudes carry circuit phases.
    """
    V = lattice.vertex_count
    if mode == "exact":
        amps = np.zeros(2**V, dtype=complex)
        amps[sector_basis(V)[1:]] = 1 / math.sqrt(V)
        return StateVector(V, amps)
    if mode != "literal":
        raise ValueError(f"unknown initializer mode {mode!r}")
    state = StateVector.vacuum(V)
    for g in search_initializer_gates(V):
        apply_gate(state, g)
    return state


def initial_state(config: WalkConfig) -> StateVector:
    """The configured initial state on the dense 2^V register; its sector
    restriction is :func:`qcawalk.walks.initial_sector_state`."""
    init = config.init
    if init.kind == "single":
        return qw_init(config.lattice, init.site, symmetric=False)
    if init.kind == "symmetric":
        return qw_init(config.lattice, init.site, symmetric=True)
    return search_initializer(config.lattice, config.initializer_mode)


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Right-hand side drho/dt of the master equation, evaluated directly."""
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("density matrix must be square")
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != arr.shape:
        raise ValueError("Hamiltonian dimension mismatch")
    n = int(math.log2(arr.shape[0]))
    if 2**n != arr.shape[0]:
        raise ValueError("dimension is not a power of two")
    out = -1j * (h @ arr - arr @ h)
    for a in _jump_operators(n, noise.relaxation_rate, noise.dephasing_rate):
        ada = a.conj().T @ a
        out += a @ arr @ a.conj().T - 0.5 * (ada @ arr + arr @ ada)
    return out


def _step_channels(step: StepOperator, noise: NoiseModel):
    """Yield (channel key, targets) for one step in application order.

    Each layer's gates come in their order; within a layer every qubit is
    exposed for the layer's full duration, gates first and the pure
    dissipator for whatever gap remains (if ``noise.idle_decay``).
    """
    for _tess, gates in step.layers:
        busy = np.zeros(step.n_qubits)
        for g in gates:
            yield (g.name, g.theta, g.n_targets), g.targets
            busy[list(g.targets)] += noise.duration_of(g)
        if noise.idle_decay and not noise.is_noiseless:
            for q, gap in enumerate(busy.max() - busy):
                if gap > 1e-18:
                    yield ("idle", gap), (q,)


@functools.lru_cache(maxsize=1024)
def _channel(key: tuple, noise: NoiseModel) -> GateChannel:
    """The Kraus form of ``key``'s channel, ``(name, theta, arity)`` or
    ``("idle", gap)``, the key of :func:`_step_channels`; one key serves
    every placement of the gate."""
    if key[0] == "idle":
        return idle_channel(key[1], noise)
    name, theta, arity = key
    return noisy_gate_channel(GateSpec(name, theta, tuple(range(arity))), noise)


def _apply_kraus_to_density(arr: np.ndarray, kraus: tuple, targets: tuple, n: int) -> np.ndarray:
    """rho -> sum_m K_m rho K_m^dag with K_m acting on ``targets`` only.

    Row-major, the 2^n x 2^n ``arr`` is a 2n-qubit amplitude array: qubit
    q + n is qubit q of the row (ket) index and qubit q that of the column
    (bra) index, so K_m acts on the ket qubits and conj(K_m) on the bra ones.
    """
    ket = tuple(q + n for q in targets)
    return sum(apply_local(apply_local(arr.copy(), k, ket), k.conj(), targets)
               for k in kraus)


def evolve_density(rho: DensityMatrix, step: StepOperator, noise: NoiseModel) -> DensityMatrix:
    """One noisy step on the full 2^n x 2^n matrix, channel by channel in
    the order of :func:`_step_channels`; any gate runs."""
    n = rho.n_qubits
    if step.n_qubits != n:
        raise ValueError(f"state has {n} qubits, step operator {step.n_qubits}")
    arr = rho.entries.copy()
    for key, targets in _step_channels(step, noise):
        arr = _apply_kraus_to_density(arr, _channel(key, noise).kraus, targets, n)
    return DensityMatrix(n, arr)
