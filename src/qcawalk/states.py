"""State representations (dense vectors and densities, and the vector and
density restricted to the one-particle sector) and basis-index arithmetic.

The register encodes one lattice vertex per qubit: vertex ``v`` occupied
means qubit ``v`` is |1>.  Basis indices are little-endian, i.e. bit ``k``
of the index is the state of qubit ``k``.  Vertex labels of a torus map to
qubits in row-major order, ``(i, j) -> i + N*j``; this single convention is
used everywhere.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

#: Outcome label collecting all probability mass outside the one-particle
#: sector (vacuum and multi-excitation bitstrings).  Leakage is a reported
#: outcome, never an error.
LEAKAGE = "leakage"

#: Probabilities below this are clamped to zero before sampling, so that
#: negative rounding residue never reaches the RNG.
PROB_CLAMP = 1e-15

#: Child-seed stream tags.  All randomness flows from one root seed:
#: shot sampling at step t draws from SeedSequence([seed, SHOT_STREAM, t]),
#: and all trajectories of a run share one generator seeded with
#: SeedSequence([seed, TRAJECTORY_STREAM]).
SHOT_STREAM = 0
TRAJECTORY_STREAM = 1


class _PureState:
    """Amplitude array of an ``n_qubits`` register, shared by the two pure
    representations; index 0 is the vacuum in both."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        dim = self.dimension(n_qubits)
        if amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude array has shape {amplitudes.shape}, "
                f"expected ({dim},) for {n_qubits} qubits"
            )
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @staticmethod
    def dimension(n_qubits: int) -> int:
        raise NotImplementedError

    @classmethod
    def vacuum(cls, n_qubits: int):
        """All-qubits-|0> state."""
        amp = np.zeros(cls.dimension(n_qubits), dtype=complex)
        amp[0] = 1.0
        return cls(n_qubits, amp)

    def copy(self):
        return type(self)(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_qubits={self.n_qubits})"


class StateVector(_PureState):
    """Pure state of an ``n_qubits`` register as a dense amplitude array."""

    __slots__ = ()

    @staticmethod
    def dimension(n_qubits: int) -> int:
        return 2**n_qubits


class SectorVector(_PureState):
    """Pure state confined to span{vacuum, one-hot} of an ``n_qubits`` register.

    ``amplitudes`` has n+1 entries with the index convention of
    :class:`SectorDensity`: index 0 is the vacuum, index v+1 the one-hot
    state of vertex v.  XY and RZ gates never leave this span, so the
    ideal walk evolves exactly on it.
    """

    __slots__ = ()

    @staticmethod
    def dimension(n_qubits: int) -> int:
        return n_qubits + 1

    @classmethod
    def from_statevector(cls, state: StateVector) -> "SectorVector":
        """Restrict a dense state to the sector; raise if it has weight outside."""
        keep = sector_basis(state.n_qubits)
        outside = np.ones(state.amplitudes.shape, dtype=bool)
        outside[keep] = False
        if float(np.abs(state.amplitudes[outside]).max(initial=0.0)) >= 1e-12:
            raise ValueError("state has weight outside span{vacuum, one-hot}")
        return cls(state.n_qubits, state.amplitudes[keep])


class _MixedState:
    """Checks shared by the two density representations."""

    __slots__ = ("n_qubits", "entries")

    def copy(self):
        return type(self)(self.n_qubits, self.entries.copy())

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def hermiticity_defect(self) -> float:
        """Max elementwise |rho - rho^dagger|."""
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2).min())

    def diagonal_probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_qubits={self.n_qubits})"


class DensityMatrix(_MixedState):
    """Mixed state of an ``n_qubits`` register as a dense 2^n x 2^n matrix."""

    __slots__ = ()

    def __init__(self, n_qubits: int, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        dim = 2**n_qubits
        if entries.shape != (dim, dim):
            raise ValueError(
                f"density matrix has shape {entries.shape}, expected {(dim, dim)}"
            )
        self.n_qubits = n_qubits
        self.entries = entries

    @classmethod
    def from_statevector(cls, state: StateVector) -> "DensityMatrix":
        amp = state.amplitudes
        return cls(state.n_qubits, np.outer(amp, amp.conj()))


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an
    integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def sector_basis(n_qubits: int) -> np.ndarray:
    """Register basis indices spanning {vacuum, one-hot}: 0, then 1 << v."""
    return np.concatenate([[0], np.left_shift(1, np.arange(n_qubits))])


class SectorDensity(_MixedState):
    """Mixed state confined to span{vacuum, one-hot} of an ``n_qubits`` register.

    ``entries`` is (n+1) x (n+1): index 0 is the vacuum, index v+1 the
    one-hot state of vertex v, i.e. the dense matrix restricted to
    :func:`sector_basis`.  XY/RZ gates and excitation-lowering
    dissipators never leave this block, so it evolves exactly.
    """

    __slots__ = ()

    def __init__(self, n_qubits: int, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        dim = n_qubits + 1
        if entries.shape != (dim, dim):
            raise ValueError(
                f"sector density has shape {entries.shape}, expected {(dim, dim)}"
            )
        self.n_qubits = n_qubits
        self.entries = entries

    @classmethod
    def from_statevector(cls, state: StateVector | SectorVector) -> "SectorDensity":
        """Outer product of a pure state restricted to the sector, as
        :meth:`SectorVector.from_statevector` restricts it."""
        if isinstance(state, StateVector):
            state = SectorVector.from_statevector(state)
        amp = state.amplitudes
        return cls(state.n_qubits, np.outer(amp, amp.conj()))


@dataclass
class Distribution:
    """Probability distribution over vertex labels plus the leakage label.

    ``outcomes`` maps labels (vertex ids or :data:`LEAKAGE`) to
    probabilities.  ``shots`` and ``counts`` are present only on empirical
    distributions obtained by sampling.
    """

    outcomes: dict
    shots: int | None = None
    counts: dict | None = None

    def __post_init__(self):
        total = float(sum(self.outcomes.values()))
        if self.outcomes and not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        for label, p in self.outcomes.items():
            if p < -1e-12 or p > 1 + 1e-12:
                raise ValueError(f"probability {p!r} for outcome {label!r} out of [0, 1]")
        if self.counts is not None:
            if self.shots is None:
                raise ValueError("counts given without shots")
            if sum(self.counts.values()) != self.shots:
                raise ValueError("counts do not sum to shots")

    def get(self, label) -> float:
        return float(self.outcomes.get(label, 0.0))

    def labels(self):
        return canonical_labels(self.outcomes)


def canonical_labels(*outcome_maps) -> list:
    """Deterministic label order: integer labels ascending, then strings."""
    labels = set()
    for m in outcome_maps:
        labels.update(m)
    ints = sorted(x for x in labels if isinstance(x, numbers.Integral))
    strs = sorted(x for x in labels if not isinstance(x, numbers.Integral))
    return list(ints) + strs


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


def vertex_distribution(vertex_probs, leakage) -> Distribution:
    """The one readout of every backend: vertex ``v`` gets
    ``vertex_probs[v]`` and :data:`LEAKAGE` gets ``leakage``.

    Negative rounding residue is clamped to 0, but nothing is rescaled: a
    state whose norm is off by more than :class:`Distribution`'s
    tolerance raises ``ValueError`` instead of being divided back to 1.
    """
    probs = np.maximum(np.asarray(vertex_probs, dtype=float), 0.0)
    outcomes = dict(enumerate(probs.tolist()))
    outcomes[LEAKAGE] = max(float(leakage), 0.0)
    return Distribution(outcomes)


def onehot_index(vertex: int, n_qubits: int) -> int:
    """Basis index of the one-hot state occupying ``vertex``.

    Qubit ``k`` is bit ``k`` of the index (little-endian), so the one-hot
    index is simply ``1 << vertex``.
    """
    if not 0 <= vertex < n_qubits:
        raise ValueError(f"vertex {vertex} out of range for {n_qubits} qubits")
    return 1 << vertex


def onehot_vertex(index: int, n_qubits: int) -> int:
    """Inverse of :func:`onehot_index`; rejects non-one-hot indices."""
    if index <= 0 or index >= 2**n_qubits or index & (index - 1):
        raise ValueError(f"index {index} is not a one-hot basis index")
    return index.bit_length() - 1


def sector_project(state: StateVector | SectorVector, vertex_count: int) -> SectorState:
    """Project a register state onto the one-particle sector.

    Leakage (norm outside the sector) is reported, never raised.  For a
    :class:`SectorVector` it is summed from the amplitudes outside the
    first ``vertex_count`` one-hot states (just the vacuum when they cover
    the register) rather than as a difference of norms.
    """
    if vertex_count > state.n_qubits:
        raise ValueError("vertex count exceeds register size")
    if isinstance(state, SectorVector):
        probs = state.probabilities()
        leakage = float(probs[0] + probs[vertex_count + 1:].sum())
        return SectorState(state.amplitudes[1:vertex_count + 1].copy(), leakage)
    idx = np.left_shift(1, np.arange(vertex_count))
    amps = state.amplitudes[idx].copy()
    total = float(np.vdot(state.amplitudes, state.amplitudes).real)
    leakage = total - float(np.vdot(amps, amps).real)
    return SectorState(amps, max(leakage, 0.0))


def _as_outcome_probs(dist) -> dict:
    """The outcome map of a :class:`Distribution`; a mapping is its own."""
    return dist.outcomes if isinstance(dist, Distribution) else dist


def sample_counts(dist, shots: int, seed) -> Distribution:
    """Multinomial sample of an exact distribution.

    Deterministic under a fixed ``seed`` (an int or a
    ``numpy.random.SeedSequence``).  Probabilities below
    :data:`PROB_CLAMP` are clamped to zero before drawing.
    """
    shots = require_count("shots", shots, 1)
    outcomes = _as_outcome_probs(dist)
    labels = canonical_labels(outcomes)
    probs = np.array([outcomes[l] for l in labels], dtype=float)
    probs[probs < PROB_CLAMP] = 0.0
    total = probs.sum()
    if total <= 0:
        raise ValueError("distribution has no positive probability mass")
    probs /= total
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = {l: int(c) for l, c in zip(labels, draws)}
    freqs = {l: c / shots for l, c in counts.items()}
    return Distribution(freqs, shots=shots, counts=counts)
