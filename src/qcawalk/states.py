"""Sector states (vector and density on span{vacuum, one-hot}), the
outcome distribution every backend reads out, and shot sampling.

The register has one qubit per lattice vertex: vertex ``v`` occupied
means qubit ``v`` is |1>.  In both sector states index 0 is the vacuum
and index v+1 the one-hot state of vertex v.  Vertex labels of a torus
map to qubits in row-major order, ``(i, j) -> i + N*j``; this single
convention is used everywhere.  The dense 2^n states the sector ones
are tested against are in :mod:`qcawalk.reference`.

A :class:`Distribution` is an array over one fixed outcome layout: the V
vertices in order, then :data:`LEAKAGE` at index V.  A run holds each
side as one such array with a leading step axis, ``(steps+1, V+1)``, from
the backend's readout to the record.  Metrics and the sampler work on that
array directly; only the run record spells the outcomes out as labels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded lazily by numpy; every run draws from it, so load it at import

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

#: Largest shot count: numpy's multinomial draw takes a signed 64-bit count.
MAX_SHOTS = 2**63 - 1


class _PureState:
    """Amplitude array of an ``n_qubits`` register, shared by the sector
    and the dense pure representations; index 0 is the vacuum in both."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        n_qubits = require_count("n_qubits", n_qubits, 0)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        dim = self.dimension(n_qubits)
        if amplitudes.shape != (dim,):
            raise ValueError(f"amplitude array has shape {amplitudes.shape}, "
                             f"expected ({dim},) for {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @staticmethod
    def dimension(n_qubits: int) -> int:
        raise NotImplementedError

    @classmethod
    def vacuum(cls, n_qubits: int):
        """All-qubits-|0> state."""
        amp = np.zeros(cls.dimension(require_count("n_qubits", n_qubits, 0)), dtype=complex)
        amp[0] = 1.0
        return cls(n_qubits, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_qubits={self.n_qubits})"


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


class _MixedState:
    """Density matrix of an ``n_qubits`` register, shared by the sector and
    the dense mixed representations; index 0 is the vacuum in both."""

    __slots__ = ("n_qubits", "entries")

    def __init__(self, n_qubits: int, entries: np.ndarray):
        n_qubits = require_count("n_qubits", n_qubits, 0)
        entries = np.asarray(entries, dtype=complex)
        dim = self.dimension(n_qubits)
        if entries.shape != (dim, dim):
            raise ValueError(f"{type(self).__name__} has shape {entries.shape}, "
                             f"expected {(dim, dim)} for {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.entries = entries

    @staticmethod
    def dimension(n_qubits: int) -> int:
        raise NotImplementedError

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


def require_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an
    integer (a bool is not) of at least ``minimum`` and at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}")
    return int(value)


def require_sector(state, cls: type, caller: str) -> None:
    """``TypeError`` unless ``state`` is a ``cls``: a dense state would be misread."""
    if not isinstance(state, cls):
        raise TypeError(f"{caller} takes a {cls.__name__}, got {type(state).__name__}; "
                        "restrict a dense state with qcawalk.reference.to_sector, "
                        "or run it on qcawalk.reference")


def sector_basis(n_qubits: int) -> np.ndarray:
    """Register basis indices spanning {vacuum, one-hot}: 0, then 1 << v."""
    return np.concatenate([[0], np.left_shift(1, np.arange(n_qubits))])


class SectorDensity(_MixedState):
    """Mixed state confined to span{vacuum, one-hot} of an ``n_qubits`` register.

    ``entries`` is (n+1) x (n+1): index 0 is the vacuum, index v+1 the
    one-hot state of vertex v, i.e. the register's density matrix
    restricted to :func:`sector_basis`.  XY/RZ gates and excitation-lowering
    dissipators never leave this block, so it evolves exactly.
    """

    __slots__ = ()

    @staticmethod
    def dimension(n_qubits: int) -> int:
        return n_qubits + 1

    @classmethod
    def from_statevector(cls, state: SectorVector) -> "SectorDensity":
        """The pure state's outer product."""
        require_sector(state, SectorVector, "SectorDensity.from_statevector")
        amp = state.amplitudes
        return cls(state.n_qubits, np.outer(amp, amp.conj()))


@dataclass(eq=False)
class Distribution:
    """Probability distribution over the V vertices plus :data:`LEAKAGE`.

    ``probs`` is a float array whose last axis has V+1 entries:
    ``probs[..., v]`` is vertex ``v`` and ``probs[..., V]`` is leakage.  It
    is ``(V+1,)`` for one step, or ``(steps+1, V+1)`` with one row per step
    of a run; only then do ``len(d)`` and ``d[t]`` exist.  ``shots`` (an
    integer in 1..:data:`MAX_SHOTS`) and ``counts`` (a non-negative int
    array of the same shape) are present only on empirical distributions
    obtained by sampling.  Every check holds per row, and a row that
    fails names its step.
    """

    probs: np.ndarray
    shots: int | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim not in (1, 2) or self.probs.size == 0:
            raise ValueError(f"probabilities have shape {self.probs.shape}, "
                             "expected (V+1,) or (steps+1, V+1) with at least one step")
        rows = self.probs.reshape(-1, self.probs.shape[-1])
        totals = rows.sum(axis=1)
        ok = np.abs(totals - 1.0) <= 1e-9 + 1e-5  # np.isclose's bound; False on NaN
        if not ok.all():
            t = int(np.argmin(ok))
            raise ValueError(f"probabilities{self._at(t)} sum to {float(totals[t])!r}, expected 1")
        outside = (rows < -1e-12) | (rows > 1 + 1e-12)
        if outside.any():
            t, i = (int(k) for k in np.argwhere(outside)[0])
            raise ValueError(f"probability {float(rows[t, i])!r} for outcome {i}{self._at(t)} "
                             "out of [0, 1]")
        if self.shots is not None:
            self.shots = require_count("shots", self.shots, 1, MAX_SHOTS)
        if self.counts is not None:
            if self.shots is None:
                raise ValueError("counts given without shots")
            self.counts = np.asarray(self.counts)
            if not np.issubdtype(self.counts.dtype, np.integer) or (self.counts < 0).any():
                raise ValueError("counts must be non-negative integers")
            if self.counts.shape != self.probs.shape:
                raise ValueError(f"counts have shape {self.counts.shape}, "
                                 f"probabilities {self.probs.shape}")
            off = self.counts.reshape(rows.shape).sum(axis=1) != self.shots
            if off.any():
                raise ValueError(f"counts{self._at(int(np.argmax(off)))} do not sum to shots")

    def _at(self, step: int) -> str:
        return f" at step {step}" if self.probs.ndim == 2 else ""

    def __len__(self) -> int:
        if self.probs.ndim == 1:
            raise TypeError("a single-step Distribution has no step axis")
        return len(self.probs)

    def __getitem__(self, step) -> "Distribution":
        len(self)  # raises on a single-step distribution
        return Distribution(self.probs[step], self.shots,
                            None if self.counts is None else self.counts[step])

    def index(self, label) -> int:
        """Outcome-axis index of vertex ``v`` in 0..V-1, or of :data:`LEAKAGE`."""
        V = self.probs.shape[-1] - 1
        if isinstance(label, numbers.Integral) and not isinstance(label, bool):
            if 0 <= label < V:
                return int(label)
        elif label == LEAKAGE:
            return V
        raise ValueError(f"no outcome {label!r}: vertices are 0..{V - 1}, then {LEAKAGE!r}")

    def get(self, label):
        """Probability of ``label``: a float, or an array of one per step."""
        p = self.probs[..., self.index(label)]
        return float(p) if p.ndim == 0 else p


def vertex_distribution(vertex_probs, leakage) -> Distribution:
    """The one readout of every backend: vertex ``v`` gets
    ``vertex_probs[..., v]`` and :data:`LEAKAGE` gets ``leakage``, at one
    step, or at every step when both carry a leading step axis.

    Negative rounding residue is clamped to 0, but nothing is rescaled: a
    state whose norm is off by more than :class:`Distribution`'s
    tolerance raises ``ValueError`` instead of being divided back to 1.
    """
    probs = np.maximum(np.asarray(vertex_probs, dtype=float), 0.0)
    leakage = np.maximum(np.asarray(leakage, dtype=float), 0.0)
    return Distribution(np.concatenate([probs, leakage[..., None]], axis=-1))


def sector_project(state: SectorVector) -> np.ndarray:
    """The statevector backend's readout: the V+1 weights |amplitude|^2,
    vacuum first, so index 0 is the leakage and index v+1 vertex v -- the
    layout of :meth:`SectorDensity.diagonal_probabilities`."""
    require_sector(state, SectorVector, "sector_project")
    return np.abs(state.amplitudes) ** 2


def sample_counts(dist: Distribution, shots: int, seed) -> Distribution:
    """Multinomial sample of an exact distribution, ``shots`` per step.

    A single-step ``dist`` is drawn from ``seed`` (an int or a
    ``numpy.random.SeedSequence``).  For a per-step ``dist``, ``seed`` is
    the run's integer root seed and row t is drawn from the child seed
    SeedSequence([seed, SHOT_STREAM, t]), so every step has its own
    stream.  Probabilities below :data:`PROB_CLAMP` are clamped to zero
    before drawing.
    """
    shots = require_count("shots", shots, 1, MAX_SHOTS)
    probs = np.where(dist.probs < PROB_CLAMP, 0.0, dist.probs)
    total = probs.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("distribution has no positive probability mass")
    probs /= total
    if probs.ndim == 1:
        counts = np.random.default_rng(seed).multinomial(shots, probs)
    else:
        seed = require_count("seed", seed, 0)
        counts = np.array([
            np.random.default_rng(np.random.SeedSequence([seed, SHOT_STREAM, t]))
            .multinomial(shots, row) for t, row in enumerate(probs)])
    return Distribution(counts / shots, shots=shots, counts=counts)
