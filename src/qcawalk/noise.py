"""Lindblad-derived noisy backends for the walk step operators.

The error model has two knobs: relaxation at rate K (jump operator
sigma_minus on every qubit) and dephasing at rate delta (jump operator
sigma_3 on every qubit).  During a gate of duration t the register obeys

    drho/dt = -i [H_g, rho] + K sum_i D[sm_i](rho) + delta sum_i D[sz_i](rho)

with the standard dissipator D[A](rho) = A rho A^dag - {A^dag A, rho}/2,
which is trace-preserving (closed forms: |1> population decays as
exp(-K t), single-qubit coherence under pure dephasing as exp(-2 delta t)).
Each gate's channel is the exact matrix exponential of the corresponding
Liouvillian over the gate time; XY(theta) runs for theta/coupling seconds,
single-qubit rotations for a fixed time, RZ is instantaneous and noiseless.
Every channel -- backend gate, idle gap, calibration gate -- is that
one ``expm``, taken by :func:`_superop` from three cached unit parts.

Two noisy backends consume those channels.  The walks start in
span{vacuum, one-hot} and the channels never raise the excitation
number, so both run on that (V+1)-dimensional sector (index 0 the
vacuum, v+1 vertex v), fed by one channel stream: ``_sector_channels``
maps each gate's targets to sector indices, turns an RZ into a phase, and
lowers every other channel to a 3x3 (or 2x2) block on the touched indices
plus a scalar elsewhere.  A channel depends only on (gate, noise model),
so ``_channel`` and ``_lowered`` memoise both forms in bounded caches
that every step, backend and run of the process shares.

* ``evolve_density`` applies the lowered channels to a
  :class:`SectorDensity`, the (V+1) x (V+1) block; qubits that sit idle
  for part of a layer decay under the pure dissipator for the gap.  A
  gate costs O(V): it writes its touched rows, its touched columns and
  its 3x3 block, and leaves the rest alone, because trace preservation
  fixes the rest's scalar at 1.  It is tested against
  :func:`qcawalk.reference.evolve_density`, which applies the same
  channels' Kraus operators to the full 2^n x 2^n matrix.
* ``trajectory_run`` unravels the same channels stochastically (the
  Monte Carlo wave-function method): for every gate interval a Kraus
  branch is sampled with probability |K_m psi|^2, so the trajectory
  average reproduces the density evolution with no time-discretisation
  bias.  In the gauge that :func:`_sector_lowering` fixes, the last Kraus
  branch is the no-jump one, the identity on the untouched indices, and
  every jump branch annihilates them.  So each trajectory keeps its
  amplitudes unnormalised beside their squared norm n2, as in the
  textbook unnormalised-state method: a gate reads the 2-3 amplitudes it
  touches, writes the no-jump branch there, and takes the weight the
  jump branches carry off n2.  One draw per trajectory, compared with
  that lost weight, decides whether it jumps; only the few that do form
  their jump branches, from the amplitudes already read, and zero the
  rest of their column.  So a gate costs O(n_traj), whatever V, with no
  square root or division.  Once per step the ensemble is renormalised,
  and the mean of |psi|^2 at every step, step 0 included, is read out as
  the density diagonal would be.  Their reference is the exact sector
  density.

Rates are not published for the emulated processor; ``calibrate_rates``
infers (K, delta) from the native gate-set's average fidelities by one
stated rule: relaxation alone, fitted to convergence, unless both rates
fit materially better (the targets pin about one rate combination).  A
fidelity is one ``_superop``, the backends' own channel, and one trace
against the ideal superoperator; no Kraus operators are formed.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .gates import SECTOR_GATES, GateSpec, StepOperator
from .states import (
    TRAJECTORY_STREAM,
    Distribution,
    SectorDensity,
    SectorVector,
    require_count,
    require_sector,
    vertex_distribution,
)

_SM = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma_minus = |0><1|
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

#: Default cavity-mediated coupling (rad/s); iSWAP then takes 50 ns.
DEFAULT_COUPLING = 2 * math.pi * 5e6

#: Average gate fidelities of the emulated processor's native gate set,
#: used as default calibration targets.
DEFAULT_FIDELITY_TARGETS = {
    "rx": 0.9999,
    "ry": 0.9999,
    "rz": 1.0,
    "iswap": 0.9987,
    "sqrt_iswap": 0.9991,
}

_SECTOR_TOL = 1e-10  # on the raising entries and on sum |k00_m|^2 - 1


@dataclass(frozen=True)
class NoiseModel:
    """Relaxation/dephasing rates plus the timing data that weights them.

    ``single_qubit_duration`` defaults to one fifth of the sqrt(iSWAP)
    time, short enough that calibration can reach the single-qubit
    fidelity target.  ``idle_decay`` switches the pure-dissipator decay of
    (partially) idle qubits during a layer; gates themselves are always
    noisy when the rates are nonzero.
    """

    relaxation_rate: float = 0.0
    dephasing_rate: float = 0.0
    coupling: float = DEFAULT_COUPLING
    single_qubit_duration: float | None = None
    idle_decay: bool = True

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness is checked first
        for name in ("relaxation_rate", "dephasing_rate", "coupling"):
            _require_finite(name, getattr(self, name))
        if self.relaxation_rate < 0 or self.dephasing_rate < 0:
            raise ValueError("rates must be non-negative")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")
        if self.single_qubit_duration is None:
            object.__setattr__(
                self, "single_qubit_duration", (math.pi / 4) / self.coupling / 5.0
            )
        _require_finite("single_qubit_duration", self.single_qubit_duration)
        if self.single_qubit_duration <= 0:
            raise ValueError("single-qubit duration must be positive")

    @property
    def is_noiseless(self) -> bool:
        return self.relaxation_rate == 0.0 and self.dephasing_rate == 0.0

    def duration_of(self, gate: GateSpec) -> float:
        """Gate time in seconds: theta/coupling for XY, fixed for RX/RY, 0 for RZ."""
        if gate.name == "XY":
            return abs(gate.theta) / self.coupling
        if gate.name == "RZ":
            return 0.0
        return self.single_qubit_duration

    def to_dict(self) -> dict:
        return {
            "relaxation_rate": self.relaxation_rate,
            "dephasing_rate": self.dephasing_rate,
            "coupling": self.coupling,
            "single_qubit_duration": self.single_qubit_duration,
            "idle_decay": self.idle_decay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        return cls(**data)


def _require_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _kron_at(op: np.ndarray, k: int, n: int) -> np.ndarray:
    mats = [_I2] * n
    mats[k] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _jump_operators(n: int, relaxation: float, dephasing: float) -> list:
    jumps = []
    for k in range(n):
        if relaxation > 0:
            jumps.append(math.sqrt(relaxation) * _kron_at(_SM, k, n))
        if dephasing > 0:
            jumps.append(math.sqrt(dephasing) * _kron_at(_SZ, k, n))
    return jumps


def _liouvillian(h: np.ndarray, jumps: list) -> np.ndarray:
    """Column-stacking superoperator: d vec(rho)/dt = L vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    L = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for a in jumps:
        ada = a.conj().T @ a
        L += np.kron(a.conj(), a) - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye)
    return L


@functools.lru_cache(maxsize=None)
def _liouvillian_parts(name: str, arity: int) -> tuple:
    """(L_G, L_K, L_delta) of gate ``name`` (or ``"idle"``) on ``arity`` qubits.

    L_G = -i[G, .] is the unit-angle gate part, L_K and L_delta the
    unit-rate relaxation and dephasing parts; an idle gap has L_G = 0.
    Read-only, as every channel build shares them.
    """
    d = 2**arity
    zero = np.zeros((d, d), dtype=complex)
    g = zero if name == "idle" else GateSpec(name, 0.0, tuple(range(arity))).generator()
    parts = (_liouvillian(g, []), _liouvillian(zero, _jump_operators(arity, 1.0, 0.0)),
             _liouvillian(zero, _jump_operators(arity, 0.0, 1.0)))
    for part in parts:
        part.flags.writeable = False
    return parts


def _superop(name: str, theta: float, arity: int, t: float, relaxation: float,
             dephasing: float) -> np.ndarray:
    """The superoperator of gate ``name`` at angle ``theta`` held for ``t`` seconds.

    With H = (theta/t) G the generator over the gate is
    L t = theta L_G + K t L_K + delta t L_delta: the Hamiltonian part is
    linear in H and the dissipator in each rate.  Every noisy channel of
    the package is this one matrix exponential.
    """
    l_g, l_k, l_d = _liouvillian_parts(name, arity)
    return expm(theta * l_g + (relaxation * t) * l_k + (dephasing * t) * l_d)


def _choi_from_superop(s: np.ndarray, d: int) -> np.ndarray:
    # reshuffle: J[m*d+p, n*d+q] = S[n*d+m, q*d+p]
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def _kraus_from_superop(s: np.ndarray, d: int) -> tuple:
    choi = _choi_from_superop(s, d)
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    cutoff = max(vals.max(), 1.0) * 1e-13
    ops = []
    for lam, vec in zip(vals, vecs.T):
        if lam > cutoff:
            ops.append(math.sqrt(lam) * vec.reshape(d, d))
    return tuple(ops)


@dataclass(frozen=True)
class GateChannel:
    """A completely positive trace-preserving map attached to one gate."""

    ideal: np.ndarray
    kraus: tuple

    @property
    def dim(self) -> int:
        return self.ideal.shape[0]

    def apply(self, rho_local: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho_local)
        for k in self.kraus:
            out += k @ rho_local @ k.conj().T
        return out

    def trace_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.kraus)
        return float(np.abs(acc - np.eye(self.dim)).max())

    def choi(self) -> np.ndarray:
        d = self.dim
        j = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus:
            v = k.reshape(-1)
            j += np.outer(v, v.conj())
        return j

    def choi_min_eigenvalue(self) -> float:
        j = self.choi()
        return float(np.linalg.eigvalsh((j + j.conj().T) / 2).min())

    def process_fidelity(self) -> float:
        d = self.dim
        return float(
            sum(abs(np.trace(self.ideal.conj().T @ k)) ** 2 for k in self.kraus) / d**2
        )


def noisy_gate_channel(gate: GateSpec, noise: NoiseModel) -> GateChannel:
    """Integrate the master equation over one gate to a CPTP map.

    The gate Hamiltonian is held fixed at theta/t times the gate's
    dimensionless generator, so at zero rates the channel is exactly
    conjugation by the ideal unitary.  A gate that takes no time (RZ, or
    XY at angle 0) is its ideal unitary.
    """
    t = noise.duration_of(gate)
    ideal = gate.matrix()
    if t == 0.0 or noise.is_noiseless:
        return GateChannel(ideal, (ideal,))
    s = _superop(gate.name, gate.theta, gate.n_targets, t, noise.relaxation_rate,
                 noise.dephasing_rate)
    return GateChannel(ideal, _kraus_from_superop(s, 2**gate.n_targets))


def idle_channel(duration: float, noise: NoiseModel) -> GateChannel:
    """Pure-dissipator single-qubit channel for a qubit idling ``duration``."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0.0 or noise.is_noiseless:
        return GateChannel(_I2.copy(), (_I2.copy(),))
    s = _superop("idle", 0.0, 1, duration, noise.relaxation_rate, noise.dephasing_rate)
    return GateChannel(_I2.copy(), _kraus_from_superop(s, 2))


def _layer_schedule(gates: tuple, noise: NoiseModel, n: int):
    """Busy time per qubit and the layer's wall-clock duration."""
    busy = np.zeros(n)
    for g in gates:
        dt = noise.duration_of(g)
        for q in g.targets:
            busy[q] += dt
    layer_t = float(busy.max()) if n else 0.0
    return busy, layer_t


@functools.lru_cache(maxsize=1024)
def _channel(key: tuple, noise: NoiseModel) -> GateChannel:
    """The channel of ``key``, ``(name, theta, arity)`` or ``("idle", gap)``.

    Channels are target-local, so the key names one channel for every
    placement of the gate.  The builders are looked up when called, so a
    wrapper installed on this module (``bench/spans.py``) sees every build.
    """
    if key[0] == "idle":
        return idle_channel(key[1], noise)
    name, theta, arity = key
    return noisy_gate_channel(GateSpec(name, theta, tuple(range(arity))), noise)


def _step_channels(step: StepOperator, noise: NoiseModel):
    """Yield (channel key, targets) for one step in application order.

    Gate channels come in layer order; within a layer every qubit is
    exposed for the layer's full duration, gates first and the pure
    dissipator for whatever gap remains (if ``noise.idle_decay``).
    """
    n = step.n_qubits
    for _tess, gates in step.layers:
        for g in gates:
            yield (g.name, g.theta, g.n_targets), g.targets
        if noise.idle_decay and not noise.is_noiseless:
            busy, layer_t = _layer_schedule(gates, noise, n)
            for q in range(n):
                gap = layer_t - busy[q]
                if gap > 1e-18:
                    yield ("idle", gap), (q,)


def _require_register(n: int, step: StepOperator) -> None:
    if step.n_qubits != n:
        raise ValueError(f"state has {n} qubits, step operator {step.n_qubits}")


def _require_sector_run(state, cls: type, step: StepOperator, caller: str) -> None:
    """A sector backend's checks before any work: state type, size, gates."""
    require_sector(state, cls, caller)
    _require_register(state.n_qubits, step)
    foreign = step.gate_names() - SECTOR_GATES
    if foreign:
        raise ValueError(f"gates {sorted(foreign)} leave span{{vacuum, one-hot}}; "
                         "only the dense qcawalk.reference can run them")


class _Lowered(NamedTuple):
    """A sector-preserving channel on its touched indices; see
    :func:`_sector_lowering`."""

    blocks: np.ndarray  # (M, d, d): Kraus operator m on the touched indices
    T: np.ndarray  # density: vec(rho_SS) -> T vec(rho_SS)


def _sector_lowering(kraus: tuple) -> _Lowered:
    """Lower a sector-preserving channel to its block form on the (V+1) sector.

    With S the touched indices (vacuum, e_b, e_a) -- or (vacuum, e_q) for
    one qubit; local basis |q_a q_b>: 0 = |00>, 1 = |01>, 2 = |10> -- and
    R every other index, each Kraus operator acts as a block B_m on S
    (``blocks``, shape (M, d, d)) and as the scalar k00_m = B_m[0, 0] on
    R.  Raising entries must vanish for the sector to be invariant; then
    trace preservation gives sum |k00_m|^2 = <00| sum K_m^dag K_m |00> = 1.
    A set that breaks either beyond its tolerance raises ``RuntimeError``.
    The Kraus index is fixed only up to a unitary mix, so a Householder
    reflection, with a phase on its last row, mixes k00 to (0, ..., 0, 1);
    a k00 that is already some e_j is only reordered, bit for bit.  The
    last branch is then the no-jump operator sum conj(k00_m) B_m of the
    Monte Carlo wave-function method and every jump branch annihilates R:
    a trajectory with touched amplitudes x takes jump m with probability
    |B_m x|^2 and no jump with |B_last x|^2 + 1 - |x|^2.  On a density
    matrix, vec(rho_SS) -> T vec(rho_SS) with T = sum B_m (x) conj(B_m),
    rho_SR -> B_last rho_SR, and rho_RR is left alone.
    """
    k = np.array(kraus)
    excitations = np.array([bin(i).count("1") for i in range(k.shape[1])])
    raising = excitations[:, None] > excitations[None, :]
    if np.abs(k[:, raising]).max() > _SECTOR_TOL:
        raise RuntimeError("channel raises excitation number; sector path invalid")
    a = k[:, 0, 0]
    s = np.vdot(a[:-1], a[:-1]).real  # the weight off the last branch
    norm = math.sqrt(s + abs(a[-1]) ** 2)
    if abs(norm * norm - 1.0) > _SECTOR_TOL:
        raise RuntimeError(f"Kraus set is not trace-preserving: sum |k00|^2 = {norm * norm!r}")
    phase = a[-1] / abs(a[-1]) if a[-1] else 1.0
    v = np.append(a[:-1], -phase * s / (abs(a[-1]) + norm))  # a - phase |a| e_last, stably
    mix = np.eye(len(a), dtype=complex)
    if s:
        mix -= (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj())
    mix[-1] *= np.conj(phase)
    d = 3 if k.shape[1] == 4 else 2
    blocks = np.tensordot(mix, k[:, :d, :d], axes=1)
    blocks[:, :, 0] = 0.0  # the raising entries, and k00 made exact
    blocks[-1, 0, 0] = 1.0
    T = sum(np.kron(b, b.conj()) for b in blocks)
    return _Lowered(blocks, T)


@functools.lru_cache(maxsize=1024)
def _lowered(key: tuple, noise: NoiseModel) -> _Lowered:
    return _sector_lowering(_channel(key, noise).kraus)


def _sector_channels(step: StepOperator, noise: NoiseModel):
    """Yield (idx, phase, lowered) for one step's channels on the (V+1) sector.

    ``idx`` lists the sector indices the channel touches, (vacuum, e_b,
    e_a).  An RZ, always noiseless, is the phase on e_q relative to the
    vacuum, and ``lowered`` is None; every other channel has ``phase``
    None and is lowered by :func:`_sector_lowering`.
    """
    for key, targets in _step_channels(step, noise):
        idx = [0] + [q + 1 for q in reversed(targets)]
        if key[0] == "RZ":
            k = _channel(key, noise).kraus[0]
            yield idx, k[1, 1] * np.conj(k[0, 0]), None
        else:
            yield idx, None, _lowered(key, noise)


def evolve_density(rho: SectorDensity, step: StepOperator, noise: NoiseModel) -> SectorDensity:
    """One noisy step of the (V+1) x (V+1) block, returned as a new one.

    Each channel acts as a 3x3 (two-qubit) or 2x2 (one-qubit) block on
    (vacuum, touched one-hots) and maps their rows and columns; trace
    preservation fixes its scalar on every other index at 1 (see
    :func:`_sector_lowering`), so the rest is not touched.  A gate thus
    costs O(V); RZ is a diagonal phase.  Only XY and RZ gates keep the
    state in that block, so any other gate raises ``ValueError``.
    """
    _require_sector_run(rho, SectorDensity, step, "evolve_density")
    arr = rho.entries.copy()
    for idx, phase, lowered in _sector_channels(step, noise):
        if lowered is None:
            arr[idx[1], :] *= phase
            arr[:, idx[1]] *= np.conj(phase)
            continue
        T, C = lowered.T, lowered.blocks[-1]
        rows, cols = arr[idx, :], arr[:, idx]
        arr[idx, :] = C @ rows
        arr[:, idx] = cols @ C.conj().T
        arr[np.ix_(idx, idx)] = (T @ rows[:, idx].reshape(-1)).reshape(len(idx), len(idx))
    return SectorDensity(rho.n_qubits, arr)


def average_gate_fidelity(channel: GateChannel) -> float:
    """F_avg = (d F_pro + 1) / (d + 1) against the channel's ideal unitary."""
    d = channel.dim
    return (d * channel.process_fidelity() + 1.0) / (d + 1.0)


# ---------------------------------------------------------------------------
# quantum-trajectory backend


#: Bytes a trajectory takes beside its (V+1) x 16 B of amplitudes: its
#: squared norm (8 B) and its columns of :class:`_JumpBuffers` (two 3-row
#: complex arrays, 96 B; five floats, 40 B; one bool).
TRAJECTORY_WORK_BYTES = 145


class _JumpBuffers:
    """Work arrays of :func:`_sector_jump`, made once per trajectory run.

    Sized for the widest channel (d = 3 touched indices) and ``n``
    trajectories; every gate writes into them in place, so no ensemble
    array is reallocated gate after gate.  With the squared norms they
    take :data:`TRAJECTORY_WORK_BYTES` per trajectory.
    """

    def __init__(self, n: int):
        self.x = np.empty((3, n), dtype=complex)  # stored touched amplitudes
        self.z = np.empty((3, n), dtype=complex)  # B_last x: the no-jump rows written back
        self.pairs = np.empty(2 * n)  # sums of squares per real and imaginary part; scratch
        self.loss = np.empty(n)  # |x|^2 - |z|^2: the jump branches' weight
        self.kept = np.empty(n)  # |z|^2
        self.r = np.empty(n)  # the channel's uniform draws, then r n2
        self.jump = np.empty(n, dtype=bool)  # the draw falls in the jump weight

    def abs2(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """|a|^2 per column of a complex (rows, n) array into ``out``, read
        through the real view, so no array of a's size is made."""
        f = a.view(float).reshape(-1, self.pairs.size)
        np.einsum("ij,ij->j", f, f, out=self.pairs)
        return np.add(self.pairs[0::2], self.pairs[1::2], out=out)


def _sector_jump(psi: np.ndarray, n2: np.ndarray, idx: list, lowered: _Lowered, rng,
                 work: _JumpBuffers) -> None:
    """Sample one Kraus branch per trajectory for a channel on sector ``idx``.

    Trajectory j is ``psi[:, j] / sqrt(n2[j])``: the amplitudes are stored
    unnormalised beside their squared norm ``n2``.  In the gauge of
    :func:`_sector_lowering` the no-jump branch B_last keeps every
    untouched amplitude and jump branch m annihilates them, so with
    x = psi[idx] the jumps carry the weight loss = |x|^2 - |B_last x|^2
    out of n2.  One uniform draw r per trajectory picks the branch: a
    trajectory jumps iff r n2 < loss, and then takes the first m with
    r n2 < sum_{m' <= m} |B_m' x|^2.  Every column writes B_last x to its
    touched rows and loses ``loss`` from n2; a jumping column then zeroes
    its column, writes the unnormalised B_m x to its touched rows and sets
    n2 = |B_m x|^2.  A jump reads only the x already gathered.  A column
    whose draw lands past every jump's cumulative weight (rounding, or no
    jump weight at all) keeps the no-jump branch, so no branch of weight 0
    is written, and a one-branch channel never jumps.
    """
    d = len(idx)
    x = np.take(psi, idx, axis=0, out=work.x[:d], mode="clip")  # "raise" copies via a buffer
    blocks = lowered.blocks
    z = np.matmul(blocks[-1], x, out=work.z[:d])
    loss = np.subtract(work.abs2(x, work.loss), work.abs2(z, work.kept), out=work.loss)
    u = rng.random(out=work.r)
    u *= n2
    psi[idx] = z
    n2 -= loss
    if len(blocks) == 1:
        return
    jump = np.flatnonzero(np.less(u, loss, out=work.jump))
    if jump.size:
        y = (blocks[:-1].reshape(-1, d) @ x[:, jump]).reshape(len(blocks) - 1, d, -1)
        w = np.sum(np.abs(y) ** 2, axis=1)
        m = np.sum(u[jump] >= np.cumsum(w, axis=0), axis=0)
        hit = np.flatnonzero(m < len(w))
        cols, m = jump[hit], m[hit]
        psi[:, cols] = 0.0
        psi[idx, cols[:, None]] = y[m, :, hit]
        n2[cols] = w[m, hit]


def trajectory_run(init: SectorVector, step: StepOperator, noise: NoiseModel,
                   n_traj: int, seed: int, steps: int = 1) -> Distribution:
    """Per-step mean vertex+leakage distribution over stochastic trajectories.

    One Kraus branch of the exact per-gate channel is sampled per gate
    interval (branch m with probability ||K_m psi||^2), so the ensemble
    mean converges to the density-matrix evolution.  Each noisy gate
    draws one uniform number per trajectory, in gate order, and
    :func:`_sector_jump` picks the branch from it.  A gate writes only
    the rows it touches, except that a jump zeroes its trajectory's other
    rows, and tracks each trajectory's squared norm; the ensemble is
    renormalised once per step.  The ensemble's work arrays are made once
    per call.  Deterministic under (seed, n_traj).  Returns one per-step
    Distribution, step 0 included.

    Trajectories run in the (V+1)-dimensional sector only: an ``init``
    that is not a :class:`SectorVector` raises ``TypeError``, and a step
    with gates other than XY/RZ, on a register of another size, or an
    initial state of zero norm raises ``ValueError``.
    """
    _require_sector_run(init, SectorVector, step, "trajectory_run")
    n_traj = require_count("n_traj", n_traj, 1)
    steps = require_count("steps", steps, 0)
    norm = float(np.linalg.norm(init.amplitudes))
    if not 0.0 < norm < math.inf:  # NaN fails both
        raise ValueError(f"initial state has norm {norm}; trajectories need a finite, "
                         "nonzero one")
    V = init.n_qubits
    rng = np.random.default_rng(np.random.SeedSequence([seed, TRAJECTORY_STREAM]))
    # one column per trajectory, so a gate's touched indices are whole rows;
    # trajectory j is psi[:, j] / sqrt(n2[j])
    psi = np.empty((V + 1, n_traj), dtype=complex)
    psi[:] = (init.amplitudes / norm)[:, None]
    n2 = np.ones(n_traj)
    work = _JumpBuffers(n_traj)
    real = psi.view(float)

    p = np.empty((steps + 1, V + 1))
    for t in range(steps + 1):
        if t:
            for idx, phase, lowered in _sector_channels(step, noise):
                if lowered is None:
                    psi[idx[1]] *= phase
                else:
                    _sector_jump(psi, n2, idx, lowered, rng, work)
            # renormalise from the amplitudes, so rounding in n2 never builds up
            norm2 = work.abs2(psi, work.loss)
            psi *= np.divide(1.0, np.sqrt(norm2, out=norm2), out=norm2)
            n2[:] = 1.0
        # the trajectory mean of |psi|^2 estimates the density diagonal
        p[t] = np.einsum("ij,ij->i", real, real) / n_traj
    return vertex_distribution(p[:, 1:], p[:, 0])


# ---------------------------------------------------------------------------
# calibration against the native gate-set fidelities


_CALIBRATION_GATES = {
    "sqrt_iswap": GateSpec("XY", math.pi / 4, (0, 1)),
    "iswap": GateSpec("XY", math.pi / 2, (0, 1)),
    "rx": GateSpec("RX", math.pi / 2, (0,)),
    "ry": GateSpec("RY", math.pi / 2, (0,)),
    "rz": GateSpec("RZ", -math.pi / 2, (0,)),
}

#: Start points along each rate axis (units of the coupling), and the
#: relative ssr gain by which both rates must beat relaxation alone.
_CALIBRATION_SCALES = np.concatenate([[0.0], np.geomspace(1e-7, 1e-2, 17)])
_RELAXATION_WINDOW = 1e-3


@dataclass
class CalibrationResult:
    """Fitted noise model plus the per-gate fidelity residual report."""

    model: NoiseModel
    achieved: dict
    residuals: dict
    ssr: float

    def summary(self) -> str:
        lines = [
            f"K (relaxation)  = {self.model.relaxation_rate:.6e} 1/s",
            f"delta (dephase) = {self.model.dephasing_rate:.6e} 1/s",
        ]
        for key in sorted(self.achieved):
            lines.append(
                f"  {key:<11} achieved {self.achieved[key]:.6f} "
                f"(residual {self.residuals[key]:+.2e})"
            )
        return "\n".join(lines)


def _fidelity_evaluator(keys, template: NoiseModel):
    """Return f(K, delta) -> {key: average gate fidelity} for calibration gates.

    Each gate's (spec, duration, dimension, S_U) is fixed here; an
    evaluation is then one :func:`_superop` per gate, the backends' own
    channel, and F_pro = Tr(S_U^dag S) / d^2, with S_U = conj(U) (x) U the
    ideal superoperator (``np.vdot`` conjugates it).  Zero rates and zero
    durations give the ideal channel, fidelity 1.0, as
    ``noisy_gate_channel`` does.  Agrees with
    ``average_gate_fidelity(noisy_gate_channel(...))`` to rounding.
    """
    parts = {}
    for key in keys:
        spec = _CALIBRATION_GATES[key]
        u = spec.matrix()
        parts[key] = (spec, template.duration_of(spec), u.shape[0], np.kron(u.conj(), u))

    def fidelities(relaxation: float, dephasing: float) -> dict:
        out = {}
        for key, (spec, t, d, s_u) in parts.items():
            if t == 0.0 or (relaxation == 0.0 and dephasing == 0.0):
                out[key] = 1.0
                continue
            s = _superop(spec.name, spec.theta, spec.n_targets, t, relaxation, dephasing)
            f_pro = float(np.vdot(s_u, s).real) / d**2
            out[key] = (d * f_pro + 1.0) / (d + 1.0)
        return out

    return fidelities


def calibrate_rates(targets: dict | None = None,
                    template: NoiseModel | None = None) -> CalibrationResult:
    """Fit (K, delta) so gate fidelities match the given targets.

    Least squares on the average fidelities, by one rule: fit relaxation
    alone (delta = 0) and both rates, each to convergence, and return
    relaxation alone unless both rates lower the ssr by more than
    ``_RELAXATION_WINDOW`` relative.  The two XY targets pin about one
    rate combination; at the default targets the two-rate optimum is pure
    dephasing, only 0.019% lower in ssr, so the rule gives the T1-limited
    model.  The 1-D fit starts at the best scan point on the K axis; the
    2-D fit is polished from that and the best delta-axis point.
    Infeasible targets give the best fit plus residuals; a target that is
    not a real number in [0, 1] raises ``ValueError``.  All-unity targets
    return exactly zero rates.
    """
    if targets is None:
        targets = dict(DEFAULT_FIDELITY_TARGETS)
    unknown = set(targets) - set(_CALIBRATION_GATES)
    if unknown:
        raise ValueError(f"unknown calibration gates: {sorted(unknown)}")
    if not {"sqrt_iswap", "iswap"} <= set(targets):
        raise ValueError("targets must include the two XY gates")
    for key, value in targets.items():  # NaN fails the range test
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
            raise ValueError(f"calibration target {key!r} must be a real number in [0, 1], "
                             f"got {value!r}")
    template = template if template is not None else NoiseModel()
    gamma = template.coupling
    fidelities = _fidelity_evaluator(targets, template)

    def residual_vec(x):
        fids = fidelities(x[0] * gamma, x[1] * gamma)
        return [fids[k] - targets[k] for k in sorted(targets)]

    def ssr_of(x):
        return float(sum(r * r for r in residual_vec(x)))

    def polish(f, x0):  # bounded below by 0, run to convergence
        return least_squares(f, x0, bounds=(0.0, np.inf), xtol=1e-15, ftol=1e-15, gtol=1e-15).x

    best_x = (0.0, 0.0)
    if ssr_of(best_x) > 0.0:
        k0 = min(_CALIBRATION_SCALES, key=lambda s: ssr_of((s, 0.0)))
        d0 = min(_CALIBRATION_SCALES, key=lambda s: ssr_of((0.0, s)))
        best_x = (polish(lambda k: residual_vec((k[0], 0.0)), [k0])[0], 0.0)
        both = min(polish(residual_vec, [k0, 0.0]), polish(residual_vec, [0.0, d0]), key=ssr_of)
        relaxation_ssr, both_ssr = ssr_of(best_x), ssr_of(both)
        if relaxation_ssr - both_ssr > both_ssr * _RELAXATION_WINDOW + 1e-18:
            best_x = both

    model = replace(template, relaxation_rate=float(best_x[0] * gamma),
                    dephasing_rate=float(best_x[1] * gamma))
    achieved = fidelities(model.relaxation_rate, model.dephasing_rate)
    residuals = {k: achieved[k] - targets[k] for k in targets}
    return CalibrationResult(model, achieved, residuals, ssr_of(best_x))
