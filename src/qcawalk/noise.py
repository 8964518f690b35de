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
  fixes the rest's scalar at 1.  A dense :class:`DensityMatrix` is
  evolved on the full 2^n x 2^n matrix, read as a 2n-qubit amplitude
  array: each Kraus operator goes through :func:`qcawalk.gates.apply_local`
  on the row qubits and its conjugate on the column qubits.  That path is
  the independent reference the sector path is tested against.
* ``trajectory_run`` unravels the same channels stochastically (the
  Monte Carlo wave-function method): for every gate interval a Kraus
  branch is sampled with probability |K_m psi|^2, so the trajectory
  average reproduces the density evolution with no time-discretisation
  bias.  A gate reads the 2-3 amplitudes it touches, gets every branch
  from one matrix product, and scales the rest of each trajectory by its
  branch's scalar.  Trajectories are renormalised once per step, and the
  mean of |psi|^2 at every step, step 0 included, is read out as the
  density diagonal would be.  They have no dense counterpart: the exact
  sector density is their reference.

Rates are not published for the emulated processor; ``calibrate_rates``
infers (K, delta) from the native gate-set's average fidelities.  It
builds each calibration gate's Liouvillian once per call, in three parts
that the rates scale, so a fidelity is one matrix exponential and one
trace against the ideal superoperator; no Kraus operators are formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .gates import SECTOR_GATES, GateSpec, StepOperator, apply_local
from .states import (
    TRAJECTORY_STREAM,
    DensityMatrix,
    SectorDensity,
    SectorVector,
    StateVector,
    require_count,
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

_RAISING_TOL = 1e-10


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


def lindblad_rhs(rho, hamiltonian: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Right-hand side drho/dt of the master equation, evaluated directly."""
    arr = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
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


def _liouvillian(h: np.ndarray, jumps: list) -> np.ndarray:
    """Column-stacking superoperator: d vec(rho)/dt = L vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    L = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for a in jumps:
        ada = a.conj().T @ a
        L += np.kron(a.conj(), a) - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye)
    return L


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
    h = (gate.theta / t) * gate.generator()
    jumps = _jump_operators(gate.n_targets, noise.relaxation_rate, noise.dephasing_rate)
    s = expm(_liouvillian(h, jumps) * t)
    return GateChannel(ideal, _kraus_from_superop(s, 2**gate.n_targets))


def idle_channel(duration: float, noise: NoiseModel) -> GateChannel:
    """Pure-dissipator single-qubit channel for a qubit idling ``duration``."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0.0 or noise.is_noiseless:
        return GateChannel(_I2.copy(), (_I2.copy(),))
    jumps = _jump_operators(1, noise.relaxation_rate, noise.dephasing_rate)
    s = expm(_liouvillian(np.zeros((2, 2), dtype=complex), jumps) * duration)
    return GateChannel(_I2.copy(), _kraus_from_superop(s, 2))


def _apply_kraus_to_density(arr: np.ndarray, kraus: tuple, targets: tuple, n: int) -> np.ndarray:
    """rho -> sum_m K_m rho K_m^dag with K_m acting on ``targets`` only.

    Row-major, the 2^n x 2^n ``arr`` is a 2n-qubit amplitude array: qubit
    q + n is qubit q of the row (ket) index and qubit q that of the column
    (bra) index, so K_m acts on the ket qubits and conj(K_m) on the bra ones.
    """
    ket = tuple(q + n for q in targets)
    return sum(apply_local(apply_local(arr.copy(), k, ket), k.conj(), targets)
               for k in kraus)


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


def _require_sector_gates(step: StepOperator) -> None:
    foreign = step.gate_names() - SECTOR_GATES
    if foreign:
        raise ValueError(f"gates {sorted(foreign)} leave span{{vacuum, one-hot}}; "
                         "only a dense DensityMatrix can run them")


def _sector_lowering(kraus: tuple):
    """Lower a sector-preserving channel to (blocks, T, C) on the (V+1) block.

    With S the touched indices (vacuum, e_b, e_a) -- or (vacuum, e_q) for
    one qubit; local basis |q_a q_b>: 0 = |00>, 1 = |01>, 2 = |10> -- and
    R every other index, each Kraus operator acts as a block B_m on S
    (``blocks``, shape (M, d, d)) and as the scalar k00_m = B_m[0, 0] on
    R.  Raising entries must vanish for the sector to be invariant; the
    dissipators only lower, so they do.  On a density matrix,
    vec(rho_SS) -> T vec(rho_SS) with T = sum B_m (x) conj(B_m) and
    rho_SR -> C rho_SR with C = sum conj(k00_m) B_m.  rho_RR is left
    alone: with no raising, K_m|00> = k00_m|00>, so trace preservation
    gives sum |k00_m|^2 = <00| sum K_m^dag K_m |00> = 1.
    """
    k = np.array(kraus)
    excitations = np.array([bin(i).count("1") for i in range(k.shape[1])])
    raising = excitations[:, None] > excitations[None, :]
    if np.abs(k[:, raising]).max() > _RAISING_TOL:
        raise RuntimeError("channel raises excitation number; sector path invalid")
    d = 3 if k.shape[1] == 4 else 2
    blocks = k[:, :d, :d].copy()
    blocks[:, 1:, 0] = 0.0
    T = sum(np.kron(b, b.conj()) for b in blocks)
    C = sum(np.conj(b[0, 0]) * b for b in blocks)
    return blocks, T, C


@functools.lru_cache(maxsize=1024)
def _lowered(key: tuple, noise: NoiseModel):
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


def evolve_density(rho: DensityMatrix | SectorDensity, step: StepOperator,
                   noise: NoiseModel):
    """One noisy step on the density backend; returns the same representation.

    A :class:`SectorDensity` is evolved on its (V+1) x (V+1) block: each
    channel acts as a 3x3 (two-qubit) or 2x2 (one-qubit) block on
    (vacuum, touched one-hots) and maps their rows and columns; trace
    preservation fixes its scalar on every other index at 1 (see
    :func:`_sector_lowering`), so the rest is not touched.  A gate thus
    costs O(V) and no 2^V array is formed; RZ is a diagonal phase.
    Only XY and RZ gates keep the state in that block, so any other gate
    raises ``ValueError``.  A :class:`DensityMatrix` is evolved densely on
    the full 2^n x 2^n matrix; that path is the reference the sector path
    is tested against.
    """
    n = rho.n_qubits
    _require_register(n, step)
    arr = rho.entries.copy()
    if isinstance(rho, DensityMatrix):
        for key, targets in _step_channels(step, noise):
            arr = _apply_kraus_to_density(arr, _channel(key, noise).kraus, targets, n)
        return DensityMatrix(n, arr)
    _require_sector_gates(step)
    for idx, phase, lowered in _sector_channels(step, noise):
        if lowered is None:
            arr[idx[1], :] *= phase
            arr[:, idx[1]] *= np.conj(phase)
            continue
        _blocks, T, C = lowered
        rows, cols = arr[idx, :], arr[:, idx]
        arr[idx, :] = C @ rows
        arr[:, idx] = cols @ C.conj().T
        arr[np.ix_(idx, idx)] = (T @ rows[:, idx].reshape(-1)).reshape(len(idx), len(idx))
    return SectorDensity(n, arr)


def average_gate_fidelity(channel: GateChannel) -> float:
    """F_avg = (d F_pro + 1) / (d + 1) against the channel's ideal unitary."""
    d = channel.dim
    return (d * channel.process_fidelity() + 1.0) / (d + 1.0)


# ---------------------------------------------------------------------------
# quantum-trajectory backend


def _choose_branches(probs: np.ndarray, rng) -> np.ndarray:
    cum = np.cumsum(probs, axis=0)
    u = rng.random(probs.shape[1]) * cum[-1]
    return np.minimum((u[None, :] >= cum).sum(axis=0), probs.shape[0] - 1)


def _sector_jump(psi: np.ndarray, idx: list, blocks: np.ndarray, rng) -> None:
    """Sample one Kraus branch per trajectory for a channel on sector ``idx``.

    Each column of ``psi`` is a normalised trajectory with touched
    amplitudes x = psi[idx].  Branch m maps x to B_m x and every other
    amplitude to k00_m times itself, so it is taken with probability
    p_m = |B_m x|^2 + |k00_m|^2 (1 - |x|^2).  All branches come from one
    matrix product; the chosen one is written back divided by sqrt(p).
    """
    x = psi[idx]
    m, d, _ = blocks.shape
    y = (blocks.reshape(m * d, d) @ x).reshape(m, d, -1)
    rest = np.maximum(1.0 - np.sum(np.abs(x) ** 2, axis=0), 0.0)
    probs = np.sum(np.abs(y) ** 2, axis=1) + np.abs(blocks[:, 0, 0])[:, None] ** 2 * rest
    choice = _choose_branches(probs, rng)
    cols = np.arange(psi.shape[1])
    inv_norm = 1.0 / np.sqrt(probs[choice, cols])
    psi *= blocks[choice, 0, 0] * inv_norm
    psi[idx] = y[choice, :, cols].T * inv_norm


def trajectory_run(init: StateVector | SectorVector, step: StepOperator, noise: NoiseModel,
                   n_traj: int, seed: int, steps: int = 1) -> list:
    """Per-step mean vertex+leakage distributions over stochastic trajectories.

    One Kraus branch of the exact per-gate channel is sampled per gate
    interval (branch m with probability ||K_m psi||^2), so the ensemble
    mean converges to the density-matrix evolution.  Deterministic under
    (seed, n_traj).  Returns one Distribution per step, step 0 included.

    Trajectories run in the (V+1)-dimensional sector only.  A
    :class:`StateVector` is restricted to it by
    :meth:`SectorVector.from_statevector`, which raises ``ValueError`` if
    the state has weight outside; a step with gates other than XY/RZ, or
    on a register of another size, raises ``ValueError`` too.
    """
    n_traj = require_count("n_traj", n_traj, 1)
    steps = require_count("steps", steps, 0)
    _require_register(init.n_qubits, step)
    _require_sector_gates(step)
    if isinstance(init, StateVector):
        init = SectorVector.from_statevector(init)
    V = init.n_qubits
    rng = np.random.default_rng(np.random.SeedSequence([seed, TRAJECTORY_STREAM]))
    # one column per trajectory, so a gate's touched indices are whole rows
    psi = np.zeros((V + 1, n_traj), dtype=complex)
    psi[:] = init.amplitudes[:, None]
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=0))

    out = []
    for t in range(steps + 1):
        if t:
            for idx, phase, lowered in _sector_channels(step, noise):
                if lowered is None:
                    psi[idx[1]] *= phase
                else:
                    _sector_jump(psi, idx, lowered[0], rng)
            psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=0))
        # the trajectory mean of |psi|^2 estimates the density diagonal
        p = np.mean(np.abs(psi) ** 2, axis=1)
        out.append(vertex_distribution(p[1:], p[0]))
    return out


# ---------------------------------------------------------------------------
# calibration against the native gate-set fidelities


_CALIBRATION_GATES = {
    "sqrt_iswap": GateSpec("XY", math.pi / 4, (0, 1)),
    "iswap": GateSpec("XY", math.pi / 2, (0, 1)),
    "rx": GateSpec("RX", math.pi / 2, (0,)),
    "ry": GateSpec("RY", math.pi / 2, (0,)),
    "rz": GateSpec("RZ", -math.pi / 2, (0,)),
}


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

    The Liouvillian is linear in the rates, L = L_H + K L_K + delta L_delta,
    so each gate's three parts are built once here; an evaluation is then
    one ``expm`` per gate and F_pro = Tr(S_U^dag S) / d^2, with
    S_U = conj(U) (x) U the ideal superoperator (``np.vdot`` conjugates
    it).  Zero rates and zero durations give the ideal channel's fidelity,
    as ``noisy_gate_channel`` does.  Agrees with
    ``average_gate_fidelity(noisy_gate_channel(...))`` to rounding.
    """
    parts = {}
    for key in keys:
        spec = _CALIBRATION_GATES[key]
        u = spec.matrix()
        d = u.shape[0]
        ideal = average_gate_fidelity(GateChannel(u, (u,)))
        t = template.duration_of(spec)
        if t == 0.0:
            parts[key] = (ideal, None)
            continue
        zero = np.zeros((d, d), dtype=complex)
        n = spec.n_targets
        parts[key] = (ideal, (t, d, _liouvillian((spec.theta / t) * spec.generator(), []),
                              _liouvillian(zero, _jump_operators(n, 1.0, 0.0)),
                              _liouvillian(zero, _jump_operators(n, 0.0, 1.0)),
                              np.kron(u.conj(), u)))

    def fidelities(relaxation: float, dephasing: float) -> dict:
        out = {}
        for key, (ideal, lowered) in parts.items():
            if lowered is None or (relaxation == 0.0 and dephasing == 0.0):
                out[key] = ideal
                continue
            t, d, l_h, l_k, l_d, s_u = lowered
            s = expm((l_h + relaxation * l_k + dephasing * l_d) * t)
            f_pro = float(np.vdot(s_u, s).real) / d**2
            out[key] = (d * f_pro + 1.0) / (d + 1.0)
        return out

    return fidelities


def calibrate_rates(targets: dict | None = None,
                    template: NoiseModel | None = None,
                    grid_points: int = 17) -> CalibrationResult:
    """Fit (K, delta) so gate fidelities match the given targets.

    Least squares over the two rates: a coarse log-spaced grid locates the
    basin, then bounded local polishes refine it.  The landscape has a
    long, nearly flat valley trading relaxation against dephasing (the two
    XY errors pin essentially one rate combination), so the polish is run
    from both valley ends as well; among fits of equal quality the
    relaxation-dominated solution is returned as a deterministic
    tie-break.  Infeasible targets produce the best fit plus residuals,
    never an exception.  All-unity targets return exactly zero rates.
    """
    grid_points = require_count("grid_points", grid_points, 1)
    if targets is None:
        targets = dict(DEFAULT_FIDELITY_TARGETS)
    unknown = set(targets) - set(_CALIBRATION_GATES)
    if unknown:
        raise ValueError(f"unknown calibration gates: {sorted(unknown)}")
    if not {"sqrt_iswap", "iswap"} <= set(targets):
        raise ValueError("targets must include the two XY gates")
    template = template if template is not None else NoiseModel()
    gamma = template.coupling
    fidelities = _fidelity_evaluator(targets, template)

    def residual_vec(x):
        fids = fidelities(x[0] * gamma, x[1] * gamma)
        return [fids[k] - targets[k] for k in sorted(targets)]

    def ssr_of(x):
        return float(sum(r * r for r in residual_vec(x)))

    zero_ssr = ssr_of((0.0, 0.0))
    if zero_ssr == 0.0:
        best_x = (0.0, 0.0)
    else:
        scales = np.concatenate([[0.0], np.geomspace(1e-7, 1e-2, grid_points)])
        grid_best, grid_ssr = (0.0, 0.0), zero_ssr
        axis_k, axis_k_ssr = (0.0, 0.0), zero_ssr  # best pure-relaxation point
        axis_d, axis_d_ssr = (0.0, 0.0), zero_ssr  # best pure-dephasing point
        for ks in scales:
            for ds in scales:
                s = ssr_of((ks, ds))
                if s < grid_ssr:
                    grid_best, grid_ssr = (ks, ds), s
                if ds == 0.0 and s < axis_k_ssr:
                    axis_k, axis_k_ssr = (ks, ds), s
                if ks == 0.0 and s < axis_d_ssr:
                    axis_d, axis_d_ssr = (ks, ds), s
        candidates = []
        for start in (grid_best, axis_k, axis_d):
            sol = least_squares(residual_vec, x0=np.maximum(start, 0.0),
                                bounds=([0.0, 0.0], [np.inf, np.inf]))
            candidates.append(tuple(sol.x))
        candidates.append(grid_best)
        ssrs = [ssr_of(c) for c in candidates]
        best_ssr = min(ssrs)
        # flat-valley tie-break: keep near-optimal fits, prefer the one
        # with the largest relaxation share
        tol = best_ssr * 1e-3 + 1e-18
        near = [c for c, s in zip(candidates, ssrs) if s <= best_ssr + tol]
        best_x = max(near, key=lambda c: (c[0] / (c[0] + c[1] + 1e-300), -c[1]))

    model = replace(template, relaxation_rate=best_x[0] * gamma,
                    dephasing_rate=best_x[1] * gamma)
    achieved = fidelities(model.relaxation_rate, model.dephasing_rate)
    residuals = {k: achieved[k] - targets[k] for k in targets}
    return CalibrationResult(model, achieved, residuals, ssr_of(best_x))
