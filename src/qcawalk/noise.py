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
one ``expm``, taken by :func:`_transfer` from three cached unit parts in a
basis where they are real; :func:`_superop` returns it column-stacked.
``expm`` is the package's own numpy Padé scaling and squaring (Higham
2005), which takes a stack of matrices in one call.

Two noisy backends consume those channels.  The walks start in
span{vacuum, one-hot} and the channels never raise the excitation
number, so both run on that (V+1)-dimensional sector (index 0 the
vacuum, v+1 vertex v), on the lowering the ideal backend runs,
``StepOperator.sector_stages`` (:func:`qcawalk.gates.lower_to_sector`).
:func:`_sector_program` turns it into one channel list per call: each
stage's XY gates on their sector indices (vacuum, e_b, e_a), then its RZ
phases relative to the vacuum, then each layer's idle gaps.  Every
channel is a 3x3 (or 2x2) block on the touched indices plus a scalar
elsewhere, read straight off the channel's superoperator by
:func:`_sector_lowering`; only the trajectory jumps take Kraus
operators, from a 9x9 (or 4x4) Choi matrix.  A channel depends only on
(gate, noise model), so ``_lowered`` memoises it in a bounded cache that
every step, backend and run of the process shares.

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
  bias.  The last branch :func:`_sector_lowering` returns is the no-jump
  one, the identity on the untouched indices, and every jump branch
  annihilates them.  So a trajectory keeps its amplitudes unnormalised
  beside their squared norm n2, as in the textbook unnormalised-state
  method: a gate reads the 2-3 amplitudes it touches, writes the no-jump
  branch there, and takes the weight the jump branches carry off n2.
  One draw per trajectory and gate, compared with that lost weight,
  decides whether it jumps.  Until its first jump every trajectory
  follows the same no-jump path (the waiting-time view of the method),
  so the ensemble is three parts (:class:`_Ensemble`): one shared column
  for all trajectories that have not jumped, a count of those on the
  vacuum, which every channel keeps (at delta = 0 every jump lands
  there), and a column each for the rest, run by :func:`_sector_jump`
  on numpy temporaries whose worst case :data:`TRAJECTORY_WORK_BYTES`
  counts.  A gate then costs the shared trajectories one small matrix
  product and a comparison of their draws with one conservative screen,
  twice the threshold; only the draws below it take the per-column test.
  Every trajectory
  takes the draws, and the branch each one selects, that it would take
  with a column of its own, so results move by rounding only.  Once per
  step the columns are renormalised, and the mean of |psi|^2 at every
  step, step 0 included, is read out as the density diagonal would be.
  Their reference is the exact sector density.

Rates are not published for the emulated processor; ``calibrate_rates``
infers (K, delta) from the native gate-set's average fidelities by one
stated rule: relaxation alone, fitted to convergence, unless both rates
fit materially better (the targets pin about one rate combination).  A
fidelity is one ``_transfer``, the backends' own channel, and one trace
against the ideal channel; no Kraus operators are formed.  The fit is
the package's own bounded Levenberg-Marquardt, :func:`_bounded_fit`, and
every scan and Jacobian is one stacked ``expm`` per gate.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gates import GateSpec, StepOperator
from .states import (
    TRAJECTORY_STREAM,
    Distribution,
    SectorDensity,
    SectorVector,
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

_SECTOR_TOL = 1e-10  # on |K_m| at a raising entry and on |S[0, 0] - 1|


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


#: Diagonal Padé approximants r_m = q_m(A)^-1 p_m(A) of exp(A): (m, theta_m,
#: coefficients of p_m); r_m is exact to double precision for
#: ||A||_1 <= theta_m (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005),
#: Table 2.3), and q_m(A) = p_m(-A).
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
                               56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                               1187353796428800.0, 129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                               960960.0, 16380.0, 182.0, 1.0)),
)
_PADE_THETAS = np.array([theta for _m, theta, _b in _PADE[:-1]])


def _pade(a: np.ndarray, m: int, b: tuple) -> np.ndarray:
    """r_m(a) for a stack of matrices, as I + 2 (V - U)^-1 U with U the odd
    and V the even part of p_m.  Both are linear in a^2, a^4, ... (at most
    a^6: degree 13 takes Higham's factored form), so one product with a
    coefficient matrix forms every sum of powers."""
    k = m // 2 if m < 13 else 3
    powers = np.empty((k,) + a.shape, dtype=a.dtype)  # a^2, a^4, ..., a^(2k)
    np.matmul(a, a, out=powers[0])
    for i in range(1, k):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    rows = [b[3:2 * k + 2:2], b[2:2 * k + 1:2]]  # U / a and V, less their identity terms
    if m == 13:
        rows += [b[9::2], b[8::2]]  # the factors that multiply a^6
    odd, even, *high = (np.array(rows) @ powers.reshape(k, -1)).reshape((len(rows),) + a.shape)
    if high:
        odd += powers[2] @ high[0]
        even += powers[2] @ high[1]
    eye = np.eye(a.shape[-1])
    odd += b[1] * eye
    even += b[0] * eye
    u = a @ odd
    # r_m - I, so a vector that a annihilates, such as a steady state, is kept exactly
    return np.linalg.solve(even - u, 2.0 * u) + eye


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix or a stack ``(..., n, n)`` of them.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005), Algorithm 2.3): each matrix takes the lowest Padé degree in
    (3, 5, 7, 9) whose theta_m bounds its 1-norm; past theta_9 it is
    scaled by 2^-s to a 1-norm within theta_13, takes degree 13, and is
    squared s times.  Degree and s are chosen per matrix, so a stacked
    call equals the per-matrix calls; each (degree, s) group is one
    stacked evaluation.  Real input gives a real result; non-finite input
    raises ``ValueError``.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm takes square matrices, got shape {a.shape}")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n).astype(np.result_type(a.dtype, float), copy=False)
    norms = np.abs(flat).sum(axis=1).max(axis=1, initial=0.0)
    if not np.isfinite(norms).all():
        raise ValueError("expm takes finite matrices")
    degree = np.searchsorted(_PADE_THETAS, norms)  # index into _PADE
    theta13 = _PADE[-1][1]
    squarings = np.ceil(np.log2(np.maximum(norms, theta13) / theta13)).astype(int)
    groups = set(zip(degree.tolist(), squarings.tolist()))
    out = np.empty_like(flat)
    for j, s in groups:
        sel = slice(None) if len(groups) == 1 else (degree == j) & (squarings == s)
        m, _theta, b = _PADE[j]
        r = _pade(flat[sel] * 2.0**-s, m, b)
        for _ in range(s):
            r = r @ r
        out[sel] = r
    return out.reshape(a.shape)


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
def _real_basis(d: int) -> np.ndarray:
    """The unitary whose columns are vec(E), column-stacked as in
    :func:`_liouvillian`, over the Hermitian basis |i><i| and
    (|i><j| + |j><i|) / sqrt(2), i (|j><i| - |i><j|) / sqrt(2) for i < j.

    In this basis a superoperator that maps Hermitian matrices to
    Hermitian ones, as every Liouvillian and channel here does, is real;
    the vacuum |0><0| stays a basis vector, so a channel keeps it exactly.
    """
    units = [np.outer(e, e) for e in np.eye(d)]
    for i, j in itertools.combinations(range(d), 2):
        unit = np.zeros((d, d), dtype=complex)
        unit[i, j] = 1.0
        units += [(unit + unit.T) / math.sqrt(2), 1j * (unit.T - unit) / math.sqrt(2)]
    basis = np.array([e.T.reshape(-1) for e in units], dtype=complex).T
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _liouvillian_parts(name: str, arity: int) -> tuple:
    """(L_G, L_K, L_delta) of gate ``name`` (or ``"idle"``) on ``arity`` qubits.

    L_G = -i[G, .] is the unit-angle gate part, L_K and L_delta the
    unit-rate relaxation and dephasing parts; an idle gap has L_G = 0.
    All three are real, in the basis of :func:`_real_basis`.  Read-only,
    as every channel build shares them.
    """
    d = 2**arity
    zero = np.zeros((d, d), dtype=complex)
    g = zero if name == "idle" else GateSpec(name, 0.0, tuple(range(arity))).generator()
    basis = _real_basis(d)
    parts = tuple((basis.conj().T @ part @ basis).real
                  for part in (_liouvillian(g, []),
                               _liouvillian(zero, _jump_operators(arity, 1.0, 0.0)),
                               _liouvillian(zero, _jump_operators(arity, 0.0, 1.0))))
    for part in parts:
        part.flags.writeable = False
    return parts


def _transfer(name: str, theta: float, arity: int, t: float, relaxation, dephasing,
              step: tuple | None = None):
    """The channel of gate ``name`` at angle ``theta`` held for ``t`` seconds,
    as the real matrix R = B^dag S B in the basis B of :func:`_real_basis`.

    With H = (theta/t) G the generator over the gate is
    A = L t = theta L_G + K t L_K + delta t L_delta: the Hamiltonian part
    is linear in H and the dissipator in each rate.  Every noisy channel
    of the package is this one matrix exponential, :func:`expm`'s numpy
    Padé scaling and squaring.  The rates may be arrays of one shape; the
    channels of all their pairs then come from one stacked call.

    With ``step`` = (dK, d_delta), shaped like the rates, it returns
    (R, R' - R) instead, R' the channel at the rates plus the step.  Both
    come from one exponential of the block generator
    [[A, C], [0, A + C]], C the step's dissipator, which is
    [[e^A, e^(A+C) - e^A], [0, e^(A+C)]]; so the difference is computed to
    its own relative precision, not to that of R.
    """
    l_g, l_k, l_d = _liouvillian_parts(name, arity)

    def dissipator(k, dl):
        return np.multiply(k, t)[..., None, None] * l_k + np.multiply(dl, t)[..., None, None] * l_d

    a = theta * l_g + dissipator(relaxation, dephasing)
    if step is None:
        return expm(a)
    a, c = np.broadcast_arrays(a, dissipator(*step))
    n = a.shape[-1]
    block = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n] = a
    block[..., :n, n:] = c
    block[..., n:, n:] = a + c
    e = expm(block)
    return e[..., :n, :n], e[..., :n, n:]


def _superop(name: str, theta: float, arity: int, t: float, relaxation,
             dephasing) -> np.ndarray:
    """The column-stacking superoperator S = B R B^dag of the gate's channel,
    R from :func:`_transfer`: one numpy Padé :func:`expm` of the gate's
    Liouvillian, as for every noisy channel of the package."""
    basis = _real_basis(2**arity)
    return basis @ _transfer(name, theta, arity, t, relaxation, dephasing) @ basis.conj().T


def _kraus_from_superop(s: np.ndarray, d: int) -> tuple:
    # reshuffle to the Choi matrix: J[m*d+p, n*d+q] = S[n*d+m, q*d+p]
    choi = s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
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


class _Lowered(NamedTuple):
    """A sector-preserving channel on its touched indices; see
    :func:`_sector_lowering`."""

    blocks: np.ndarray  # (M, d, d): the jump blocks, then the no-jump block
    T: np.ndarray  # density: vec(rho_SS) -> T vec(rho_SS), vec row by row
    to_vacuum: np.ndarray  # (M - 1,) bool: jump m's one-hot rows are exactly 0


def _sector_lowering(s: np.ndarray) -> _Lowered:
    """Lower a sector-preserving channel, given by its column-stacking
    superoperator ``s`` (D = 4 or 2 local levels), to blocks on the (V+1)
    sector, without forming its Kraus set.

    The touched indices S are the first d = 3 (or 2) local ones, (vacuum,
    e_b, e_a) or (vacuum, e_q) in the local basis |q_a q_b> (0 = |00>,
    1 = |01>, 2 = |10>); R is every other sector index.  For any Kraus set
    K_m of the channel s[i + D k, j + D l] = sum_m K_m[i, j] conj(K_m[k, l]),
    so the checks and the blocks are slices of s:

    * s[i + D i, j + D j] = sum_m |K_m[i, j]|^2 must vanish where i holds
      more excitations than j, and s[0, 0] = sum_m |k00_m|^2, the scalar
      on R, must be 1 (trace preservation); else ``RuntimeError``.
    * B_last[i, j] = s[i, j] = sum_m conj(k00_m) K_m[i, j] is the Monte
      Carlo wave-function no-jump operator, the identity on R.
    * T[(i, k), (j, l)] = s[i + D k, j + D l]: vec(rho_SS) -> T vec(rho_SS),
      rho_SR -> B_last rho_SR, and rho_RR is left alone.

    The jumps are the Kraus operators of the rest, s on S minus
    conj(B_last) (x) B_last, whose Choi matrix is positive semidefinite
    with (vacuum, vacuum) entry 1 - 1 = 0: each annihilates R.  Column 0
    of every block is set exactly (e_0 in B_last, 0 in a jump).
    ``blocks`` holds the jumps, then B_last: a trajectory with touched
    amplitudes x takes jump m with probability |B_m x|^2 and no jump with
    |B_last x|^2 + 1 - |x|^2.  ``to_vacuum`` marks the jumps that land
    every state on the vacuum: at delta = 0, all of them.
    """
    D = math.isqrt(s.shape[0])
    d = 3 if D == 4 else 2
    s4 = s.reshape(D, D, D, D)  # s4[k, i, l, j] = s[i + D k, j + D l]
    excitations = np.array([bin(i).count("1") for i in range(D)])
    raising = excitations[:, None] > excitations[None, :]
    if np.abs(np.einsum("iijj->ij", s4)[raising]).max() > _SECTOR_TOL**2:
        raise RuntimeError("channel raises excitation number; sector path invalid")
    if abs(s[0, 0] - 1.0) > _SECTOR_TOL:
        raise RuntimeError(f"channel is not trace-preserving: sum |k00|^2 = {s[0, 0]!r}")
    touched = s4[:d, :d, :d, :d]
    no_jump = touched[0, :, 0, :].copy()
    no_jump[:, 0] = 0.0
    no_jump[0, 0] = 1.0
    rest = touched.reshape(d * d, d * d) - np.kron(no_jump.conj(), no_jump)
    blocks = np.concatenate([np.reshape(_kraus_from_superop(rest, d), (-1, d, d)),
                             no_jump[None]])
    blocks[:-1, :, 0] = 0.0
    return _Lowered(blocks, touched.transpose(1, 0, 3, 2).reshape(d * d, d * d),
                    ~np.any(blocks[:-1, 1:], axis=(1, 2)))


@functools.lru_cache(maxsize=1024)
def _lowered(key: tuple, noise: NoiseModel) -> _Lowered:
    """``key``'s channel, ``(name, theta, arity)`` or ``("idle", gap)``,
    lowered from its superoperator; one key serves every placement.  A
    channel that takes no time, or has zero rates, is its ideal unitary U,
    with superoperator conj(U) (x) U."""
    if key[0] == "idle":
        name, theta, arity, t, ideal = "idle", 0.0, 1, key[1], _I2
    else:
        name, theta, arity = key
        gate = GateSpec(name, theta, tuple(range(arity)))
        t, ideal = noise.duration_of(gate), gate.matrix()
    if t == 0.0 or noise.is_noiseless:
        return _sector_lowering(np.kron(ideal.conj(), ideal))
    return _sector_lowering(_superop(name, theta, arity, t, noise.relaxation_rate,
                                     noise.dephasing_rate))


def _sector_program(step: StepOperator, noise: NoiseModel) -> list:
    """One step's channels on the (V+1) sector as (idx, phase, lowered), in
    application order, from the step's lowering ``step.sector_stages``.

    Per stage: each XY gate's channel, lowered by :func:`_sector_lowering`,
    on idx = (vacuum, e_b, e_a); then its RZ gates, noiseless, as one
    ``phase`` on every index relative to the vacuum, exactly 1 but on the
    rows idx.  After a layer's stages, if ``noise.idle_decay``, the pure
    dissipator on (vacuum, e_v) for each qubit's gap to the layer's length.
    """
    idle = noise.idle_decay and not noise.is_noiseless
    program = []
    for stages in step.sector_stages:
        busy = np.zeros(step.n_qubits + 1)  # per sector index; the vacuum's stays 0
        for stage in stages:
            for b, a, g in zip(stage.b, stage.a, stage.gates):
                program.append((np.array([0, b, a]), None,
                                _lowered((g.name, g.theta, g.n_targets), noise)))
                busy[[b, a]] += noise.duration_of(g)
            if stage.phase is not None:
                rows = np.flatnonzero(stage.phase != stage.phase[0])
                phase = np.ones_like(stage.phase)
                phase[rows] = stage.phase[rows] / stage.phase[0]
                program.append((rows, phase, None))
        if idle:
            gaps = busy.max() - busy
            program += [(np.array([0, v]), None, _lowered(("idle", gaps[v]), noise))
                        for v in range(1, len(gaps)) if gaps[v] > 1e-18]
    return program


def evolve_density(rho: SectorDensity, step: StepOperator, noise: NoiseModel) -> SectorDensity:
    """One noisy step of the (V+1) x (V+1) block, returned as a new one.

    Each channel acts as a 3x3 (two-qubit) or 2x2 (one-qubit) block on
    (vacuum, touched one-hots) and maps their rows and columns; trace
    preservation fixes its scalar on every other index at 1 (see
    :func:`_sector_lowering`), so the rest is not touched.  A gate thus
    costs O(V); a stage's RZ gates are one diagonal phase.  Any gate but
    XY and RZ leaves that block and raises ``ValueError``.
    """
    step.require_state(rho, SectorDensity, "evolve_density")
    arr = rho.entries.copy()
    for idx, phase, lowered in _sector_program(step, noise):
        if lowered is None:
            arr *= phase[:, None]
            arr *= phase.conj()
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


#: Bytes a trajectory may take beside its (V+1) x 16 B of amplitudes, in
#: the worst case: every trajectory has a column of its own and all jump
#: at one gate of 6 jump branches.  It keeps its draw, flag, owner and
#: squared norm (25 B).  :func:`_sector_jump` adds its owner's draw, its
#: touched amplitudes x and B_last x (2 x 48 B), r n2, the lost weight
#: and a jump index (32 B), and in the jump branch every branch's rows
#: (6 x 48 B), their weights and cumulative sums (2 x 48 B), the picked
#: branch's rows (48 B) and its indices (24 B): 609 B, and numpy's
#: indexing scratch on top.  A run that never leaves the shared column
#: and the vacuum keeps 9 B per trajectory and no amplitudes.
TRAJECTORY_WORK_BYTES = 640


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 per column of a complex (..., rows, k) array, summed over
    rows through the real view: no square root, and no array of a's size."""
    f = a.view(float)
    pairs = np.einsum("...ij,...ij->...j", f, f)
    return pairs[..., 0::2] + pairs[..., 1::2]


def _sector_jump(psi: np.ndarray, n2: np.ndarray, idx: list, lowered: _Lowered,
                 r: np.ndarray) -> np.ndarray:
    """Sample one Kraus branch per column for a channel on sector ``idx``.

    Column j is the state ``psi[:, j] / sqrt(n2[j])``: the amplitudes are
    stored unnormalised beside their squared norm ``n2``.  As
    :func:`_sector_lowering` builds them, the no-jump branch B_last keeps
    every untouched amplitude and jump branch m annihilates them, so with
    x = psi[idx] the jumps carry the weight loss = |x|^2 - |B_last x|^2
    out of n2.  The column's uniform draw ``r[j]`` picks the branch: it
    jumps iff r n2 < loss, and then takes the first m with
    r n2 < sum_{m' <= m} |B_m' x|^2.  Every column writes B_last x to its
    touched rows and loses ``loss`` from n2; a jumping column then zeroes
    its column, writes the unnormalised B_m x to its touched rows and sets
    n2 = |B_m x|^2.  A jump reads only the x already gathered.  A column
    whose draw lands past every jump's cumulative weight (rounding, or no
    jump weight at all) keeps the no-jump branch, so no branch of weight 0
    is written, and a one-branch channel never jumps.  Returns the
    columns whose jump landed on the vacuum (``lowered.to_vacuum``), in
    ascending order.
    """
    d = len(idx)
    x = psi[idx]
    blocks = lowered.blocks
    z = blocks[-1] @ x
    loss = _abs2(x) - _abs2(z)
    u = r * n2
    psi[idx] = z
    n2 -= loss
    if len(blocks) == 1:
        return np.empty(0, dtype=np.intp)
    jump = np.flatnonzero(u < loss)
    if jump.size:
        # np.take and the row-by-row cumulative sum: the fancy index and
        # np.cumsum along axis 0 make the same numbers several times slower
        y = (blocks[:-1].reshape(-1, d) @ np.take(x, jump, axis=1)).reshape(len(blocks) - 1, d, -1)
        w = _abs2(y)
        cum = w.copy()
        for i in range(1, len(cum)):
            cum[i] += cum[i - 1]
        m = np.sum(u[jump] >= cum, axis=0)
        hit = np.flatnonzero(m < len(w))
        cols, m = jump[hit], m[hit]
        psi[:, cols] = 0.0
        psi[idx, cols[:, None]] = y[m, :, hit]
        n2[cols] = w[m, hit]
        return cols[lowered.to_vacuum[m]]
    return jump


def _norm2(a: np.ndarray) -> float:
    """|a|^2 of a complex vector."""
    return float(np.vdot(a, a).real)


class _Ensemble:
    """The n trajectories of one run, in three parts.

    * Every trajectory that has not jumped is one shared column ``c``,
      stored unnormalised beside its squared norm ``c2``; ``alive`` marks
      them, ``n_alive`` counts them.
    * ``vacuum`` counts the trajectories on the vacuum.  Every lowered
      channel keeps it (B_last maps e_0 to itself and every jump block
      annihilates it, both exactly) and so does every RZ phase, so such a
      trajectory needs no column.
    * Each trajectory left by a jump to any other state is a column of
      ``psi[:, :size]`` (trajectory ``owner[k]`` in column k) beside its
      squared norm ``n2[k]``, as :func:`_sector_jump` keeps them, until a
      later jump takes it to the vacuum too.  Those arrays are made on
      the first such jump, for all n.

    Each channel takes one uniform draw per trajectory, ``r``, the same
    draw the trajectory would take with a column of its own, and every
    part decides its branch by the per-column rule of
    :func:`_sector_jump`.
    """

    def __init__(self, amplitudes: np.ndarray, n: int):
        self.c = amplitudes.astype(complex)
        self.c2 = 1.0
        self.r = np.empty(n)  # one channel's uniform draws
        self.alive = np.ones(n, dtype=bool)
        self.n_alive = n
        self.vacuum = 0
        self.size = 0
        self.psi = self.n2 = self.owner = None

    def phase(self, idx: np.ndarray, phase: np.ndarray) -> None:
        """An RZ stage: its ``phase`` on the rows ``idx`` of every column."""
        factors = phase[idx]
        if self.n_alive:
            self.c[idx] *= factors
        if self.size:
            for row, factor in zip(idx, factors):  # rows in place: no temporary
                self.psi[row, :self.size] *= factor

    def channel(self, idx: np.ndarray, lowered: _Lowered, r: np.ndarray) -> None:
        """One noisy channel on sector ``idx``; ``r[j]`` is trajectory j's draw."""
        if self.size:  # the diverged columns, with their owners' draws
            k = self.size
            landed = _sector_jump(self.psi[:, :k], self.n2[:k], idx, lowered, r[self.owner[:k]])
            if landed.size:
                self._land(landed)
        if not self.n_alive:
            return
        blocks = lowered.blocks
        x = self.c[idx]
        z = blocks[-1] @ x
        loss = _norm2(x) - _norm2(z)
        self.c[idx] = z
        c2 = self.c2
        self.c2 = c2 - loss
        if len(blocks) == 1:
            return
        # the live j with r[j] c2 < loss.  No draw at or above the screen
        # does: for 0 < c2 < 2 (c2 starts each step at 1 and then shrinks,
        # up to rounding), r c2 >= 2 (loss / c2) c2 rounds to no less than
        # loss, subnormals included.  At c2 <= 0 every live draw is tested
        screen = 2.0 * (loss / c2) if c2 > 0.0 else math.inf
        jumpers = (r < screen).nonzero()[0]
        if not jumpers.size:
            return
        if self.n_alive < len(r):
            jumpers = jumpers[self.alive[jumpers]]
        u = r[jumpers] * c2
        jumping = u < loss
        if jumping.any():
            self._jump(jumpers[jumping], u[jumping], idx, lowered, x)

    def _jump(self, jumpers, u, idx, lowered, x) -> None:
        """Shared-column trajectories ``jumpers``, with r c2 = ``u``, take
        the branch :func:`_sector_jump` picks, from the one y = B_m x."""
        d, blocks = len(idx), lowered.blocks
        y = (blocks[:-1].reshape(-1, d) @ x).reshape(len(blocks) - 1, d)
        w = np.sum(np.abs(y) ** 2, axis=1)
        m = np.searchsorted(np.cumsum(w), u, side="right")  # the first m with u < cum[m]
        hit = m < len(w)
        jumpers, m = jumpers[hit], m[hit]
        if not jumpers.size:
            return
        self.alive[jumpers] = False
        self.n_alive -= len(jumpers)
        away = ~lowered.to_vacuum[m]
        self.vacuum += len(m) - int(np.count_nonzero(away))
        if away.any():
            self._diverge(jumpers[away], idx, y[m[away]], w[m[away]])

    def _diverge(self, owners, idx, y, w) -> None:
        """Give trajectories ``owners`` columns holding y (one row each) on
        ``idx``, with squared norms w."""
        if self.psi is None:
            n = len(self.r)
            self.psi = np.empty((len(self.c), n), dtype=complex)
            self.n2 = np.empty(n)
            self.owner = np.empty(n, dtype=np.intp)
        cols = slice(self.size, self.size + len(owners))
        self.psi[:, cols] = 0.0
        self.psi[idx, cols] = y.T
        self.n2[cols] = w
        self.owner[cols] = owners
        self.size = cols.stop

    def _land(self, cols: np.ndarray) -> None:
        """Count the diverged columns ``cols`` (ascending), now on the
        vacuum, and move the last other columns into their slots."""
        k = self.size - len(cols)
        gone = np.zeros(len(cols), dtype=bool)
        gone[cols[cols >= k] - k] = True
        holes, tail = cols[cols < k], k + np.flatnonzero(~gone)
        self.psi[:, holes] = self.psi[:, tail]
        self.n2[holes] = self.n2[tail]
        self.owner[holes] = self.owner[tail]
        self.vacuum += len(cols)
        self.size = k

    def fold(self) -> None:
        """Scale every column to unit norm, computed from its amplitudes so
        that rounding in the squared norms never builds up.  The shared
        column is left alone once no trajectory shares it."""
        if self.n_alive:
            self.c *= 1.0 / math.sqrt(_norm2(self.c))
            self.c2 = 1.0
        if self.size:
            self.psi[:, :self.size] *= 1.0 / np.sqrt(_abs2(self.psi[:, :self.size]))
            self.n2[:self.size] = 1.0

    def populations(self) -> np.ndarray:
        """The sum of |psi|^2 over the trajectories, per sector index."""
        out = np.zeros(len(self.c))
        if self.n_alive:
            out += self.n_alive * (self.c.real ** 2 + self.c.imag ** 2)
        out[0] += self.vacuum
        if self.size:
            real = self.psi[:, :self.size].view(float)
            out += np.einsum("ij,ij->i", real, real)
        return out


def trajectory_run(init: SectorVector, step: StepOperator, noise: NoiseModel,
                   n_traj: int, seed: int, steps: int = 1) -> Distribution:
    """Per-step mean vertex+leakage distribution over stochastic trajectories.

    One Kraus branch of the exact per-gate channel is sampled per gate
    interval (branch m with probability ||K_m psi||^2), so the ensemble
    mean converges to the density-matrix evolution.  Each noisy gate
    draws one uniform number per trajectory, in gate order, and the
    branch is picked from it by the rule of :func:`_sector_jump`.

    The ensemble is a :class:`_Ensemble`.  Until its first jump every
    trajectory follows the same no-jump path (the waiting-time view of
    the Monte Carlo wave-function method), so those trajectories share
    one column, and a gate costs them one small matrix product plus a
    comparison of the draws with one screen.  A jump onto the vacuum
    only counts the trajectory; a jump anywhere else gives it a column of
    its own, which runs gate by gate through :func:`_sector_jump`.  Every
    trajectory consumes the draws and takes the branches it would take
    with a column of its own, so results move only by rounding.  The
    columns are renormalised once per step.  The channel list is made
    once per call.  Deterministic under (seed, n_traj).  Returns one
    per-step Distribution, step 0 included.

    Trajectories run in the (V+1)-dimensional sector only: an ``init``
    that is not a :class:`SectorVector` raises ``TypeError``, and a step
    with gates other than XY/RZ, on a register of another size, or an
    initial state of zero norm raises ``ValueError``.
    """
    step.require_state(init, SectorVector, "trajectory_run")
    n_traj = require_count("n_traj", n_traj, 1)
    steps = require_count("steps", steps, 0)
    norm = float(np.linalg.norm(init.amplitudes))
    if not 0.0 < norm < math.inf:  # NaN fails both
        raise ValueError(f"initial state has norm {norm}; trajectories need a finite, "
                         "nonzero one")
    rng = np.random.default_rng(np.random.SeedSequence([seed, TRAJECTORY_STREAM]))
    ensemble = _Ensemble(init.amplitudes / norm, n_traj)
    program = _sector_program(step, noise)

    p = np.empty((steps + 1, init.n_qubits + 1))
    for t in range(steps + 1):
        if t:
            for idx, phase, lowered in program:
                if lowered is None:
                    ensemble.phase(idx, phase)
                else:
                    ensemble.channel(idx, lowered, rng.random(out=ensemble.r))
            ensemble.fold()
        # the trajectory mean of |psi|^2 estimates the density diagonal
        p[t] = ensemble.populations() / n_traj
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

#: The fit's forward-difference step is sqrt(eps) max(1, |x|), scipy's
#: '2-point' rule: the fit stops at the Gauss-Newton fixed point of that
#: Jacobian, which the calibration pins hold.  A fidelity is an O(1)
#: number rounded to a few ulps, so an ssr is known only to
#: 2 |r| sqrt(m) _FIT_ULPS eps, m residuals; within that, a step counts as
#: no worse, and a step whose predicted gain is that small ends the fit,
#: as does the ``_FIT_MAX_STEPS``-th step.
_FD_STEP = math.sqrt(np.finfo(float).eps)
_FIT_ULPS = 8
_FIT_MAX_STEPS = 100


@dataclass
class CalibrationResult:
    """Fitted noise model plus the per-gate fidelity residual report.

    ``evaluations`` counts the (K, delta) points at which the fit
    evaluated the gate fidelities, the final report's included.
    """

    model: NoiseModel
    achieved: dict
    residuals: dict
    ssr: float
    evaluations: int

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
        lines.append(f"fidelity evaluations: {self.evaluations}")
        return "\n".join(lines)


def _fidelity_evaluator(keys, template: NoiseModel):
    """Return f(K, delta) -> {key: average gate fidelity} for calibration gates.

    Each gate's (spec, duration, dimension, R_U) is fixed here; an
    evaluation is then one :func:`_transfer` per gate, the backends' own
    channel R, and F_pro = Tr(R_U^T R) / d^2 = Tr(S_U^dag S) / d^2, with
    R_U the ideal channel conj(U) (x) U in the same real basis.  K and
    delta may be arrays of one shape: every gate then takes one stacked
    ``expm`` over all the points, and each fidelity is an array of that
    shape (a float for scalar rates).  With ``step`` = (dK, d_delta) each
    value is the pair (F, F' - F), F' the fidelity at the rates plus the
    step, its difference taken from ``_transfer``'s without
    cancellation.  Zero rates and zero durations give the ideal channel,
    fidelity 1.0, as ``noisy_gate_channel`` does.  Agrees with
    ``average_gate_fidelity(noisy_gate_channel(...))`` to rounding.
    ``ry`` is ``rx``'s value: the two take the same time, and the noise
    commutes with the z rotation that turns RX(pi/2) into RY(pi/2).
    """
    sources = {key: "rx" if key == "ry" else key for key in keys}
    parts = {}
    for key in dict.fromkeys(sources.values()):
        spec = _CALIBRATION_GATES[key]
        u = spec.matrix()
        basis = _real_basis(u.shape[0])
        r_u = (basis.conj().T @ np.kron(u.conj(), u) @ basis).real
        parts[key] = (spec, template.duration_of(spec), u.shape[0], r_u.reshape(-1))

    def fidelities(relaxation, dephasing, step: tuple | None = None) -> dict:
        relaxation, dephasing = np.broadcast_arrays(relaxation, dephasing)
        ideal = (relaxation == 0.0) & (dephasing == 0.0)

        def average(r, d, r_u, offset):
            # (d F_pro + offset) / (d + 1), Tr(R_U^T R) summed row by row, so
            # a stacked point equals a single one
            f_pro = np.sum(r.reshape(-1, r_u.size) * r_u, axis=1).reshape(ideal.shape) / d**2
            return (d * f_pro + offset) / (d + 1.0)

        out = {}
        for key, (spec, t, d, r_u) in parts.items():
            if t == 0.0:
                f, df = np.ones(ideal.shape), np.zeros(ideal.shape)
            else:
                r = _transfer(spec.name, spec.theta, spec.n_targets, t, relaxation, dephasing,
                              step)
                r, dr = r if step is not None else (r, None)
                f = np.where(ideal, 1.0, average(r, d, r_u, 1.0))
                df = None if dr is None else average(dr, d, r_u, 0.0)
            f = f if f.ndim else float(f)
            out[key] = f if step is None else (f, df)
        return {key: out[source] for key, source in sources.items()}

    return fidelities


def _bounded_fit(residuals, x0) -> tuple:
    """Least squares over x >= 0: minimise |r(x)|^2 and return (x, ssr).

    Levenberg-Marquardt on an active set.  ``residuals(points, steps)``
    maps a (p, n) batch of points and steps to their (p, m) residuals and
    residual differences r(point + step) - r(point), so a trial point and
    its forward-difference Jacobian cost one call.  A coordinate at 0
    whose gradient points out of the box is held there; the others take
    the Gauss-Newton step, damped by ``damping`` times each column's norm
    (Marquardt's scaling) and clipped at 0.  The damping starts at 0 and
    follows Nielsen's rule (Madsen, Nielsen & Tingleff, "Methods for
    non-linear least squares problems", DTU, 2004): a step that
    raises the ssr past its rounding is retried with ``nu`` times the
    damping, ``nu`` doubling each time; a step taken scales it by
    max(1/3, 1 - (2 rho - 1)^3), rho the ratio of the actual to the
    predicted gain.  The fit ends once a step is taken whose predicted
    gain is within the ssr's rounding (see ``_FIT_ULPS``): it then lands
    on the Gauss-Newton fixed point.  It also ends on a saturated
    plateau, where no free coordinate's difference step moves any
    residual by more than ``_FIT_ULPS`` ulps of 1 (a fidelity's
    rounding): the Jacobian is then rounding, and Gauss-Newton steps on
    it would run the rates up the asymptote.  It takes at most
    ``_FIT_MAX_STEPS`` steps.
    """
    eps = np.finfo(float).eps

    def evaluate(x):  # r(x), its forward-difference Jacobian, and the differences' size
        dx = (x + _FD_STEP * np.maximum(1.0, np.abs(x))) - x
        r, dr = residuals(np.tile(x, (len(x), 1)), np.diag(dx))
        return r[0], dr.T / dx, np.abs(dr).max(axis=1)

    x = np.array(x0, dtype=float)
    r, jac, moved = evaluate(x)
    ssr, damping, nu = float(r @ r), 0.0, 2.0
    for _ in range(_FIT_MAX_STEPS):
        rounding = 2.0 * math.sqrt(ssr * len(r)) * _FIT_ULPS * eps
        free = (x > 0.0) | (jac.T @ r < 0.0)
        # a plateau: no free coordinate's difference step moves a residual
        # past its rounding
        if not free.any() or np.all(moved[free] <= _FIT_ULPS * eps):
            break
        jf = jac[:, free]
        damp = math.sqrt(damping) * np.diag(np.linalg.norm(jf, axis=0))
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(np.vstack([jf, damp]),
                                     np.concatenate([-r, np.zeros(len(damp))]), rcond=None)[0]
        trial = np.maximum(x + step, 0.0)
        if np.array_equal(trial, x):
            break
        js = jac @ (trial - x)
        gain = -float((2.0 * r + js) @ js)  # the linear model's ssr decrease
        r_trial, jac_trial, moved_trial = evaluate(trial)
        ssr_trial = float(r_trial @ r_trial)
        if ssr_trial > ssr + rounding:
            damping, nu = max(nu * damping, 1e-3), 2.0 * nu
            continue
        rho = (ssr - ssr_trial) / gain if gain > 0.0 else 1.0
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        x, r, jac, moved, ssr, nu = trial, r_trial, jac_trial, moved_trial, ssr_trial, 2.0
        if gain <= rounding:
            break
    return x, ssr


def calibrate_rates(targets: dict | None = None,
                    template: NoiseModel | None = None) -> CalibrationResult:
    """Fit (K, delta) so gate fidelities match the given targets.

    Least squares on the average fidelities, by one rule: fit relaxation
    alone (delta = 0) and both rates, each to convergence with
    :func:`_bounded_fit`, and return relaxation alone unless both rates
    lower the ssr by more than ``_RELAXATION_WINDOW`` relative.  The two
    XY targets pin about one rate combination; at the default targets the
    two-rate optimum is pure dephasing, only 0.019% lower in ssr, so the
    rule gives the T1-limited model.  The rates are fitted in units of the
    coupling, so the fit does not depend on its scale.  Each rate is fitted
    alone from the best point of its axis scan (one batch), and the 2-D fit
    from both those optima, never from the scan's top, whence one
    Gauss-Newton step can reach the plateau where the Jacobian vanishes.
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
    keys = sorted(targets)
    want = np.array([targets[k] for k in keys])
    evaluations = 0

    def fit_residuals(points, steps=None):  # rates in units of the coupling
        nonlocal evaluations
        rates = (points[:, 0] * gamma, points[:, 1] * gamma)
        if steps is None:
            evaluations += len(points)
            fids = fidelities(*rates)
            return np.column_stack([fids[k] for k in keys]) - want
        evaluations += 2 * len(points)  # each row is a forward-difference pair
        fids = fidelities(*rates, step=(steps[:, 0] * gamma, steps[:, 1] * gamma))
        return (np.column_stack([fids[k][0] for k in keys]) - want,
                np.column_stack([fids[k][1] for k in keys]))

    def on_axis(axis: int):  # residuals of one rate, the other held at 0
        def residuals(points, steps):
            both = np.zeros((2, len(points), 2))
            both[:, :, axis] = points[:, 0], steps[:, 0]
            return fit_residuals(*both)
        return residuals

    best_x = np.zeros(2)
    if np.any(want != 1.0):
        zero = np.zeros_like(_CALIBRATION_SCALES)
        scan = fit_residuals(np.concatenate([np.column_stack([_CALIBRATION_SCALES, zero]),
                                             np.column_stack([zero, _CALIBRATION_SCALES])]))
        scan_ssr = np.sum(scan * scan, axis=1).reshape(2, -1)
        k0, d0 = _CALIBRATION_SCALES[np.argmin(scan_ssr, axis=1)]
        (k_fit,), relaxation_ssr = _bounded_fit(on_axis(0), [k0])
        (d_fit,), _ = _bounded_fit(on_axis(1), [d0])
        best_x = np.array([k_fit, 0.0])
        both, both_ssr = min(_bounded_fit(fit_residuals, [k_fit, 0.0]),
                             _bounded_fit(fit_residuals, [0.0, d_fit]), key=lambda fit: fit[1])
        if relaxation_ssr - both_ssr > both_ssr * _RELAXATION_WINDOW + 1e-18:
            best_x = both

    model = replace(template, relaxation_rate=float(best_x[0] * gamma),
                    dephasing_rate=float(best_x[1] * gamma))
    achieved = fidelities(model.relaxation_rate, model.dephasing_rate)
    evaluations += 1
    residuals = {k: achieved[k] - targets[k] for k in targets}
    ssr = float(sum(residuals[k] ** 2 for k in keys))
    return CalibrationResult(model, achieved, residuals, ssr, evaluations)
