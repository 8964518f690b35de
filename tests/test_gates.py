import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcawalk import (
    AngleSchedule,
    GateSpec,
    Lattice,
    SectorVector,
    StepOperator,
    Tessellation,
    build_step_operator,
    pauli_rotation,
    sector_basis,
    sector_oracle,
    tessellations_for,
    xy_gate,
)
from qcawalk.gates import lower_to_sector
from qcawalk.reference import StateVector, apply_local, apply_step

ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
SQRT_ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 1 / math.sqrt(2), 1j / math.sqrt(2), 0],
     [0, 1j / math.sqrt(2), 1 / math.sqrt(2), 0],
     [0, 0, 0, 1]]
)


class TestXYGate:
    def test_half_pi_is_iswap(self):
        assert np.abs(xy_gate(math.pi / 2) - ISWAP).max() < 1e-12

    def test_quarter_pi_is_sqrt_iswap(self):
        assert np.abs(xy_gate(math.pi / 4) - SQRT_ISWAP).max() < 1e-12

    def test_zero_is_identity(self):
        assert np.abs(xy_gate(0.0) - np.eye(4)).max() < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            xy_gate(float("nan"))

    @pytest.mark.parametrize("theta", [0.3, -1.2, 2.9])
    def test_unitary(self, theta):
        u = xy_gate(theta)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 4, math.pi / 2, -2.2])
    def test_excitation_number_conserved(self, theta):
        u = xy_gate(theta)
        number = np.diag([0.0, 1.0, 1.0, 2.0])
        assert np.abs(u @ number - number @ u).max() < 1e-12


class TestPauliRotation:
    def test_rz_minus_half_pi(self):
        want = np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)])
        assert np.abs(pauli_rotation("Z", -math.pi / 2) - want).max() < 1e-12

    def test_rx_pi_flips_with_phase(self):
        out = pauli_rotation("X", math.pi) @ np.array([1, 0])
        assert np.abs(out - np.array([0, -1j])).max() < 1e-12

    def test_rx_half_pi_superposition(self):
        out = pauli_rotation("X", math.pi / 2) @ np.array([1, 0])
        want = np.array([1, -1j]) / math.sqrt(2)
        assert np.abs(out - want).max() < 1e-12

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli_rotation("W", 0.1)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_generator_consistency(self, axis):
        from scipy.linalg import expm

        theta = 0.83
        spec = GateSpec(f"R{axis}", theta, (0,))
        assert np.abs(spec.matrix() - expm(-1j * theta * spec.generator())).max() < 1e-12

    def test_xy_generator_consistency(self):
        from scipy.linalg import expm

        spec = GateSpec("XY", 1.1, (0, 1))
        assert np.abs(spec.matrix() - expm(-1j * 1.1 * spec.generator())).max() < 1e-12


class TestApplyTwoQubit:
    def _onehot(self, n, q):
        state = StateVector.vacuum(n)
        amps = np.zeros(2**n, dtype=complex)
        amps[1 << q] = 1.0
        state.amplitudes = amps
        return state

    def test_iswap_exchanges_with_phase(self):
        state = self._onehot(2, 1)  # |10> in (qa=1, qb=0) ordering
        apply_local(state.amplitudes, xy_gate(math.pi / 2), (1, 0))
        assert abs(state.amplitudes[0b01] - 1j) < 1e-12
        assert abs(state.amplitudes[0b10]) < 1e-12

    def test_sqrt_iswap_splits(self):
        state = self._onehot(2, 1)
        apply_local(state.amplitudes, xy_gate(math.pi / 4), (1, 0))
        assert abs(state.amplitudes[0b10] - 1 / math.sqrt(2)) < 1e-12
        assert abs(state.amplitudes[0b01] - 1j / math.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("theta", [0.4, 1.9])
    def test_corners_untouched(self, theta):
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = 0.6
        amps[0b11] = 0.8
        state = StateVector(2, amps.copy())
        apply_local(state.amplitudes, xy_gate(theta), (0, 1))
        assert abs(state.amplitudes[0b00] - 0.6) < 1e-12
        assert abs(state.amplitudes[0b11] - 0.8) < 1e-12

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_local(StateVector.vacuum(3).amplitudes, xy_gate(0.1), (1, 1))

    def test_general_matrix_matches_kron(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, amps.copy())
        apply_local(state.amplitudes, g, (2, 0))
        # dense reference: qubit 2 is the high bit of the gate index
        full = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                if (i >> 1) & 1 == (j >> 1) & 1:
                    full[i, j] = g[((i >> 2) & 1) * 2 + (i & 1),
                                   ((j >> 2) & 1) * 2 + (j & 1)]
        assert np.abs(state.amplitudes - full @ amps).max() < 1e-12


class TestStepOperator:
    def test_walk_on_8_cycle(self):
        op = build_step_operator(Lattice("cycle", 8), AngleSchedule(), "walk")
        assert len(op.layers) == 2
        for _tess, gates in op.layers:
            assert len(gates) == 4
            assert all(g.name == "XY" and g.theta == math.pi / 4 for g in gates)
        assert op.two_qubit_gate_count() == 8  # N gates per step on the cycle

    def test_search_marked_pairs_on_8_cycle(self):
        op = build_step_operator(Lattice("cycle", 8), AngleSchedule(marked=2), "search")
        by_pair = {}
        rz_targets = []
        for _tess, gates in op.layers:
            for g in gates:
                if g.name == "XY":
                    by_pair[g.targets] = g.theta
                else:
                    rz_targets.append(g.targets[0])
        assert by_pair[(2, 3)] == math.pi / 4
        assert by_pair[(1, 2)] == math.pi / 4
        for pair, theta in by_pair.items():
            if 2 not in pair:
                assert theta == math.pi / 2
        # every unmarked pair gets the RZ correction on both qubits
        assert sorted(rz_targets) == sorted(
            v for pair in by_pair for v in pair if 2 not in pair)

    def test_torus_walk_layer_shape(self):
        op = build_step_operator(Lattice("torus", 4), AngleSchedule(), "walk")
        assert len(op.layers) == 4
        for _tess, gates in op.layers:
            assert len(gates) == 8
        assert op.two_qubit_gate_count() == 32  # 2 N^2 on the torus

    def test_pure_function(self):
        a = build_step_operator(Lattice("cycle", 4), AngleSchedule(marked=1), "search")
        b = build_step_operator(Lattice("cycle", 4), AngleSchedule(marked=1), "search")
        assert a == b

    @pytest.mark.parametrize("build", [build_step_operator, sector_oracle],
                             ids=lambda f: f.__name__)
    def test_marked_out_of_range(self, build):
        with pytest.raises(ValueError):
            build(Lattice("cycle", 4), AngleSchedule(marked=5), "search")

    def test_search_needs_marked(self):
        with pytest.raises(ValueError):
            build_step_operator(Lattice("cycle", 4), AngleSchedule(), "search")

    def test_overrides_take_precedence(self):
        sched = AngleSchedule(overrides={(0, 1): 0.3})
        op = build_step_operator(Lattice("cycle", 4), sched, "walk")
        thetas = {g.targets: g.theta for _t, gates in op.layers for g in gates}
        assert thetas[(0, 1)] == 0.3
        assert thetas[(2, 3)] == math.pi / 4


def _random_sector_pair(n: int, seed: int):
    """A random normalised state on span{vacuum, one-hot}, as a dense
    StateVector and as the SectorVector holding the same amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amps /= np.linalg.norm(amps)
    dense = np.zeros(2**n, dtype=complex)
    dense[sector_basis(n)] = amps
    return StateVector(n, dense), SectorVector(n, amps)


class TestSectorKernel:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([("cycle", 4), ("cycle", 6), ("cycle", 8),
                               ("cycle", 10), ("torus", 4)]),
        variant=st.sampled_from(["walk", "search"]),
        marked=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        data=st.data(),
    )
    def test_matches_dense_reference(self, shape, variant, marked, seed, steps, data):
        lat = Lattice(*shape)
        V = lat.vertex_count
        pairs = [p for tess in tessellations_for(lat) for p in tess.pairs]
        overrides = data.draw(st.dictionaries(
            st.sampled_from(pairs), st.floats(-math.pi, math.pi), max_size=4))
        schedule = AngleSchedule(overrides=overrides,
                                 marked=marked % V if variant == "search" else None)
        op = build_step_operator(lat, schedule, variant)
        dense, sector = _random_sector_pair(V, seed)
        keep = sector_basis(V)
        for _ in range(steps):
            assert op.apply(sector) is sector
            apply_step(op, dense)
            assert np.abs(sector.amplitudes - dense.amplitudes[keep]).max() < 1e-12

    def test_gate_order_within_a_layer_is_kept(self):
        # an RZ before an XY on the same qubit, and two XY gates sharing
        # qubit 1, in one layer
        gates = (GateSpec("RZ", 0.3, (0,)), GateSpec("XY", 0.7, (0, 1)),
                 GateSpec("XY", 0.4, (1, 2)), GateSpec("RZ", 1.1, (2,)),
                 GateSpec("RZ", -0.5, (2,)))
        op = StepOperator(((Tessellation("mixed", ((0, 1), (1, 2))), gates),), 3)
        dense, sector = _random_sector_pair(3, 11)
        apply_step(op, dense)
        op.apply(sector)
        assert [len(stages) for stages in op.sector_stages] == [3]
        assert np.abs(sector.amplitudes - dense.amplitudes[sector_basis(3)]).max() < 1e-14

    def test_rx_step_raises(self):
        tess = Tessellation("only", ((0, 1),))
        op = StepOperator(((tess, (GateSpec("XY", math.pi / 4, (0, 1)),
                                   GateSpec("RX", math.pi / 2, (2,)))),), 3)
        with pytest.raises(ValueError, match="RX"):
            op.apply(SectorVector.vacuum(3))

    def test_register_size_mismatch_raises(self):
        op = build_step_operator(Lattice("cycle", 4), AngleSchedule(), "walk")
        with pytest.raises(ValueError, match="qubits"):
            op.apply(SectorVector.vacuum(6))


_BAD_GATE_INPUTS = {
    "rotation_angle": (lambda: pauli_rotation("X", math.inf), "angle must be finite"),
    "unknown_gate": (lambda: GateSpec("CZ", 0.0, (0, 1)), "unknown gate 'CZ'"),
    "target_count": (lambda: GateSpec("XY", 0.1, (0,)), r"XY expects 2 target\(s\)"),
    "repeated_target": (lambda: GateSpec("XY", 0.1, (1, 1)), "targets must be distinct"),
    "gate_angle": (lambda: GateSpec("RZ", math.nan, (0,)), "angle must be finite"),
    "qubit_out_of_range": (lambda: lower_to_sector([GateSpec("XY", 0.1, (0, 4))], 4),
                           r"qubits \(0, 4\) out of range for 4 qubits"),
    "unknown_variant": (lambda: build_step_operator(Lattice("cycle", 4), AngleSchedule(), "hop"),
                        "unknown variant 'hop'"),
}


@pytest.mark.parametrize("case", _BAD_GATE_INPUTS)
def test_bad_input_rejected(case):
    call, match = _BAD_GATE_INPUTS[case]
    with pytest.raises(ValueError, match=match):
        call()
