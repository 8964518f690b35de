import math

import numpy as np
import pytest

from qcawalk import (
    LEAKAGE,
    AngleSchedule,
    Distribution,
    GateSpec,
    Lattice,
    StateVector,
    build_step_operator,
    qw_init,
    sample_counts,
    sector_basis,
    sector_project,
)
from qcawalk.gates import apply_gate
from qcawalk.states import vertex_distribution


class TestOnehotIndex:
    # the one map from vertices to one-hot basis indices: sector_basis[v + 1]
    def test_single_bit_positions(self):
        assert sector_basis(4)[1] == 0b0001
        assert sector_basis(4)[4] == 0b1000

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_roundtrip_bijection(self, n):
        seen = set()
        for v, idx in enumerate(sector_basis(n)[1:].tolist()):
            assert bin(idx).count("1") == 1
            assert idx.bit_length() - 1 == v
            seen.add(idx)
        assert len(seen) == n


class TestSectorProject:
    def test_onehot_basis_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[sector_basis(4)[3]] = 1.0
        sec = sector_project(StateVector(4, amps), 4)
        assert np.allclose(sec.amplitudes, [0, 0, 1, 0])
        assert sec.leakage_norm == 0

    def test_vacuum_is_pure_leakage(self):
        sec = sector_project(StateVector.vacuum(4), 4)
        assert np.allclose(sec.amplitudes, 0)
        assert sec.leakage_norm == pytest.approx(1.0)

    def test_ideal_walk_conserves_sector(self):
        # XY gates conserve excitation number, so three walk steps keep
        # the state in the sector
        lat = Lattice("cycle", 4)
        state = qw_init(lat, 0)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        for _ in range(3):
            op.apply(state)
        sec = sector_project(state, 4)
        assert sec.leakage_norm < 1e-12

    def test_norm_split_invariant(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        sec = sector_project(StateVector(5, amps), 5)
        total = float(np.sum(np.abs(sec.amplitudes) ** 2)) + sec.leakage_norm
        assert total == pytest.approx(1.0, abs=1e-10)


class TestSampleCounts:
    def test_point_mass(self):
        dist = Distribution([0.0, 1.0, 0.0])
        emp = sample_counts(dist, 100, 3)
        assert emp.counts[1] == 100
        assert emp.counts.sum() == 100

    def test_uniform_concentration(self):
        shots = 10**6
        emp = sample_counts(Distribution([0.25] * 4 + [0.0]), shots, 123)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for v in range(4):
            assert abs(emp.counts[v] - shots * 0.25) < 5 * sigma

    def test_seed_reproducibility(self):
        dist = Distribution([0.3, 0.5, 0.2, 0.0])
        a = sample_counts(dist, 5000, 42)
        b = sample_counts(dist, 5000, 42)
        assert np.array_equal(a.counts, b.counts)
        c = sample_counts(dist, 5000, 43)
        assert not np.array_equal(c.counts, a.counts)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(Distribution([1.0, 0.0]), 0, 1)

    def test_negative_residue_clamped(self):
        emp = sample_counts(Distribution([1.0 + 5e-16, -5e-16]), 50, 0)
        assert emp.counts[0] == 50

    def test_category_order_golden(self):
        # counts recorded before Distribution became an array: the draw sees
        # the categories as vertices 0..V-1, then leakage
        dist = Distribution([0.1, 0.2, 0.3, 0.15, 0.25])
        emp = sample_counts(dist, 1000, 2024)
        assert emp.counts.tolist() == [96, 194, 302, 161, 247]
        assert emp.get(LEAKAGE) == 0.247
        emp = sample_counts(dist, 1000, np.random.SeedSequence([2024, 0, 3]))
        assert emp.counts.tolist() == [102, 192, 292, 148, 266]


class TestDistribution:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_counts_must_match_shots(self):
        with pytest.raises(ValueError):
            Distribution([1.0, 0.0], shots=10, counts=[9, 0])

    def test_counts_must_match_outcomes(self):
        with pytest.raises(ValueError, match="shape"):
            Distribution([1.0, 0.0], shots=10, counts=[10])

    def test_leakage_is_plain_outcome(self):
        d = Distribution([0.75, 0.25])
        assert d.get(LEAKAGE) == 0.25
        assert d.get(0) == 0.75

    @pytest.mark.parametrize("label", [4, -1, "foo", True, 1.0],
                             ids=["vertex_V", "minus_one", "foo", "bool", "float"])
    def test_get_rejects_unknown_outcome(self, label):
        # a 4-vertex distribution: vertices 0..3, leakage at index 4; a
        # negative label must not wrap round to leakage
        d = Distribution([0.1, 0.2, 0.3, 0.15, 0.25])
        with pytest.raises(ValueError, match="no outcome"):
            d.get(label)


class TestVertexDistribution:
    def test_negative_residue_clamped(self):
        d = vertex_distribution(np.array([0.5, -1e-17, 0.5]), -1e-17)
        assert d.probs.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_small_norm_defect_kept_without_rescaling(self):
        d = vertex_distribution(np.array([0.25, 0.75 - 1e-12]), 0.0)
        assert d.get(1) == 0.75 - 1e-12
        assert d.probs.sum() == pytest.approx(1 - 1e-12, abs=1e-16)

    def test_lost_norm_rejected(self):
        # a state that lost 10% of its norm is an error, not divided away
        with pytest.raises(ValueError, match="sum to"):
            vertex_distribution(np.array([0.4, 0.4]), 0.1)


class TestNormPreservation:
    def test_thousand_random_gates(self):
        rng = np.random.default_rng(17)
        n = 6
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        for _ in range(1000):
            kind = rng.choice(["XY", "RX", "RZ"])
            theta = float(rng.uniform(-math.pi, math.pi))
            if kind == "XY":
                qa, qb = map(int, rng.choice(n, size=2, replace=False))
                apply_gate(state, GateSpec("XY", theta, (qa, qb)))
            else:
                apply_gate(state, GateSpec(kind, theta, (int(rng.integers(n)),)))
        assert abs(state.norm() - 1.0) < 1e-10

    def test_sector_conserved_for_any_angles(self):
        # any per-pair angle choice is excitation-conserving
        rng = np.random.default_rng(3)
        lat = Lattice("cycle", 8)
        sched = AngleSchedule(default=0.0)
        from qcawalk import tessellations_for

        for tess in tessellations_for(lat):
            for pair in tess.pairs:
                sched.overrides[pair] = float(rng.uniform(-math.pi, math.pi))
        op = build_step_operator(lat, sched, "walk")
        state = qw_init(lat, 2, symmetric=True)
        for _ in range(10):
            op.apply(state)
        assert sector_project(state, 8).leakage_norm < 1e-12
