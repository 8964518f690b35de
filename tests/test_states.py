import math

import numpy as np
import pytest

from qcawalk import (
    LEAKAGE,
    AngleSchedule,
    Distribution,
    GateSpec,
    Lattice,
    build_step_operator,
    sample_counts,
    sector_basis,
)
from qcawalk.reference import (
    DensityMatrix,
    StateVector,
    apply_gate,
    apply_step,
    qw_init,
    sector_project,
)
from qcawalk import states
from qcawalk.states import SHOT_STREAM, SectorDensity, SectorVector, vertex_distribution


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
            apply_step(op, state)
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

    @pytest.mark.parametrize("shots,counts,match", [
        (1, [0.5, 0.5], "counts must be non-negative integers"),
        (2, [-1, 3], "counts must be non-negative integers"),
        (2, [True, True], "counts must be non-negative integers"),
        (True, [1, 0], "shots must be an integer"),
        (2.0, [2, 0], "shots must be an integer"),
        (0, [0, 0], "shots must be >= 1"),
    ], ids=["fractional_counts", "negative_count", "bool_counts", "bool_shots",
            "float_shots", "zero_shots"])
    def test_bad_counts_or_shots_rejected(self, shots, counts, match):
        with pytest.raises(ValueError, match=match):
            Distribution([0.5, 0.5], shots=shots, counts=counts)

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


class TestPerStepDistribution:
    """A leading step axis: every check holds per row and names the row."""

    RUN = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]

    def test_rows_and_labels(self):
        d = Distribution(self.RUN)
        assert len(d) == 2
        assert d.get(0).tolist() == [0.5, 0.25]
        assert d.get(LEAKAGE).tolist() == [0.0, 0.5]
        assert d[1].probs.tolist() == self.RUN[1] and d[-1].get(LEAKAGE) == 0.5
        assert [row.get(1) for row in d] == [0.5, 0.25]

    def test_row_keeps_counts(self):
        d = Distribution([[1.0, 0.0], [0.5, 0.5]], shots=4, counts=[[4, 0], [2, 2]])
        assert d[1].shots == 4 and d[1].counts.tolist() == [2, 2]

    def test_single_step_has_no_step_axis(self):
        d = Distribution(self.RUN[0])
        assert d.get(0) == 0.5 and type(d.get(0)) is float
        with pytest.raises(TypeError):
            len(d)
        with pytest.raises(TypeError):
            d[0]

    @pytest.mark.parametrize("probs", [np.empty((0, 3)), np.empty(0), np.ones((1, 1, 1))],
                             ids=["zero_rows", "zero_outcomes", "three_axes"])
    def test_no_steps_or_bad_rank_rejected(self, probs):
        with pytest.raises(ValueError, match="shape"):
            Distribution(probs)

    @pytest.mark.parametrize("row,match", [
        ([0.5, 0.4, 0.0], "probabilities at step 2 sum to"),
        ([1.5, -0.5, 0.0], "outcome 0 at step 2 out of"),
    ], ids=["sum", "range"])
    def test_bad_row_names_its_step(self, row, match):
        with pytest.raises(ValueError, match=match):
            Distribution(self.RUN + [row])

    def test_bad_count_row_names_its_step(self):
        with pytest.raises(ValueError, match="counts at step 1 do not sum"):
            Distribution(self.RUN, shots=4, counts=[[2, 2, 0], [1, 1, 1]])
        with pytest.raises(ValueError, match="shape"):
            Distribution(self.RUN, shots=4, counts=[2, 2, 0])

    def test_vertex_distribution_broadcasts(self):
        vertex = np.array([[0.5, 0.5], [0.25, -1e-17]])
        leakage = np.array([-1e-17, 0.75])
        d = vertex_distribution(vertex, leakage)
        assert d.probs.tolist() == [[0.5, 0.5, 0.0], [0.25, 0.0, 0.75]]
        for t in range(2):
            assert np.array_equal(vertex_distribution(vertex[t], leakage[t]).probs, d.probs[t])

    def test_sampling_draws_each_step_from_its_child_seed(self):
        emp = sample_counts(Distribution(self.RUN), 10, 5)
        assert emp.counts.shape == (2, 3) and emp.shots == 10
        for t in range(2):
            want = sample_counts(Distribution(self.RUN[t]), 10,
                                 np.random.SeedSequence([5, SHOT_STREAM, t]))
            assert np.array_equal(emp.counts[t], want.counts)
        with pytest.raises(ValueError, match="seed"):
            sample_counts(Distribution(self.RUN), 10, np.random.SeedSequence(5))


class TestMixedStateShape:
    @pytest.mark.parametrize("cls,dim", [(DensityMatrix, 8), (SectorDensity, 4)])
    def test_dimension_checked(self, cls, dim):
        assert cls(3, np.eye(dim)).entries.shape == (dim, dim)
        with pytest.raises(ValueError, match=f"{cls.__name__} has shape"):
            cls(3, np.eye(dim + 1))


class TestRegisterSize:
    @pytest.mark.parametrize("cls", [SectorVector, SectorDensity, StateVector, DensityMatrix])
    @pytest.mark.parametrize("n,message", [(-1, "must be >= 0"), (2.5, "must be an integer"),
                                           (True, "must be an integer")])
    def test_register_size_checked(self, cls, n, message):
        with pytest.raises(ValueError, match=f"n_qubits {message}"):
            cls(n, np.zeros(0))
        if hasattr(cls, "vacuum"):
            with pytest.raises(ValueError, match=f"n_qubits {message}"):
                cls.vacuum(n)

    def test_empty_register_is_the_vacuum(self):
        assert SectorVector.vacuum(0).amplitudes.tolist() == [1.0]
        assert sector_project(StateVector.vacuum(0), 0).leakage_norm == 1.0

    @pytest.mark.parametrize("count,message", [(-1, "must be >= 0"), (5, "must be <= 4"),
                                               (2.0, "must be an integer")])
    def test_reference_vertex_count_checked(self, count, message):
        with pytest.raises(ValueError, match=f"vertex_count {message}"):
            sector_project(StateVector.vacuum(4), count)

    def test_sector_readout_takes_the_state_only(self):
        # the sector's weights, vacuum (the leakage) first, as a density's diagonal
        state = SectorVector(3, np.array([0.6, 0, 0.8j, 0]))
        assert states.sector_project(state).tolist() == pytest.approx([0.36, 0, 0.64, 0])
        with pytest.raises(TypeError):
            states.sector_project(state, 3)


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
            apply_step(op, state)
        assert sector_project(state, 8).leakage_norm < 1e-12


def _massless_distribution():
    # a Distribution checks its rows on construction; the sampler's own
    # check guards one whose probabilities were replaced afterwards
    dist = Distribution([1.0, 0.0])
    dist.probs = np.zeros(2)
    return dist


_BAD_STATE_INPUTS = {
    "amplitude_shape": (lambda: SectorVector(4, np.zeros(4)),
                        r"shape \(4,\), expected \(5,\) for 4 qubits"),
    "counts_without_shots": (lambda: Distribution([0.5, 0.5], counts=[1, 1]),
                             "counts given without shots"),
    "no_positive_mass": (lambda: sample_counts(_massless_distribution(), 10, 0),
                         "no positive probability mass"),
}


@pytest.mark.parametrize("case", _BAD_STATE_INPUTS)
def test_bad_input_rejected(case):
    call, match = _BAD_STATE_INPUTS[case]
    with pytest.raises(ValueError, match=match):
        call()
