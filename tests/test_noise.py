import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcawalk import (
    AngleSchedule,
    DensityMatrix,
    GateChannel,
    GateSpec,
    InitSpec,
    Lattice,
    NoiseModel,
    SectorDensity,
    SectorVector,
    WalkBackend,
    WalkConfig,
    average_gate_fidelity,
    build_step_operator,
    calibrate_rates,
    evolve_density,
    hellinger_fidelity,
    idle_channel,
    l1_distance,
    lindblad_rhs,
    noisy_gate_channel,
    qw_init,
    run_walk,
    search_initializer,
    sector_basis,
    trajectory_run,
)
from qcawalk.noise import (
    _CALIBRATION_GATES,
    DEFAULT_COUPLING,
    _fidelity_evaluator,
    _jump_operators,
    _liouvillian,
    _sector_lowering,
)
from qcawalk.states import vertex_distribution
from qcawalk.walks import initial_state

RATES = NoiseModel(relaxation_rate=3e4, dephasing_rate=2e3)


def _dense_vertex_distribution(rho: DensityMatrix, V: int):
    """The dense reference read at the one-hot indices; the rest is leakage."""
    diag = rho.diagonal_probabilities()
    vertex = diag[np.left_shift(1, np.arange(V))]
    return vertex_distribution(vertex, diag.sum() - vertex.sum())


class TestLindbladRhs:
    def test_ground_state_fixed_point(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_rhs(rho, np.zeros((2, 2)), RATES)
        assert np.abs(out).max() < 1e-15

    def test_excited_state_relaxes(self):
        model = NoiseModel(relaxation_rate=3e4, dephasing_rate=0.0)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = lindblad_rhs(rho, np.zeros((2, 2)), model)
        want = 3e4 * np.diag([1.0, -1.0])
        assert np.abs(out - want).max() < 1e-9

    def test_traceless_on_random_state(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        h = rng.normal(size=(8, 8))
        h = (h + h.T) / 2
        out = lindblad_rhs(rho, h, RATES)
        assert abs(np.trace(out)) < 1e-9

    def test_matches_liouvillian(self):
        # dual route: the dense formula agrees with the superoperator
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        h = rng.normal(size=(4, 4))
        h = (h + h.T) / 2
        jumps = _jump_operators(2, RATES.relaxation_rate, RATES.dephasing_rate)
        lvec = _liouvillian(h.astype(complex), jumps) @ rho.reshape(-1, order="F")
        direct = lindblad_rhs(rho, h, RATES)
        assert np.abs(lvec.reshape(4, 4, order="F") - direct).max() < 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.zeros((2, 3)), np.zeros((2, 2)), RATES)


class TestNoisyGateChannel:
    def test_noiseless_limit_is_ideal_conjugation(self):
        ch = noisy_gate_channel(GateSpec("XY", math.pi / 4, (0, 1)), NoiseModel())
        assert len(ch.kraus) == 1
        assert np.abs(ch.kraus[0] - ch.ideal).max() < 1e-12
        assert average_gate_fidelity(ch) == pytest.approx(1.0, abs=1e-10)

    def test_relaxation_closed_form(self):
        # identity gate of duration t: |1> population decays as exp(-K t)
        model = NoiseModel(relaxation_rate=3e4, dephasing_rate=0.0)
        t = 2e-6
        ch = idle_channel(t, model)
        out = ch.apply(np.diag([0.0, 1.0]).astype(complex))
        assert out[1, 1].real == pytest.approx(math.exp(-3e4 * t), abs=1e-12)

    def test_dephasing_closed_form(self):
        # pure dephasing scales |+><+| coherence by exp(-2 delta t); the
        # exponent is pinned by the superoperator integration itself
        model = NoiseModel(relaxation_rate=0.0, dephasing_rate=5e4)
        t = 3e-6
        ch = idle_channel(t, model)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = ch.apply(plus)
        assert out[0, 1].real == pytest.approx(math.exp(-2 * 5e4 * t) / 2, abs=1e-12)
        assert out[0, 0].real == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        GateSpec("XY", math.pi / 4, (0, 1)),
        GateSpec("XY", math.pi / 2, (0, 1)),
        GateSpec("RX", math.pi / 2, (0,)),
        GateSpec("RY", 1.1, (0,)),
    ])
    def test_cptp(self, spec):
        ch = noisy_gate_channel(spec, RATES)
        assert ch.trace_defect() < 1e-10
        assert ch.choi_min_eigenvalue() > -1e-9

    def test_rz_stays_noiseless(self):
        ch = noisy_gate_channel(GateSpec("RZ", -math.pi / 2, (0,)), RATES)
        assert len(ch.kraus) == 1
        assert np.abs(ch.kraus[0] - ch.ideal).max() < 1e-15

    def test_zero_angle_xy_is_identity(self):
        # XY(0) takes no time, so even under noise it is its ideal unitary
        ch = noisy_gate_channel(GateSpec("XY", 0.0, (0, 1)), RATES)
        assert len(ch.kraus) == 1
        assert np.array_equal(ch.kraus[0], np.eye(4))

    def test_zero_angle_step_runs_on_every_backend(self):
        # a step of XY(0) gates takes no time, so no backend changes the state
        op = build_step_operator(Lattice("cycle", 4), AngleSchedule(default=0.0), "walk")
        init = SectorVector(4, np.array([0, 1, 1j, 0, 0]) / math.sqrt(2))
        rho = SectorDensity.from_statevector(init)
        assert np.abs(evolve_density(rho, op, RATES).entries - rho.entries).max() < 1e-15
        for dist in trajectory_run(init, op, RATES, n_traj=4, seed=0, steps=2):
            assert dist.get(0) == pytest.approx(0.5, abs=1e-15)
            assert dist.get(1) == pytest.approx(0.5, abs=1e-15)

    def test_longer_gate_is_noisier(self):
        rx = GateSpec("RX", math.pi / 2, (0,))
        long = noisy_gate_channel(rx, replace(RATES, single_qubit_duration=1e-5))
        short = noisy_gate_channel(rx, replace(RATES, single_qubit_duration=1e-8))
        assert average_gate_fidelity(long) < average_gate_fidelity(short)


class TestEvolveDensity:
    def test_trace_and_positivity_preserved(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        rho = DensityMatrix.from_statevector(qw_init(lat, 0, symmetric=True))
        for _ in range(25):
            rho = evolve_density(rho, op, calibrated_noise)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)
        assert rho.hermiticity_defect() < 1e-10
        assert rho.min_eigenvalue() > -1e-9

    def test_fidelity_degrades_monotonically(self, calibrated_noise):
        # 8-cycle, 20 steps: the smoothed noisy-vs-ideal fidelity never rises
        lat = Lattice("cycle", 8)
        ideal = run_walk(WalkConfig(lat, steps=20, init=InitSpec("symmetric", 3), seed=1))
        noisy = run_walk(WalkConfig(lat, steps=20, init=InitSpec("symmetric", 3), seed=1,
                                    backend=WalkBackend("density")),
                         noise=calibrated_noise)
        fids = [hellinger_fidelity(i, n) for i, n in zip(ideal.exact, noisy.exact)]
        smooth = np.convolve(fids, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-12)
        assert fids[-1] < fids[0]

    def test_idle_decay_applies_to_ungated_qubits(self):
        # a single-pair step on a 3-qubit register leaves qubit 2 idle
        model = NoiseModel(relaxation_rate=5e4, dephasing_rate=0.0)
        from qcawalk.gates import StepOperator
        from qcawalk.lattice import Tessellation

        tess = Tessellation("only", ((0, 1),))
        op = StepOperator(((tess, (GateSpec("XY", math.pi / 2, (0, 1)),)),), 3)
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = 1.0  # excitation on the idle qubit
        from qcawalk import StateVector

        rho = DensityMatrix.from_statevector(StateVector(3, amps))
        out = evolve_density(rho, op, model)
        t_gate = (math.pi / 2) / model.coupling
        survived = out.entries[0b100, 0b100].real
        assert survived == pytest.approx(math.exp(-5e4 * t_gate), rel=1e-9)
        # and switching idle decay off leaves the idle qubit untouched
        out2 = evolve_density(rho, op, replace(model, idle_decay=False))
        assert out2.entries[0b100, 0b100].real == pytest.approx(1.0, abs=1e-12)


class TestSectorDensity:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        N=st.sampled_from([4, 6, 8]),
        variant=st.sampled_from(["walk", "search"]),
        init_kind=st.sampled_from(["single", "symmetric", "search_uniform"]),
        site=st.integers(0, 7),
        marked=st.integers(0, 7),
        K=st.floats(0.0, 1e5),
        delta=st.floats(0.0, 1e5),
        idle_decay=st.booleans(),
        steps=st.integers(1, 4),
    )
    def test_matches_dense_reference(self, N, variant, init_kind, site, marked,
                                     K, delta, idle_decay, steps):
        lat = Lattice("cycle", N)
        marked = marked % N if variant == "search" else None
        cfg = WalkConfig(lat, steps=steps, init=InitSpec(init_kind, site % N),
                         marked=marked)
        op = build_step_operator(lat, AngleSchedule(marked=marked), variant)
        model = NoiseModel(relaxation_rate=K, dephasing_rate=delta, idle_decay=idle_decay)
        init = initial_state(cfg)
        sector = SectorDensity.from_statevector(init)
        dense = DensityMatrix.from_statevector(init)
        keep = sector_basis(N)
        outside = np.ones(2**N, dtype=bool)
        outside[keep] = False
        for _ in range(steps):
            sector = evolve_density(sector, op, model)
            dense = evolve_density(dense, op, model)
            assert np.abs(sector.entries - dense.entries[np.ix_(keep, keep)]).max() < 1e-12
            assert dense.diagonal_probabilities()[outside].sum() <= 1e-12
            assert sector.trace() == pytest.approx(1.0, abs=1e-12)
            assert sector.hermiticity_defect() < 1e-12
            assert sector.min_eigenvalue() >= -1e-12

    def test_gate_leaves_untouched_entries_bit_identical(self, calibrated_noise):
        # XY on qubits (0, 1) touches sector indices {0, 1, 2}; the block on
        # the other indices is left alone, not rescaled by a rounded 1
        from qcawalk.gates import StepOperator
        from qcawalk.lattice import Tessellation

        rng = np.random.default_rng(0)
        amps = rng.normal(size=7) + 1j * rng.normal(size=7)
        rho = SectorDensity.from_statevector(SectorVector(6, amps / np.linalg.norm(amps)))
        tess = Tessellation("only", ((0, 1),))
        op = StepOperator(((tess, (GateSpec("XY", math.pi / 4, (0, 1)),)),), 6)
        out = evolve_density(rho, op, replace(calibrated_noise, idle_decay=False))
        rest = np.ix_(range(3, 7), range(3, 7))
        assert np.array_equal(out.entries[rest], rho.entries[rest])
        assert not np.array_equal(out.entries[:3, :3], rho.entries[:3, :3])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        channel=st.sampled_from(["sqrt_iswap", "iswap", "idle_gap"]),
        K=st.floats(0.0, 1e6),
        delta=st.floats(0.0, 1e6),
    )
    def test_untouched_scalar_is_one(self, channel, K, delta):
        # sum |k00_m|^2 = <00| sum K_m^dag K_m |00> = 1 by trace preservation,
        # which is why evolve_density leaves the untouched block alone
        model = NoiseModel(relaxation_rate=K, dephasing_rate=delta)
        if channel == "idle_gap":
            ch = idle_channel((math.pi / 4) / model.coupling, model)
        else:
            ch = noisy_gate_channel({
                "sqrt_iswap": GateSpec("XY", math.pi / 4, (0, 1)),
                "iswap": GateSpec("XY", math.pi / 2, (0, 1)),
            }[channel], model)
        blocks = _sector_lowering(ch.kraus)[0]
        assert abs(np.sum(np.abs(blocks[:, 0, 0]) ** 2) - 1.0) <= 1e-12

    def test_rx_step_raises(self):
        from qcawalk.gates import StepOperator
        from qcawalk.lattice import Tessellation

        tess = Tessellation("only", ((0, 1),))
        op = StepOperator(((tess, (GateSpec("XY", math.pi / 4, (0, 1)),
                                   GateSpec("RX", math.pi / 2, (2,)))),), 3)
        rho = SectorDensity(3, np.diag([0, 1, 0, 0]).astype(complex))
        with pytest.raises(ValueError, match="RX"):
            evolve_density(rho, op, RATES)

    def test_out_of_sector_state_rejected(self):
        from qcawalk import StateVector

        amps = np.zeros(16, dtype=complex)
        amps[0b0011] = 1.0
        # both restrictions share SectorVector.from_statevector
        for restrict in (SectorVector.from_statevector, SectorDensity.from_statevector):
            with pytest.raises(ValueError, match="outside"):
                restrict(StateVector(4, amps))


class TestTrajectories:
    def test_noiseless_equals_statevector(self):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = qw_init(lat, 0)
        dists = trajectory_run(init, op, NoiseModel(), n_traj=3, seed=0, steps=4)
        sv = run_walk(WalkConfig(lat, steps=4, init=InitSpec("single", 0), seed=0))
        for d_tr, d_sv in zip(dists, sv.exact):
            assert l1_distance(d_tr, d_sv) < 1e-12

    def test_matches_density_backend(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = qw_init(lat, 0)
        rho = DensityMatrix.from_statevector(init)
        for _ in range(5):
            rho = evolve_density(rho, op, calibrated_noise)
        dist_rho = _dense_vertex_distribution(rho, 4)
        dist_tr = trajectory_run(init, op, calibrated_noise, n_traj=4000, seed=5, steps=5)[-1]
        assert l1_distance(dist_rho, dist_tr) < 0.05

    def test_more_trajectories_reduce_error(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = qw_init(lat, 0)
        rho = DensityMatrix.from_statevector(init)
        for _ in range(3):
            rho = evolve_density(rho, op, calibrated_noise)
        oracle = _dense_vertex_distribution(rho, 4)
        errs = {n: [] for n in (250, 500)}
        for seed in range(5):
            for n in errs:
                d = trajectory_run(init, op, calibrated_noise, n_traj=n,
                                   seed=seed, steps=3)[-1]
                errs[n].append(l1_distance(oracle, d))
        assert np.mean(errs[500]) < np.mean(errs[250])

    def test_out_of_sector_state_rejected(self):
        # two excitations: trajectories have no engine outside the sector
        from qcawalk import StateVector

        op = build_step_operator(Lattice("cycle", 4), AngleSchedule(), "walk")
        amps = np.zeros(16, dtype=complex)
        amps[0b0011] = 1.0
        with pytest.raises(ValueError, match="outside"):
            trajectory_run(StateVector(4, amps), op, RATES, n_traj=2, seed=1, steps=2)

    @pytest.mark.parametrize("state_n,cycle_n", [(8, 4), (4, 8)])
    def test_register_size_mismatch_raises(self, state_n, cycle_n):
        op = build_step_operator(Lattice("cycle", cycle_n), AngleSchedule(), "walk")
        with pytest.raises(ValueError, match=f"state has {state_n} qubits, "
                                             f"step operator {cycle_n}"):
            trajectory_run(SectorVector.vacuum(state_n), op, RATES, n_traj=2, seed=1)

    def test_deterministic_under_seed(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = qw_init(lat, 0)
        a = trajectory_run(init, op, calibrated_noise, n_traj=300, seed=21, steps=3)[-1]
        b = trajectory_run(init, op, calibrated_noise, n_traj=300, seed=21, steps=3)[-1]
        assert np.array_equal(a.probs, b.probs)


# Per-step (vertex 0..V-1, leakage) means of trajectory_run under RATES,
# search variant, exact uniform init, seed 3.  Every trajectory jump moves
# a probability by at least 1/n_traj, so a change in any branch choice or
# in the RNG draw order breaks these pins by far more than 1e-12.
GOLDEN_CYCLE4 = [  # 4-cycle, marked 2, n_traj=200, 4 steps
    (0.25, 0.25, 0.25, 0.25, 0.0),
    (0.24999999943730042, 0.07322331036694163, 0.4267767292669748,
     0.24999996092878315, 1.7573397503444657e-31),
    (0.036611659727499815, 0.2316941880751234, 0.6584708600685573,
     0.07322329212881937, 5.024433413035148e-31),
    (0.25157040353647353, 0.25836775174130094, 0.25836770208213156,
     0.2316941426400941, 7.233054425054493e-31),
    (0.24757807745873636, 0.23684714297288467, 0.25349890705132166,
     0.25707587251705744, 0.005000000000000011),
]
GOLDEN_TORUS4 = [  # 4x4 torus, marked 3, n_traj=64, 2 steps
    (0.0625,) * 16 + (0.0,),
    (0.06152343130996899, 0.06152343124073084, 0.06152343124073085,
     0.20554925359356588, 0.06152343133864832, 0.061523431379207065,
     0.06152343124073091, 0.061523431240730904, 0.018019799863262652,
     0.06152344057896059, 0.06152343137920715, 0.061523431338648564,
     0.009009903345452434, 0.061523431379207065, 0.061523431240730925,
     0.013514858290216768, 0.015624999999999993),
    (0.060546856740212235, 0.06054685669152877, 0.017733767460796447,
     0.2675833657986012, 0.06054685652289312, 0.013300333906251162,
     0.008866887047694776, 0.0605468567913163, 0.03046362025373126,
     0.021786894613895772, 0.0605468566209685, 0.06054685647471154,
     0.03793690268737549, 0.06054685648469029, 0.060546856643347156,
     0.08670337526198599, 0.03125000000000001),
]


class TestTrajectoryGolden:
    @pytest.mark.parametrize("kind,marked,n_traj,golden", [
        ("cycle", 2, 200, GOLDEN_CYCLE4),
        ("torus", 3, 64, GOLDEN_TORUS4),
    ])
    def test_pinned_per_step_outputs(self, kind, marked, n_traj, golden):
        lat = Lattice(kind, 4)
        op = build_step_operator(lat, AngleSchedule(marked=marked), "search")
        init = search_initializer(lat, "exact")
        dists = trajectory_run(init, op, RATES, n_traj=n_traj, seed=3,
                               steps=len(golden) - 1)
        V = lat.vertex_count
        got = np.array([[d.get(v) for v in range(V)] + [d.get("leakage")]
                        for d in dists])
        assert np.abs(got - np.array(golden)).max() < 1e-12


class TestTrajectorySectorStart:
    """run_walk starts trajectories from the SectorVector prepared in the
    sector; the RNG draws are the ones a dense initial state gives."""

    @pytest.mark.parametrize("N,init,marked", [(4, "search_uniform", 2),
                                               (8, "symmetric", None)])
    def test_run_walk_matches_dense_start(self, N, init, marked):
        lat = Lattice("cycle", N)
        cfg = WalkConfig(lat, steps=4, init=InitSpec(init, 1), marked=marked, seed=3,
                         backend=WalkBackend("trajectories", 200))
        res = run_walk(cfg, noise=RATES)
        op = build_step_operator(lat, AngleSchedule(marked=marked), cfg.variant)
        ref = trajectory_run(initial_state(cfg), op, RATES, n_traj=200, seed=3, steps=cfg.steps)
        labels = list(range(N)) + ["leakage"]
        got = np.array([[d.get(k) for k in labels] for d in res.exact])
        want = np.array([[d.get(k) for k in labels] for d in ref])
        assert np.abs(got - want).max() < 1e-12
        assert want[1:, -1].max() > 0  # some trajectories did jump

    def test_sector_vector_rejects_foreign_gates(self):
        from qcawalk.gates import StepOperator
        from qcawalk.lattice import Tessellation

        op = StepOperator(((Tessellation("only", ((0, 1),)),
                            (GateSpec("RX", math.pi / 2, (0,)),)),), 2)
        with pytest.raises(ValueError, match="RX"):
            trajectory_run(SectorVector.vacuum(2), op, RATES, n_traj=2, seed=0)


class TestTrajectoryExactReference:
    """Trajectory means against the exact sector density, step by step.

    A trajectory's probability of any one outcome lies in [0, 1], so its
    variance is at most p (1 - p) for mean p; every vertex and the leakage
    must sit within 5 standard errors of the density value."""

    @pytest.mark.parametrize("kind,N,init,marked", [
        ("cycle", 4, "search_uniform", 2),
        ("cycle", 8, "symmetric", None),
        ("torus", 4, "search_uniform", 3),
    ], ids=["cycle4_search", "cycle8_walk", "torus4_search"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_within_five_standard_errors(self, kind, N, init, marked, seed):
        n_traj = 2000
        lat = Lattice(kind, N)

        def run(backend):
            cfg = WalkConfig(lat, steps=6, init=InitSpec(init, 1), marked=marked,
                             seed=seed, backend=backend)
            labels = list(range(lat.vertex_count)) + ["leakage"]
            return np.array([[d.get(k) for k in labels]
                             for d in run_walk(cfg, noise=RATES).exact])

        exact = run(WalkBackend("density"))
        sampled = run(WalkBackend("trajectories", n_traj))
        bound = np.maximum(5 * np.sqrt(exact * (1 - exact) / n_traj), 1e-12)
        assert np.all(np.abs(sampled - exact) <= bound)
        assert exact[1:, -1].min() > 0  # the jump branches ran

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rz_at_arbitrary_angles_matches_density(self, seed):
        # RZ at angles other than the walk's own, between noisy XY gates
        from qcawalk.gates import StepOperator
        from qcawalk.lattice import Tessellation

        n_traj = 2000
        even = Tessellation("even", ((0, 1), (2, 3)))
        odd = Tessellation("odd", ((1, 2), (3, 0)))
        op = StepOperator((
            (even, (GateSpec("XY", math.pi / 4, (0, 1)), GateSpec("XY", math.pi / 4, (2, 3)),
                    GateSpec("RZ", 0.7, (1,)), GateSpec("RZ", -1.1, (2,)))),
            (odd, (GateSpec("XY", math.pi / 4, (1, 2)), GateSpec("XY", math.pi / 4, (3, 0)))),
        ), 4)
        init = SectorVector(4, np.array([0, 1, 1j, 0, 0]) / math.sqrt(2))
        sampled = trajectory_run(init, op, RATES, n_traj=n_traj, seed=seed, steps=6)
        rho = SectorDensity.from_statevector(init)
        for t, dist in enumerate(sampled):
            if t:
                rho = evolve_density(rho, op, RATES)
            exact = rho.diagonal_probabilities()
            got = np.array([dist.get("leakage")] + [dist.get(v) for v in range(4)])
            bound = np.maximum(5 * np.sqrt(exact * (1 - exact) / n_traj), 1e-12)
            assert np.all(np.abs(got - exact) <= bound)


class TestTrajectoryKernelEdges:
    """Pinned runs where jump branches with k00 ~ 0 dominate and where
    only dephasing acts."""

    @pytest.mark.parametrize("model,leakage", [
        (NoiseModel(relaxation_rate=1e9), [0, 1, 1, 1, 1]),
        (NoiseModel(relaxation_rate=3e7, dephasing_rate=3e7),
         [0, 0.956666666667, 0.996666666667, 1, 1]),
        (NoiseModel(dephasing_rate=1e8), [0, 0, 0, 0, 0]),
    ], ids=["relaxation_1e9", "both_3e7", "dephasing_1e8"])
    def test_strong_noise_pinned(self, model, leakage):
        lat = Lattice("cycle", 8)
        op = build_step_operator(lat, AngleSchedule(marked=2), "search")
        dists = trajectory_run(search_initializer(lat, "exact"), op, model, n_traj=300,
                               seed=5, steps=4)
        got = [d.get("leakage") for d in dists]
        assert np.abs(np.array(got) - leakage).max() < 1e-12
        if model.relaxation_rate == 0.0:
            assert dists[-1].get(2) == pytest.approx(0.086999339504, abs=1e-12)

    @pytest.mark.parametrize("model", [RATES, NoiseModel(relaxation_rate=1e9)])
    def test_single_trajectory(self, model):
        lat = Lattice("cycle", 8)
        op = build_step_operator(lat, AngleSchedule(marked=2), "search")
        dists = trajectory_run(search_initializer(lat, "exact"), op, model, n_traj=1,
                               seed=5, steps=4)
        for d in dists:
            assert np.all(np.isfinite(d.probs))
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_traj": 2.0}, "n_traj"), ({"n_traj": True}, "n_traj"),
        ({"steps": 2.5}, "steps"), ({"steps": True}, "steps"),
    ])
    def test_non_integer_sizes_rejected(self, kwargs, name):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        args = {"n_traj": 2, "steps": 1, **kwargs}
        with pytest.raises(ValueError, match=name):
            trajectory_run(qw_init(lat, 0), op, RATES, seed=0, **args)


class TestDegradedRatio:
    def test_noise_never_amplifies_the_peak(self, calibrated_noise):
        # exact distributions: the noisy success probability stays at or
        # below the ideal one on every swept cycle
        from qcawalk import degraded_ratio, success_probability

        for n in (4, 8):
            lat = Lattice("cycle", n)
            ideal = run_walk(WalkConfig(lat, steps=20, init=InitSpec("search_uniform"),
                                        marked=2, seed=1))
            noisy = run_walk(WalkConfig(lat, steps=20, init=InitSpec("search_uniform"),
                                        marked=2, seed=1,
                                        backend=WalkBackend("density")),
                             noise=calibrated_noise)
            peak_i, _ = success_probability(ideal.exact, 2)
            peak_n, _ = success_probability(noisy.exact, 2)
            assert degraded_ratio(peak_n, peak_i) <= 1.0 + 1e-9


class TestAverageGateFidelity:
    def test_ideal_channel(self):
        u = GateSpec("XY", math.pi / 4, (0, 1)).matrix()
        assert average_gate_fidelity(GateChannel(u, (u,))) == pytest.approx(1.0)

    def test_fully_depolarizing_single_qubit(self):
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        kraus = tuple(0.5 * p.astype(complex) for p in paulis)
        ch = GateChannel(np.eye(2, dtype=complex), kraus)
        assert average_gate_fidelity(ch) == pytest.approx(0.5, abs=1e-12)


class TestCalibration:
    def test_all_unity_targets_give_zero_rates(self):
        res = calibrate_rates({"sqrt_iswap": 1.0, "iswap": 1.0, "rx": 1.0})
        assert res.model.relaxation_rate == 0.0
        assert res.model.dephasing_rate == 0.0
        assert res.ssr == 0.0

    def test_reference_targets_within_tolerance(self, calibration):
        assert abs(calibration.achieved["sqrt_iswap"] - 0.9991) <= 1e-3
        assert abs(calibration.achieved["iswap"] - 0.9987) <= 1e-3
        assert abs(calibration.achieved["rx"] - 0.9999) <= 1e-3
        assert calibration.residuals["rz"] == 0.0

    def test_doubling_rates_lowers_every_noisy_gate(self, calibration):
        base = calibration.model
        K = max(base.relaxation_rate, 1e3)
        d = max(base.dephasing_rate, 1e2)
        low = replace(base, relaxation_rate=K, dephasing_rate=d)
        high = replace(base, relaxation_rate=2 * K, dephasing_rate=2 * d)
        for spec in (GateSpec("XY", math.pi / 4, (0, 1)),
                     GateSpec("XY", math.pi / 2, (0, 1)),
                     GateSpec("RX", math.pi / 2, (0,)),
                     GateSpec("RY", math.pi / 2, (0,))):
            f_low = average_gate_fidelity(noisy_gate_channel(spec, low))
            f_high = average_gate_fidelity(noisy_gate_channel(spec, high))
            assert f_high < f_low

    @pytest.mark.parametrize("rates", [(2e4, 1e3), (5e3, 5e3), (1e3, 3e4)])
    def test_iswap_below_sqrt_iswap(self, rates):
        # a longer gate (duration proportional to the angle) decays more
        model = NoiseModel(relaxation_rate=rates[0], dephasing_rate=rates[1])
        f_iswap = average_gate_fidelity(
            noisy_gate_channel(GateSpec("XY", math.pi / 2, (0, 1)), model))
        f_sqrt = average_gate_fidelity(
            noisy_gate_channel(GateSpec("XY", math.pi / 4, (0, 1)), model))
        assert f_iswap < f_sqrt

    def test_requires_xy_targets(self):
        with pytest.raises(ValueError):
            calibrate_rates({"rx": 0.9999})

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            calibrate_rates({"sqrt_iswap": 0.9, "iswap": 0.9, "cnot": 0.9})


class TestCalibrationPins:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        K=st.floats(0.0, 1e6),
        delta=st.floats(0.0, 1e6),
        coupling=st.sampled_from([DEFAULT_COUPLING, 2 * math.pi * 1e6,
                                  2 * math.pi * 2e7]),
    )
    def test_cached_liouvillian_fidelity_matches_kraus_channel(self, K, delta, coupling):
        template = NoiseModel(coupling=coupling)
        got = _fidelity_evaluator(list(_CALIBRATION_GATES), template)(K, delta)
        model = replace(template, relaxation_rate=K, dephasing_rate=delta)
        for key, spec in _CALIBRATION_GATES.items():
            want = average_gate_fidelity(noisy_gate_channel(spec, model))
            assert abs(got[key] - want) < 1e-13

    def test_default_fit_pinned(self, calibration):
        assert calibration.model.relaxation_rate == pytest.approx(35142.84528761483,
                                                                  rel=1e-9)
        assert calibration.model.dephasing_rate == pytest.approx(0.0030420019902574727,
                                                                 rel=1e-6)
        want = {"rx": 4.1432249049289105e-05, "ry": 4.1432249049289105e-05, "rz": 0.0,
                "iswap": -0.00010417154501995984, "sqrt_iswap": 0.0001975287581071905}
        assert calibration.residuals.keys() == want.keys()
        for key, value in want.items():
            assert abs(calibration.residuals[key] - value) < 1e-12


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(relaxation_rate=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(coupling=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["relaxation_rate", "dephasing_rate", "coupling",
                                       "single_qubit_duration"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoiseModel(**{field: value})

    def test_durations(self):
        m = NoiseModel()
        assert m.duration_of(GateSpec("XY", math.pi / 2, (0, 1))) == pytest.approx(
            (math.pi / 2) / m.coupling)
        assert m.duration_of(GateSpec("RZ", 1.0, (0,))) == 0.0
        assert m.duration_of(GateSpec("RX", 1.0, (0,))) == m.single_qubit_duration

    def test_roundtrip_serialization(self):
        m = NoiseModel(relaxation_rate=1e4, dephasing_rate=2e3)
        assert NoiseModel.from_dict(m.to_dict()) == m
