import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares

from qcawalk import (
    DEFAULT_FIDELITY_TARGETS,
    AngleSchedule,
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
    noisy_gate_channel,
    run_walk,
    sector_basis,
    trajectory_run,
)
from qcawalk.noise import (
    _CALIBRATION_GATES,
    DEFAULT_COUPLING,
    _channel,
    _fidelity_evaluator,
    _JumpBuffers,
    _jump_operators,
    _liouvillian,
    _lowered,
    _sector_channels,
    _sector_jump,
    _sector_lowering,
    _step_channels,
    _superop,
)
from qcawalk import reference
from qcawalk.reference import (
    DensityMatrix,
    StateVector,
    initial_state,
    lindblad_rhs,
    qw_init,
    search_initializer,
    to_sector,
)
from qcawalk.states import vertex_distribution

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


class TestSuperop:
    """Every channel is one ``expm`` of the cached three-part Liouvillian;
    the reference is the square-root-rate construction it replaced,
    expm(L((theta/t) G, jumps) t)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        gate=st.sampled_from(["sqrt_iswap", "iswap", "xy_drawn", "rx", "ry", "idle"]),
        angle=st.floats(-2 * math.pi, 2 * math.pi).filter(lambda a: abs(a) > 1e-3),
        K=st.floats(0.0, 1e6),
        delta=st.floats(0.0, 1e6),
        coupling=st.sampled_from([DEFAULT_COUPLING, 2 * math.pi * 1e6,
                                  2 * math.pi * 2e7]),
    )
    def test_matches_square_root_rate_liouvillian(self, gate, angle, K, delta, coupling):
        template = NoiseModel(coupling=coupling)
        if gate == "idle":  # a gap as long as the drawn XY angle's gate
            name, theta, n, g = "idle", 0.0, 1, np.zeros((2, 2), dtype=complex)
            t = abs(angle) / coupling
        else:
            spec = (GateSpec("XY", angle, (0, 1)) if gate == "xy_drawn"
                    else _CALIBRATION_GATES[gate])
            name, theta, n, g = spec.name, spec.theta, spec.n_targets, spec.generator()
            t = template.duration_of(spec)
        want = expm(_liouvillian((theta / t) * g, _jump_operators(n, K, delta)) * t)
        got = _superop(name, theta, n, t, K, delta)
        assert np.abs(got - want).max() < 1e-12


class TestEvolveDensity:
    def test_trace_and_positivity_preserved(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        rho = DensityMatrix.from_statevector(qw_init(lat, 0, symmetric=True))
        for _ in range(25):
            rho = reference.evolve_density(rho, op, calibrated_noise)
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
        rho = DensityMatrix.from_statevector(StateVector(3, amps))
        out = reference.evolve_density(rho, op, model)
        t_gate = (math.pi / 2) / model.coupling
        survived = out.entries[0b100, 0b100].real
        assert survived == pytest.approx(math.exp(-5e4 * t_gate), rel=1e-9)
        # and switching idle decay off leaves the idle qubit untouched
        out2 = reference.evolve_density(rho, op, replace(model, idle_decay=False))
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
        sector = SectorDensity.from_statevector(to_sector(init))
        dense = DensityMatrix.from_statevector(init)
        keep = sector_basis(N)
        outside = np.ones(2**N, dtype=bool)
        outside[keep] = False
        for _ in range(steps):
            sector = evolve_density(sector, op, model)
            dense = reference.evolve_density(dense, op, model)
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
        # which is why evolve_density leaves the untouched block alone; the
        # raw Kraus set meets it, as _sector_lowering checks
        model = NoiseModel(relaxation_rate=K, dephasing_rate=delta)
        if channel == "idle_gap":
            ch = idle_channel((math.pi / 4) / model.coupling, model)
        else:
            ch = noisy_gate_channel({
                "sqrt_iswap": GateSpec("XY", math.pi / 4, (0, 1)),
                "iswap": GateSpec("XY", math.pi / 2, (0, 1)),
            }[channel], model)
        k00 = np.array([k[0, 0] for k in ch.kraus])
        assert abs(np.sum(np.abs(k00) ** 2) - 1.0) <= 1e-12
        _sector_lowering(ch.kraus)

    def test_non_trace_preserving_kraus_set_rejected(self):
        with pytest.raises(RuntimeError, match="not trace-preserving"):
            _sector_lowering((0.5 * np.eye(2, dtype=complex),))

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
        amps = np.zeros(16, dtype=complex)
        amps[0b0011] = 1.0
        with pytest.raises(ValueError, match="outside"):
            to_sector(StateVector(4, amps))


class TestTrajectories:
    def test_noiseless_equals_statevector(self):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = to_sector(qw_init(lat, 0))
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
            rho = reference.evolve_density(rho, op, calibrated_noise)
        dist_rho = _dense_vertex_distribution(rho, 4)
        dist_tr = trajectory_run(to_sector(init), op, calibrated_noise, n_traj=4000, seed=5,
                                 steps=5)[-1]
        assert l1_distance(dist_rho, dist_tr) < 0.05

    def test_more_trajectories_reduce_error(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = qw_init(lat, 0)
        rho = DensityMatrix.from_statevector(init)
        for _ in range(3):
            rho = reference.evolve_density(rho, op, calibrated_noise)
        oracle = _dense_vertex_distribution(rho, 4)
        errs = {n: [] for n in (250, 500)}
        for seed in range(5):
            for n in errs:
                d = trajectory_run(to_sector(init), op, calibrated_noise, n_traj=n,
                                   seed=seed, steps=3)[-1]
                errs[n].append(l1_distance(oracle, d))
        assert np.mean(errs[500]) < np.mean(errs[250])

    @pytest.mark.parametrize("state_n,cycle_n", [(8, 4), (4, 8)])
    def test_register_size_mismatch_raises(self, state_n, cycle_n):
        op = build_step_operator(Lattice("cycle", cycle_n), AngleSchedule(), "walk")
        with pytest.raises(ValueError, match=f"state has {state_n} qubits, "
                                             f"step operator {cycle_n}"):
            trajectory_run(SectorVector.vacuum(state_n), op, RATES, n_traj=2, seed=1)

    def test_deterministic_under_seed(self, calibrated_noise):
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        init = to_sector(qw_init(lat, 0))
        a = trajectory_run(init, op, calibrated_noise, n_traj=300, seed=21, steps=3)[-1]
        b = trajectory_run(init, op, calibrated_noise, n_traj=300, seed=21, steps=3)[-1]
        assert np.array_equal(a.probs, b.probs)


# Per-step (vertex 0..V-1, leakage) means of trajectory_run under RATES,
# search variant, exact uniform init, seed 3.  Every trajectory jump moves
# a probability by at least 1/n_traj, so a change in any branch choice or
# in the RNG draw order breaks these pins by far more than 1e-12.
GOLDEN_CYCLE4 = [  # 4-cycle, marked 2, n_traj=200, 4 steps
    (0.25, 0.25, 0.25, 0.25, 0.0),
    (0.25000000000000006, 0.07322330470336308, 0.426776695296638,
     0.24999999999999997, 1.214142080304262e-32),
    (0.03642859408992319, 0.23053570295503875, 0.6551785147751902,
     0.07285718817984621, 0.005),
    (0.25031253965736605, 0.25707587869379855, 0.25707587869379744,
     0.23053570295503864, 0.005),
    (0.2463339842255326, 0.235656947726138, 0.25222502794093205,
     0.2557840401073974, 0.01),
]
GOLDEN_TORUS4 = [  # 4x4 torus, marked 3, n_traj=64, 2 steps
    (0.0625,) * 16 + (0.0,),
    (0.06152343750000001, 0.06152343749999999, 0.0615234375,
     0.205549205305853, 0.06152343749999999, 0.06152343749999997,
     0.06152343749999999, 0.06152343749999997, 0.01801979764184326,
     0.0615234375, 0.06152343750000001, 0.06152343749999999,
     0.009009898820921649, 0.06152343749999997, 0.06152343749999999,
     0.01351484823138252, 0.015625),
    (0.06054687500000003, 0.06054687499999997, 0.017733769107845736,
     0.2675833113068252, 0.06054687499999998, 0.013300326830884371,
     0.00886688455392288, 0.060546874999999896, 0.030463602109682585,
     0.021786882165442226, 0.06054687500000003, 0.06054687499999997,
     0.037936879179841405, 0.06054687499999989, 0.06054687499999997,
     0.08670334474555585, 0.031249999999999997),
]


class TestTrajectoryGolden:
    @pytest.mark.parametrize("kind,marked,n_traj,golden", [
        ("cycle", 2, 200, GOLDEN_CYCLE4),
        ("torus", 3, 64, GOLDEN_TORUS4),
    ])
    def test_pinned_per_step_outputs(self, kind, marked, n_traj, golden):
        lat = Lattice(kind, 4)
        op = build_step_operator(lat, AngleSchedule(marked=marked), "search")
        init = to_sector(search_initializer(lat, "exact"))
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
        ref = trajectory_run(to_sector(initial_state(cfg)), op, RATES, n_traj=200, seed=3,
                             steps=cfg.steps)
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
    """Pinned runs where jump branches dominate and where only dephasing
    acts."""

    @pytest.mark.parametrize("model,leakage", [
        (NoiseModel(relaxation_rate=1e9), [0, 1, 1, 1, 1]),
        (NoiseModel(relaxation_rate=3e7, dephasing_rate=3e7),
         [0, 0.973333333333, 1, 1, 1]),
        (NoiseModel(dephasing_rate=1e8), [0, 0, 0, 0, 0]),
    ], ids=["relaxation_1e9", "both_3e7", "dephasing_1e8"])
    def test_strong_noise_pinned(self, model, leakage):
        lat = Lattice("cycle", 8)
        op = build_step_operator(lat, AngleSchedule(marked=2), "search")
        dists = trajectory_run(to_sector(search_initializer(lat, "exact")), op, model, n_traj=300,
                               seed=5, steps=4)
        got = [d.get("leakage") for d in dists]
        assert np.abs(np.array(got) - leakage).max() < 1e-12
        if model.relaxation_rate == 0.0:
            assert dists[-1].get(2) == pytest.approx(0.136666666667, abs=1e-12)

    @pytest.mark.parametrize("model", [RATES, NoiseModel(relaxation_rate=1e9),
                                       NoiseModel(relaxation_rate=1e12)])
    def test_single_trajectory(self, model):
        lat = Lattice("cycle", 8)
        op = build_step_operator(lat, AngleSchedule(marked=2), "search")
        dists = trajectory_run(to_sector(search_initializer(lat, "exact")), op, model, n_traj=1,
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
            trajectory_run(to_sector(qw_init(lat, 0)), op, RATES, seed=0, **args)

    def test_zero_norm_initial_state_rejected(self):
        # refused before any step, not left to divide by zero and end in a
        # NaN distribution (Tier-1 turns the RuntimeWarnings into errors)
        lat = Lattice("cycle", 4)
        op = build_step_operator(lat, AngleSchedule(), "walk")
        zero = SectorVector(4, np.zeros(5, dtype=complex))
        with pytest.raises(ValueError, match="norm 0.0"):
            trajectory_run(zero, op, RATES, n_traj=2, seed=0)


    @pytest.mark.parametrize("no_jump_at", [0, 1])
    def test_either_kraus_order_annihilating_a_state(self, no_jump_at):
        # full amplitude damping of one qubit: the no-jump branch |0><0|
        # has the largest k00 and maps e_q to 0, so its p_m = 0 in that
        # column, whether it is the last branch (the fast one) or not
        keep = np.array([[1, 0], [0, 0]], dtype=complex)
        decay = np.array([[0, 1], [0, 0]], dtype=complex)
        lowered = _sector_lowering((keep, decay) if no_jump_at == 0 else (decay, keep))
        psi = np.array([[0, 0, 0, 0.6],  # sector of V = 2: vacuum, e_0, e_1
                        [1, 0.6, 0, 0],
                        [0, 0.8j, 1, 0.8]], dtype=complex)
        n2 = np.ones(4)
        _sector_jump(psi, n2, [0, 1], lowered, np.random.default_rng(0), _JumpBuffers(4))
        psi /= np.sqrt(n2)  # the folded state
        assert np.all(np.isfinite(psi))
        assert np.abs(np.sum(np.abs(psi) ** 2, axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(psi[:, 0], [1, 0, 0])  # e_0 decayed to the vacuum
        assert np.array_equal(psi[:, 2], [0, 0, 1])  # e_1 is untouched

    @pytest.mark.parametrize("channel", ["noiseless", "zero_angle", "calibrated",
                                         "rotating_damping"])
    def test_zero_draws(self, channel, calibrated_noise):
        # a draw of 0 sits on the edge of every branch.  A one-branch
        # channel, whose jump weight may round to a tiny positive, never
        # jumps; a column with no jump weight (the vacuum, or under
        # "rotating_damping" any column without e_a) keeps the no-jump
        # branch rather than take a branch of weight 0
        if channel == "rotating_damping":
            lowered = _sector_lowering(_rotating_damping(0.3, 0.7))
        else:
            key = ("XY", 0.0 if channel == "zero_angle" else math.pi / 2, 2)
            model = {"noiseless": NoiseModel(), "zero_angle": RATES,
                     "calibrated": calibrated_noise}[channel]
            lowered = _lowered(key, model)
        n = 4000
        psi = _random_ensemble(7, n)
        psi[5, : n // 2] = 0.0  # no e_a: no weight on the damping's jump
        psi[:, 0] = [1, 0, 0, 0, 0, 0, 0]
        n2 = np.ones(n)
        _sector_jump(psi, n2, [0, 3, 5], lowered, _ZeroDraws(), _JumpBuffers(n))
        assert np.all(np.isfinite(n2)) and np.all(n2 > 0)
        assert np.array_equal(psi[:, 0], [1, 0, 0, 0, 0, 0, 0])


def _rotating_damping(g: float, theta: float) -> tuple:
    """Kraus pair on |q_a q_b>: amplitude damping of qubit a with
    probability g, whose no-jump branch also rotates |01> into |10> by
    theta, so it changes the rounding of |B_last x|^2 on columns the jump
    cannot reach."""
    jump = np.zeros((4, 4), dtype=complex)
    jump[0, 2] = jump[1, 3] = math.sqrt(g)
    rotate = np.eye(4, dtype=complex)
    rotate[1:3, 1:3] = [[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]]
    return jump, rotate @ np.diag([1, 1, math.sqrt(1 - g), math.sqrt(1 - g)])


class _ZeroDraws:
    """A generator stub whose every uniform draw is 0."""

    def random(self, out):
        out[:] = 0.0
        return out


def _all_branch_sector_jump(psi, idx, blocks, rng):
    """Reference: the kernel that formed every branch for every trajectory.

    Branch m is taken with probability |B_m x|^2 + |k00_m|^2 (1 - |x|^2)
    by the cumulative rule on one uniform draw per column, and written
    back divided by sqrt(p).  Returns the chosen branch of every column.
    """
    x = psi[idx]
    m, d, _ = blocks.shape
    y = (blocks.reshape(m * d, d) @ x).reshape(m, d, -1)
    rest = np.maximum(1.0 - np.sum(np.abs(x) ** 2, axis=0), 0.0)
    probs = np.sum(np.abs(y) ** 2, axis=1) + np.abs(blocks[:, 0, 0])[:, None] ** 2 * rest
    cum = np.cumsum(probs, axis=0)
    u = rng.random(probs.shape[1]) * cum[-1]
    choice = np.minimum((u[None, :] >= cum).sum(axis=0), m - 1)
    cols = np.arange(psi.shape[1])
    inv_norm = 1.0 / np.sqrt(probs[choice, cols])
    psi *= blocks[choice, 0, 0] * inv_norm
    psi[idx] = y[choice, :, cols].T * inv_norm
    return choice


STRONG_MODELS = [NoiseModel(relaxation_rate=1e9),
                 NoiseModel(relaxation_rate=3e7, dephasing_rate=3e7),
                 NoiseModel(dephasing_rate=1e8)]


def _unit_columns(psi: np.ndarray) -> np.ndarray:
    """Each column scaled to unit norm: the state the per-step fold makes."""
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=0))


def _assert_tracked_norms(psi: np.ndarray, n2: np.ndarray, before: np.ndarray) -> None:
    """n2 is each stored column's squared norm, to 1e-12 relative to the
    larger of it and the norm ``before`` the gate: a no-jump branch that
    keeps a fraction p_last of a column leaves n2 - loss known only to
    about 1e-16 / p_last of what it keeps."""
    stored = np.sum(np.abs(psi) ** 2, axis=0)
    assert np.all(np.abs(n2 - stored) <= 1e-12 * np.maximum(stored, before))


def _random_ensemble(rows: int, n: int) -> np.ndarray:
    """n normalised random trajectories over ``rows`` sector indices."""
    gen = np.random.default_rng(11)
    return _unit_columns(gen.normal(size=(rows, n)) + 1j * gen.normal(size=(rows, n)))


_KERNEL_CHANNELS = pytest.mark.parametrize("key,idx", [
    (("XY", math.pi / 2, 2), [0, 3, 5]),
    (("XY", math.pi / 4, 2), [0, 6, 2]),
    (("idle", (math.pi / 4) / DEFAULT_COUPLING), [0, 4]),
], ids=["iswap", "sqrt_iswap", "idle"])
_KERNEL_MODELS = pytest.mark.parametrize(
    "model", ["calibrated"] + STRONG_MODELS,
    ids=["calibrated", "relaxation_1e9", "both_3e7", "dephasing_1e8"])


class TestTrajectoryKernelEquivalence:
    """_sector_jump, which forms the jump branches only for the columns
    whose draw falls in the weight the no-jump branch lost, and only from
    their touched rows, against the kernel that formed every branch for
    every column.  From the same generator state both must pick the same
    branch in every column; another branch would move that column's
    amplitudes by far more than 1e-12.  _sector_jump keeps its columns
    unnormalised beside their squared norms n2, compared gate after gate
    with no fold in between, each column scaled to unit norm as the fold
    scales it, and n2 must stay the stored columns' squared norm.  After
    a jump a column's weight sits on its touched rows, so a later p_last
    near 2e-5 (strong dephasing) is known only to about 1e-16 / p_last,
    and so is the unscaled column.  Several gates in a row also check
    that both consume the same draws."""

    @_KERNEL_CHANNELS
    @_KERNEL_MODELS
    def test_same_branches_as_all_branch_kernel(self, key, idx, model, calibrated_noise):
        model = calibrated_noise if model == "calibrated" else model
        lowered = _lowered(key, model)
        n = 4000
        psi = _random_ensemble(7, n)
        ref = psi.copy()
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        work = _JumpBuffers(n)
        n2 = np.ones(n)
        jumps = 0
        for _ in range(5):
            before = n2.copy()
            _sector_jump(psi, n2, idx, lowered, rng, work)
            choice = _all_branch_sector_jump(ref, idx, lowered.blocks, ref_rng)
            jumps += np.count_nonzero(choice != len(lowered.blocks) - 1)
            assert np.abs(_unit_columns(psi) - _unit_columns(ref)).max() < 1e-12
            _assert_tracked_norms(psi, n2, before)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert jumps > 0  # the columns off the last branch ran too

    @_KERNEL_CHANNELS
    @_KERNEL_MODELS
    def test_last_branch_leaves_untouched_rows_bit_identical(self, key, idx, model,
                                                             calibrated_noise):
        # a column on the last branch writes only its touched rows and its
        # scalar: every other row keeps its stored bits
        model = calibrated_noise if model == "calibrated" else model
        lowered = _lowered(key, model)
        n = 4000
        psi = _random_ensemble(7, n)
        ref = psi.copy()
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        work = _JumpBuffers(n)
        n2 = np.ones(n)
        untouched = [i for i in range(7) if i not in idx]
        fast = 0
        for _ in range(5):
            before = psi[untouched].copy()
            _sector_jump(psi, n2, idx, lowered, rng, work)
            last = _all_branch_sector_jump(ref, idx, lowered.blocks, ref_rng) == len(
                lowered.blocks) - 1
            assert np.array_equal(psi[untouched][:, last], before[:, last])
            fast += np.count_nonzero(last)
        assert fast > 0

    @_KERNEL_MODELS
    def test_torus_search_step_stream_matches_all_branch_kernel(self, model,
                                                                calibrated_noise):
        # one whole step of channels, RZ phases and idle gaps included, with
        # no fold in between: the squared norms carry across gates
        model = calibrated_noise if model == "calibrated" else model
        lat = Lattice("torus", 4)
        op = build_step_operator(lat, AngleSchedule(marked=3), "search")
        n = 2000
        psi = _random_ensemble(lat.vertex_count + 1, n)
        ref = psi.copy()
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        work = _JumpBuffers(n)
        n2 = np.ones(n)
        phases = jumps = 0
        for idx, phase, lowered in _sector_channels(op, model):
            before = n2.copy()
            if lowered is None:
                psi[idx[1]] *= phase
                ref[idx[1]] *= phase
                phases += 1
            else:
                _sector_jump(psi, n2, idx, lowered, rng, work)
                choice = _all_branch_sector_jump(ref, idx, lowered.blocks, ref_rng)
                jumps += np.count_nonzero(choice != len(lowered.blocks) - 1)
            assert np.abs(_unit_columns(psi) - _unit_columns(ref)).max() < 1e-12
            _assert_tracked_norms(psi, n2, before)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert phases > 0 and jumps > 0

    @pytest.mark.parametrize("model", ["calibrated", RATES] + STRONG_MODELS
                             + [NoiseModel(relaxation_rate=1e12)],
                             ids=["calibrated", "rates", "relaxation_1e9", "both_3e7",
                                  "dephasing_1e8", "relaxation_1e12"])
    def test_lowered_channels_are_in_the_no_jump_gauge(self, model, calibrated_noise):
        # every lowered channel of a torus search and a cycle walk: k00 is
        # (0, ..., 0, 1) exactly, the last (no-jump) branch never feeds the
        # vacuum, and mixing the Kraus index leaves T as it was
        model = calibrated_noise if model == "calibrated" else model
        keys = set()
        for lat, variant, marked in [(Lattice("torus", 4), "search", 3),
                                     (Lattice("cycle", 8), "walk", None)]:
            op = build_step_operator(lat, AngleSchedule(marked=marked), variant)
            keys.update(key for key, _targets in _step_channels(op, model) if key[0] != "RZ")
        assert keys
        for key in keys:
            blocks, T = _lowered(key, model)
            assert np.all(blocks[:-1, 0, 0] == 0) and blocks[-1, 0, 0] == 1
            assert np.abs(blocks[-1, 0, 1:]).max() <= 1e-14
            d = blocks.shape[1]
            raw = np.array(_channel(key, model).kraus)[:, :d, :d]
            raw[:, 1:, 0] = 0.0
            assert np.abs(T - sum(np.kron(b, b.conj()) for b in raw)).max() <= 1e-14


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -0.1, "0.9", True],
                             ids=repr)
    def test_malformed_target_rejected_before_any_fit(self, bad, monkeypatch):
        import qcawalk.noise as noise

        def never(*_args):
            raise AssertionError("evaluated a fidelity")

        monkeypatch.setattr(noise, "expm", never)
        with pytest.raises(ValueError, match="'iswap'"):
            calibrate_rates({"sqrt_iswap": 0.9991, "iswap": bad, "rx": 0.9999})


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
        assert calibration.model.relaxation_rate == pytest.approx(35106.11041190367,
                                                                  rel=1e-9)
        assert calibration.model.dephasing_rate == 0.0
        want = {"rx": 4.1493476316878386e-05, "ry": 4.1493476316878386e-05, "rz": 0.0,
                "iswap": -0.00010270512882992744, "sqrt_iswap": 0.00019826277125711833}
        assert calibration.residuals.keys() == want.keys()
        for key, value in want.items():
            assert abs(calibration.residuals[key] - value) < 1e-12


def _residuals(targets):
    """f(K, delta) -> fidelity residuals, with the rates in units of the
    coupling, where both are O(1e-3) and the residuals are well scaled."""
    fidelities = _fidelity_evaluator(targets, NoiseModel())
    return lambda x: [fidelities(*(DEFAULT_COUPLING * np.asarray(x)))[k] - targets[k]
                      for k in sorted(targets)]


def _tight_fit(f, x0):
    return least_squares(f, x0, bounds=(0.0, np.inf), xtol=1e-15, ftol=1e-15, gtol=1e-15).x


def _two_rate_optimum(targets):
    """Best two-rate fit over tight polishes from a 4x4 grid of starts."""
    f = _residuals(targets)
    starts = (0.0, 1e-6, 1e-4, 1e-2)
    fits = [_tight_fit(f, x0) for x0 in itertools.product(starts, starts)]
    best = min(fits, key=lambda x: np.sum(np.square(f(x))))
    return DEFAULT_COUPLING * best, float(np.sum(np.square(f(best))))


class TestCalibrationRule:
    """The fit converges, and returns relaxation alone unless both rates fit
    materially better."""

    def test_relaxation_fit_is_stationary(self, calibration):
        f = _residuals(DEFAULT_FIDELITY_TARGETS)
        k = calibration.model.relaxation_rate / DEFAULT_COUPLING
        moved = _tight_fit(lambda x: f((x[0], 0.0)), [k])[0]
        assert abs(moved - k) < 1e-9 * k

    def test_flat_valley_resolved_toward_relaxation(self, calibration):
        (k, delta), ssr = _two_rate_optimum(DEFAULT_FIDELITY_TARGETS)
        # the two-rate optimum is pure dephasing, and only marginally better
        assert k < 1e-6 * delta
        assert ssr < calibration.ssr < ssr * (1 + 1e-3)
        assert calibration.model.dephasing_rate == 0.0

    @pytest.mark.parametrize("targets", [
        {"sqrt_iswap": 0.99, "iswap": 0.98, "rx": 0.999},
        {"sqrt_iswap": 0.9, "iswap": 0.9},
    ], ids=["interior", "dephasing_axis"])
    def test_global_optimum_found(self, targets):
        _, ssr = _two_rate_optimum(targets)
        assert calibrate_rates(targets).ssr == pytest.approx(ssr, rel=1e-9)


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
