import math
from dataclasses import replace

import numpy as np
import pytest

from qcawalk import (
    LEAKAGE,
    AngleSchedule,
    InitSpec,
    Lattice,
    NoiseModel,
    ResourceLimitError,
    WalkBackend,
    WalkConfig,
    build_step_operator,
    qw_init,
    run_walk,
    search_initializer,
    search_initializer_gates,
    sector_oracle,
    sector_project,
    sector_basis,
    success_probability,
)
from qcawalk.walks import initial_sector_state, initial_state

RELAXATION_ONLY = NoiseModel(relaxation_rate=3.5e4, dephasing_rate=0.0)


def _check_relaxation_law(cfg, model, backend="density"):
    """At zero dephasing a noisy run is the statevector run times exp(-K T(t)).

    XY gates keep the excitation number, every qubit is exposed for each
    whole layer, and a jump lands in the vacuum, which never comes back;
    so each vertex reads exp(-K T(t)) times its ideal value and the rest
    leaks, with T(t) = t x layers x the longest gate angle / coupling, as
    in ``bench/checks.exact_leakage``.  The density run must match to
    1e-12; a trajectory mean p over n trajectories within 5 standard
    errors, 5 sqrt(p (1 - p) / n).  Returns the noisy run.
    """
    ideal = run_walk(replace(cfg, backend=WalkBackend("statevector")))
    noisy = run_walk(replace(cfg, backend=WalkBackend(backend)), noise=model)
    n_traj = WalkBackend(backend).n_trajectories
    layers = 2 if cfg.lattice.kind == "cycle" else 4
    layer_t = (math.pi / 2 if cfg.variant == "search" else math.pi / 4) / model.coupling
    labels = list(range(cfg.lattice.vertex_count)) + [LEAKAGE]
    assert len(noisy.exact) == cfg.steps + 1
    for t, (ideal_t, noisy_t) in enumerate(zip(ideal.exact, noisy.exact)):
        decay = math.exp(-model.relaxation_rate * t * layers * layer_t)
        want = np.array([decay * ideal_t.get(v) for v in labels[:-1]] + [1 - decay])
        got = np.array([noisy_t.get(k) for k in labels])
        bound = 1e-12
        if backend == "trajectories":
            bound = np.maximum(5 * np.sqrt(want * (1 - want) / n_traj), 1e-12)
        assert np.all(np.abs(got - want) < bound), (t, np.abs(got - want).max())
    return noisy


class TestQwInit:
    def test_symmetric_fig_state(self):
        state = qw_init(Lattice("cycle", 8), 3, symmetric=True)
        sec = sector_project(state, 8)
        probs = sec.probabilities()
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[4] == pytest.approx(0.5, abs=1e-12)
        assert probs[[0, 1, 2, 5, 6, 7]].max() < 1e-15
        assert sec.leakage_norm < 1e-12
        # equal phase up to a global factor: amplitudes are proportional
        assert abs(sec.amplitudes[3] - sec.amplitudes[4]) < 1e-12

    def test_single_site(self):
        state = qw_init(Lattice("cycle", 8), 3, symmetric=False)
        sec = sector_project(state, 8)
        assert sec.probabilities()[3] == pytest.approx(1.0, abs=1e-12)
        assert sec.leakage_norm < 1e-12

    def test_symmetric_wraps(self):
        state = qw_init(Lattice("cycle", 4), 3, symmetric=True)
        probs = sector_project(state, 4).probabilities()
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[0] == pytest.approx(0.5, abs=1e-12)

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            qw_init(Lattice("cycle", 4), 4)


class TestSearchInitializer:
    def test_exact_four(self):
        state = search_initializer(Lattice("cycle", 4), "exact")
        sec = sector_project(state, 4)
        assert np.abs(sec.amplitudes - 0.5).max() < 1e-12
        assert sec.leakage_norm < 1e-12

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_literal_uniform(self, N):
        state = search_initializer(Lattice("cycle", N), "literal")
        sec = sector_project(state, N)
        assert np.abs(sec.probabilities() - 1.0 / N).max() < 1e-10
        assert sec.leakage_norm < 1e-12

    def test_literal_gate_count(self):
        gates = search_initializer_gates(8)
        assert sum(1 for g in gates if g.name == "XY") == 7  # N - 1 splits

    def test_literal_needs_power_of_two(self):
        with pytest.raises(ValueError):
            search_initializer(Lattice("cycle", 6), "literal")
        with pytest.raises(ValueError):
            search_initializer_gates(6)

    def test_torus_literal(self):
        state = search_initializer(Lattice("torus", 4), "literal")
        sec = sector_project(state, 16)
        assert np.abs(sec.probabilities() - 1.0 / 16).max() < 1e-10


class TestSectorOracle:
    def test_unitarity_16_cycle(self):
        m = sector_oracle(Lattice("cycle", 16), AngleSchedule(), "walk")
        assert np.abs(m.conj().T @ m - np.eye(16)).max() < 1e-12

    def test_zero_angle_is_identity(self):
        m = sector_oracle(Lattice("cycle", 8), AngleSchedule(default=0.0), "walk")
        assert np.abs(m - np.eye(8)).max() < 1e-12

    def test_matches_statevector_walk(self):
        lat = Lattice("cycle", 4)
        sched = AngleSchedule()
        m = sector_oracle(lat, sched, "walk")
        op = build_step_operator(lat, sched, "walk")
        state = qw_init(lat, 0)
        vec = sector_project(state, 4).amplitudes
        for _ in range(10):
            op.apply(state)
            vec = m @ vec
            sec = sector_project(state, 4)
            assert np.abs(sec.amplitudes - vec).max() < 1e-10
            assert sec.leakage_norm < 1e-12

    def test_matches_statevector_search(self):
        lat = Lattice("cycle", 6)
        sched = AngleSchedule(marked=2)
        m = sector_oracle(lat, sched, "search")
        op = build_step_operator(lat, sched, "search")
        state = search_initializer(lat, "exact")
        vec = sector_project(state, 6).amplitudes
        for _ in range(12):
            op.apply(state)
            vec = m @ vec
            sec = sector_project(state, 6)
            assert np.abs(sec.amplitudes - vec).max() < 1e-10
            assert sec.leakage_norm < 1e-12


class TestRunWalk:
    def test_step_zero_is_init(self):
        lat = Lattice("cycle", 8)
        cfg = WalkConfig(lat, steps=0, init=InitSpec("symmetric", 3), seed=1)
        res = run_walk(cfg)
        assert len(res.per_step) == 1
        dist = res.exact[0]
        assert dist.get(3) == pytest.approx(0.5, abs=1e-12)
        assert dist.get(4) == pytest.approx(0.5, abs=1e-12)

    def test_per_step_length(self):
        cfg = WalkConfig(Lattice("cycle", 4), steps=5, seed=1)
        res = run_walk(cfg)
        assert len(res.per_step) == 6
        assert len(res.leakage_per_step) == 6

    def test_one_step_matches_oracle(self):
        lat = Lattice("cycle", 4)
        cfg = WalkConfig(lat, steps=1, init=InitSpec("single", 0), seed=2)
        res = run_walk(cfg)
        m = sector_oracle(lat, AngleSchedule(), "walk")
        init = sector_project(qw_init(lat, 0), 4).amplitudes
        want = np.abs(m @ init) ** 2
        got = np.array([res.exact[1].get(v) for v in range(4)])
        assert np.abs(got - want).max() < 1e-10

    def test_torus_search_peak(self):
        lat = Lattice("torus", 4)
        cfg = WalkConfig(lat, steps=4, init=InitSpec("search_uniform"),
                         marked=lat.vertex_id(3, 0), seed=3)
        res = run_walk(cfg)
        peak, step = success_probability(res.exact, 3)
        assert step == 2
        assert peak == pytest.approx(0.2762, abs=2e-3)

    @pytest.mark.parametrize("kind,N,marked", [("cycle", 4, 2), ("cycle", 8, 2),
                                               ("cycle", 16, 2), ("torus", 4, 3)])
    def test_search_amplifies_marked_vertex(self, kind, N, marked):
        lat = Lattice(kind, N)
        cfg = WalkConfig(lat, steps=20, init=InitSpec("search_uniform"),
                         marked=marked, seed=1)
        res = run_walk(cfg)
        peak, _ = success_probability(res.exact, marked)
        assert peak > res.exact[0].get(marked)  # above the uniform start

    def test_search_leakage_stays_zero(self):
        lat = Lattice("cycle", 8)
        cfg = WalkConfig(lat, steps=20, init=InitSpec("search_uniform"),
                         marked=2, seed=4)
        res = run_walk(cfg)
        assert max(res.leakage_per_step) < 1e-12

    def test_reflection_symmetry(self):
        # symmetric init on bond (k, k+1): the distribution stays invariant
        # under the reflection about that bond's centre at every step
        for N, k in [(8, 3), (10, 2)]:
            lat = Lattice("cycle", N)
            cfg = WalkConfig(lat, steps=20, init=InitSpec("symmetric", k), seed=5)
            res = run_walk(cfg)
            for dist in res.exact:
                for v in range(N):
                    mirror = (2 * k + 1 - v) % N
                    assert dist.get(v) == pytest.approx(dist.get(mirror), abs=1e-12)

    def test_translation_invariance_even_rotation(self):
        # rotating all labels by an even offset maps the tessellations onto
        # themselves, so the output distribution rotates identically
        lat = Lattice("cycle", 8)
        base = run_walk(WalkConfig(lat, steps=7, init=InitSpec("symmetric", 1), seed=6))
        shifted = run_walk(WalkConfig(lat, steps=7, init=InitSpec("symmetric", 3), seed=6))
        for d0, d2 in zip(base.exact, shifted.exact):
            for v in range(8):
                assert d2.get((v + 2) % 8) == pytest.approx(d0.get(v), abs=1e-12)

    def test_density_byte_bound_resource_error(self):
        lat = Lattice("torus", 64)  # a 4097 x 4097 block needs 268.6 MB
        cfg = WalkConfig(lat, steps=1, init=InitSpec("search_uniform"), marked=3,
                         backend=WalkBackend("density"))
        with pytest.raises(ResourceLimitError, match="trajectories"):
            run_walk(cfg)

    def test_density_admits_a_32x32_torus(self):
        lat = Lattice("torus", 32)  # a 1025 x 1025 block needs 16.8 MB
        cfg = WalkConfig(lat, steps=2, init=InitSpec("search_uniform"), marked=3,
                         backend=WalkBackend("density"))
        res = _check_relaxation_law(cfg, RELAXATION_ONLY)
        assert res.exact[0].get(3) == pytest.approx(1 / 1024, abs=1e-15)

    def test_density_runs_a_register_too_big_for_a_dense_matrix(self):
        # V = 16: the dense 2^16 x 2^16 matrix would need 68 GB; the sector
        # density is 17 x 17.  Idle decay fills every layer, so each qubit
        # relaxes for t x 4 layers x the iSWAP time and the leaked mass
        # follows 1 - exp(-K T(t)) exactly.
        model = NoiseModel(relaxation_rate=3.5e4, dephasing_rate=1e3)
        lat = Lattice("torus", 4)
        cfg = WalkConfig(lat, steps=8, init=InitSpec("search_uniform"),
                         marked=lat.vertex_id(3, 0), seed=3,
                         backend=WalkBackend("density"))
        res = run_walk(cfg, noise=model)
        t_layer = (math.pi / 2) / model.coupling
        want = [1 - math.exp(-model.relaxation_rate * t * 4 * t_layer)
                for t in range(9)]
        assert np.abs(np.array(res.leakage_per_step) - want).max() < 1e-12
        assert res.wall_time_s < 5.0  # about 0.05 s on 2 cores

    @pytest.mark.parametrize("kind,init,marked", [("cycle", "single", None),
                                                  ("torus", "search_uniform", 3)],
                             ids=["cycle4_walk", "torus4_search"])
    @pytest.mark.parametrize("backend", ["statevector", "density", "trajectories"])
    def test_one_readout_for_every_backend(self, backend, kind, init, marked):
        # without noise every backend reads the same sector: each exact
        # distribution equals the statevector's, and the leakage series is
        # the LEAKAGE outcome of those distributions
        lat = Lattice(kind, 4)

        def run(name):
            cfg = WalkConfig(lat, steps=4, init=InitSpec(init, 1), marked=marked, seed=2,
                             backend=WalkBackend(name, 20))
            return run_walk(cfg, noise=NoiseModel())

        ideal, res = run("statevector"), run(backend)
        assert len(res.exact) == 5
        for want, got in zip(ideal.exact, res.exact):
            assert got.probs.shape == (lat.vertex_count + 1,)
            assert np.abs(got.probs - want.probs).max() < 1e-12
        assert res.leakage_per_step == [d.get(LEAKAGE) for d in res.exact]

    def test_density_noise_off_matches_statevector(self):
        lat = Lattice("cycle", 4)
        sv = run_walk(WalkConfig(lat, steps=6, init=InitSpec("single", 1), seed=7))
        dm = run_walk(WalkConfig(lat, steps=6, init=InitSpec("single", 1), seed=7,
                                 backend=WalkBackend("density")))
        for a, b in zip(sv.exact, dm.exact):
            for v in range(4):
                assert a.get(v) == pytest.approx(b.get(v), abs=1e-10)

    def test_empirical_seeded_per_step(self):
        cfg = WalkConfig(Lattice("cycle", 4), steps=3, seed=9, shots=500)
        a = run_walk(cfg)
        b = run_walk(cfg)
        for (_, ea), (_, eb) in zip(a.per_step, b.per_step):
            assert np.array_equal(ea.counts, eb.counts)

    def test_marked_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(Lattice("cycle", 4), steps=1, marked=7)

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_sizes_rejected(self, value):
        with pytest.raises(ValueError, match="n_trajectories"):
            WalkBackend("trajectories", value)
        with pytest.raises(ValueError, match="steps"):
            WalkConfig(Lattice("cycle", 4), steps=value)

    @pytest.mark.parametrize("kwargs,name", [
        ({"shots": 100.5}, "shots"), ({"shots": True}, "shots"),
        ({"marked": 1.0}, "marked"), ({"marked": True}, "marked"),
    ], ids=["float_shots", "bool_shots", "float_marked", "bool_marked"])
    def test_non_integer_fields_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            WalkConfig(Lattice("cycle", 4), steps=1, **kwargs)

    @pytest.mark.parametrize("site", [1.0, True, -1])
    def test_non_integer_site_rejected(self, site):
        with pytest.raises(ValueError, match="site"):
            InitSpec("single", site)


_RELAXATION_CASES = pytest.mark.parametrize("kind,N,init,marked", [
    ("cycle", 16, InitSpec("single", 0), None),
    ("torus", 4, InitSpec("search_uniform"), 3),
    ("torus", 8, InitSpec("search_uniform"), 3),
], ids=["cycle16_walk", "torus4_search", "torus8_search"])


class TestRelaxationLaw:
    @_RELAXATION_CASES
    def test_density_is_ideal_times_no_jump_factor(self, kind, N, init, marked):
        cfg = WalkConfig(Lattice(kind, N), steps=12, init=init, marked=marked, seed=1)
        _check_relaxation_law(cfg, RELAXATION_ONLY)

    @_RELAXATION_CASES
    def test_trajectories_are_ideal_times_no_jump_factor(self, kind, N, init, marked):
        cfg = WalkConfig(Lattice(kind, N), steps=12, init=init, marked=marked, seed=1)
        _check_relaxation_law(cfg, RELAXATION_ONLY, "trajectories")


class TestInitialSectorState:
    @pytest.mark.parametrize("kind,N", [("cycle", 4), ("cycle", 8), ("torus", 4)])
    @pytest.mark.parametrize("init", ["single", "symmetric", "search_uniform"])
    @pytest.mark.parametrize("mode", ["exact", "literal"])
    def test_matches_dense_preparation(self, kind, N, init, mode):
        lat = Lattice(kind, N)
        cfg = WalkConfig(lat, steps=1, init=InitSpec(init, N - 1), initializer_mode=mode)
        sector = initial_sector_state(cfg)
        dense = initial_state(cfg)
        keep = sector_basis(lat.vertex_count)
        assert np.abs(sector.amplitudes - dense.amplitudes[keep]).max() <= 1e-15


class TestLargeRegisters:
    """Ideal and trajectory runs on registers no dense 2^V array could hold."""

    def test_16x16_torus_search_matches_oracle(self):
        lat = Lattice("torus", 16)
        schedule = AngleSchedule(marked=lat.vertex_id(3, 0))
        cfg = WalkConfig(lat, steps=5, init=InitSpec("search_uniform"),
                         marked=schedule.marked, seed=2)
        m = sector_oracle(lat, schedule, "search")
        op = build_step_operator(lat, schedule, "search")
        state = initial_sector_state(cfg)
        vec = state.amplitudes[1:].copy()
        res = run_walk(cfg)
        for t in range(cfg.steps + 1):
            if t:
                op.apply(state)
                vec = m @ vec
            assert np.abs(state.amplitudes[1:] - vec).max() < 1e-12
            got = [res.exact[t].get(v) for v in range(lat.vertex_count)]
            assert np.abs(np.array(got) - np.abs(vec) ** 2).max() < 1e-12

    def test_64x64_torus_search_runs_without_leakage(self):
        lat = Lattice("torus", 64)  # V = 4096
        cfg = WalkConfig(lat, steps=3, init=InitSpec("search_uniform"),
                         marked=lat.vertex_id(3, 0), seed=4)
        res = run_walk(cfg)
        assert len(res.exact) == 4
        assert res.leakage_per_step == [0.0] * 4
        # the marked vertex gains amplitude from the first step on
        assert res.exact[1].get(cfg.marked) > res.exact[0].get(cfg.marked)

    def test_8x8_torus_trajectory_leakage_follows_relaxation(self):
        # every qubit relaxes for t x 4 layers x the iSWAP time, so the
        # leaked fraction of the 400 trajectories is binomial around
        # 1 - exp(-K T(t))
        model = NoiseModel(relaxation_rate=3.5e4, dephasing_rate=1e3)
        lat = Lattice("torus", 8)
        n_traj = 400
        cfg = WalkConfig(lat, steps=3, init=InitSpec("search_uniform"),
                         marked=lat.vertex_id(3, 0), seed=6,
                         backend=WalkBackend("trajectories", n_traj))
        res = run_walk(cfg, noise=model)
        t_layer = (math.pi / 2) / model.coupling
        for t, leak in enumerate(res.leakage_per_step):
            want = 1 - math.exp(-model.relaxation_rate * t * 4 * t_layer)
            se = math.sqrt(want * (1 - want) / n_traj)
            assert abs(leak - want) <= 5 * se + 1e-12
