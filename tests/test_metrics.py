import math

import numpy as np
import pytest

from qcawalk import (
    LEAKAGE,
    Distribution,
    degraded_ratio,
    hellinger_fidelity,
    hitting_time,
    l1_distance,
    selectivity,
    success_probability,
)
from qcawalk.metrics import inverse_fit, linear_fit


def dist(*probs):
    return Distribution(np.array(probs))


class TestHellingerFidelity:
    def test_identical(self):
        p = dist(0.2, 0.8, 0.0)
        assert hellinger_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert hellinger_fidelity(dist(1.0, 0.0, 0.0), dist(0.0, 1.0, 0.0)) == pytest.approx(
            0.0, abs=1e-12)

    def test_half_mass_case(self):
        f = hellinger_fidelity(dist(1.0, 0.0, 0.0), dist(0.5, 0.5, 0.0))
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pd = Distribution(rng.dirichlet(np.ones(6)))
            qd = Distribution(rng.dirichlet(np.ones(6)))
            f = hellinger_fidelity(pd, qd)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(hellinger_fidelity(qd, pd), abs=1e-14)

    def test_unity_iff_equal(self):
        p = dist(0.3, 0.7, 0.0)
        q = dist(0.3 - 1e-3, 0.7 + 1e-3, 0.0)
        assert hellinger_fidelity(p, q) < 1.0 - 1e-8

    def test_permutation_invariance(self):
        p = np.array([0.1, 0.2, 0.7])
        q = np.array([0.3, 0.3, 0.4])
        perm = [1, 2, 0]
        assert hellinger_fidelity(Distribution(p), Distribution(q)) == pytest.approx(
            hellinger_fidelity(Distribution(p[perm]), Distribution(q[perm])), abs=1e-14)

    @pytest.mark.parametrize("metric", [hellinger_fidelity, l1_distance])
    def test_outcome_count_mismatch_rejected(self, metric):
        with pytest.raises(ValueError, match="outcomes"):
            metric(dist(1.0, 0.0), dist(1.0, 0.0, 0.0))


class TestL1Distance:
    def test_identical(self):
        assert l1_distance(dist(1.0, 0.0), dist(1.0, 0.0)) == 0.0

    def test_disjoint(self):
        assert l1_distance(dist(1.0, 0.0, 0.0), dist(0.0, 1.0, 0.0)) == pytest.approx(2.0)

    def test_half_mass_case(self):
        assert l1_distance(dist(1.0, 0.0, 0.0), dist(0.5, 0.5, 0.0)) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p, q, r = (Distribution(rng.dirichlet(np.ones(5))) for _ in range(3))
            assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12


class TestSearchQuantities:
    def test_constant_series(self):
        series = dist(*[[0.9, 0.0, 0.1, 0.0]] * 4)
        assert success_probability(series, 2) == (0.1, 0)
        assert hitting_time(series, 2) == 0

    def test_first_global_maximum(self):
        series = dist(*[[1.0 - p, 0.0, p, 0.0] for p in (0.1, 0.5, 0.2, 0.5)])
        peak, step = success_probability(series, 2)
        assert peak == 0.5 and step == 1
        assert type(peak) is float and type(step) is int

    def test_empty_series_rejected(self):
        # a per-step distribution of zero steps cannot be formed
        with pytest.raises(ValueError):
            success_probability(Distribution(np.empty((0, 3))), 0)

    def test_single_step_rejected(self):
        with pytest.raises(ValueError, match="per-step"):
            success_probability(dist(0.5, 0.5, 0.0), 0)

    @pytest.mark.parametrize("metric", [selectivity, success_probability, hitting_time])
    def test_leakage_is_not_a_marked_vertex(self, metric):
        # leakage outmasses every vertex here, so taking it as the marked
        # outcome would return its peak instead of failing
        series = dist(*[[0.1, 0.1, 0.8]] * 3)
        with pytest.raises(ValueError, match="'leakage' is not a vertex"):
            metric(series, LEAKAGE)

    def test_degraded_ratio(self):
        assert degraded_ratio(0.28, 0.28) == pytest.approx(1.0)
        assert degraded_ratio(0.14, 0.28) == pytest.approx(0.5)
        # undefined, not an error: a 0-step search can have no ideal peak
        assert degraded_ratio(0.1, 0.0) is None

    def test_selectivity_values(self):
        assert selectivity(dist(0.3, 0.4 - 1e-12, 0.3, 1e-12), 1) == pytest.approx(
            math.log((0.4 - 1e-12) / 0.3))
        assert selectivity(dist(0.5, 0.5, 0.0), 0) == pytest.approx(0.0)
        uniform = dist(0.25, 0.25, 0.25, 0.25, 0.0)
        assert selectivity(uniform, 2) == pytest.approx(0.0)

    def test_selectivity_e_ratio(self):
        best = 0.25
        p = [best * math.e, best, 1.0 - best * (1 + math.e)]
        assert max(p[1], p[2]) == p[1]
        assert selectivity(dist(*p, 0.0), 0) == pytest.approx(1.0, abs=1e-12)

    def test_selectivity_excludes_leakage(self):
        # leakage outmassing every vertex must not enter the denominator
        d = Distribution([0.05, 0.15, 0.8])
        assert d.get(LEAKAGE) == 0.8
        assert selectivity(d, 1) == pytest.approx(math.log(0.15 / 0.05))

    def test_selectivity_infinite_flagged(self):
        with pytest.warns(UserWarning):
            out = selectivity(dist(1.0, 0.0, 0.0), 0)
        assert out == math.inf


class TestPerStep:
    """Given per-step distributions, a metric gives one value per step, each
    bit-equal to the metric of that step's row and to the scalar formula."""

    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(5)
        return (Distribution(rng.dirichlet(np.ones(7), size=40)),
                Distribution(rng.dirichlet(np.ones(7), size=40)))

    def test_comparisons_reduce_over_outcomes(self, pair):
        p, q = pair
        for metric in (hellinger_fidelity, l1_distance):
            values = metric(p, q)
            assert values.shape == (40,)
            assert values.tolist() == [metric(p[t], q[t]) for t in range(40)]
        for t in range(40):
            h2 = 0.5 * float(np.sum((np.sqrt(p.probs[t]) - np.sqrt(q.probs[t])) ** 2))
            assert hellinger_fidelity(p, q)[t] == (1.0 - min(h2, 1.0)) ** 2

    def test_selectivity_per_step(self, pair):
        p, _ = pair
        values = selectivity(p, 3)
        assert values.shape == (40,)
        for t in range(40):
            best = max(np.delete(p.probs[t, :-1], 3))
            assert values[t] == selectivity(p[t], 3) == math.log(p.probs[t, 3] / best)

    def test_selectivity_infinite_steps(self):
        series = dist([0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
        with pytest.warns(UserWarning):
            values = selectivity(series, 0)
        assert values.tolist() == [0.0, -math.inf, math.inf]

    def test_step_count_mismatch_rejected(self, pair):
        p, q = pair
        with pytest.raises(ValueError, match="steps and outcomes"):
            hellinger_fidelity(p, q[:39])


class TestFits:
    def test_linear_fit_recovers_line(self):
        fit = linear_fit([4, 8, 16], [9, 17, 33])
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["intercept"] == pytest.approx(1.0)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_inverse_fit_recovers_coefficient(self):
        fit = inverse_fit([4, 8, 16], [0.5, 0.25, 0.125])
        assert fit["coefficient"] == pytest.approx(2.0)
        assert fit["residual"] == pytest.approx(0.0, abs=1e-12)
