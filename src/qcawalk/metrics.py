"""Benchmark quantities computed from vertex probability distributions.

Every backend reads out the same outcome layout (vertices 0..V-1, then
leakage; see :class:`qcawalk.states.Distribution`), so a metric is a
reduction over the outcome axis: on per-step distributions it gives one
value per step in one call.  The ideal side of a comparison carries its
leakage slot as an explicit zero.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

#: ln(p / best) elementwise: +inf where best <= 0, else -inf where p <= 0.  It
#: is the C library's log; numpy's takes a SIMD path on some CPUs that
#: differs from it in the last digit.
_log_ratio = np.vectorize(lambda p, best: math.inf if best <= 0.0 else
                          -math.inf if p <= 0.0 else math.log(p / best), otypes=[float])


def _pair(p, q):
    """Two same-shape probability arrays, negative rounding residue clamped to 0."""
    if p.probs.shape != q.probs.shape:
        raise ValueError(f"distributions of shapes {p.probs.shape} and {q.probs.shape}: "
                         "steps and outcomes must match")
    return np.maximum(p.probs, 0.0), np.maximum(q.probs, 0.0)


def _marked_index(dist, marked) -> int:
    """Outcome index of the marked vertex; leakage is not a vertex."""
    if (i := dist.index(marked)) == dist.probs.shape[-1] - 1:
        raise ValueError(f"marked outcome {marked!r} is not a vertex")
    return i


def hellinger_fidelity(p, q):
    """Classical fidelity [1 - H(P,Q)^2]^2 between two distributions, one
    value per step.

    H is the Hellinger distance sqrt(sum (sqrt(p_i) - sqrt(q_i))^2) / sqrt(2);
    the fidelity runs from 0 (disjoint supports) to 1 (identical).
    """
    pv, qv = _pair(p, q)
    h2 = np.minimum(0.5 * np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2, axis=-1), 1.0)
    # the C library's pow, as Python's float ** is; numpy's x**2 differs from
    # it in the last digit on about 1 value in 1000
    return np.float_power(1.0 - h2, 2)


def l1_distance(p, q):
    """Taxicab distance sum |p_i - q_i|, between 0 and 2, one value per step."""
    pv, qv = _pair(p, q)
    return np.sum(np.abs(pv - qv), axis=-1)


def success_probability(series, marked) -> tuple:
    """(peak marked-vertex probability, first step attaining it) of a
    per-step distribution."""
    if series.probs.ndim != 2:
        raise ValueError("success probability needs a per-step distribution")
    probs = series.probs[:, _marked_index(series, marked)]
    step = int(np.argmax(probs))
    return float(probs[step]), step


def hitting_time(series, marked) -> int:
    """Steps until the marked-vertex probability first reaches its maximum."""
    return success_probability(series, marked)[1]


def degraded_ratio(noisy_peak: float, ideal_peak: float) -> float | None:
    """Noisy-to-ideal success probability ratio; None (undefined) when the
    ideal peak is 0, e.g. a 0-step search started off the marked vertex."""
    return noisy_peak / ideal_peak if ideal_peak > 0 else None


def selectivity(dist, marked):
    """ln(P(marked) / max unmarked vertex probability), leakage excluded,
    one value per step.

    +inf (with a warning) at a step where every unmarked vertex has zero
    probability, else -inf where the marked vertex has.
    """
    i = _marked_index(dist, marked)
    best = np.delete(dist.probs[..., :-1], i, axis=-1).max(axis=-1, initial=0.0)
    if np.any(best <= 0.0):
        warnings.warn("selectivity undefined: no unmarked probability mass", stacklevel=2)
    return _log_ratio(dist.probs[..., i], best)[()]


def linear_fit(xs, ys) -> dict:
    """Least-squares line y = slope*x + intercept with R^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}


def inverse_fit(xs, ys) -> dict:
    """Least-squares fit y = c / x with the residual sum of squares."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    basis = 1.0 / xs
    c = float(np.dot(basis, ys) / np.dot(basis, basis))
    residual = float(np.sum((ys - c * basis) ** 2))
    return {"coefficient": c, "residual": residual}
