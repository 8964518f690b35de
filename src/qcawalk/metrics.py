"""Benchmark quantities computed from vertex probability distributions.

Every backend reads out the same outcome layout (vertices 0..V-1, then
leakage; see :class:`qcawalk.states.Distribution`), so a comparison is an
elementwise reduction over two arrays of the same shape.  The ideal side
of a comparison carries its leakage slot as an explicit zero.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def _pair(p, q):
    """The probability arrays of two distributions over the same outcomes,
    negative rounding residue clamped to 0."""
    if p.probs.shape != q.probs.shape:
        raise ValueError(f"distributions over {p.probs.size} and {q.probs.size} outcomes")
    return np.maximum(p.probs, 0.0), np.maximum(q.probs, 0.0)


def hellinger_fidelity(p, q) -> float:
    """Classical fidelity [1 - H(P,Q)^2]^2 between two distributions.

    H is the Hellinger distance sqrt(sum (sqrt(p_i) - sqrt(q_i))^2) / sqrt(2);
    the fidelity runs from 0 (disjoint supports) to 1 (identical).
    """
    pv, qv = _pair(p, q)
    h2 = 0.5 * float(np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2))
    h2 = min(h2, 1.0)
    return (1.0 - h2) ** 2


def l1_distance(p, q) -> float:
    """Taxicab distance sum |p_i - q_i|, between 0 and 2."""
    pv, qv = _pair(p, q)
    return float(np.sum(np.abs(pv - qv)))


def success_probability(series, marked) -> tuple:
    """(peak marked-vertex probability, first step attaining it)."""
    if not series:
        raise ValueError("empty distribution series")
    probs = [d.get(marked) for d in series]
    peak = max(probs)
    return float(peak), int(probs.index(peak))


def hitting_time(series, marked) -> int:
    """Steps until the marked-vertex probability first reaches its maximum."""
    return success_probability(series, marked)[1]


def degraded_ratio(noisy_peak: float, ideal_peak: float) -> float | None:
    """Noisy-to-ideal success probability ratio; None (undefined) when the
    ideal peak is 0, e.g. a 0-step search started off the marked vertex."""
    return noisy_peak / ideal_peak if ideal_peak > 0 else None


def selectivity(dist, marked) -> float:
    """ln(P(marked) / max unmarked vertex probability), leakage excluded.

    Returns +inf (with a warning) when every unmarked vertex has zero
    probability.
    """
    i = dist.index(marked)
    p_marked = float(dist.probs[i])
    best = float(np.delete(dist.probs[:-1], i).max(initial=0.0))
    if best <= 0.0:
        warnings.warn("selectivity undefined: no unmarked probability mass", stacklevel=2)
        return math.inf
    if p_marked <= 0.0:
        return -math.inf
    return math.log(p_marked / best)


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
