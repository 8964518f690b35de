"""Benchmark quantities computed from vertex probability distributions.

All comparisons align the two distributions over the union of their
outcome labels, treating missing labels as probability zero.  The noisy
side of a comparison usually carries a "leakage" label that the ideal
side lacks; alignment handles that without special-casing.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .states import LEAKAGE, _as_outcome_probs, canonical_labels


def _aligned(p, q):
    po, qo = _as_outcome_probs(p), _as_outcome_probs(q)
    labels = canonical_labels(po, qo)
    pv = np.array([po.get(l, 0.0) for l in labels], dtype=float)
    qv = np.array([qo.get(l, 0.0) for l in labels], dtype=float)
    return np.maximum(pv, 0.0), np.maximum(qv, 0.0)


def hellinger_fidelity(p, q) -> float:
    """Classical fidelity [1 - H(P,Q)^2]^2 between two distributions.

    H is the Hellinger distance sqrt(sum (sqrt(p_i) - sqrt(q_i))^2) / sqrt(2);
    the fidelity runs from 0 (disjoint supports) to 1 (identical).
    """
    pv, qv = _aligned(p, q)
    h2 = 0.5 * float(np.sum((np.sqrt(pv) - np.sqrt(qv)) ** 2))
    h2 = min(h2, 1.0)
    return (1.0 - h2) ** 2


def l1_distance(p, q) -> float:
    """Taxicab distance sum |p_i - q_i|, between 0 and 2."""
    pv, qv = _aligned(p, q)
    return float(np.sum(np.abs(pv - qv)))


def success_probability(series, marked) -> tuple:
    """(peak marked-vertex probability, first step attaining it)."""
    if not series:
        raise ValueError("empty distribution series")
    probs = [_as_outcome_probs(d).get(marked, 0.0) for d in series]
    peak = max(probs)
    return float(peak), int(probs.index(peak))


def hitting_time(series, marked) -> int:
    """Steps until the marked-vertex probability first reaches its maximum."""
    return success_probability(series, marked)[1]


def degraded_ratio(noisy_peak: float, ideal_peak: float) -> float:
    """Noisy-to-ideal success probability ratio."""
    if ideal_peak <= 0:
        raise ValueError("ideal peak must be positive")
    return noisy_peak / ideal_peak


def selectivity(dist, marked) -> float:
    """ln(P(marked) / max unmarked vertex probability), leakage excluded.

    Returns +inf (with a warning) when every unmarked vertex has zero
    probability.
    """
    outcomes = _as_outcome_probs(dist)
    p_marked = outcomes.get(marked, 0.0)
    unmarked = [p for label, p in outcomes.items()
                if label != marked and label != LEAKAGE]
    best = max(unmarked, default=0.0)
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
