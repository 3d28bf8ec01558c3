"""Exact weighted draws over raster-sized weight vectors.

``Generator.choice(k, size=n, p=p)`` validates ``p``, builds its CDF
(``cdf = p.cumsum(); cdf /= cdf[-1]``) and then draws
``cdf.searchsorted(rng.random(n), side="right")``.  Over a 577k-cell
ignition grid the validation and the CDF cost far more than the draw,
and the generators below ask for the same weights many times (once per
fire season, ensemble member or sampler call).  Splitting the two halves
lets callers build the CDF once and memoize it; every draw is still
bit-identical to ``choice`` and leaves the generator in the same state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["weighted_cdf", "draw_from_cdf"]


def weighted_cdf(weights) -> np.ndarray:
    """The CDF ``choice(p=weights / weights.sum())`` draws from.

    Raises ``ValueError`` for the inputs ``choice`` rejects or cannot
    normalize: NaN, negative or zero-total (or non-finite-total)
    weights.
    """
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if np.isnan(total):
        raise ValueError("weights contain NaN")
    if (weights < 0).any():
        raise ValueError("weights are not non-negative")
    if not 0.0 < total < np.inf:
        raise ValueError("weights must have a positive, finite total")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(cdf: np.ndarray, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``size`` category indices, exactly as ``rng.choice(p=…)`` draws."""
    return cdf.searchsorted(rng.random(size), side="right")
