"""Small numerically careful primitives used by the probabilistic modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

# Global probability floor: evidence never reaches exactly 0 or 1, so every
# downstream log and ratio stays finite.
DEFAULT_EPSILON = 1e-6


def require_positive(name: str, value: float) -> None:
    """Reject a parameter that is NaN, infinite, zero or negative."""
    if not (math.isfinite(value) and value > 0.0):
        raise DataError(f"{name} {value!r} must be finite and positive")


def sigmoid(z):
    """Logistic function, overflow-safe for large |z|, scalar or ndarray.

    1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, in
    one pass: exp(min(z, -z)) is exp(-z) or exp(z), and NaN stays the NaN
    it was.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    if out.ndim == 0:
        return float(out)
    return out


def softplus(z):
    """log(1 + exp(z)) without overflow; equals -log sigmoid(-z)."""
    return np.logaddexp(0.0, z)
