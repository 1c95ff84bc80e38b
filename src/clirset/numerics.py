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
    """Logistic function, overflow-safe for large |z|, scalar or ndarray."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    # The same ufuncs in the same order as 1.0 / (1.0 + np.exp(-z)) and
    # ez / (1.0 + ez), each step written over the one before.
    t = z[pos]
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(1.0, t, out=t)
    out[pos] = np.divide(1.0, t, out=t)
    neg = ~pos
    ez = z[neg]
    np.exp(ez, out=ez)
    t = np.add(1.0, ez)
    out[neg] = np.divide(ez, t, out=t)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(z):
    """log(1 + exp(z)) without overflow; equals -log sigmoid(-z)."""
    return np.logaddexp(0.0, z)
