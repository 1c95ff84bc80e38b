"""Small numerically careful primitives used by the probabilistic modules.

Also the bulk random draws that the instance sampler and `synth` share:
`Choices` and `random_floats` read many `rng.choice` and `rng.random()`
results at once off the 32-bit Mersenne Twister words (Matsumoto &
Nishimura 1998) that CPython's `random.Random` would use for them, and
give the same values in the same order, leaving `rng` where the one-at-a-
time calls would.
"""

from __future__ import annotations

import math
import random

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


# 32-bit words that `Choices` pulls from the generator at a time.
_CHUNK_WORDS = 1 << 14


class Choices:
    """`rng.choice(seq)` draws, many at a time, off the words `rng` would use.

    CPython's `choice` over n items takes one 32-bit Mersenne Twister word
    per attempt, keeps its top `n.bit_length()` bits, and tries again while
    they are >= n; `getrandbits(32 * m)` returns the next m words, word i
    at bits 32i to 32i + 31. `close` puts `rng` back where the last chunk
    began and advances it by the words used, as the `choice` calls would.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.state = None  # rng's state where self.words began
        self.words = np.empty(0, dtype=np.uint32)
        self.used = 0  # words of self.words that draws have taken

    def draw(self, n: int, count: int) -> np.ndarray:
        """The indices (uint32) that the next `count` `rng.choice` calls over n items pick.

        Above 32 bits `choice` takes two words per attempt, which this
        one-word reading would not reproduce, so n must be in [1, 2**32).
        """
        if not 1 <= n < 1 << 32:
            raise ValueError(f"bulk choice draws need 1 <= n < 2**32, not n = {n}")
        picks = []
        while count:
            if self.used == len(self.words):
                self.state = self.rng.getstate()
                bits = self.rng.getrandbits(32 * _CHUNK_WORDS)
                self.words = np.frombuffer(bits.to_bytes(4 * _CHUNK_WORDS, "little"), "<u4")
                self.used = 0
            # an attempt succeeds with probability at least 1/2, so the
            # window usually holds every draw still to make
            window = self.words[self.used : self.used + 2 * count + 32] >> (32 - n.bit_length())
            hits = np.flatnonzero(window < n)[:count]
            picks.append(window[hits])
            count -= len(hits)
            self.used += (int(hits[-1]) + 1) if count == 0 else len(window)
        return np.concatenate(picks)

    def close(self) -> None:
        if self.state is not None:
            self.rng.setstate(self.state)
            self.rng.getrandbits(32 * self.used)


def random_floats(rng: random.Random, m: int) -> np.ndarray:
    """The next m values of `rng.random()`, as float64, from one `getrandbits(64 * m)`.

    `random()` reads two words a and b and returns
    ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, every step exact in float64;
    word 2j is the j-th value's a and word 2j + 1 its b, and the generator
    ends where m `random()` calls would leave it.
    """
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4")
    high = (words[0::2] >> 5).astype(np.float64)
    return (high * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
