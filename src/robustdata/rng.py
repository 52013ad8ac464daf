"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from an explicit RngStream.
A stream is fully described by (seed, counter): each draw call re-keys the
stream's Philox generator from the pair and bumps the counter, so identical
state always yields identical values, on any platform, regardless of how
many values earlier calls consumed.

The key is the one numpy's Philox made of the tuple (mix, seed) when every
draw built a new generator, written out by `philox_key` so that no step of
it is a platform-defined cast.

Streams are not shared between parallel workers; derive independent child
streams with `child(stream_id)` before fanning out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_HIGH_BIT = 1 << 63
# the rest of a Philox state as Philox(key=...) leaves it: an empty output buffer
_FRESH_PHILOX = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _mix64(x: int) -> int:
    # splitmix64 finalizer; stable integer arithmetic only.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def philox_key(pair: tuple[int, int]) -> tuple[int, int]:
    """The key np.random.Philox(key=pair) sets for two ints in [0, 2^64).

    numpy reads an int below 2^63 as int64 and one at or above it as uint64,
    so a pair with exactly one element of each kind is promoted to float64
    and keeps 53 significant bits per element. A value that rounds to 2^64
    is then an invalid float-to-uint64 cast, platform-defined in numpy (with
    a RuntimeWarning); here it is 2^64 mod 2^64 = 0.
    """
    a, b = pair
    if (a ^ b) & _HIGH_BIT:
        return int(float(a)) & _MASK64, int(float(b)) & _MASK64
    return a, b


@dataclass
class RngStream:
    """Counter-based random stream: (seed, counter) determines all future draws."""

    seed: int
    counter: int = field(default=0)
    # one generator per stream, re-keyed per draw: cheaper than building a new one
    _cached: Optional[np.random.Generator] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self.counter = int(self.counter) & _MASK64

    def child(self, stream_id: int) -> "RngStream":
        """Derive an independent stream; deterministic in (seed, stream_id)."""
        return RngStream(_mix64(self.seed ^ _mix64(int(stream_id) & _MASK64)))

    def _generator(self) -> np.random.Generator:
        """The stream's generator, keyed as a fresh Philox(key=philox_key(...)) is; bumps the counter."""
        key = philox_key((_mix64(self.seed ^ _mix64(self.counter)), self.seed))
        self.counter = (self.counter + 1) & _MASK64
        if self._cached is None:
            self._cached = np.random.Generator(np.random.Philox(key=0))
        self._cached.bit_generator.state = dict(_FRESH_PHILOX, state={"counter": (0, 0, 0, 0), "key": key})
        return self._cached

    def normal(self, mean: float, std: float, shape) -> np.ndarray:
        if std < 0:
            raise ParameterError(f"std must be >= 0, got {std}")
        if std == 0:
            self.counter = (self.counter + 1) & _MASK64
            return np.full(shape, float(mean))
        return self._generator().normal(float(mean), float(std), size=shape)

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        return self._generator().uniform(float(lo), float(hi), size=shape)

    def laplace(self, mean: float, scale: float, shape) -> np.ndarray:
        if scale < 0:
            raise ParameterError(f"scale must be >= 0, got {scale}")
        return self._generator().laplace(float(mean), float(scale), size=shape)

    def rademacher(self, shape) -> np.ndarray:
        """Uniform draws from {-1, +1}."""
        return self._generator().integers(0, 2, size=shape) * 2.0 - 1.0

    def bernoulli(self, p: float, shape) -> np.ndarray:
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {p}")
        return (self._generator().random(size=shape) < p).astype(np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(int(n))

    def integers(self, lo: int, hi: int, shape=None) -> np.ndarray:
        return self._generator().integers(int(lo), int(hi), size=shape)
