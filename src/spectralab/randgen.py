"""Deterministic seeded sampling for every stochastic construction used here.

Streams are addressed by a (seed, stream_id) pair feeding a counter-based
Philox generator, so trial t of experiment X is reproducible without
generating anything that came before it. Samplers accept either an RngStream
(pure replay: the same stream always yields the same draws) or a live
numpy Generator for sequential use within a trial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadProbability, SizeMismatch

__all__ = [
    "RngStream",
    "bernoulli_entries",
    "gaussian_entries",
    "sample_complex_gaussian",
    "sample_exponential",
    "two_sequence_pick",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (seed, stream_id) fully determine the draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def sample_complex_gaussian(rng, n: int, variance: float = 1.0) -> np.ndarray:
    """i.i.d. complex Gaussians with E|z|^2 = variance (Re and Im each variance/2)."""
    if variance <= 0:
        raise ValueError("variance > 0 required")
    g = _gen(rng)
    s = np.sqrt(variance / 2.0)
    return g.normal(0.0, s, n) + 1j * g.normal(0.0, s, n)


def two_sequence_pick(a, b, p: float, rng) -> np.ndarray:
    """Element-wise random choice: a_k with probability p, else b_k, independently."""
    if not 0.0 < p < 1.0:
        raise BadProbability("p must lie strictly between 0 and 1")
    aa = np.asarray(a)
    bb = np.asarray(b)
    if aa.shape != bb.shape:
        raise SizeMismatch("sequences must have equal length")
    if aa.size and np.all(aa == bb):
        warnings.warn("the two sequences coincide on this prefix; the pick is degenerate",
                      stacklevel=2)
    g = _gen(rng)
    take_a = g.random(aa.shape) < p
    return np.where(take_a, aa, bb)


def sample_exponential(rng, n: int, rate: float = 1.0) -> np.ndarray:
    """Inverse-CDF exponential draws with the given rate."""
    if rate <= 0:
        raise ValueError("rate > 0 required")
    g = _gen(rng)
    return -np.log1p(-g.random(n)) / rate


def gaussian_entries(g: np.random.Generator, shape) -> np.ndarray:
    """Standard real Gaussian matrix entries."""
    return g.normal(0.0, 1.0, shape)


def bernoulli_entries(q: float = 0.5, values: Sequence[float] = (0.0, 1.0)) -> Callable:
    """Entry sampler: values[1] with probability q, else values[0]."""
    if not 0.0 < q < 1.0:
        raise BadProbability("q must lie strictly between 0 and 1")

    def sampler(g: np.random.Generator, shape) -> np.ndarray:
        return np.where(g.random(shape) < q, values[1], values[0])

    return sampler
