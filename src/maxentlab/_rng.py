"""Deterministic random streams derived from a single 64-bit seed.

Every randomized routine in the package draws from a stream keyed by
``(seed, index)``, so work can be partitioned across threads in any order
and still produce bit-identical results; :func:`ordered_map` is the one
place that does so.  Monte Carlo chunks, whose time is the sampler's, draw
from SFC64 streams seeded by ``SeedSequence`` spawn keys
(:func:`chunk_stream`); every other routine draws from counter-based
Philox sub-streams (:func:`substream`).  Both take seeds in
0..2**64 - 1 and raise :class:`~maxentlab.errors.DomainError` on any other.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

MAX_SEED = (1 << 64) - 1


def _checked(seed: int) -> int:
    """``seed``, or :class:`DomainError` when it is outside 0..2**64 - 1,
    where a stream would read it as its value mod 2**64."""
    if not 0 <= seed <= MAX_SEED:
        raise DomainError(f"seed must be in 0..2**64 - 1, got {seed}")
    return seed


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for sub-stream ``index`` of ``seed``."""
    key = np.array([_checked(seed), index & MAX_SEED], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Return the SFC64 generator of Monte Carlo chunk ``index`` of
    ``seed``: the ``SeedSequence`` of ``seed`` at spawn key ``(index,)``.
    A chunk's draws are all binomials, about 20% cheaper on SFC64 than on
    Philox."""
    seq = np.random.SeedSequence(_checked(seed), spawn_key=(index & MAX_SEED,))
    return np.random.Generator(np.random.SFC64(seq))


def random_simplex(rng: np.random.Generator, k: int, floor: float) -> np.ndarray:
    """A random point of the ``k``-outcome simplex: ``k`` standard uniforms,
    each plus ``floor``, divided by their sum."""
    w = rng.random(k) + floor
    return w / w.sum()


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, computed on a pool of ``threads`` threads
    when ``threads > 1``; the results keep the order of ``items``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
