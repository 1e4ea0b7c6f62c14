"""Deterministic random streams derived from a single 64-bit seed.

Every randomized routine in the package draws from a stream keyed by
``(seed, index)``, so work can be partitioned across threads in any order
and still produce bit-identical results; :func:`ordered_map` is the one
place that does so.  Monte Carlo chunks, whose time is the sampler's, draw
from SFC64 streams seeded by ``SeedSequence`` spawn keys
(:func:`chunk_stream`); every other routine draws from counter-based
Philox sub-streams (:func:`substream`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

MAX_SEED = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for sub-stream ``index`` of ``seed``."""
    key = np.array([seed & MAX_SEED, index & MAX_SEED], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Return the SFC64 generator of Monte Carlo chunk ``index`` of
    ``seed``: the ``SeedSequence`` of ``seed`` at spawn key ``(index,)``.
    A chunk's draws are all binomials, about 20% cheaper on SFC64 than on
    Philox."""
    seq = np.random.SeedSequence(seed & MAX_SEED, spawn_key=(index & MAX_SEED,))
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
