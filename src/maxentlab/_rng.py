"""Deterministic random sub-streams derived from a single 64-bit seed.

Every randomized routine in the package draws from a named sub-stream
keyed by ``(seed, index)``.  Sub-streams are counter-based (Philox), so
work can be partitioned across threads in any order and still produce
bit-identical results; :func:`ordered_map` is the one place that does so.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for sub-stream ``index`` of ``seed``."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, computed on a pool of ``threads`` threads
    when ``threads > 1``; the results keep the order of ``items``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
