"""Seeded randomness shared across the package.

Every stochastic component draws from numpy's Philox bit generator, a
64-bit counter-based PRNG with a published specification (Philox4x64-10),
so a given seed reproduces the same stream on every platform.  Sub-seeds
for independent components (trees of a forest, per-entry ensembles) are
derived with a splitmix64 mix so streams stay decorrelated while the
derivation itself remains reproducible across implementations.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-keyed :class:`numpy.random.Generator` for ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, *indices: int) -> int:
    """Mix ``seed`` with stream ``indices`` into a fresh 64-bit seed.

    The mix is a splitmix64 chain, one step per index, so the same
    (seed, indices) pair always yields the same derived seed and
    distinct indices yield decorrelated ones.
    """
    z = int(seed) & _MASK64
    for ix in indices:
        z = _splitmix64(z ^ (((int(ix) & _MASK64) * _GOLDEN) & _MASK64))
    return z
