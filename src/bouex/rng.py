"""Counter-based random streams.

Every unit of Monte Carlo work draws from a Philox stream keyed by
``(seed, index)``.  Streams with distinct keys are independent.  `chunks`
is the only mapping from work unit to stream: it cuts n replicas into
consecutive units of a fixed size, and unit j draws from
``substream(seed, j)`` (or from indices derived from j), so identical
``(seed, config, size)`` gives bit-identical output.  Since no two units
share a generator, units may also run at once on different threads
(`cloud._run`, on the one runner `cloud._ordered`): a unit's draws, and
so its output, do not depend on which thread runs it or when.  Only the
unit size decides which stream a replica draws from.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for work unit `index` of the family keyed by `seed`."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    key = (int(seed) & _MASK64) | ((int(index) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def spawn_seed(rng: np.random.Generator) -> int:
    """Derive a fresh 63-bit seed from an existing generator."""
    return int(rng.integers(0, 2**63 - 1))


def chunks(n: int, size: int):
    """Yield (j, start, m): unit j covers replicas [start, start + m).

    Units are consecutive, of `size` replicas each except a shorter last
    one; unit j is meant to draw from ``substream(seed, j)``.
    """
    for j, start in enumerate(range(0, n, size)):
        yield j, start, min(size, n - start)
