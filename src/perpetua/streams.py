"""Splittable deterministic random streams.

Every stochastic routine in this package draws from a ``RandomStream``, a
counter-based generator addressed by ``(seed, stream_id)``.  Streams with
distinct addresses are statistically independent, and the draws from a given
address are a pure function of the address: batch results do not depend on
execution order or chunking.

The implementation keys a Philox-4x64 counter generator directly, which numpy
documents as a supported way to create independent streams.  Each stream owns
a small number of lanes (sub-streams) so that, for example, the two marginals
of an independent pair can consume randomness without interleaving.

Building a keyed ``Philox`` costs far more than drawing a block from it, so a
batch that visits many streams one after another shares a ``LanePool``: one
generator per lane whose state is reset to the stream's key, counter 0 and an
empty buffer.  That is the state a freshly keyed generator starts in, so the
draws are the same bytes either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# Lane assignments.  Lane 0 is the stream's own draw sequence; lanes 1 and 2
# feed the M and Q marginals of an independent coupling.
LANE_MAIN = 0
LANE_M = 1
LANE_Q = 2

_N_LANES = 4


def _splitmix64(x: int) -> int:
    """One round of splitmix64; a 64-bit bijection used to derive seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, tag: int) -> int:
    """Deterministically derive an auxiliary seed from ``seed``.

    Used when an operation needs several independent batches (for example a
    fixed-point residual needs two sample sets plus a set of fresh pairs)
    without the caller having to manage seed arithmetic.
    """
    return _splitmix64((seed & _MASK64) ^ _splitmix64(tag & _MASK64))


class LanePool:
    """One reusable Philox generator per lane, re-keyed for each stream.

    A pooled stream's generators stay valid until another stream of the same
    pool asks for the same lane, so finish with a stream before starting the
    next.
    """

    def __init__(self):
        self._lanes: dict[int, tuple[Generator, dict]] = {}

    def rekeyed(self, lane: int, key: tuple[int, int]) -> Generator:
        """The lane's generator, reset to the fresh state of ``Philox(key=key)``."""
        entry = self._lanes.get(lane)
        if entry is None:
            gen = Generator(Philox(key=np.array(key, dtype=np.uint64)))
            self._lanes[lane] = (gen, gen.bit_generator.state)
            return gen
        gen, fresh = entry
        fresh_key = fresh["state"]["key"]
        fresh_key[0], fresh_key[1] = key
        gen.bit_generator.state = fresh
        return gen


@dataclass(eq=True)
class RandomStream:
    """Addressable source of randomness; a value type keyed by (seed, stream_id).

    ``stream_id`` is typically the index of a sample within a batch.  Ids
    below 2**62 are guaranteed collision-free across lanes.  With a ``pool``
    the stream re-keys the pool's generators instead of building its own.
    """

    seed: int
    stream_id: int = 0
    pool: LanePool | None = field(default=None, repr=False, compare=False)
    _gens: dict = field(default_factory=dict, repr=False, compare=False)

    def generator(self, lane: int = LANE_MAIN) -> Generator:
        """Return the lazily-created generator for one lane of this stream."""
        gen = self._gens.get(lane)
        if gen is None:
            if not 0 <= lane < _N_LANES:
                raise ValueError(f"lane must be in [0, {_N_LANES}), got {lane}")
            key = (self.seed & _MASK64, ((self.stream_id * _N_LANES) + lane) & _MASK64)
            if self.pool is None:
                gen = Generator(Philox(key=np.array(key, dtype=np.uint64)))
            else:
                gen = self.pool.rekeyed(lane, key)
            self._gens[lane] = gen
        return gen
