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
batch draws the first rows of a whole wave of streams through a ``LanePool``:
one generator per lane whose state is reset to each stream's key, counter 0
and an empty buffer.  That is the state a freshly keyed generator starts in,
so the draws are the same bytes either way.  ``LanePool.rekeyed`` walks a lane
over the wave's stream ids: the seed word of the key is set once, and each id
costs one state assignment before its draw.  Draws that outrun a wave's
rows, and draws outside a batch, use a ``RandomStream`` each, with
generators of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# Lane assignments.  Lane 0 is the stream's own draw sequence; lanes 1 and 2
# feed the M and Q marginals of an independent coupling.
LANE_MAIN = 0
LANE_M = 1
LANE_Q = 2

_N_LANES = 4

# Names what a (seed, stream id) yields: the Philox-4x64 lane keys above, the
# family samplers of ``perpetua.laws`` and the series sum of
# ``perpetua.sampling._accumulate``.  v1 drew every beta law with
# ``Generator.beta``; v2 draws Beta(a, 1) and Beta(1, b) by inverting one
# ``random()`` block; v3 sums v2's pairs by the plain recursion, each 48-pair
# block's products running on from the carried one.
STREAM_SCHEME = "philox4x64-lane-v3"


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
    """One reusable Philox generator per lane, re-keyed for each stream of a wave.

    A joint law's ``draw_rows`` draws a batch wave's first rows through it.
    """

    def __init__(self):
        self._lanes: dict[int, tuple[Generator, dict]] = {}

    def rekeyed(self, lane: int, seed: int, stream_ids) -> Iterator[Generator]:
        """The lane's generator, reset in turn to the fresh state of each stream.

        Before it is yielded for stream id i, the generator is in the state
        ``Philox(key=...)`` starts in for stream (seed, i); use it before
        asking for the next.
        """
        entry = self._lanes.get(lane)
        if entry is None:
            gen = Generator(Philox(key=0))
            entry = self._lanes[lane] = (gen, gen.bit_generator.state)
        gen, fresh = entry
        bit_generator = gen.bit_generator
        key = fresh["state"]["key"]
        key[0] = seed & _MASK64
        for i in stream_ids:
            key[1] = (i * _N_LANES + lane) & _MASK64
            bit_generator.state = fresh
            yield gen


@dataclass(eq=True)
class RandomStream:
    """Addressable source of randomness; a value type keyed by (seed, stream_id).

    ``stream_id`` is typically the index of a sample within a batch.  Ids
    below 2**62 are guaranteed collision-free across lanes.  Each lane's
    generator is keyed on first use and kept, so the stream reads on where
    its last draw stopped.
    """

    seed: int
    stream_id: int = 0
    _gens: dict = field(default_factory=dict, repr=False, compare=False)

    def generator(self, lane: int = LANE_MAIN) -> Generator:
        """Return the lazily-created generator for one lane of this stream."""
        gen = self._gens.get(lane)
        if gen is None:
            if not 0 <= lane < _N_LANES:
                raise ValueError(f"lane must be in [0, {_N_LANES}), got {lane}")
            key = (self.seed & _MASK64, (self.stream_id * _N_LANES + lane) & _MASK64)
            gen = Generator(Philox(key=np.array(key, dtype=np.uint64)))
            self._gens[lane] = gen
        return gen
