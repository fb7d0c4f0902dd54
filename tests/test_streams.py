import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perpetua.streams import (LANE_M, LANE_MAIN, LANE_Q, LanePool,
                              RandomStream, derive_seed)


def test_same_address_is_bit_identical():
    a = RandomStream(seed=42, stream_id=7).generator().random(256)
    b = RandomStream(seed=42, stream_id=7).generator().random(256)
    np.testing.assert_array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RandomStream(seed=42, stream_id=0).generator().random(64)
    b = RandomStream(seed=42, stream_id=1).generator().random(64)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RandomStream(seed=1).generator().random(64)
    b = RandomStream(seed=2).generator().random(64)
    assert not np.array_equal(a, b)


def test_lanes_are_independent_sequences():
    s = RandomStream(seed=5)
    main = s.generator(LANE_MAIN).random(64)
    m = RandomStream(s.seed, s.stream_id, s.pool).generator(LANE_M).random(64)
    q = RandomStream(s.seed, s.stream_id, s.pool).generator(LANE_Q).random(64)
    assert not np.array_equal(main, m)
    assert not np.array_equal(main, q)
    assert not np.array_equal(m, q)


def test_generator_is_cached_and_stateful():
    s = RandomStream(seed=9)
    first = s.generator().random(8)
    second = s.generator().random(8)
    assert not np.array_equal(first, second)
    rewound = RandomStream(s.seed, s.stream_id, s.pool).generator().random(8)
    np.testing.assert_array_equal(first, rewound)


def test_lane_out_of_range_rejected():
    with pytest.raises(ValueError):
        RandomStream(seed=0).generator(17)


def test_stream_id_lane_packing_never_collides():
    # id i lane l maps to counter key i*4+l; neighboring ids share no key.
    a = RandomStream(seed=3, stream_id=0).generator(LANE_Q).random(32)
    b = RandomStream(seed=3, stream_id=1).generator(LANE_MAIN).random(32)
    assert not np.array_equal(a, b)


def test_pooled_streams_match_fresh_generators():
    # a pooled stream re-keys one generator per lane; a draw that leaves a
    # half-used 32-bit word buffered must not leak into the next stream
    pool = LanePool()
    for sid in (0, 1, 2, 2**40, 7):
        for lane in (LANE_M, LANE_Q, LANE_MAIN):
            pooled = RandomStream(11, sid, pool).generator(lane)
            fresh = RandomStream(11, sid).generator(lane)
            np.testing.assert_array_equal(pooled.integers(0, 2, 47),
                                          fresh.integers(0, 2, 47))
            np.testing.assert_array_equal(pooled.random(5), fresh.random(5))


def test_pooled_stream_keeps_its_generator_until_reused():
    pool = LanePool()
    s = RandomStream(4, 3, pool)
    first = s.generator().random(8)
    second = s.generator().random(8)
    np.testing.assert_array_equal(np.concatenate([first, second]),
                                  RandomStream(4, 3).generator().random(16))
    rewound = RandomStream(s.seed, s.stream_id, s.pool).generator().random(8)
    np.testing.assert_array_equal(rewound, first)


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(123, 0) == derive_seed(123, 0)
    seen = {derive_seed(123, t) for t in range(64)}
    assert len(seen) == 64
    assert all(0 <= s < 2**64 for s in seen)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**62 - 1))
def test_streams_reproducible_property(seed, sid):
    x = RandomStream(seed, sid).generator().random(4)
    y = RandomStream(seed, sid).generator().random(4)
    np.testing.assert_array_equal(x, y)


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_in_range(seed, tag):
    assert 0 <= derive_seed(seed, tag) < 2**64
