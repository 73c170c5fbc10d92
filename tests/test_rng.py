import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ReferenceStream, hash_parts, mix64, splitmix64
from vissm import data as D
from vissm.rng import SplitMix64, advance, below_array, hash_combine, hash_combine_array, stream_u64

U53 = 2.0 ** -53


def test_published_outputs():
    """splitmix64's first outputs at the seeds its reference tables use."""
    assert splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                      9817491932198370423]
    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    for seed in (1234567, 0):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(3)] == splitmix64(seed, 3)


def test_scalar_and_array_streams_agree():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    scalar = [a.next_u64() for _ in range(257)]
    bulk = b._next_u64_array(257).tolist()
    ref = ReferenceStream(12345)
    expected = [ref.next_u64() for _ in range(258)]
    assert scalar == bulk == expected[:257]
    # continue drawing: both streams must stay in sync
    assert a.next_u64() == b.next_u64() == expected[-1]
    assert a.get_state() == b.get_state() == (ref.state, 258)


def test_uniform_array_matches_scalar_path():
    a = SplitMix64(7)
    b = SplitMix64(7)
    us = [a.uniform(-1.0, 3.0) for _ in range(64)]
    arr = b.uniform_array((64,), -1.0, 3.0)
    ref = ReferenceStream(7)
    assert us == arr.tolist() == [ref.uniform(-1.0, 3.0) for _ in range(64)]
    assert all(type(u) is float for u in us)


def test_normal_array_matches_scalar_path():
    a = SplitMix64(99)
    b = SplitMix64(99)
    ns = [a.normal(0.5, 2.0) for _ in range(500)]
    arr = b.normal_array((500,), 0.5, 2.0)
    assert ns == arr.tolist()
    assert all(type(z) is float for z in ns)
    raw = splitmix64(99, 1000)
    # the same Box-Muller in libm's math, which may differ from numpy's in the last place
    ref = [0.5 + 2.0 * math.sqrt(-2.0 * math.log(1.0 - (u1 >> 11) * U53))
           * math.cos(2.0 * math.pi * ((u2 >> 11) * U53)) for u1, u2 in zip(raw[0::2], raw[1::2])]
    np.testing.assert_allclose(arr, ref, rtol=1e-14, atol=1e-14)


def test_determinism_and_seed_sensitivity():
    assert SplitMix64(1).next_u64() == SplitMix64(1).next_u64()
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()
    # seed 0 still yields a nonzero first output (state advances before mixing)
    assert SplitMix64(0).next_u64() != 0
    assert mix64(1) != 1


def test_uniform_range_and_rough_mean():
    rng = SplitMix64(42)
    u = rng.uniform_array((10000,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_rough_moments():
    rng = SplitMix64(43)
    z = rng.normal_array((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_below_bounds_and_shuffle_permutes():
    rng = SplitMix64(5)
    draws = [rng.below(7) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) <= 6
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 1000])
def test_shuffle_is_fisher_yates_on_the_reference_stream(n):
    rng, stream = SplitMix64(5), ReferenceStream(5)
    assert rng.next_u64() == stream.next_u64()
    items = [f"item{i}" for i in range(n)]
    rng.shuffle(items)
    ref = [f"item{i}" for i in range(n)]
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        ref[i], ref[j] = ref[j], ref[i]
    assert items == ref
    assert rng.get_state() == (stream.state, max(n, 1))


def test_state_roundtrip_resumes_stream():
    rng = SplitMix64(11)
    rng.uniform_array((10,))
    saved = rng.get_state()
    ahead = [rng.next_u64() for _ in range(5)]
    rng2 = SplitMix64(0)
    rng2.set_state(saved)
    assert [rng2.next_u64() for _ in range(5)] == ahead


def test_hash_combine_order_sensitive():
    assert hash_combine(1, 2) != hash_combine(2, 1)
    assert hash_combine(1, 2) == hash_combine(1, 2)
    assert hash_combine() == 0 and type(hash_combine(1, 2)) is int


# seeds inside uint64, negative, at and past 2^63, and past 2^64: hash_combine
# reduces each part mod 2^64, which np.uint64 would refuse to do
SEEDS = st.integers(-2**70, 2**70) | st.sampled_from([-5, -1, 0, 2**63, 2**63 + 5, 2**64 - 1,
                                                      2**64, 2**70 + 3])


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, tag=st.integers(0, 2**32), first=st.integers(0, 2**40),
       skip=st.integers(0, 50), count=st.integers(0, 5))
def test_many_streams_match_the_scalar_streams(seed, tag, first, skip, count):
    indices = np.arange(first, first + 4)
    states = hash_combine_array(seed, indices, tag)
    assert states.dtype == np.uint64
    assert states.tolist() == [hash_parts(seed, int(i), tag) for i in indices]
    assert hash_combine(seed, tag) == hash_parts(seed, tag)
    skips = np.arange(skip, skip + 4, dtype=np.uint64)  # a different offset per stream
    drawn = stream_u64(advance(states, skips), count)
    assert drawn.shape == (4, count)
    for state, offset, row in zip(states.tolist(), skips.tolist(), drawn.tolist()):
        assert row == splitmix64(state, offset + count)[offset:]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2**32 - 1), seed=SEEDS)
@example(n=D._MAX_WAVES - D._MIN_WAVES + 1, seed=1)  # the two n synthesis draws with
@example(n=2, seed=1)
@example(n=3, seed=1)
def test_below_array_is_the_scalar_below(n, seed):
    states = hash_combine_array(seed, np.arange(4))
    ref = [[(u * n) >> 64 for u in splitmix64(state, 16)] for state in states.tolist()]
    assert below_array(stream_u64(states, 16), n).tolist() == ref
    assert [[rng.below(n) for _ in range(16)] for rng in map(SplitMix64, states.tolist())] == ref
    bounds = np.array([n, 1, 2**32 - 1, max(n // 3, 1)])  # a bound per stream
    assert below_array(stream_u64(states, 16), bounds[:, None]).tolist() == [
        [(u * int(b)) >> 64 for u in splitmix64(state, 16)]
        for state, b in zip(states.tolist(), bounds)]
    edges = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    assert below_array(edges, n).tolist() == [(u * n) >> 64 for u in edges.tolist()]


@pytest.mark.parametrize("n", [0, -1, 2**32, 2**64])
def test_below_array_refuses_n_it_cannot_draw_exactly(n):
    with pytest.raises(ValueError, match="1 <= n < 2\\^32"):
        below_array(np.arange(3, dtype=np.uint64), n)
    with pytest.raises(ValueError, match="1 <= n < 2\\^32"):
        below_array(np.arange(3, dtype=np.uint64), np.array([2, n, 3], dtype=object))
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match="1 <= n < 2\\^32"):
        rng.below(n)
    assert rng.get_state() == (3, 0)  # a refused draw leaves the stream where it was


@pytest.mark.parametrize("shape", [(-2, 3), (-2, -3)])
def test_bulk_draw_refuses_a_negative_dimension_before_drawing(shape):
    rng = SplitMix64(5)
    for draw in (rng.uniform_array, rng.normal_array):
        with pytest.raises(ValueError, match="negative dimensions"):
            draw(shape)
    assert rng.get_state() == (5, 0)
