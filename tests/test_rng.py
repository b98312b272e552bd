import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_meanfield.rng import (
    PREFETCH,
    MarkStream,
    StreamArray,
    derive_seed,
    exponential_of,
    ragged_words,
    seed_keys,
    stream_key,
    uniform_of,
)


def test_reproducible_streams():
    a = MarkStream(123, 5)
    b = MarkStream(123, 5)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
    assert a.exponential() == b.exponential()


def test_distinct_indices_differ():
    assert stream_key(1, 0) != stream_key(1, 1)
    assert stream_key(1, 0) != stream_key(2, 0)
    a = MarkStream(9, 0).uniforms(100)
    b = MarkStream(9, 1).uniforms(100)
    assert not np.array_equal(a, b)


def test_scalar_and_block_draws_agree():
    a = MarkStream(7, 3)
    b = MarkStream(7, 3)
    assert np.array_equal(a.uniforms(11), np.array([b.uniform() for _ in range(11)]))


def test_exponentials_strictly_positive():
    s = MarkStream(42, 1)
    draws = [s.exponential() for _ in range(10000)]
    assert min(draws) > 0.0


def test_uniform_range_and_moments():
    u = MarkStream(100, 0).uniforms(200000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = MarkStream(2024, 0).normals(100000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03


def test_derive_seed_spreads():
    seeds = {derive_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
    kinds=st.lists(st.booleans(), min_size=PREFETCH + 3, max_size=2 * PREFETCH),
)
def test_batch_streams_match_scalar_streams(seed, indices, kinds):
    # every draw sequence runs past the prefetched words into the scalar mixer
    batch = MarkStream.batch(seed, indices)
    for index, stream in zip(indices, batch, strict=True):
        ref = MarkStream(seed, index)
        for exp in kinds:
            got, want = (stream.exponential(), ref.exponential()) if exp else (stream.uniform(), ref.uniform())
            assert got.hex() == want.hex()
        assert stream.key == ref.key and stream.counter == ref.counter
        assert np.array_equal(stream.uniforms(5), ref.uniforms(5))


def test_batch_builds_instances_of_the_calling_class():
    class Sub(MarkStream):
        __slots__ = ()

    streams = Sub.batch(3, [4, 1])
    assert all(type(s) is Sub for s in streams)
    assert streams[0].uniform() == MarkStream(3, 4).uniform()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
    kinds=st.lists(st.booleans(), min_size=1, max_size=2 * PREFETCH),
    skip=st.integers(0, 5),
)
def test_stream_array_reads_the_draws_of_scalar_streams(seed, indices, kinds, skip):
    # each word read as a uniform or an exponential, after `skip` consumed ones,
    # has the bits of the matching MarkStream draw
    streams = StreamArray(seed, indices)
    rows = np.arange(len(indices))
    streams.used[rows] += skip
    words = streams.words(rows, len(kinds))
    assert streams.used.tolist() == [skip] * len(indices)
    for row, index in enumerate(indices):
        ref = MarkStream(seed, index)
        for _ in range(skip):
            ref.uniform()
        for col, exp in enumerate(kinds):
            word = words[row, col : col + 1]
            got, want = (exponential_of(word), ref.exponential()) if exp else (uniform_of(word), ref.uniform())
            assert float(got[0]).hex() == want.hex()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 20), st.integers(0, 6)), min_size=1, max_size=6),
    index=st.integers(0, 2**40),
)
def test_ragged_words_read_each_seeds_stream(rows, index):
    # row r: the stream (seed_r, index), past used_r words, for sizes_r words
    seeds, used, sizes = (np.array(col, dtype=dtype) for col, dtype in zip(zip(*rows), (np.uint64, np.int64, np.int64)))
    keys = seed_keys(seeds, index)
    assert keys.tolist() == [stream_key(int(seed), index) for seed in seeds]
    want = []
    for seed, skip, n in rows:
        ref = MarkStream(seed, index)
        ref.uniforms(skip)
        want += ref.uniforms(n).tolist()
    assert uniform_of(ragged_words(keys, used, sizes)).tolist() == want
