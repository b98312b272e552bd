"""Counter-based pseudo-random streams for reproducible parallel simulation.

Every stochastic object in the package draws from a :class:`MarkStream`, a
counter-mode generator keyed on ``(seed, stream index)``.  The n-th draw of a
stream is a pure function of ``(seed, index, n)``, so replicas and particles
can be simulated in any order, on any number of workers, and still produce
bit-identical output.  :class:`StreamArray` holds many such streams as
arrays and reads the same draws off the same words; ``ragged_words`` reads
a different number of words off each of many streams.

The mixer is the 64-bit SplitMix finalizer (Steele, Lea & Flood); a stream is
the SplitMix sequence entered at an avalanche-mixed per-stream key.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x8BB84B93962EACC9
_DERIVE_SALT = 0xD1B54A32D192ED03

# 2**-53, the spacing of the 53-bit uniforms below
_U53 = 1.0 / 9007199254740992.0

# Words per stream that MarkStream.batch mixes up front (128 bytes a stream).
# A thinning particle draws one word plus two per candidate; on the benchmark
# models (T = 1) that is 4-5 words on average and at most 16 for all but a
# few streams in ten thousand.
PREFETCH = 16


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# mix64's shifts and multipliers as numpy scalars, built once: building
# them took about a third of a small array's mix
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    # vectorized twin of mix64, in place over a uint64 array the caller owns;
    # uint64 arithmetic wraps like the masked ints
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def stream_key(seed: int, index: int) -> int:
    """Key of sub-stream ``index`` under ``seed``; distinct per (seed, index)."""
    base = mix64((seed & _MASK64) ^ _STREAM_SALT)
    return mix64((base + ((index + 1) * _GOLDEN)) & _MASK64)


def _stream_keys(seed: int, indices: Sequence[int]) -> np.ndarray:
    # vectorized twin of stream_key over an index list
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    base = np.uint64(mix64((seed & _MASK64) ^ _STREAM_SALT))
    return _mix64_np(base + (idx + 1).astype(np.uint64) * np.uint64(_GOLDEN))


def seed_keys(seeds: np.ndarray, index: int) -> np.ndarray:
    """``stream_key(s, index)`` of every seed ``s`` of the uint64 array ``seeds``."""
    base = _mix64_np(seeds ^ np.uint64(_STREAM_SALT))
    base += np.uint64(((index + 1) * _GOLDEN) & _MASK64)
    return _mix64_np(base)


def words_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Word ``counters[j]`` of the stream keyed ``keys[j]``, for each j (broadcast).

    Word c of a stream is the word the c-th draw of its ``MarkStream`` reads;
    every array draw of this module mixes its words here.
    """
    return _mix64_np(keys + np.asarray(counters).astype(np.uint64, copy=False) * np.uint64(_GOLDEN))


def derive_seed(seed: int, index: int) -> int:
    """A 64-bit child seed for replica ``index``, independent of stream keys."""
    base = mix64((seed & _MASK64) ^ _DERIVE_SALT)
    return mix64((base + ((index + 1) * _GOLDEN)) & _MASK64)


class MarkStream:
    """Deterministic draw stream for one particle (or one replica role).

    Yields candidate inter-arrival exponentials and uniform acceptance marks
    for the thinning simulators, plus Gaussian blocks for the limit-process
    integrators.  Same ``(seed, index)`` always replays the same sequence;
    distinct indices enter the underlying sequence at unrelated keys.
    """

    __slots__ = ("key", "counter", "_uniforms", "_log_args", "_offset", "_prefetched")

    def __init__(self, seed: int, index: int = 0):
        self.key = stream_key(seed, index)
        self.counter = 0
        self._prefetched = 0

    @classmethod
    def batch(cls, seed: int, indices: Sequence[int]) -> list:
        """Streams ``cls(seed, i)`` for every ``i`` in ``indices``, built in one pass.

        The keys and the first ``PREFETCH`` words of every stream are mixed as
        numpy arrays and kept, already turned into floats, in two shared
        buffers: the uniform of each word and the argument of the exponential's
        logarithm (numpy rounds both exactly as the scalar path does).  Draws
        past them fall back to the scalar mixer.  Every draw equals the one
        ``cls(seed, i)`` makes.
        """
        keys = _stream_keys(seed, indices)
        top = (words_at(keys[:, None], np.arange(1, PREFETCH + 1)).reshape(-1) >> np.uint64(11)).astype(np.float64)
        uniforms = memoryview(top * _U53)
        log_args = memoryview((top + 0.5) * _U53)
        new = cls.__new__
        streams = []
        for key, offset in zip(keys.tolist(), range(-1, keys.size * PREFETCH, PREFETCH)):
            s = new(cls)
            s.key = key
            s.counter = 0
            s._uniforms = uniforms
            s._log_args = log_args
            s._offset = offset
            s._prefetched = PREFETCH
            streams.append(s)
        return streams

    def uniform(self) -> float:
        """One uniform mark in [0, 1)."""
        c = self.counter = self.counter + 1
        if c <= self._prefetched:
            return self._uniforms[self._offset + c]
        return (mix64((self.key + c * _GOLDEN) & _MASK64) >> 11) * _U53

    def exponential(self) -> float:
        """One strictly positive unit-rate exponential inter-arrival."""
        c = self.counter = self.counter + 1
        if c <= self._prefetched:
            # math.log, not np.log: the two differ in the last bit on some draws
            return -math.log(self._log_args[self._offset + c])
        w = mix64((self.key + c * _GOLDEN) & _MASK64)
        return -math.log(((w >> 11) + 0.5) * _U53)  # argument in (0, 1)

    def _u64_block(self, n: int) -> np.ndarray:
        ctr = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return words_at(np.uint64(self.key), ctr)

    def uniforms(self, n: int) -> np.ndarray:
        """Block of ``n`` uniforms in [0, 1)."""
        return (self._u64_block(n) >> np.uint64(11)).astype(np.float64) * _U53

    def normals(self, n: int) -> np.ndarray:
        """Block of ``n`` standard Gaussians (Box-Muller on uniform pairs)."""
        m = (n + 1) // 2
        raw = (self._u64_block(2 * m) >> np.uint64(11)).astype(np.float64)
        u1 = (raw[:m] + 0.5) * _U53
        u2 = raw[m:] * _U53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:n]


class StreamArray:
    """The streams ``MarkStream(seed, i)`` for every ``i`` in ``indices``, held as arrays.

    ``keys`` holds the key of each stream and ``used`` the words it has
    consumed.  ``words(rows, n)`` mixes the next ``n`` words of the streams
    ``rows`` without consuming them; the caller adds what it keeps to
    ``used``.  Word c of a stream is the word the c-th draw of its
    ``MarkStream`` reads, and ``uniform_of``/``exponential_of`` turn words
    into exactly the values ``MarkStream.uniform``/``exponential`` return.
    """

    def __init__(self, seed: int, indices: Sequence[int]):
        self.keys = _stream_keys(seed, indices)
        self.used = np.zeros(self.keys.size, dtype=np.int64)

    def words(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Words ``used + 1 .. used + n`` of each stream in ``rows``, shape (len(rows), n)."""
        return words_at(self.keys[rows, None], self.used[rows, None] + np.arange(1, n + 1))


def ragged_words(keys: np.ndarray, used: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Words ``used[r] + 1 .. used[r] + sizes[r]`` of each stream ``keys[r]``, row after row, in one flat array."""
    starts = np.cumsum(sizes) - sizes
    # a word's counter is its place in the flat array, less its row's start, plus used + 1
    counters = np.arange(1, int(sizes.sum()) + 1) + np.repeat(used - starts, sizes)
    return words_at(np.repeat(keys, sizes), counters)


def uniform_of(words: np.ndarray) -> np.ndarray:
    """The uniform mark ``MarkStream.uniform`` reads off each word."""
    return (words >> np.uint64(11)).astype(np.float64) * _U53


def exponential_of(words: np.ndarray) -> np.ndarray:
    """The exponential ``MarkStream.exponential`` reads off each word.

    The logarithm is libm's, the one ``math.log`` calls, taken over the whole
    array by numpy's scalar loop (see ``_clock_log``).  Numpy's vectorized log
    differs from libm's in the last bit on some arguments, and on some hosts.
    """
    args = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _U53
    return -_clock_log()(args.ravel()).reshape(args.shape)


def _libm_log(flat: np.ndarray) -> np.ndarray:
    # numpy sends a reversed 1-D array to its scalar loop, which calls libm's
    # log; a contiguous one goes to its SIMD loop
    return np.log(flat[::-1])[::-1]


def _math_log(flat: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, flat.tolist()), dtype=np.float64, count=flat.size)


@functools.cache
def _clock_log():
    """``_libm_log`` if its bits equal ``math.log``'s on a probe, else ``_math_log``.

    The probe is the log arguments of 4096 words of one stream; numpy's SIMD
    log misses libm's last bit on about a dozen of them.
    """
    words = words_at(np.uint64(stream_key(0, 0)), np.arange(1, 4097))
    probe = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _U53
    return _libm_log if _libm_log(probe).tobytes() == _math_log(probe).tobytes() else _math_log
