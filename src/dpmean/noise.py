"""Seedable noise sources: Laplace and two-sided geometric draws.

Reproducibility contract
------------------------
A stream is identified by a ``(seed, stream_id)`` pair of 64-bit unsigned
integers.  Draws come from a Philox4x64-10 counter-based generator keyed with
exactly those two words (``key = [seed, stream_id]``, counter starting at
zero), with uniforms produced by numpy's ``Generator.random()`` (one 64-bit
word per double, top 53 bits).  Distinct key words give statistically
independent streams, and the same key reproduces the same draws on any
platform.

Both distributions are sampled by inverse CDF on a single uniform draw from
the open interval (0, 1); a uniform equal to 0.0 is rejected and redrawn so
the Laplace transform can never return an infinity.  The inverse CDFs
(``laplace_from_uniform``, ``two_sided_geometric_from_uniform``) take
scalars or arrays, and the scalar samplers evaluate through them, so a
scalar draw and an array draw from the same uniform are bit-identical.

Because Philox is counter-based, the first block of many streams can be
computed at once: ``open_uniform_pairs`` returns, as arrays, the first two
open-interval uniforms of every stream ``(seed, id)`` for seeds broadcast
against ids, exactly as two ``Cursor.uniform_open()`` calls on each stream
would.  The kernel walks the streams in blocks of 4096, updating one set of
round buffers in place, and ``trial_uniform_pairs`` packs the trial streams
of several seeds (a sweep's cells) into each kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UINT64_MAX = 2**64 - 1

# Philox4x64 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), as in numpy.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT_DOUBLE = np.uint64(11)  # Generator.random() keeps the top 53 bits
_BLOCK = 4096  # streams per kernel pass; its eight round buffers (256 KiB) stay in cache


def check_uint64(name: str, value) -> int:
    """Return ``value`` as an int if it is a Python or NumPy integer in
    [0, 2^64 - 1]; raise ValueError for anything else, bools and floats
    included."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value <= _UINT64_MAX):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1 (not a bool)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_uint64_array(name: str, values) -> np.ndarray:
    """``check_uint64`` for integer arrays: ``values`` as a uint64 array, at
    least 1-D.  Anything but an array is checked entry by entry, because
    ``np.asarray`` makes a list holding an int >= 2^63 float64."""
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=object)
        for v in values.flat:
            check_uint64(name, v)
        values = values.astype(np.uint64)
    kind = values.dtype.kind
    if not (kind == "u" or (kind == "i" and not (values < 0).any())):
        raise ValueError(f"{name} must be unsigned 64-bit integers, got {values!r}")
    return np.atleast_1d(values.astype(np.uint64, copy=False))


@dataclass(frozen=True)
class LaplaceParams:
    """Scale b of the Laplace distribution with density exp(-|x|/b)/(2b)."""

    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"Laplace scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class GeometricParams:
    """Decay alpha of the two-sided geometric distribution P[Z=k] ~ alpha^|k|."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"geometric alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class RandomStream:
    """Immutable descriptor of one substream; open a Cursor to draw from it."""

    seed: int
    stream_id: int

    def __post_init__(self) -> None:
        check_uint64("seed", self.seed)
        check_uint64("stream_id", self.stream_id)

    def cursor(self) -> "Cursor":
        return Cursor(self)


class Cursor:
    """Stateful draw position within one stream.

    A cursor owns its generator state and must not be shared between
    concurrent workers; distinct cursors on distinct streams are safe to use
    in parallel.  ``jump_to`` repositions an existing cursor at the start of
    another stream without reallocating, and is bit-identical to constructing
    a fresh cursor for that stream.
    """

    def __init__(self, stream: RandomStream):
        self._bitgen = np.random.Philox(
            key=np.array([stream.seed, stream.stream_id], dtype=np.uint64)
        )
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def jump_to(self, stream: RandomStream) -> None:
        """Reposition this cursor at the origin of ``stream``."""
        st = self._state
        inner = st["state"]
        inner["key"][0] = stream.seed
        inner["key"][1] = stream.stream_id
        inner["counter"][:] = 0
        st["buffer"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st

    def uniform_open(self) -> float:
        """One uniform draw from the open interval (0, 1)."""
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return u

    def uniforms_open(self, size: int) -> np.ndarray:
        """Batch of open-interval uniforms; consumes the same words as
        ``size`` scalar calls (unless a zero occurs, probability 2^-53 each)."""
        u = self._gen.random(size)
        zeros = u == 0.0
        while np.any(zeros):
            u[zeros] = self._gen.random(int(zeros.sum()))
            zeros = u == 0.0
        return u


def laplace_from_uniform(u, scale):
    """Map uniform(0,1) draws through the Laplace inverse CDF.

    x = -scale * sign(u - 1/2) * log(1 - 2|u - 1/2|).  Accepts scalars or
    arrays and evaluates elementwise with numpy's ``log1p`` either way, so
    ``laplace_sample`` (which calls this on one uniform) and an array
    evaluation agree bit for bit.
    """
    t = np.asarray(u, dtype=np.float64) - 0.5
    x = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
    return x if x.ndim else float(x)


def laplace_sample(cursor: Cursor, params: LaplaceParams) -> float:
    """One Laplace draw by inverse CDF on one uniform."""
    return laplace_from_uniform(cursor.uniform_open(), params.scale)


def two_sided_geometric_from_uniform(u, alpha):
    """Map uniform(0,1) draws through the two-sided geometric inverse CDF.

    The CDF of P[Z=k] = (1-alpha)/(1+alpha) * alpha^|k| is
    F(k) = alpha^(-k)/(1+alpha) for k <= -1 and 1 - alpha^(k+1)/(1+alpha)
    for k >= 0; this returns min{k : F(k) >= u}.  Accepts scalars or arrays.
    """
    u = np.asarray(u, dtype=np.float64)
    log_alpha = math.log(alpha)
    neg = u * (1.0 + alpha) <= alpha
    k_neg = np.ceil(-np.log(u * (1.0 + alpha)) / log_alpha)
    k_pos = np.maximum(0.0, np.ceil(np.log((1.0 - u) * (1.0 + alpha)) / log_alpha - 1.0))
    k = np.where(neg, k_neg, k_pos)
    return k.astype(np.int64) if k.ndim else int(k)


def two_sided_geometric_sample(cursor: Cursor, params: GeometricParams) -> int:
    """One two-sided geometric draw by inverse CDF on one uniform."""
    return two_sided_geometric_from_uniform(cursor.uniform_open(), params.alpha)


def _mulhi(m: int, x: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Write the high 64-bit halves of the 128-bit products m * x into hi,
    using t, u and v (shaped like x) as scratch.  numpy has no 128-bit
    integers, so the high half is assembled from 32x32-bit partial products
    (Hacker's Delight, mulhu); no intermediate overflows 64 bits."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.multiply(np.bitwise_and(x, _LOW32, out=u), m_lo, out=t)  # u = x_lo, t = x_lo m_lo
    t >>= _SHIFT32
    t += np.multiply(np.right_shift(x, _SHIFT32, out=hi), m_lo, out=v)  # t = x_hi m_lo + (x_lo m_lo >> 32)
    u *= m_hi
    u += np.bitwise_and(t, _LOW32, out=v)  # u = x_lo m_hi + (t & LOW32)
    hi *= m_hi
    hi += np.right_shift(t, _SHIFT32, out=t)
    hi += np.right_shift(u, _SHIFT32, out=u)  # hi = x_hi m_hi + (t >> 32) + (u >> 32)


def philox_first_words(seeds, stream_ids) -> tuple[np.ndarray, np.ndarray]:
    """Words 0 and 1 of the first output block of every stream (seed, id),
    as uint64 arrays of the broadcast shape of ``seeds`` and ``stream_ids``
    (at least 1-D).  A scalar seed keys every id; seeds shaped (cells, 1)
    against ids shaped (trials,) key a (cells, trials) grid.

    This is Philox4x64-10 evaluated elementwise on uint64 arrays, with key
    ``[seed, id]`` and counter ``[1, 0, 0, 0]``: numpy's Philox increments
    its zero-initialised counter before generating, so these are the first
    two 64-bit words that ``np.random.Philox(key=[seed, id])`` produces.
    Streams are evaluated ``_BLOCK`` at a time in eight round buffers that
    every step updates in place.
    """
    seeds = check_uint64_array("seed", seeds)
    ids = check_uint64_array("stream ids", stream_ids)
    shape = np.broadcast_shapes(seeds.shape, ids.shape)
    seeds, ids = (np.broadcast_to(a, shape).ravel() for a in (seeds, ids))
    size = seeds.size
    words = np.empty((2, size), dtype=np.uint64)
    buf = np.empty((8, min(size, _BLOCK)), dtype=np.uint64)
    for start in range(0, size, _BLOCK):
        k0, k1 = seeds[start : start + _BLOCK], ids[start : start + _BLOCK]
        c0, c1, c2, c3, h0, h1, t, u = buf[:, : k0.size]
        # Round 0 multiplies the counter words 1 and 0, so it leaves [k0, 0, k1, M0].
        c0[:], c1[:], c2[:], c3[:] = k0, 0, k1, _PHILOX_M[0]
        for r in range(1, _PHILOX_ROUNDS):
            _mulhi(_PHILOX_M[1], c2, h1, t, u, h0)
            h1 ^= c1
            h1 ^= np.add(k0, (r * _PHILOX_W[0]) & _UINT64_MAX, out=t)  # round key 0
            _mulhi(_PHILOX_M[0], c0, h0, t, u, c1)
            h0 ^= c3
            h0 ^= np.add(k1, (r * _PHILOX_W[1]) & _UINT64_MAX, out=t)  # round key 1
            c2 *= _PHILOX_M[1]
            c0 *= _PHILOX_M[0]
            # [hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0]; old c1 and c3 become scratch
            c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
        words[0, start : start + _BLOCK], words[1, start : start + _BLOCK] = c0, c1
    return words[0].reshape(shape), words[1].reshape(shape)


def open_uniform_pairs(seeds, stream_ids) -> tuple[np.ndarray, np.ndarray]:
    """The first two ``Cursor.uniform_open()`` draws of every stream
    (seed, id), as two float64 arrays shaped as ``philox_first_words``.

    Both come from the stream's first Philox block.  A stream whose block
    holds a zero uniform (probability 2^-53 per word) is drawn by a scalar
    cursor on its own (seed, id) instead, which redraws exactly as
    ``uniform_open`` does.
    """
    seeds, ids = check_uint64_array("seed", seeds), check_uint64_array("stream ids", stream_ids)
    w0, w1 = philox_first_words(seeds, ids)
    u0, u1 = (np.right_shift(w, _SHIFT_DOUBLE, out=w).astype(np.float64) for w in (w0, w1))
    u0 *= 2.0**-53
    u1 *= 2.0**-53
    for i in np.flatnonzero((u0 == 0.0) | (u1 == 0.0)):
        seed, sid = (int(np.broadcast_to(a, u0.shape).flat[i]) for a in (seeds, ids))
        cursor = Cursor(RandomStream(seed, sid))
        u0.flat[i] = cursor.uniform_open()
        u1.flat[i] = cursor.uniform_open()
    return u0, u1


def trial_uniform_pairs(seeds, trials: int):
    """Yield ``open_uniform_pairs(seed, range(trials))`` for each seed in
    turn.  ``max(1, _BLOCK // trials)`` seeds share one kernel call, so
    cells of few trials fill a block and memory stays bounded at any trial
    count."""
    check_count("trials", trials)
    seeds = check_uint64_array("seed", seeds)
    ids = np.arange(trials, dtype=np.uint64)
    per_call = max(1, _BLOCK // trials)
    for start in range(0, seeds.size, per_call):
        yield from zip(*open_uniform_pairs(seeds[start : start + per_call, None], ids))
