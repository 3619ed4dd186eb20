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
open-interval uniforms of every stream ``(seed, id)`` in a batch of ids,
exactly as two ``Cursor.uniform_open()`` calls on each stream would.
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


def check_uint64(name: str, value) -> int:
    """Return ``value`` as an int if it is a Python or NumPy integer in
    [0, 2^64 - 1]; raise ValueError for anything else, bools and floats
    included."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value <= _UINT64_MAX):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


def check_uint64_array(name: str, values) -> np.ndarray:
    """``check_uint64`` for integer arrays: ``values`` as a uint64 array, at least 1-D."""
    a = np.asarray(values)
    if not (a.dtype.kind == "u" or (a.dtype.kind == "i" and not (a < 0).any())):
        raise ValueError(f"{name} must be unsigned 64-bit integers, got {a!r}")
    return np.array(a, dtype=np.uint64, ndmin=1)


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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products m * x.

    numpy has no 128-bit integers, so the high half is assembled from
    32x32-bit partial products (Hacker's Delight, mulhu); no intermediate
    overflows 64 bits.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    u = x_lo * m_hi + (t & _LOW32)
    hi = x_hi * m_hi + (t >> _SHIFT32) + (u >> _SHIFT32)
    return hi, x * np.uint64(m)


def philox_first_words(seed: int, stream_ids) -> tuple[np.ndarray, np.ndarray]:
    """Words 0 and 1 of the first output block of every stream (seed, id),
    as uint64 arrays shaped like ``stream_ids`` (at least 1-D).

    This is Philox4x64-10 evaluated elementwise on uint64 arrays, with key
    ``[seed, id]`` and counter ``[1, 0, 0, 0]``: numpy's Philox increments
    its zero-initialised counter before generating, so these are the first
    two 64-bit words that ``np.random.Philox(key=[seed, id])`` produces.
    """
    k0 = check_uint64("seed", seed)
    k1 = check_uint64_array("stream ids", stream_ids)  # 1-D: 0-d math would warn on wraparound
    c0 = np.ones_like(k1)
    c1 = c2 = c3 = np.zeros_like(k1)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _UINT64_MAX
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


def open_uniform_pairs(seed: int, stream_ids) -> tuple[np.ndarray, np.ndarray]:
    """The first two ``Cursor.uniform_open()`` draws of every stream
    (seed, id), as two float64 arrays.

    Both come from the stream's first Philox block.  A stream whose block
    holds a zero uniform (probability 2^-53 per word) is drawn by a scalar
    cursor instead, which redraws exactly as ``uniform_open`` does.
    """
    ids = check_uint64_array("stream ids", stream_ids)
    w0, w1 = philox_first_words(seed, ids)
    u0 = (w0 >> _SHIFT_DOUBLE).astype(np.float64) * 2.0**-53
    u1 = (w1 >> _SHIFT_DOUBLE).astype(np.float64) * 2.0**-53
    for i in np.flatnonzero((u0 == 0.0) | (u1 == 0.0)):
        cursor = Cursor(RandomStream(int(seed), int(ids.flat[i])))
        u0.flat[i] = cursor.uniform_open()
        u1.flat[i] = cursor.uniform_open()
    return u0, u1
