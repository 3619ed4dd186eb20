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

Philox is addressable by counter as well as by key (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): ``Cursor(stream, c)``
opens a stream at its block c of four doubles.  Trial t of a stream is the
first two ``uniform_open()`` draws of ``trial_cursor(stream, t)``, a cursor
past the stream's first 2t doubles: doubles 2t and 2t+1, a zero giving way
to the next double, and trial 0 is the pair a release draws.
``trial_uniform_pairs`` draws every trial of many streams as rows of one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_UINT64_MAX = 2**64 - 1


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

    A cursor opens at Philox block ``counter`` of its stream (0, the
    stream's start, by default).  It owns its generator state and must not
    be shared between concurrent workers; distinct cursors are safe to use in
    parallel.  ``jump_to`` repositions an existing cursor at the start of
    another stream without reallocating, and is bit-identical to constructing
    a fresh cursor for that stream.
    """

    def __init__(self, stream: RandomStream, counter: int = 0):
        self._bitgen = np.random.Philox(
            key=np.array([stream.seed, stream.stream_id], dtype=np.uint64),
            counter=check_uint64("counter", counter),
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
    evaluation agree bit for bit.  ``scale`` may be an array that broadcasts
    to u's shape.  The steps run in place on two arrays, in the order of the
    formula, so every bit is that of the formula, +0.0 at u = 1/2 included.
    """
    t = np.subtract(u, 0.5, out=np.empty(np.shape(u)))  # a 0-d array for a scalar u
    x = np.sign(t)
    x *= -scale
    np.abs(t, out=t)
    t *= -2.0
    np.log1p(t, out=t)
    x *= t
    return x if x.ndim else float(x)


def laplace_sample(cursor: Cursor, params: LaplaceParams) -> float:
    """One Laplace draw by inverse CDF on one uniform."""
    return laplace_from_uniform(cursor.uniform_open(), params.scale)


def two_sided_geometric_from_uniform(u, alpha):
    """Map uniform(0,1) draws through the two-sided geometric inverse CDF.

    The CDF of P[Z=k] = (1-alpha)/(1+alpha) * alpha^|k| is
    F(k) = alpha^(-k)/(1+alpha) for k <= -1 and 1 - alpha^(k+1)/(1+alpha)
    for k >= 0; this returns min{k : F(k) >= u}.  Accepts scalars or arrays.
    One ``log`` per element, of u(1+alpha) or (1-u)(1+alpha) by side: since
    (-a)/b = -(a/b) exactly, the bits are those of a ``log`` per side.
    """
    u = np.asarray(u, dtype=np.float64)
    neg = u * (1.0 + alpha) <= alpha
    v = np.where(neg, u, 1.0 - u)
    v *= 1.0 + alpha
    np.log(v, out=v)
    v /= math.log(alpha)
    k = np.where(neg, np.ceil(-v), np.maximum(0.0, np.ceil(v - 1.0)))
    return k.astype(np.int64) if k.ndim else int(k)


def two_sided_geometric_sample(cursor: Cursor, params: GeometricParams) -> int:
    """One two-sided geometric draw by inverse CDF on one uniform."""
    return two_sided_geometric_from_uniform(cursor.uniform_open(), params.alpha)


def trial_cursor(stream: RandomStream, t: int) -> Cursor:
    """Trial t's cursor: ``stream`` past its first 2t doubles."""
    cursor = Cursor(stream, t // 2)
    if t % 2:
        cursor._gen.random(2)
    return cursor


def trial_uniform_pairs(seeds, trials: int) -> np.ndarray:
    """The first two ``uniform_open()`` draws of ``trial_cursor(RandomStream(
    seed, 0), t)`` for t = 0..trials-1 and each of the sequence ``seeds``, as
    one float64 array of shape (len(seeds), trials, 2), one row per seed.

    One ``Generator.random`` call per row, the function ``uniform_open``
    calls, writes the row's 2 * trials doubles into it; one cursor serves
    every row, moved by ``jump_to``, which skips the OS-entropy seeding of a
    new Philox.  A trial whose pair holds a zero double (probability 2^-53
    each) is drawn again by its own ``trial_cursor``.
    """
    check_count("trials", trials)
    streams = [RandomStream(seed, 0) for seed in seeds]
    u = np.empty((len(streams), trials, 2))
    for r, stream in enumerate(streams):
        if r:
            cursor.jump_to(stream)
        else:
            cursor = Cursor(stream)
        cursor._gen.random(out=u[r])
    if not u.all():
        for r, t in zip(*np.nonzero(~u.all(axis=2))):
            cursor = trial_cursor(streams[r], t)
            u[r, t] = cursor.uniform_open(), cursor.uniform_open()
    return u
