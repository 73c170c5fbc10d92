"""Deterministic 64-bit splitmix-style PRNG.

Every stochastic choice in this package (data synthesis, parameter init,
batch shuffling) flows through this generator so that results are
bit-reproducible on one platform and numpy build. The raw uint64 outputs,
the uniforms and the bounded integers take only integer arithmetic and
correctly rounded IEEE 754 operations, so they are the same on any machine.
The Gaussians are not: ``normals`` goes through numpy's float64 ``log`` and
``cos``, whose last bits depend on the numpy build and on the SIMD kernels
it dispatches to on the CPU, so a parameter init or the corpus's sensor
noise can differ by an ulp between machines. The generator is the
splitmix64 sequence: state advances by a fixed odd gamma and each output is
a finalized mix of the state.

There is one draw path: the closed form state_k = state + k * GAMMA in
wrapping uint64 arithmetic (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014), over one stream
(``SplitMix64``) or over many at once (``stream_u64``, from states that
``hash_combine_array`` derives and ``advance`` moves on). ``uniforms``,
``normals`` and ``below_array`` turn raw outputs into values. A scalar
draw and ``hash_combine`` are that path's batch of one, and ``shuffle``
takes its len - 1 swap indices in one draw. The exact Python-integer
splitmix64 is the test suite's reference.

Constants (hex):
    GAMMA = 0x9E3779B97F4A7C15   (2^64 / golden ratio, odd)
    MIX1  = 0xBF58476D1CE4E5B9
    MIX2  = 0x94D049BB133111EB
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# 2^-53: converts the top 53 bits of a u64 into a double in [0, 1)
_U53 = 2.0 ** -53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalization mix of every entry of a uint64 array ``z``
    (which it overwrites), wrapping: avalanches all input bits."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX2)
    z ^= z >> np.uint64(31)
    return z


def _as_u64(x) -> np.ndarray:
    """``x`` as uint64: an int reduced mod 2^64 first (``np.uint64(-5)``
    raises), an integer array cast."""
    if isinstance(x, (int, np.integer)):
        return np.asarray(int(x) & _MASK, dtype=np.uint64)
    return np.asarray(x).astype(np.uint64)


def hash_combine_array(*parts) -> np.ndarray:
    """Fold parts that broadcast together (ints or integer arrays, each
    reduced mod 2^64) into well-mixed 64-bit seeds, entry by entry."""
    acc = np.uint64(0)
    with np.errstate(over="ignore"):
        for p in parts:
            acc = _mix64_array(acc + np.uint64(GAMMA) + _as_u64(p))
    return acc


def hash_combine(*parts: int) -> int:
    """Fold several integers into one well-mixed 64-bit seed."""
    return int(hash_combine_array(*parts))


def stream_u64(states, count: int) -> np.ndarray:
    """The next ``count`` outputs of the splitmix stream at each of ``states``,
    shape ``states.shape + (count,)``."""
    # at least 1-D on both sides, so numpy wraps without an overflow warning
    return _mix64_array(_as_u64(states)[..., None]
                        + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA))


def advance(states, draws):
    """Each stream state of ``states`` after ``draws`` more outputs (the two
    broadcast together)."""
    with np.errstate(over="ignore"):
        return _as_u64(states) + _as_u64(draws) * np.uint64(GAMMA)


def uniforms(raw: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """A double in [lo, hi) with 53 bits of resolution of each raw output."""
    return lo + (hi - lo) * ((raw >> np.uint64(11)).astype(np.float64) * _U53)


def normals(raw: np.ndarray, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """One Box-Muller Gaussian of each consecutive pair of raw outputs along the
    last axis, which halves."""
    u1 = 1.0 - (raw[..., 0::2] >> np.uint64(11)).astype(np.float64) * _U53  # (0, 1]
    u2 = (raw[..., 1::2] >> np.uint64(11)).astype(np.float64) * _U53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return mean + std * z


def below_array(raw: np.ndarray, n) -> np.ndarray:
    """An integer in [0, n), the top 64 bits of u * n, of each raw output u, for
    n (an int or an array that broadcasts with ``raw``) in 1 <= n < 2^32:
    (u * n) >> 64 from u's 32-bit halves, exact."""
    n = np.asarray(n)
    if not np.all((1 <= n) & (n < 1 << 32)):
        raise ValueError(f"below_array needs 1 <= n < 2^32, got {n}")
    n = n.astype(np.uint64)
    hi, lo = raw >> np.uint64(32), raw & np.uint64(0xFFFFFFFF)
    return (hi * n + ((lo * n) >> np.uint64(32))) >> np.uint64(32)


class SplitMix64:
    """Sequential splitmix64 stream: every draw is ``stream_u64`` of its one
    current state, through ``_next_u64_array``."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._drawn = 0  # number of u64s produced so far

    def _next_u64_array(self, n: int) -> np.ndarray:
        z = stream_u64(self._state, n)
        self._state = int(advance(self._state, n))
        self._drawn += n
        return z

    # -- scalar draws: the batch of one ------------------------------------

    def next_u64(self) -> int:
        return int(self._next_u64_array(1)[0])

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Double in [lo, hi) with 53 bits of resolution."""
        return float(uniforms(self._next_u64_array(1), lo, hi)[0])

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """One Gaussian draw via Box-Muller (consumes two u64s)."""
        return float(normals(self._next_u64_array(2), mean, std)[0])

    def below(self, n: int) -> int:
        """Integer in [0, n) by 128-bit multiply-shift (no modulo bias to speak
        of at our n), for 1 <= n < 2^32."""
        below_array(np.zeros(0, dtype=np.uint64), n)  # refuses n before drawing
        return int(below_array(self._next_u64_array(1), n)[0])

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, its len - 1 swap indices drawn at once."""
        n = len(items)
        swaps = below_array(self._next_u64_array(max(n - 1, 0)), np.arange(n, 1, -1))
        for i, j in zip(range(n - 1, 0, -1), swaps.tolist()):
            items[i], items[j] = items[j], items[i]

    # -- bulk draws --------------------------------------------------------

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return uniforms(self._next_u64_array(n), lo, hi).reshape(shape)

    def normal_array(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        return normals(self._next_u64_array(2 * n), mean, std).reshape(shape)

    # -- state -------------------------------------------------------------

    def get_state(self) -> tuple[int, int]:
        return (self._state, self._drawn)

    def set_state(self, state: tuple[int, int]) -> None:
        self._state = int(state[0]) & _MASK
        self._drawn = int(state[1])
