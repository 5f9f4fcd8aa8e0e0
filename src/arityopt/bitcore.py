"""Bit-level primitives: bitstrings, position permutations, word helpers.

A :class:`BitString` of length ``n`` is stored as a Python integer whose bit
``i`` (0-based, ``1 << i``) holds the value at position ``i``.  Positions are
0-based internally and in all serialized formats; the ASCII form puts position
0 leftmost.  Integers keep xor and popcount at O(n / wordsize) per operation;
the Hamming distance of two words is ``(x ^ y).bit_count()``.
A run's cost in memory is another matter: the oracle keeps every queried word
for the life of the run, about n**2 / 4 bytes per ``binary_onemax`` run, which
is about 1 GB at n = 65,536.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitString",
    "Permutation",
    "apply_permutation",
    "permute_words",
    "random_word",
    "word_unpack",
    "differing_positions",
    "nth_set_bit",
]


def _check_word(n: int, word: int) -> None:
    if n < 1:
        raise ValueError(f"bitstring length must be positive, got {n}")
    if word < 0 or word >> n:
        raise ValueError(f"word {word:#x} does not fit in {n} bits")


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable fixed-length bit vector.

    ``word`` packs the bits little-endian: position ``i`` is ``(word >> i) & 1``.
    """

    n: int
    word: int

    def __post_init__(self) -> None:
        _check_word(self.n, self.word)

    @classmethod
    def from_string(cls, s: str) -> "BitString":
        """Parse an ASCII '0'/'1' string, position 0 leftmost."""
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a bitstring literal: {s!r}")
        word = 0
        for i, c in enumerate(s):
            if c == "1":
                word |= 1 << i
        return cls(len(s), word)

    def to_string(self) -> str:
        """ASCII '0'/'1' form, position 0 leftmost."""
        return "".join("1" if (self.word >> i) & 1 else "0" for i in range(self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitString({self.to_string()!r})"


@dataclass(frozen=True)
class Permutation:
    """Bijection on positions ``0..n-1``; ``mapping[i]`` is the source of output bit i."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if n < 1 or sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a bijection on 0..n-1")

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(tuple(int(j) for j in rng.permutation(n)))

    @property
    def size(self) -> int:
        return len(self.mapping)


def apply_permutation(sigma: Permutation, word: int) -> int:
    """Rearrange bits: output position i takes the bit at ``sigma.mapping[i]``."""
    _check_word(sigma.size, word)
    out = 0
    for i, j in enumerate(sigma.mapping):
        if (word >> j) & 1:
            out |= 1 << i
    return out


def permute_words(sigma: Permutation, words: np.ndarray) -> np.ndarray:
    """``apply_permutation`` on every word of an integer array at once.

    One vector shift per position: output bit i of each word takes its bit
    at ``sigma.mapping[i]``.
    """
    out = np.zeros_like(words)
    for i, j in enumerate(sigma.mapping):
        out |= ((words >> j) & 1) << i
    return out


def word_unpack(word: int, n: int) -> np.ndarray:
    """Bits of ``word`` as a boolean array of length n, position 0 first."""
    raw = word.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=n
    ).view(bool)


def random_word(n: int, rng: np.random.Generator) -> int:
    """Uniform n-bit word from ``(n + 7) // 8`` bytes of ``rng.bytes``."""
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def differing_positions(wx: int, wy: int, n: int) -> np.ndarray:
    """Sorted positions where the two words disagree."""
    return np.flatnonzero(word_unpack(wx ^ wy, n))


# _BYTE_SELECT[b][r]: position of the r-th set bit of the byte b.
_BYTE_SELECT = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def nth_set_bit(word: int, r: int) -> int:
    """Position of the r-th set bit of ``word``, counting from 0 at position 0.

    Equals ``differing_positions(word, 0, n)[r]`` without leaving integers:
    the word is halved over power-of-two widths by popcount down to one byte,
    which a table finishes.  Each mask is no wider than the word it splits.
    """
    if word < 0 or r < 0:
        raise ValueError(f"need a non-negative word and rank, got {word:#x}, {r}")
    pos = 0
    half = 1 << max(2, (word.bit_length() - 1).bit_length() - 1)
    mask = (1 << half) - 1
    while half >= 8:
        low = word & mask
        c = low.bit_count()
        if r < c:
            word = low
        else:
            r -= c
            word >>= half
            pos += half
        half >>= 1
        mask >>= half
    try:
        return pos + _BYTE_SELECT[word][r]
    except IndexError:
        raise ValueError(f"rank {r} is not below the popcount of the word") from None
