"""Hidden-instance function classes and the query-counting oracle.

Three function families over {0,1}^n, each defined by concealed data:

* ``OneMaxInstance`` counts agreements with a hidden string z.
* ``LeadingOnesInstance`` counts the longest prefix, in a hidden position
  order sigma, on which the input agrees with z.
* ``MonotoneInstance`` sums hidden positive integer weights over the
  positions that agree with z, so any strict growth of the agreement set
  strictly increases the value, exactly.

The :class:`Oracle` is the only channel between search policies and an
instance: it counts every evaluation, enforces an optional query budget, and,
unless it is made with ``keep_history=False``, keeps the query history: each
queried word with its value.  Search cost is measured purely in oracle
queries, so every query is counted.  There is no memo of past queries, but a
value may come from the parent that the engine passes in with the query: the
word itself, or one bit away from it (``step_word``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .bitcore import BitString, Permutation, random_word

__all__ = [
    "BudgetExhausted",
    "OneMaxInstance",
    "LeadingOnesInstance",
    "MonotoneInstance",
    "Oracle",
    "random_instance",
    "INSTANCE_CLASSES",
]

INSTANCE_CLASSES = ("onemax", "leadingones", "monotone")


class BudgetExhausted(RuntimeError):
    """Raised when a query would exceed the oracle's budget."""

    def __init__(self, queries: int):
        super().__init__(f"query budget exhausted after {queries} queries")
        self.queries = queries


@dataclass(frozen=True)
class _HiddenInstance:
    """The hidden string z that every class is defined by, and its length n.
    Each class defines its own ``evaluate_word``, and ``step_word(word, d,
    fit)``: the value of a word one bit d away from a parent of value fit."""

    z: BitString

    def __post_init__(self) -> None:
        # Plain attributes for evaluate_word, which runs once per query: the
        # hidden word and n without a property call or a second attribute hop.
        object.__setattr__(self, "_n", self.z.n)
        object.__setattr__(self, "_zword", self.z.word)

    @property
    def n(self) -> int:
        return self._n


@dataclass(frozen=True)
class OneMaxInstance(_HiddenInstance):
    """f(x) = number of positions where x agrees with the hidden z."""

    kind = "onemax"

    def evaluate_word(self, word: int) -> int:
        return self._n - (word ^ self._zword).bit_count()

    def step_word(self, word: int, d: int, fit: int) -> int:
        return fit - 1 if (word ^ self._zword) & d else fit + 1


@dataclass(frozen=True)
class LeadingOnesInstance(_HiddenInstance):
    """f(x) = length of the longest prefix, in sigma order, agreeing with z.

    Position ``sigma.mapping[j]`` fills prefix slot j; the value is the index
    of the first slot whose position disagrees with z (n if none does).
    """

    sigma: Permutation

    kind = "leadingones"

    def __post_init__(self) -> None:
        if self.sigma.size != self.z.n:
            raise ValueError(f"size mismatch: sigma {self.sigma.size} vs z {self.z.n}")
        super().__post_init__()

    @cached_property
    def _prefix_masks(self) -> tuple[int, ...]:
        # _prefix_masks[j] covers the positions of the first j slots
        return tuple(accumulate((1 << pos for pos in self.sigma.mapping), int.__or__, initial=0))

    @cached_property
    def _slots(self) -> tuple[int, ...]:
        # _slots[pos] is the prefix slot that position pos fills: sigma's inverse
        return tuple(sorted(range(self._n), key=self.sigma.mapping.__getitem__))

    def evaluate_word(self, word: int) -> int:
        # the masks are nested, so diff & masks[j] never decreases in j: the
        # value is the last j before it turns nonzero (n if it never does)
        return bisect_right(self._prefix_masks, 0, key=(word ^ self._zword).__and__) - 1

    def step_word(self, word: int, d: int, fit: int) -> int:
        # slot fit is the parent's first wrong one: a later slot leaves the
        # value, an earlier one ends the prefix, and slot fit turns right
        s = self._slots[d.bit_length() - 1]
        return fit if s > fit else s if s < fit else self.evaluate_word(word)


@dataclass(frozen=True)
class MonotoneInstance(_HiddenInstance):
    """f(x) = sum of hidden positive weights over positions agreeing with z.

    The weights are ints in 1..2**64 - 1, so every sum is exact.  The value is
    the total weight less, for each weight bit b, 2**b times the number of
    disagreeing positions whose weight has bit b set: one int slice per bit.
    """

    weights: tuple[int, ...]

    kind = "monotone"

    def __post_init__(self) -> None:
        if len(self.weights) != self.z.n:
            raise ValueError(f"size mismatch: {len(self.weights)} weights vs z {self.z.n}")
        for i, w in enumerate(self.weights):
            if type(w) is not int or not 0 < w < 1 << 64:
                raise ValueError(f"weights must be ints in 1..2**64 - 1, got {w!r} at position {i}")
        super().__post_init__()
        w = np.array(self.weights, dtype=np.uint64)
        slices = ((b, int.from_bytes(np.packbits((w >> b) & 1, bitorder="little"), "little"))
                  for b in range(max(self.weights).bit_length()))
        object.__setattr__(self, "_total", sum(self.weights))
        object.__setattr__(self, "_slices", tuple((b, s) for b, s in slices if s))

    def evaluate_word(self, word: int) -> int:
        d = word ^ self._zword
        value = self._total
        for b, s in self._slices:
            value -= (d & s).bit_count() << b
        return value

    def step_word(self, word: int, d: int, fit: int) -> int:
        w = self.weights[d.bit_length() - 1]
        return fit - w if (word ^ self._zword) & d else fit + w


class Oracle:
    """Query gate around a hidden instance.

    Every call to :meth:`query` costs one unit and fails deterministically
    once the budget is spent.  ``query_count`` counts the queries.  With
    ``keep_history=True`` the oracle also records each queried word and its
    value, in query order, for :attr:`history`; with ``False`` it keeps no
    point, and a run's memory does not grow with its queries.  Policies
    never see this object directly; the engine routes their operator
    outputs through it, each with its first parent's word and value.
    """

    def __init__(self, instance, budget: int | None = None, *, keep_history: bool = True):
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self._instance = instance
        # no budget is an infinite one: the query path makes one comparison
        self._budget = math.inf if budget is None else budget
        self._eval = instance.evaluate_word
        self._step = instance.step_word
        self._history: list[tuple[int, object]] | None = [] if keep_history else None
        self.query_count = 0

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def history(self) -> list[tuple[BitString, int]]:
        """Queried points with their values, in query order (a fresh copy)."""
        if self._history is None:
            raise RuntimeError("this oracle keeps no history: it was made with keep_history=False")
        n = self.n
        return [(BitString(n, w), f) for w, f in self._history]

    @property
    def debug_instance(self):
        """The concealed instance; for tests and post-hoc verification only."""
        return self._instance

    def _query_word(self, word: int, parent: int | None = None, parent_fit=None):
        count = self.query_count
        if count >= self._budget:
            raise BudgetExhausted(count)
        # a word at most one bit d from its parent takes its value from the parent's
        if parent is not None and (d := word ^ parent).bit_count() < 2:
            fit = self._step(word, d, parent_fit) if d else parent_fit
        else:
            fit = self._eval(word)
        self.query_count = count + 1
        if self._history is not None:
            self._history.append((word, fit))
        return fit

    def query(self, x: BitString):
        if x.n != self.n:
            raise ValueError(f"length mismatch: {x.n} != {self.n}")
        return self._query_word(x.word)


def random_instance(class_name: str, n: int, seed):
    """Draw a uniformly random instance of the named class, deterministically.

    ``seed`` may be anything ``np.random.default_rng`` accepts.  z is uniform
    over {0,1}^n; LeadingOnes additionally draws sigma uniform over all
    position orders.  Monotone then draws i.i.d. weights uniform on 1..256:
    the bytes of one ``random_word(8 * n)``, little-endian, each plus 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if class_name not in INSTANCE_CLASSES:
        raise ValueError(f"unknown class {class_name!r}, expected one of {INSTANCE_CLASSES}")
    rng = np.random.default_rng(seed)
    z = BitString(n, random_word(n, rng))
    if class_name == "onemax":
        return OneMaxInstance(z)
    if class_name == "leadingones":
        return LeadingOnesInstance(z, Permutation.random(n, rng))
    raw = random_word(8 * n, rng).to_bytes(n, "little")
    return MonotoneInstance(z, tuple(byte + 1 for byte in raw))
