"""Hidden-instance function classes and the query-counting oracle.

Three function families over {0,1}^n, each defined by concealed data:

* ``OneMaxInstance`` counts agreements with a hidden string z.
* ``LeadingOnesInstance`` counts the longest prefix, in a hidden position
  order sigma, on which the input agrees with z.
* ``MonotoneInstance`` sums hidden positive weights over the positions that
  agree with z, so any strict growth of the agreement set strictly increases
  the value.

The :class:`Oracle` is the only channel between search policies and an
instance: it counts every evaluation, enforces an optional query budget, and
keeps the full query history: the queried words and their values, in two
parallel lists.  Search cost is measured purely in oracle queries, so there
is deliberately no memoization.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .bitcore import BitString, Permutation, random_word, word_unpack

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
    Each class defines its own ``evaluate_word``; this base has none."""

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

    def evaluate_word(self, word: int) -> int:
        # the masks are nested, so diff & masks[j] never decreases in j: the
        # value is the last j before it turns nonzero (n if it never does)
        return bisect_right(self._prefix_masks, 0, key=(word ^ self._zword).__and__) - 1


@dataclass(frozen=True)
class MonotoneInstance(_HiddenInstance):
    """f(x) = sum of hidden positive weights over positions agreeing with z."""

    weights: tuple[float, ...]

    kind = "monotone"

    def __post_init__(self) -> None:
        if len(self.weights) != self.z.n:
            raise ValueError(f"size mismatch: {len(self.weights)} weights vs z {self.z.n}")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        super().__post_init__()

    @cached_property
    def _w(self) -> np.ndarray:
        return np.array(self.weights, dtype=np.float64)

    def evaluate_word(self, word: int) -> float:
        n = self._n
        agree = ~(word ^ self._zword) & ((1 << n) - 1)
        return float(self._w.compress(word_unpack(agree, n)).sum())


class Oracle:
    """Query gate around a hidden instance.

    Every call to :meth:`query` costs one unit and fails deterministically
    once the budget is spent.  The history is kept as ``_words`` and
    ``_values``, entry i being the i-th query; the query count is their
    length.  Policies never see this object directly; the engine routes their
    operator outputs through it and indexes its points by position in the
    history.
    """

    def __init__(self, instance, budget: int | None = None):
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self._instance = instance
        self._budget = budget
        self._eval = instance.evaluate_word
        self._words: list[int] = []
        self._values: list = []

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def query_count(self) -> int:
        return len(self._words)

    @property
    def history(self) -> list[tuple[BitString, float]]:
        """Queried points with their values, in query order (a fresh copy)."""
        n = self.n
        return [(BitString(n, w), f) for w, f in zip(self._words, self._values)]

    @property
    def debug_instance(self):
        """The concealed instance; for tests and post-hoc verification only."""
        return self._instance

    def _query_word(self, word: int):
        words = self._words
        if self._budget is not None and len(words) >= self._budget:
            raise BudgetExhausted(len(words))
        fit = self._eval(word)
        words.append(word)
        self._values.append(fit)
        return fit

    def query(self, x: BitString):
        if x.n != self.n:
            raise ValueError(f"length mismatch: {x.n} != {self.n}")
        return self._query_word(x.word)


def random_instance(class_name: str, n: int, seed):
    """Draw a uniformly random instance of the named class, deterministically.

    ``seed`` may be anything ``np.random.default_rng`` accepts.  z is uniform
    over {0,1}^n; LeadingOnes additionally draws sigma uniform over all
    position orders; Monotone draws i.i.d. weights uniform on (0, 1].
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
    weights = tuple(float(w) for w in 1.0 - rng.random(n))
    return MonotoneInstance(z, weights)
