"""Sample uniformly from the set of strings consistent with observations.

Each observation pairs a queried point with its agreement count against the
hidden string.  The consistent set is enumerated exactly at small dimension,
and the chooseConsistent operator draws uniformly from it; this demo shows the
set shrinking as observations accumulate and the draw frequencies staying flat.
"""

from __future__ import annotations

import numpy as np

from arityopt.bitcore import BitString
from arityopt.consistency import ConsistencyQuery, consistent_set
from arityopt.operators import choose_consistent_id, sample_operator
from arityopt.problems import Oracle, random_instance


def shrinking_set(dim: int, seed: int) -> None:
    oracle = Oracle(random_instance("onemax", dim, seed))
    rng = np.random.default_rng(seed)
    points: list[BitString] = []
    values: list[int] = []
    print(f"hidden z = {oracle.debug_instance.z.to_string()}, dim {dim}")
    for step in range(1, 6):
        p = BitString(dim, int(rng.integers(1 << dim)))
        points.append(p)
        values.append(int(oracle.query(p)))
        q = ConsistencyQuery(dim, tuple(points), tuple(values))
        survivors = consistent_set(q)
        print(f"  after {step} observation(s): {len(survivors):3d} consistent"
              f" string(s), z included: {oracle.debug_instance.z in survivors}")


def flat_frequencies(dim: int, draws: int) -> None:
    q = ConsistencyQuery(dim, (BitString(dim, 0),), (dim // 2,))
    support = consistent_set(q)
    rng = np.random.default_rng(99)
    counts: dict[int, int] = {}
    op, point_words = choose_consistent_id(q.values), [p.word for p in q.points]
    for _ in range(draws):
        w = sample_operator(op, point_words, dim, rng)
        counts[w] = counts.get(w, 0) + 1
    freqs = np.array(sorted(counts.values()))
    print(f"\n{draws} draws over a {len(support)}-string consistent set:")
    print(f"  per-string count range {freqs.min()}..{freqs.max()}"
          f" (uniform expectation {draws // len(support)})")


def main() -> None:
    shrinking_set(dim=8, seed=5)
    flat_frequencies(dim=8, draws=20_000)


if __name__ == "__main__":
    main()
