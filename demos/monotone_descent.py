"""Run the pair descent on hidden monotone functions without reading values.

A monotone instance rewards agreement with its hidden string through
hidden positive integer weights, so fitness values carry no positional
information.  The descent still works: it accepts strict improvements and
knows it is done after exactly n accepted flips, because each acceptance
shrinks the pair's disagreement by one.  No fitness value is ever inspected
beyond the comparison.
"""

from __future__ import annotations

import numpy as np

from arityopt.algorithms import run_binary_onemax
from arityopt.problems import Oracle, random_instance


def main() -> None:
    n, trials = 200, 30
    counts = []
    for i in range(trials):
        oracle = Oracle(random_instance("monotone", n, 9000 + i))
        record = run_binary_onemax(n, oracle, np.random.default_rng(9500 + i))
        assert record.success
        counts.append(record.queries)
    counts = np.array(counts)

    oracle = Oracle(random_instance("monotone", n, 9000))
    w = oracle.debug_instance.weights
    print(f"weights are hidden positive ints, e.g. {w[0]}, {w[1]}, {w[2]}, ...")
    print(f"{trials} runs at n={n}: mean {counts.mean():.1f} queries"
          f" (2n = {2 * n}), all succeeded")
    print("the stop needs no plateau detection, just counting n acceptances")


if __name__ == "__main__":
    main()
