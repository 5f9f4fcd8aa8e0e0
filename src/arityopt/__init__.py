"""Unbiased variation operators and query-complexity experiments on bit strings.

Subpackage map: ``bitcore`` (bit strings, permutations, word helpers),
``problems`` (instance classes and the query-counting oracle),
``operators`` (the operator table, operator ids, exact pmfs), ``consistency``
(consistent-set enumeration and samplers), ``algorithms`` (the algorithm
registry, search policies and the arity-enforcing engine),
``unbiasedness`` (invariance certification), ``bounds`` (round counts,
inequality check, theory curves), ``harness`` (seeded batches, summaries,
fits, file output), ``cli`` (command line).
"""

__version__ = "0.1.0"
