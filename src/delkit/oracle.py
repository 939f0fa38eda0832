"""Brute-force reference implementations.

Everything here is deliberately naive: an embedding count comes from trying
every index subset, and a whole space's weights from scanning every string in
{0,1}^n.  None of the closed forms or the iterative counting code from the
other modules is used, so agreement between the two sides is meaningful
evidence.

Its callers are `delkit count --method oracle`, the benchmark, which builds
its expected answers from oracle_count and oracle_weight_table, and the tests.
oracle_weight_table is a full-space scan vectorized with numpy (all 2^n
strings advance one position per pass), because grids of thousands of full
scans are outside pure-Python time budgets; the tests check it against the
scalar scan in tests/oracle_scan.py.  It is the only user of numpy (a test
extra), which it imports on first call.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .core import DEFAULT_BUDGET, BudgetError, _Frozen, check_budget

__all__ = ["OracleBudget", "oracle_count", "oracle_weight_table"]


class OracleBudget(_Frozen):
    """Size guards for brute-force work.

    max_n caps string lengths anywhere in the oracle, max_subsets caps
    index-subset iteration.
    """

    def __init__(self, max_n: int = DEFAULT_BUDGET, max_subsets: int = 2_000_000) -> None:
        vars(self).update(max_n=max_n, max_subsets=max_subsets)


def oracle_count(y: str, x: str, budget: OracleBudget = OracleBudget()) -> int:
    """Embedding count by checking every |x|-subset of y's positions."""
    check_budget(len(y), budget.max_n, "|y|")
    if comb(len(y), len(x)) > budget.max_subsets:
        raise BudgetError(
            f"C({len(y)}, {len(x)}) subsets exceed oracle budget {budget.max_subsets}"
        )
    return sum(
        1
        for pi in combinations(range(len(y)), len(x))
        if all(y[i] == c for i, c in zip(pi, x))
    )


def oracle_weight_table(n: int, x: str, budget: OracleBudget = OracleBudget()):
    """Weights of every y in {0,1}^n at once, indexed by y's big-endian value.

    One pass per position of y, advancing all 2^n strings together.  Returns
    a numpy int64 array; values are bounded by C(n, |x|), far inside int64 for
    any n within budget.
    """
    check_budget(n, budget.max_n)
    m = len(x)
    if (m + 1) << n > 1 << 26:
        raise BudgetError(f"scan table for n={n}, |x|={m} exceeds the memory guard")
    import numpy as np

    size = 1 << n
    xb = [int(c == "1") for c in x]
    state = [np.ones(size, dtype=np.int64)] + [
        np.zeros(size, dtype=np.int64) for _ in range(m)
    ]
    for pos in range(n):
        # the middle axis is y[pos]: add in place where it equals x[j-1]
        halves = [s.reshape(1 << pos, 2, -1) for s in state]
        for j in range(min(m, pos + 1), 0, -1):
            halves[j][:, xb[j - 1]] += halves[j - 1][:, xb[j - 1]]
    return state[m]
