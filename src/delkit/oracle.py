"""Brute-force reference implementations.

Everything here is deliberately naive: embedding counts come from the
textbook recursion on string suffixes or from trying every index subset,
and whole spaces come from scanning every string in {0,1}^n.  None of the
closed forms or the iterative counting code from the other modules is used,
so agreement between the two sides is meaningful evidence.

oracle_weight_table is the same full-space scan vectorized with numpy (all
2^n strings advance one position per pass); it exists because grids of
thousands of full scans are outside pure-Python time budgets, and it is
cross-checked against the scalar scan in the test suite.  It is the only
user of numpy, which it imports on first call.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import comb, isfinite, log2

from .core import DEFAULT_BUDGET, BudgetError, Mask, _Frozen, _Value, check_budget

__all__ = [
    "EntropyReport",
    "OracleBudget",
    "OracleSpace",
    "oracle_count",
    "oracle_entropy",
    "oracle_space",
    "oracle_weight_table",
]


class OracleBudget(_Frozen):
    """Size guards for brute-force work.

    max_n caps string lengths anywhere in the oracle, max_scan_n caps
    pure-Python full-space scans and mask listings, max_subsets caps
    index-subset iteration.
    """

    def __init__(
        self, max_n: int = DEFAULT_BUDGET, max_scan_n: int = 14, max_subsets: int = 2_000_000
    ) -> None:
        vars(self).update(max_n=max_n, max_scan_n=max_scan_n, max_subsets=max_subsets)


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


class OracleSpace(_Value):
    """Full listing of one compatible set: y -> weight (lex order), masks on request."""

    def __init__(
        self, n: int, x: str, weights: dict[str, int], masks: dict[str, list[Mask]] | None = None
    ) -> None:
        self.n, self.x, self.weights, self.masks = n, x, weights, masks

    def singletons(self) -> list[str]:
        return [y for y, w in self.weights.items() if w == 1]


def oracle_space(
    n: int, x: str, with_masks: bool = False, budget: OracleBudget = OracleBudget()
) -> OracleSpace:
    """Scan all of {0,1}^n, keeping every y that contains x, with its weight."""
    check_budget(n, budget.max_scan_n)
    if with_masks and comb(n, len(x)) > budget.max_subsets:
        raise BudgetError("mask listing exceeds the oracle subset budget")

    @cache  # suffix pairs recur across the scan
    def suffix_count(y: str, x: str) -> int:
        if not x:
            return 1
        if len(y) < len(x):
            return 0
        k = suffix_count(y[1:], x)
        if y[0] == x[0]:
            k += suffix_count(y[1:], x[1:])
        return k

    weights: dict[str, int] = {}
    masks: dict[str, list[Mask]] | None = {} if with_masks else None
    for bits in product("01", repeat=n):
        y = "".join(bits)
        w = suffix_count(y, x)
        if w:
            weights[y] = w
            if masks is not None:
                masks[y] = [
                    pi
                    for pi in combinations(range(n), len(x))
                    if all(y[i] == c for i, c in zip(pi, x))
                ]
    # suffix_count refers to itself, so its memo would otherwise outlive the
    # call until the next full garbage collection
    suffix_count.cache_clear()
    return OracleSpace(n, x, weights, masks)


class EntropyReport(_Value):
    """Entropy measures of one posterior: Shannon, Renyi by order, min."""

    def __init__(self, shannon: float, renyi: dict[float, float], min_entropy: float) -> None:
        self.shannon, self.renyi, self.min_entropy = shannon, renyi, min_entropy


def oracle_entropy(
    n: int,
    x: str,
    alphas: tuple[float, ...] = (2.0,),
    budget: OracleBudget = OracleBudget(),
) -> EntropyReport:
    """Entropy measures summed per string (not per weight class).

    Normalizes by the enumerated weight total, so the whole computation is
    independent of the closed-form mask mass.
    """
    for a in alphas:
        if a <= 0 or a == 1 or not isfinite(a):
            raise ValueError(f"alpha must be positive, finite and not 1, got {a}")
    sp = oracle_space(n, x, budget=budget)
    total = sum(sp.weights.values())
    shannon = 0.0
    for w in sp.weights.values():
        p = w / total
        shannon -= p * log2(p)
    top = max(sp.weights.values())
    renyi = {}
    for a in alphas:
        s = sum((w / total) ** a for w in sp.weights.values())
        if s == 0.0:
            # every term underflowed: sum relative to the top weight instead
            s = sum((w / top) ** a for w in sp.weights.values())
            renyi[a] = a / (1 - a) * log2(top / total) + log2(s) / (1 - a)
        else:
            # + 0.0 turns the -0.0 of a point mass into 0.0, as in renyi_entropy
            renyi[a] = log2(s) / (1 - a) + 0.0
    return EntropyReport(shannon=shannon, renyi=renyi, min_entropy=-log2(top / total) + 0.0)


def oracle_weight_table(n: int, x: str, budget: OracleBudget = OracleBudget()):
    """Weights of every y in {0,1}^n at once, indexed by y's big-endian value.

    A vectorized rendering of the oracle_space scan: one pass per position of
    y, advancing all 2^n strings together.  Returns a numpy int64 array;
    values are bounded by C(n, |x|), far inside int64 for any n within budget.
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
