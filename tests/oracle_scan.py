"""The scalar full-space scan: every y in {0,1}^n with its weight, by brute force.

A test-side reference, independent of every route in delkit: weights come
from the textbook recursion on string suffixes, masks from trying every
index subset, and entropies are summed per string rather than per weight
class.  The tests check delkit's enumerator, walk, join, entropies and
delkit.oracle.oracle_weight_table (the same scan, vectorized) against it.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import comb, isfinite, log2

from delkit.core import BudgetError, Mask, _Value, check_budget
from delkit.oracle import OracleBudget

MAX_SCAN_N = 14  # pure-Python scans of 2^n strings past this take too long


class OracleSpace(_Value):
    """Full listing of one compatible set: y -> weight (lex order), masks on request."""

    def __init__(
        self, n: int, x: str, weights: dict[str, int], masks: dict[str, list[Mask]] | None = None
    ) -> None:
        self.n, self.x, self.weights, self.masks = n, x, weights, masks

    def singletons(self) -> list[str]:
        return [y for y, w in self.weights.items() if w == 1]


def oracle_space(
    n: int, x: str, with_masks: bool = False, max_n: int = MAX_SCAN_N
) -> OracleSpace:
    """Scan all of {0,1}^n, keeping every y that contains x, with its weight.

    max_n caps n, and the oracle's subset budget caps the mask listing.
    """
    check_budget(n, max_n)
    if with_masks and comb(n, len(x)) > OracleBudget().max_subsets:
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


def oracle_entropy(n: int, x: str, alphas: tuple[float, ...] = (2.0,)) -> EntropyReport:
    """Entropy measures summed per string (not per weight class).

    Normalizes by the enumerated weight total, so the whole computation is
    independent of the closed-form mask mass.
    """
    for a in alphas:
        if a <= 0 or a == 1 or not isfinite(a):
            raise ValueError(f"alpha must be positive, finite and not 1, got {a}")
    sp = oracle_space(n, x)
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
