"""The paper's closed forms at d = 1 and d = 2 deletions, and the run-merging map g.

For d = 1 and d = 2 the weight histogram of x's compatible set (see entropy)
is a closed-form multiset of x's run lengths alone.

For d = 2 the mixed case (one insertion lengthens a run, one splits) needs
care: the structured strings obtained by writing (..., k_t, 1, 1, k_{t+1}, ...)
between consecutive runs alias one another whenever a swallowed run has
length 1, and an aliased group collapses to a single string whose weight is
the sum of every run it spans plus one.  The assembly below merges those
groups explicitly; the result matches exhaustive enumeration everywhere.

The run-merging transform g (fuse the first two runs, flipping the leading
symbol) strictly lowers posterior entropy on every non-constant string, which
makes constant strings the entropy minimizers; iterating g gives a monotone
chain down to the constant string.

Only `delkit gchain`, `delkit verify` and package-level names load this
module, so no other CLI start compiles it.
"""
from __future__ import annotations

from collections import Counter
from math import comb, log2

from .core import _run_lengths, validate_bits
from .entropy import WeightDistribution

__all__ = [
    "delta_single",
    "double_count_identity",
    "double_weight_identity",
    "g_chain",
    "g_transform",
    "predicted_weights_double",
    "predicted_weights_single",
]


def g_transform(x: str) -> str:
    """Fuse the first two runs of x into one run of the second run's symbol.

    Run lengths (k1, k2, k3, ...) become (k1+k2, k3, ...) and the leading
    symbol flips.  Strings with a single run are fixed points.
    """
    validate_bits(x)
    if not x:
        raise ValueError("g_transform needs a nonempty string")
    rest = x.lstrip(x[0])
    if not rest:
        return x
    return rest[:1] * (len(x) - len(rest)) + rest


def g_chain(x: str) -> list[str]:
    """x, g(x), g(g(x)), ... down to the constant-string fixed point."""
    chain = [x]
    while True:
        nxt = g_transform(chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def predicted_weights_single(x: str) -> WeightDistribution:
    """Weight histogram at n = |x| + 1, from x's run lengths alone.

    One insertion either lengthens a run (one string of weight k+1 per run
    of length k) or splits one; the m - l + 2 splitting results are the
    weight-1 singletons.
    """
    validate_bits(x)
    ks = _run_lengths(x)
    counts = Counter(k + 1 for k in ks)
    counts[1] += len(x) - len(ks) + 2
    return WeightDistribution(len(x) + 1, x, dict(sorted(counts.items())))


def _double_insertion_cases(ks: tuple[int, ...]) -> tuple[Counter, Counter, Counter]:
    """Weight multisets at n = m + 2 for a composition of run lengths.

    Returned as (both insertions lengthen, one lengthens and one splits,
    both split).  Weights depend only on the run lengths, not the symbols.
    """
    ell = len(ks)
    m = sum(ks)
    # both insertions in one of the c_a runs of length a, or one in each of two
    # runs; pairs are counted by length, since g_chain asks once per step
    lengthen: Counter[int] = Counter()
    tally = list(Counter(ks).items())
    for i, (a, ca) in enumerate(tally):
        lengthen[comb(a + 2, 2)] += ca
        if ca > 1:
            lengthen[(a + 1) ** 2] += comb(ca, 2)
        for b, cb in tally[i + 1 :]:
            lengthen[(a + 1) * (b + 1)] += ca * cb
    # the runs' insertion slots (clusters.composition_slots) summed in closed form
    t = m + 1 if ell == 1 else m - ell + 2
    split: Counter[int] = Counter({1: t * (t + 1) // 2})
    mixed: Counter[int] = Counter()
    # structured strings (..., k_t, 1, 1, k_{t+1}, ...): consecutive patterns
    # alias when the swallowed run has length 1, so walk maximal alias chains;
    # each chain is one string whose weight spans every run it touches
    i = 1
    while i <= ell:
        start = i
        while i < ell and ks[i] == 1:
            i += 1
        mixed[sum(ks[start - 1 : min(i + 1, ell)]) + 1] += 1
        i += 1
    for i, k in enumerate(ks, start=1):
        aliased = 1 if (ell == 1 or i == 1 or k == 1) else 2
        mixed[k + 1] += (m - ell + 3) - aliased
    return lengthen, mixed, split


def predicted_weights_double(x: str) -> WeightDistribution:
    """Weight histogram at n = |x| + 2, from x's run lengths alone."""
    validate_bits(x)
    if not x:
        raise ValueError("double insertion needs a nonempty string")
    lengthen, mixed, split = _double_insertion_cases(_run_lengths(x))
    merged = lengthen + mixed + split
    return WeightDistribution(len(x) + 2, x, dict(sorted(merged.items())))


def delta_single(k1: int, k2: int) -> float:
    """Entropy drop (scaled by 2(m+1)) from fusing leading runs k1, k2 at d=1.

    s log2 s - a log2 a - b log2 b with a = k1+1, b = k2+1, s = k1+k2+1;
    strictly positive for all k1, k2 >= 1.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("run lengths must be at least 1")
    a, b, s = k1 + 1, k2 + 1, k1 + k2 + 1
    return s * log2(s) - a * log2(a) - b * log2(b)


def _validate_composition(ks) -> tuple[int, ...]:
    t = tuple(ks)
    if not t or any(not isinstance(k, int) or k < 1 for k in t):
        raise ValueError(f"not a composition: {ks!r}")
    return t


def double_count_identity(ks) -> tuple[int, int]:
    """(assembled string count, C(m+2,m) + C(m+2,m+1) + C(m+2,m+2))."""
    t = _validate_composition(ks)
    lengthen, mixed, split = _double_insertion_cases(t)
    m = sum(t)
    lhs = sum(lengthen.values()) + sum(mixed.values()) + sum(split.values())
    rhs = comb(m + 2, m) + comb(m + 2, m + 1) + comb(m + 2, m + 2)
    return lhs, rhs


def double_weight_identity(ks) -> tuple[int, int]:
    """(assembled weight total, 4 * C(m+2, 2)): mask-mass conservation."""
    t = _validate_composition(ks)
    lengthen, mixed, split = _double_insertion_cases(t)
    m = sum(t)
    lhs = sum(w * k for case in (lengthen, mixed, split) for w, k in case.items())
    rhs = 4 * comb(m + 2, 2)
    return lhs, rhs
