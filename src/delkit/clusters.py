"""Closed forms for the structure of the compatible set, beside enumeration.

Cluster sizes depend only on (n, |x|, h(x)) and have three equivalent
computations (space.cluster_size_closed's double sum, a simplified single
sum, and a first-symbol recursion), kept separate so they can be checked
against each other.

A maximal initial is a member whose greedy (leftmost) embedding of x ends on
the last position of y.  A singleton is a member that embeds x exactly once;
singletons are produced by run-splitting insertions only, so their count is
governed by how many insertion slots each run of x offers.

Only `delkit verify` and package-level names load this module, so no other
CLI start compiles it.
"""
from __future__ import annotations

from functools import cache
from math import comb

from .core import Mask, _Frozen, _run_lengths, binomial, multichoose, validate_bits
from .space import _check_cluster_shape

__all__ = [
    "RunSlots",
    "cluster_size_recursive",
    "cluster_size_simple",
    "composition_slots",
    "initial_mask",
    "is_maximal_initial",
    "maximal_initials_cluster",
    "maximal_initials_total",
    "run_slots",
    "singleton_cluster_count",
    "singleton_count",
]


def cluster_size_simple(n: int, m: int, h: int, c: int) -> int:
    """Size of cluster c, as a single sum over the position of the h-th 1."""
    _check_cluster_shape(n, m, h)
    if c < 0 or c > n - m:
        return 0
    if h == 0:
        return binomial(n, c)
    z = n - m - c
    return sum(binomial(p - 1, h - 1) * binomial(n - p, c) for p in range(h, h + z + 1))


def cluster_size_recursive(n: int, x: str, c: int) -> int:
    """Size of cluster c by recursion on the first symbol of y."""
    validate_bits(x)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")

    @cache
    def rec(n: int, x: str, c: int) -> int:
        if c < 0 or c > n - len(x):
            return 0
        if not x:
            return comb(n, c)
        if x[0] == "1":
            # y starts with the matched 1, or with an excess 0
            return rec(n - 1, x[1:], c) + rec(n - 1, x, c)
        # y starts with the matched 0, or with an excess 1
        return rec(n - 1, x[1:], c) + rec(n - 1, x, c - 1)

    size = rec(n, x, c)
    # rec refers to itself, so its memo would otherwise outlive the call
    # until the next full garbage collection
    rec.cache_clear()
    return size


def initial_mask(y: str, x: str) -> Mask | None:
    """The greedy (leftmost) embedding mask of x in y, or None."""
    validate_bits(y)
    validate_bits(x)
    out = []
    i = 0
    for ch in x:
        while i < len(y) and y[i] != ch:
            i += 1
        if i == len(y):
            return None
        out.append(i)
        i += 1
    return tuple(out)


def is_maximal_initial(y: str, x: str) -> bool:
    """True when the greedy embedding of x in y ends on y's last position."""
    mask = initial_mask(y, x)
    if mask is None:
        return False
    if not x:
        return y == ""
    return mask[-1] == len(y) - 1


def maximal_initials_total(n: int, m: int) -> int:
    """Number of length-n supersequences whose greedy mask ends at position n."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return comb(n - 1, m - 1)


def maximal_initials_cluster(n: int, m: int, h: int, c: int) -> int:
    """Number of maximal initials inside cluster c."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if not 0 <= h <= m:
        raise ValueError(f"need 0 <= h <= m, got h={h}, m={m}")
    if c < 0 or c > n - m:
        return 0
    return multichoose(n - m - c, h) * multichoose(c, m - h)


class RunSlots(_Frozen):
    """Insertion-slot counts of a string, split by run symbol.

    rho0 counts the slots offered by runs of 0s, rho1 by runs of 1s.
    """

    def __init__(self, rho0: int, rho1: int) -> None:
        vars(self).update(rho0=rho0, rho1=rho1)

    @property
    def total(self) -> int:
        return self.rho0 + self.rho1


def composition_slots(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Insertion slots offered by each run of a string with these run lengths.

    A run spanning the whole string offers len+1 slots, a run touching
    exactly one end offers len, and an interior run offers len-1: splitting
    insertions may not extend the run past a neighbouring run of the other
    symbol, but the string's own ends are free.
    """
    ell = len(lengths)
    if any(k < 1 for k in lengths):
        raise ValueError(f"run lengths must be positive, got {lengths}")
    if ell == 0:
        return ()
    if ell == 1:
        return (lengths[0] + 1,)
    return tuple(
        k if i in (0, ell - 1) else k - 1 for i, k in enumerate(lengths)
    )


def run_slots(x: str) -> RunSlots:
    """Slot counts of x by run symbol; x must be nonempty."""
    validate_bits(x)
    if not x:
        raise ValueError("run_slots needs a nonempty string")
    slots = composition_slots(_run_lengths(x))
    # runs at even positions carry x[0], runs at odd positions the other symbol
    lead, other = sum(slots[::2]), sum(slots[1::2])
    return RunSlots(other, lead) if x[0] == "1" else RunSlots(lead, other)


def singleton_count(n: int, x: str) -> int:
    """Number of length-n supersequences of x with exactly one embedding.

    Equals C(n - m + rho0 + rho1 - 1, n - m): all n - m inserted symbols must
    be run-splitting, and splitting insertions into distinct slots commute.
    The empty x has weight 1 in every y, so its count is 2**n.
    """
    validate_bits(x)
    m = len(x)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= |x| <= n, got |x|={m}, n={n}")
    if m == 0:
        return 2**n
    rs = run_slots(x)
    return binomial(n - m + rs.total - 1, n - m)


def singleton_cluster_count(n: int, x: str, c: int) -> int:
    """Number of singletons inside cluster c.

    The c inserted 1s split runs of 0s and the n - m - c inserted 0s split
    runs of 1s, independently.
    """
    validate_bits(x)
    m = len(x)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= |x| <= n, got |x|={m}, n={n}")
    if c < 0 or c > n - m:
        return 0
    if m == 0:
        return binomial(n, c)
    rs = run_slots(x)
    return multichoose(n - m - c, rs.rho1) * multichoose(c, rs.rho0)
