"""The space of length-n supersequences of x and its structure.

The compatible set of x at length n is every y in {0,1}^n that contains x as
a subsequence.  Its size depends only on (n, |x|).  Cluster c collects the
members with exactly c more 1s than x; cluster sizes depend only on
(n, |x|, h(x)) and have three equivalent computations (a closed double sum, a
simplified single sum, and a first-symbol recursion), kept separate so they
can be checked against each other.

A maximal initial is a member whose greedy (leftmost) embedding of x ends on
the last position of y.  A singleton is a member that embeds x exactly once;
singletons are produced by run-splitting insertions only, so their count is
governed by how many insertion slots each run of x offers.

The weight histogram over the compatible set has two routes over one level
walk, _prefix_level, which merges y prefixes that share their live prefix
counts of x and can resume from levels kept by an earlier call:
_walk_histogram runs it to depth n, and _split_half_histogram runs it from
the root to halfway on x and on reversed x and joins the two halves.
_weight_histograms, the one entry to both, checks each x, lets
_split_half_pays pick the route once per |x| and sorts the results.  The
walk's level at depth L <= |x| depends only on x[:L], so each walk resumes
from the level the walk before it kept at their common prefix.
"""
from __future__ import annotations

import struct
from collections import Counter, defaultdict
from functools import cache
from math import comb
from typing import Iterator

from .core import (
    Mask,
    _Frozen,
    _run_lengths,
    binomial,
    check_budget,
    hamming_weight,
    multichoose,
    validate_bits,
)

__all__ = [
    "RunSlots",
    "cluster_size_closed",
    "cluster_size_recursive",
    "cluster_size_simple",
    "composition_slots",
    "enumerate_supersequences",
    "initial_mask",
    "is_maximal_initial",
    "maximal_initials_cluster",
    "maximal_initials_total",
    "run_slots",
    "singleton_cluster_count",
    "singleton_count",
    "upsilon_size",
]


def upsilon_size(n: int, m: int) -> int:
    """Number of length-n supersequences of any fixed x with |x| = m."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return sum(comb(n, r) for r in range(m, n + 1))


def enumerate_supersequences(
    n: int, x: str, budget: int | None = None
) -> Iterator[tuple[str, int]]:
    """Yield (y, weight) for every length-n supersequence y of x, in lex order.

    Depth-first walk over y prefixes carrying the embedding-count table for
    x's prefixes, pruning any prefix that cannot fit the unmatched tail of x
    into the remaining positions.  A child at depth L + 1 updates only the
    live band of the table: prefixes j of x with L + 1 - (n - |x|) <= j <=
    L + 1, the ones that can still grow into x in the positions left (entries
    below the band are never read again, entries above it are still 0).
    """
    validate_bits(x)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    check_budget(n, budget)
    m = len(x)
    if m > n:
        return
    d = n - m
    # live[L][bit]: the band's j with x[j-1] == bit at depth L, descending,
    # so each symbol of y is used at most once per embedding
    live = []
    for depth in range(n):
        band = range(min(m, depth + 1), max(0, depth - d), -1)
        live.append({bit: [j for j in band if x[j - 1] == bit] for bit in "01"})
    # stack entries: (prefix, counts table, greedily matched symbols)
    stack: list[tuple[str, tuple[int, ...], int]] = [("", (1,) + (0,) * m, 0)]
    while stack:
        prefix, counts, matched = stack.pop()
        depth = len(prefix)
        if depth == n:
            yield prefix, counts[m]
            continue
        room = n - depth - 1
        for bit in ("1", "0"):
            grown = matched + 1 if matched < m and x[matched] == bit else matched
            if m - grown > room:
                continue
            nxt = list(counts)
            for j in live[depth][bit]:
                nxt[j] += nxt[j - 1]
            stack.append((prefix + bit, tuple(nxt), grown))


def _split_half_pays(n: int, m: int) -> bool:
    """Whether _split_half_histogram should replace the walk at (n, m).

    Compares closed forms of each route's Python-level steps: 2^L (R + 2) + 2^R
    (L = n // 2, R = n - L) bounds the split-half route's halves, which hold
    at most 2^L and 2^R prefixes, and its tally adds 2^n / 11: one Counter
    count per live (u, v), each about a tenth of a walk state's cost.
    The walk is charged the smaller of two bounds on its merged states:
    upsilon(n, m), and (n + 1)^2 prod_{j <= m} (C(n, j) + 1), since on each of
    its n + 1 levels and in each of at most n + 1 popcount groups a live slot
    j takes at most C(n, j) + 1 values.  The second bound decides short x,
    where the first is off by orders of magnitude; it is only evaluated once
    the first has chosen the join.  The join's 64-bit slots are exact only
    while C(n, m) < 2^64.
    """
    left, right = n // 2, n - n // 2
    steps = (1 << left) * (right + 2) + (1 << right) + (1 << n) // 11
    if comb(n, m) >= 1 << 64 or steps >= upsilon_size(n, m):
        return False
    states = (n + 1) ** 2
    for j in range(m + 1):
        states *= comb(n, j) + 1
    return steps < states


def _prefix_level(n: int, x: str, depth: int, by_ones: bool, kept: list, keep: int) -> list:
    """Classes of the length-`depth` prefixes u of x's length-n supersequences.

    u reaches its completions only through its live band, w_{x[:j]}(u) for
    L - d <= j <= L (L = |u|, d = n - |x|), packed into one int with a slot of
    C(n, |x|).bit_length() bits per j, which no live count outgrows:
    w_{x[:j]}(u) sits in slot j - (L - d).  Prefixes that share a band are one
    state, {band: number of prefixes}, one dict per popcount of u with by_ones.
    A band of 0 cannot complete and is dropped; at depth n the band is the weight.
    The walk resumes from kept[-1], the level at depth len(kept) (the root if
    kept is empty); on return kept[L - 1] is the level at depth L for L <= keep.
    """
    m = len(x)
    d, width = n - m, comb(n, m).bit_length()
    full, step = (1 << width) - 1, 1 if by_ones else 0
    levels = kept[-1] if kept else [{1 << d * width: 1}]
    for i in range(len(kept), depth):
        # appending bit b adds w_{x[:j]} into w_{x[:j+1]} wherever x[j] == b,
        # and j + 1 lands in slot j - (i - d) once the band shifts down one
        masks = [0, 0]
        for j in range(max(0, i - d), min(i + 1, m)):
            masks[x[j] == "1"] |= full << (j - i + d) * width
        zero, one = masks
        grown = [defaultdict(int) for _ in range(len(levels) + step)]
        for ones, states in enumerate(levels):
            to_zero, to_one = grown[ones], grown[ones + step]
            for band, k in states.items():
                up = band >> width
                if b := up + (band & zero):
                    to_zero[b] += k
                if b := up + (band & one):
                    to_one[b] += k
        levels = grown
        if i < keep:
            kept.append(levels)
    del kept[keep:]
    return levels


def _total(parts: list[Counter[int]]) -> Counter[int]:
    """The clusters' histograms added up in one Counter."""
    total: Counter[int] = Counter()
    for part in parts:
        total.update(part)
    return total


def _walk_histogram(
    n: int, x: str, by_cluster: bool = False, *, kept: list | None = None, keep: int = 0
) -> tuple[Counter[int], dict[int, Counter[int]] | None]:
    """Weight histogram (and cluster breakdown) from the prefix level at depth n.

    Each level holds at most upsilon(n, |x|) states; kept and keep are _prefix_level's.
    """
    levels = _prefix_level(n, x, n, by_cluster, [] if kept is None else kept, keep)
    parts = [Counter(states) for states in levels]
    if not by_cluster:
        return parts[0], None
    h = hamming_weight(x)
    return _total(parts), {i - h: part for i, part in enumerate(parts) if part}


def _split_half_histogram(
    n: int, x: str, by_cluster: bool = False
) -> tuple[Counter[int], dict[int, Counter[int]] | None]:
    """Weight histogram (and cluster breakdown) of x's length-n supersequences.

    Every embedding of x in y = uv splits at exactly one j, so
    w_x(uv) = sum_j w_{x[:j]}(u) w_{x[j:]}(v) over max(0, m - R) <= j <= min(m, L)
    with |u| = L = n // 2 and |v| = R = n - L.  The halves are prefix levels:
    x's at depth L, where w_{x[:j]}(u) sits in slot j - (m - R), and reversed
    x's at depth R, where w_{x[j:]}(v) sits in slot L - j; halves that cannot
    complete are dropped.  The suffix counts of every live v, grouped by
    popcount, are packed per j into one integer with a 64-bit slot per v, so
    the weights of every uv for one class of u are a few big-integer
    multiply-adds; every partial sum is at most C(n, m), which must fit a
    slot.  Zero weights (non-members) are dropped; cluster c of uv is
    h(u) + h(v) - h(x), one popcount block of v per cluster.
    """
    m = len(x)
    width = comb(n, m).bit_length()
    if width > 64:
        raise ValueError(f"C({n}, {m}) does not fit a 64-bit slot")
    left, right, full = n // 2, n - n // 2, (1 << width) - 1
    lo, hi = max(0, m - right), min(m, left)
    # the band of every live v, grouped by popcount; sorting a group puts
    # equal weights of a row together, which tallies faster
    suffixes, blocks = [], [0]
    for states in _prefix_level(n, x[::-1], right, by_cluster, [], 0):
        for band in sorted(states):
            suffixes += [band] * states[band]
        blocks.append(len(suffixes))
    # w_{x[j:]}(v) for one j in one little-endian 64-bit slot per v, whatever
    # the host's byte order
    slots = struct.Struct(f"<{len(suffixes)}Q")
    packed = []
    for j in range(lo, hi + 1):
        column = slots.pack(*[v >> (left - j) * width & full for v in suffixes])
        packed.append(int.from_bytes(column, "little"))
    nbytes = slots.size
    h = hamming_weight(x)
    # one histogram per cluster, or a single one
    parts = [Counter() for _ in range(n - m + 1 if by_cluster else 1)]
    for ones, states in enumerate(_prefix_level(n, x, left, by_cluster, [], 0)):
        spans = [(parts[0], 0, len(suffixes))]
        if by_cluster:
            # the popcounts of v that put uv in a cluster 0 <= c <= n - m
            hvs = range(max(0, h - ones), min(right, h - ones + n - m) + 1)
            spans = [(parts[ones + hv - h], blocks[hv], blocks[hv + 1]) for hv in hvs]
        for band, k in states.items():
            row = 0
            band >>= (lo - m + right) * width
            for b in packed:
                if at := band & full:
                    row += at * b
                band >>= width
            weights = slots.unpack(row.to_bytes(nbytes, "little"))
            for _ in range(k):  # k prefixes share this row
                for part, start, stop in spans:
                    part.update(weights[start:stop])
    for part in parts:
        del part[0]  # the strings that do not contain x
    if not by_cluster:
        return parts[0], None
    return _total(parts), {c: part for c, part in enumerate(parts) if part}


def _weight_histograms(
    n: int, xs, by_cluster: bool = False, budget: int | None = None
) -> Iterator[tuple[dict[int, int], dict[int, dict[int, int]] | None]]:
    """Either route's histogram and breakdown for each x, sorted by weight and by cluster.

    Refuses a non-bit x, an n over the budget, n < 0 and |x| > n, in that
    order, before any work on that x; the routes trust these checks.  Each walk
    keeps the levels of its common prefix with the next x, longest in sorted xs.
    """
    xs, pays, kept = list(xs), cache(_split_half_pays), []
    for x, after in zip(xs, xs[1:] + [""]):
        validate_bits(x)
        check_budget(n, budget)
        m = len(x)
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if m > n:
            raise ValueError(f"need 0 <= |x| <= n, got |x|={m}, n={n}")
        if pays(n, m):
            counts, clusters = _split_half_histogram(n, x, by_cluster)
        else:
            same = isinstance(after, str) and len(after) == m
            keep = next((j for j in range(m) if x[j] != after[j]), m) if same else 0
            counts, clusters = _walk_histogram(n, x, by_cluster, kept=kept, keep=keep)
        if clusters is not None:
            clusters = {c: dict(sorted(clusters[c].items())) for c in sorted(clusters)}
        yield dict(sorted(counts.items())), clusters


def _check_cluster_shape(n: int, m: int, h: int) -> None:
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if not 0 <= h <= m:
        raise ValueError(f"need 0 <= h <= m, got h={h}, m={m}")


def cluster_size_closed(n: int, m: int, h: int, c: int) -> int:
    """Size of cluster c, as the double sum over (|y| run count, excess-1 runs).

    Sums over the length l of the region of y whose runs host x's symbols and
    the number g of extra 1s falling inside that region; c out of [0, n-m]
    gives 0.
    """
    _check_cluster_shape(n, m, h)
    if c < 0 or c > n - m:
        return 0
    if m == 0:
        return binomial(n, c)
    total = 0
    for l in range(m, n + 1):
        for g in range(max(0, c - (n - l)), min(c, l - m) + 1):
            total += (
                multichoose(l - m - g, h)
                * multichoose(g, m - h)
                * binomial(n - l, c - g)
            )
    return total


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
