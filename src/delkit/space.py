"""The space of length-n supersequences of x and its structure.

The compatible set of x at length n is every y in {0,1}^n that contains x as
a subsequence.  Its size depends only on (n, |x|).  Cluster c collects the
members with exactly c more 1s than x; cluster sizes depend only on
(n, |x|, h(x)), and cluster_size_closed is their closed double sum (clusters
holds two more computations, checked against it).

The weight histogram over the compatible set is read from the level at
depth n of one walk, the generator _prefix_levels, which merges y prefixes
that share their live prefix counts of x and yields a level per depth.  Two
routes produce the level at depth n: the walk, and _split_half_level, which
joins its level at depth n // 2 with reversed x's at depth n - n // 2.
_weight_histograms, the one entry to both and the one loop over the walk,
checks each x, keeps the levels the next x resumes from, joins only where
_split_half_pays admits it and the level at depth n // 2 holds fewer than 4
live prefixes per state, and alone turns the level into the histogram and
clusters.  The walk's level at depth L <= |x| depends only on x[:L], so each
walk resumes from the level the walk before it kept at their common prefix.
"""
from __future__ import annotations

import struct
import sys
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import islice
from math import comb

from .core import binomial, check_budget, hamming_weight, multichoose, validate_bits

__all__ = [
    "cluster_size_closed",
    "enumerate_supersequences",
    "upsilon_size",
]


def upsilon_size(n: int, m: int) -> int:
    """Number of length-n supersequences of any fixed x with |x| = m."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if 2 * m <= n:  # the shorter tail
        return (1 << n) - sum(comb(n, r) for r in range(m))
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
    """Whether _split_half_level may replace the walk at (n, m): a pre-filter.

    Compares closed forms of each route's Python-level steps: 2^L (R + 2) + 2^R
    (L = n // 2, R = n - L) bounds the split-half route's halves, which hold
    at most 2^L and 2^R prefixes, and its tally adds 2^n / 11: one Counter
    count per live (u, v), fitted at a tenth of a walk state's cost, now a
    sixth.  The rule |x| <= R would walk the x between R and this frontier,
    about 0.6 n, mostly faster but in up to 29 times the join's memory: the
    frontier is what keeps memory down.  The walk is charged upsilon(n, m),
    orders of magnitude above its merged states where x's prefixes merge
    heavily, so _weight_histograms decides on the walk's level at depth L.
    The join is exact only while C(n, m) < 2^64.
    """
    left, right = n // 2, n - n // 2
    steps = (1 << left) * (right + 2) + (1 << right) + (1 << n) // 11
    return comb(n, m) < 1 << 64 and steps < upsilon_size(n, m)


def _prefix_levels(
    n: int, x: str, by_ones: bool, depth: int = 0, levels: list | None = None
) -> Iterator[list]:
    """Yield x's levels at depths `depth` to n, from `levels` (the root by default).

    The level at depth L classes the length-L prefixes u of x's length-n
    supersequences.  u reaches its completions only through its live band,
    w_{x[:j]}(u) for L - d <= j <= L (d = n - |x|), packed into one int with
    a slot of C(n, |x|).bit_length() bits per j, which no live count outgrows:
    w_{x[:j]}(u) sits in slot j - (L - d).  Prefixes that share a band are one
    state, {band: number of prefixes}, one dict per popcount of u with by_ones.
    A band of 0 cannot complete and is dropped; at depth n the band is the weight.
    """
    m = len(x)
    d, width = n - m, comb(n, m).bit_length()
    full, step = (1 << width) - 1, 1 if by_ones else 0
    if levels is None:
        levels = [{1 << d * width: 1}]
    yield levels
    for i in range(depth, n):
        # appending bit b adds w_{x[:j]} into w_{x[:j+1]} wherever x[j] == b,
        # and j + 1 lands in slot j - (i - d) once the band shifts down one
        zero = one = 0
        for j in range(max(0, i - d), min(i + 1, m)):
            if x[j] == "1":
                one |= full << (j - i + d) * width
            else:
                zero |= full << (j - i + d) * width
        grown = [{} for _ in range(len(levels) + step)]
        for ones, states in enumerate(levels):
            to_zero, to_one = grown[ones], grown[ones + step]
            get_zero, get_one = to_zero.get, to_one.get
            for band, k in states.items():
                up = band >> width
                if b := up + (band & zero):
                    to_zero[b] = get_zero(b, 0) + k
                if b := up + (band & one):
                    to_one[b] = get_one(b, 0) + k
        levels = grown
        yield levels


def _split_half_level(n: int, x: str, by_ones: bool, half: list) -> list:
    """x's level at depth n, as _prefix_levels yields it, joined from two halves.

    Every embedding of x in y = uv splits at exactly one j, so
    w_x(uv) = sum_j w_{x[:j]}(u) w_{x[j:]}(v) over max(0, m - R) <= j <= min(m, L)
    with |u| = L = n // 2 and |v| = R = n - L.  The halves are prefix levels:
    half, x's level at depth L, which the caller has walked already and where
    w_{x[:j]}(u) sits in slot j - (m - R), and reversed x's at depth R, where
    w_{x[j:]}(v) sits in slot L - j; halves that cannot complete are dropped.
    The suffix counts of every live v, grouped by popcount, are packed per j
    into one integer with a slot per v of the narrowest of 8, 16, 32 or 64
    bits that holds C(n, m), which bounds every partial sum, so the weights of
    every uv for one class of u are a few big-integer multiply-adds, exact
    while C(n, m) < 2^64.  Each row is read in place and tallied under
    popcount h(u) + h(v), one popcount block of v at a time, and zero weights
    (non-members) are dropped.
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
    for states in next(islice(_prefix_levels(n, x[::-1], by_ones), right, None)):
        for band in sorted(states):
            suffixes += [band] * states[band]
        blocks.append(len(suffixes))
    # w_{x[j:]}(v) for one j, a slot per v, in the host's order as memoryview reads it
    code = next(c for c in "BHIQ" if struct.calcsize(c) * 8 >= width)
    slots = struct.Struct(f"{len(suffixes)}{code}")
    packed = []
    for j in range(lo, hi + 1):
        column = slots.pack(*[v >> (left - j) * width & full for v in suffixes])
        packed.append(int.from_bytes(column, sys.byteorder))
    nbytes, bounds = slots.size, list(zip(blocks, blocks[1:]))
    # one tally per popcount of uv, or a single one
    parts = [Counter() for _ in range(n + 1 if by_ones else 1)]
    for ones, states in enumerate(half):
        spans = [(parts[ones + hv].update, start, stop) for hv, (start, stop) in enumerate(bounds)]
        for band, k in states.items():
            row = 0
            band >>= (lo - m + right) * width
            for b in packed:
                if at := band & full:
                    row += at * b
                band >>= width
            weights = memoryview(row.to_bytes(nbytes, sys.byteorder)).cast(code)
            for _ in range(k):  # k prefixes share this row
                for update, start, stop in spans:
                    update(weights[start:stop])
    for part in parts:
        del part[0]  # the strings that do not contain x
    return parts


def _weight_histograms(
    n: int, xs, by_cluster: bool = False, budget: int | None = None
) -> Iterator[tuple[dict[int, int], dict[int, dict[int, int]] | None]]:
    """Histogram and cluster breakdown for each x, sorted by weight and by cluster.

    Refuses a non-bit x, an n over the budget, n < 0 and |x| > n, in that
    order, before any work on that x; the routes trust these checks.  Either
    route yields the level at depth n, one {weight: count} per popcount of y
    with by_cluster; cluster c is popcount c + h(x).  Where _split_half_pays
    admits the join, x's walk joins at depth n // 2 if its level there holds
    fewer than 4 live prefixes per state, and goes on to depth n otherwise.
    Each walk resumes from the deepest kept level and keeps its common
    prefix's levels for the next x; a kept level past n // 2 means an x with
    the same level at n // 2 walked on from it, so this x walks on as well.
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
        same = isinstance(after, str) and len(after) == m
        keep = next((j for j in range(m) if x[j] != after[j]), m) if same else 0
        half = n // 2 if pays(n, m) else n + 1  # the depth whose level may pick the join
        walk = _prefix_levels(n, x, by_cluster, len(kept), kept[-1] if kept else None)
        for depth, level in enumerate(walk, len(kept)):
            if len(kept) < depth <= keep:
                kept.append(level)
            if depth == half and 4 * sum(map(len, level)) > sum(sum(p.values()) for p in level):
                level = _split_half_level(n, x, by_cluster, level)
                break
        del kept[keep:]
        counts: dict[int, int] = {}
        for part in level:
            for w, k in part.items():
                counts[w] = counts.get(w, 0) + k
        clusters, h = None, hamming_weight(x)
        if by_cluster:
            clusters = {i - h: {w: p[w] for w in sorted(p)} for i, p in enumerate(level) if p}
        yield {w: counts[w] for w in sorted(counts)}, clusters


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
