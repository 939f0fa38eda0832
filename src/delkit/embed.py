"""Counting the embeddings of one bit string inside another.

An embedding of x in y is a strictly increasing choice of |x| positions of y
whose projection spells x; the number of embeddings is the weight of y as a
supersequence of x.  Three independent routes compute it:

* a dynamic program over prefix pairs, restricted at each symbol of y to the
  prefixes of x that are already reached and can still complete, which lie
  between x's greedy leftmost and rightmost embeddings in y (the workhorse),
* explicit enumeration of the position masks themselves,
* a run-length route that groups masks by which run of y hosts the last
  symbol of each run of x.

The run route works as follows.  After aligning leading symbols (if y starts
with the wrong symbol, its first run can never host anything and is dropped),
every mask induces a map f from x's run indices into y's run indices: f(i) is
the run of y containing the mask position of the last symbol of x's run i.
Such maps are exactly the strictly increasing, parity-preserving sequences
(f(i) = i mod 2), and the masks inducing a given f factor per run of x: run i
draws its k'_i symbols from the same-parity runs of y in (f(i-1), f(i)], with
at least one symbol landing in run f(i) itself.

Each factor depends only on the pair (f(i-1), f(i)), so the sum over maps is
a chain sum over map images: after i runs of x, chain[v] holds the summed
weight of the maps of those runs with f(i) = v.  Step i tries only the
same-parity images between left_i and right_i, the runs of y holding the last
symbol of run i in x's greedy leftmost and rightmost embeddings; no other
image can complete (the bounds are skipped where l - lp <= 1, with lp runs of
x and l aligned runs of y, leaving one image per run at most).  Run i's factor
for (u, v) is C(s(v) - s(u-1), k'_i) - C(s(v-2) - s(u-1), k'_i), with
s(v) = ky_v + ky_(v-2) + ..., so the step stores T(v) - T(v-2), T(v) being
chain[u] times the first binomial summed over u < v: one binomial per (u, v),
as C(0, k) = 0.  That is O(lp * band^2) exact integer steps, band being the
most images between two bounds and at most (l - lp) / 2 + 1, instead of one
step per map.  The maps themselves are enumerated only where they are the
output, in block_map_weights, by a depth-first walk over image prefixes
inside the same bounds that drops a prefix as soon as one of its factors is 0
(the maps of nonzero weight).
"""
from __future__ import annotations

from collections import deque
from math import comb

from .core import Mask, _Frozen, _run_lengths, binomial, check_budget, validate_bits

__all__ = [
    "BlockMap",
    "block_map_weights",
    "count_embeddings_dp",
    "count_embeddings_runs",
    "enumerate_masks",
    "sigma_count",
]


def count_embeddings_dp(y: str, x: str) -> int:
    """Number of embeddings of x in y, by dynamic programming.

    One pass over y with a rolling table indexed by prefixes of x, updated
    only on the band of prefixes that can still be both reached and
    completed: y[i] updates prefix j only while x[:j] embeds in y[:i + 1]
    and x[j:] embeds in y[i + 1:].  The first bound moves with the greedy
    leftmost embedding of x, found inside the pass; the second is the
    position of x[j] in the greedy rightmost embedding, found by one backward
    pass first (which also answers 0 when x does not embed at all).  Both
    bounds are at least as tight as the length bounds, so the band is never
    wider than d + 1 = |y| - |x| + 1, and on y whose runs x keeps it is about
    one run wide.  O(|y| + sum of the band widths) exact int additions, O(|x|)
    space.
    """
    validate_bits(y)
    validate_bits(x)
    m = len(x)
    if m == 0:
        return 1
    # last[j] = position of x[j] in the rightmost embedding of x in y.  Prefix
    # j leaves the band at y[last[j]], after which x[j:] no longer fits; its
    # count is still read once, at that same symbol (no x[j] lies between
    # last[j] and last[j + 1]), and it is exact there
    last = [0] * m + [len(y)]
    at = len(y)
    for k in range(m - 1, -1, -1):
        at = y.rfind(x[k], 0, at)
        if at < 0:
            return 0
        last[k] = at
    # counts[j] = embeddings of x[:j] in the scanned prefix of y; live[c]
    # holds the band's prefixes j with x[j-1] == c, descending, so each y
    # symbol is used at most once per embedding.  x[:reach] is what the
    # leftmost embedding has placed so far and lo the shortest live prefix.
    counts = [1] + [0] * m
    live = {"0": deque(), "1": deque()}
    reach, lo = 0, 1
    want, drop = x[0], last[1]
    for i, ch in enumerate(y):
        if i == drop:
            live[x[lo - 1]].pop()
            lo += 1
            drop = last[lo]
        if ch == want:
            reach += 1
            live[ch].appendleft(reach)
            want = x[reach] if reach < m else ""
        for j in live[ch]:
            counts[j] += counts[j - 1]
    return counts[m]


def enumerate_masks(y: str, x: str, budget: int | None = None) -> list[Mask]:
    """All embedding masks of x in y, as 0-based tuples in lexicographic order."""
    validate_bits(y)
    validate_bits(x)
    check_budget(len(y), budget, "len(y)")
    n, m = len(y), len(x)
    out: list[Mask] = []
    prefix: list[int] = []

    def extend(start: int, j: int) -> None:
        if j == m:
            out.append(tuple(prefix))
            return
        # leave room for the remaining symbols of x
        for i in range(start, n - (m - j) + 1):
            if y[i] == x[j]:
                prefix.append(i)
                extend(i + 1, j + 1)
                prefix.pop()

    extend(0, 0)
    return out


def sigma_count(lp: int, l: int) -> int:
    """Number of strictly increasing parity-preserving maps [lp] -> [l].

    With lt = l if l and lp share parity else l-1: zero when lt < lp, else
    C(lp + u, u) where u = (lt - lp) / 2.
    """
    if lp < 0 or l < 0:
        raise ValueError("run counts must be nonnegative")
    lt = l if (l - lp) % 2 == 0 else l - 1
    if lt < lp:
        return 0
    u = (lt - lp) // 2
    return binomial(lp + u, u)


class BlockMap(_Frozen):
    """A strictly increasing map of run indices with f(i) = i (mod 2).

    ``images`` holds f(1), ..., f(lp) as 1-based run indices of y.
    """

    def __init__(self, images: tuple[int, ...]) -> None:
        prev = 0
        for i, v in enumerate(images, start=1):
            if v <= prev or (v - i) % 2:
                raise ValueError(f"not an increasing parity-preserving map: {images}")
            prev = v
        vars(self).update(images=images)


def _aligned_run_lengths(
    y: str, x: str
) -> tuple[tuple[int, ...], tuple[int, ...], list[int]] | None:
    """Run lengths of (y, x) after dropping y's unusable leading run, and the
    parity sums of y's: q[v + 1] = ky[v-1] + ky[v-3] + ..., so the same-parity
    runs of y in (u, v] hold q[v + 1] - q[u] symbols.

    None when a nonempty x finds no run of y to start in, i.e. no embedding
    can exist; an empty x keeps all of y.
    """
    validate_bits(y)
    validate_bits(x)
    ky = _run_lengths(y)
    if x and y[:1] != x[0]:
        ky = ky[1:]
        if not ky:
            return None
    q = [0, 0]
    for k in ky:
        q.append(q[-2] + k)
    return ky, _run_lengths(x), q


def _image_bounds(kx: tuple[int, ...], q: list[int], l: int) -> tuple[list[int], list[int]] | None:
    """left[i] (right[i]): the run of y holding the last symbol of run i + 1 of
    x in x's greedy leftmost (rightmost) embedding, so the least (greatest)
    f(i + 1) over the maps of nonzero weight.  None when x does not embed.
    """
    left, v = [], 0
    for need in kx:
        u, v = v, v + 1
        while v <= l and q[v + 1] - q[u] < need:
            v += 2
        if v > l:
            return None
        left.append(v)
    right, u = [], l - (l - len(kx)) % 2
    for need in reversed(kx):
        right.append(v := u)
        u -= 1
        while q[v + 1] - q[u] < need:  # stops by the previous run's leftmost image, or 0
            u -= 2
    return left, right[::-1]


def count_embeddings_runs(y: str, x: str) -> int:
    """Number of embeddings of x in y, by the run-length route.

    A chain sum over the images f(1), ..., f(lp) of the block maps, one step
    per run of x; see the module docstring.
    """
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return 0
    ky, kx, q = aligned
    lp, l = len(kx), len(ky)
    # with l - lp <= 1 each run has one image at most: nothing to bound
    bounds = _image_bounds(kx, q, l) if l - lp > 1 else (range(1, lp + 1), range(l - lp + 1, l + 1))
    if bounds is None:
        return 0
    chain = {0: 1}
    for need, lo, hi in zip(kx, *bounds):
        nxt = {}
        below = 0  # T(v - 2), which is 0 at v = lo
        for v in range(lo, hi + 1, 2):
            top = q[v + 1]
            t = 0
            for u, w in chain.items():
                if u >= v:
                    break
                avail = top - q[u]
                if avail < need:  # and less still for every larger u
                    break
                t += w * comb(avail, need)
            if t != below:
                nxt[v] = t - below if below else t
                below = t
        if not nxt:
            return 0
        chain = nxt
    return sum(chain.values())


def block_map_weights(y: str, x: str) -> list[tuple[BlockMap, int]]:
    """Per-map weights of the run route, for maps of nonzero weight.

    The weights partition the mask set: they sum to count_embeddings_dp(y, x).
    Maps are indexed against y's runs after leading-symbol alignment.
    """
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return []
    ky, kx, q = aligned
    bounds = _image_bounds(kx, q, len(ky))
    if bounds is None:
        return []
    left, right = bounds
    lp = len(kx)
    out = []
    # depth first over image prefixes, in lex order: (images, weight so far)
    stack: list[tuple[tuple[int, ...], int]] = [((), 1)]
    while stack:
        images, w = stack.pop()
        i = len(images)
        if i == lp:
            out.append((BlockMap(images), w))
            continue
        u = images[-1] if images else 0
        children = []
        # only images that can complete; a zero factor drops the prefix with
        # all its extensions
        for v in range(max(u + 1, left[i]), right[i] + 1, 2):
            avail = q[v + 1] - q[u]
            if step := comb(avail, kx[i]) - comb(avail - ky[v - 1], kx[i]):
                children.append((images + (v,), w * step))
        stack.extend(reversed(children))
    return out
