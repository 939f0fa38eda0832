"""Counting the embeddings of one bit string inside another.

An embedding of x in y is a strictly increasing choice of |x| positions of y
whose projection spells x; the number of embeddings is the weight of y as a
supersequence of x.  Three independent routes compute it:

* a dynamic program over prefix pairs, restricted to the prefixes of x that
  can still complete (the workhorse),
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
weight of the maps of those runs with f(i) = v.  Only images that leave room
for the remaining runs, i <= v <= l - (lp - i), are kept, which makes the
route O(lp * band^2) exact integer steps with lp runs of x, l aligned runs of
y and band = (l - lp) / 2 + 1, instead of one step per map.  The maps
themselves are enumerated only where they are the output, by one
depth-first walk over image prefixes that drops a prefix as soon as one of
its factors is 0: with unit factors in enumerate_block_maps (all maps), and
with the chain's factors in block_map_weights (the maps of nonzero weight).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from .core import Mask, Rle, binomial, check_budget, validate_bits

__all__ = [
    "BlockMap",
    "block_map_weights",
    "count_embeddings_dp",
    "count_embeddings_runs",
    "enumerate_block_maps",
    "enumerate_masks",
    "sigma_count",
]


def count_embeddings_dp(y: str, x: str) -> int:
    """Number of embeddings of x in y, by dynamic programming.

    One pass over y with a rolling table indexed by prefixes of x, updated
    only on the live band: after i + 1 symbols of y, a prefix of length j can
    still grow into x only if i + 1 - d <= j <= i + 1, with d = |y| - |x|
    deletions (longer prefixes are still 0; shorter ones are never read
    again, since the remaining symbols could not finish x).  The band is
    d + 1 wide, so O(|y| (|y| - |x| + 1)) time, O(|x|) space, exact ints
    throughout.
    """
    validate_bits(y)
    validate_bits(x)
    m = len(x)
    if m == 0:
        return 1
    d = len(y) - m
    if d < 0:
        return 0
    # counts[j] = embeddings of x[:j] in the scanned prefix of y; live[c]
    # holds the band's prefixes j with x[j-1] == c, descending, so each y
    # symbol is used at most once per embedding
    counts = [1] + [0] * m
    live = {"0": deque(), "1": deque()}
    for i, ch in enumerate(y):
        if i < m:
            live[x[i]].appendleft(i + 1)
        if i > d:
            live[x[i - d - 1]].pop()
        for j in live[ch]:
            counts[j] += counts[j - 1]
    return counts[m]


def enumerate_masks(y: str, x: str, budget: int | None = None) -> list[Mask]:
    """All embedding masks of x in y, as 0-based tuples in lexicographic order."""
    validate_bits(y)
    validate_bits(x)
    check_budget(len(y), budget, "len(y)")
    n, m = len(y), len(x)
    if m == 0:
        return [()]
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


@dataclass(frozen=True)
class BlockMap:
    """A strictly increasing map of run indices with f(i) = i (mod 2).

    ``images`` holds f(1), ..., f(lp) as 1-based run indices of y.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for i, v in enumerate(self.images, start=1):
            if v <= prev or (v - i) % 2:
                raise ValueError(f"not an increasing parity-preserving map: {self.images}")
            prev = v

    def __call__(self, i: int) -> int:
        """f(i) for 1-based i; f(0) = 0."""
        return 0 if i == 0 else self.images[i - 1]


def _walk_images(
    lp: int, l: int, factor: Callable[[int, int, int], int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Images of the maps counted by sigma_count(lp, l), lazily, in lex order.

    Yields (images, weight), the weight being the product of
    factor(i, f(i), f(i + 1)) over the steps i = 0, ..., lp - 1 (f(0) = 0).
    A prefix whose step factor is 0 is dropped with all its extensions.
    """
    # depth first over image prefixes: (images, weight so far)
    stack: list[tuple[tuple[int, ...], int]] = [((), 1)]
    while stack:
        images, w = stack.pop()
        i = len(images)
        if i == lp:
            yield images, w
            continue
        prev = images[-1] if images else 0
        children = []
        # leave room for the runs after this one
        for v in range(prev + 1, l - (lp - i - 1) + 1, 2):
            step = factor(i, prev, v)
            if step:
                children.append((images + (v,), w * step))
        stack.extend(reversed(children))


def enumerate_block_maps(lp: int, l: int) -> list[BlockMap]:
    """All maps counted by sigma_count(lp, l), in lexicographic order."""
    if lp < 0 or l < 0:
        raise ValueError("run counts must be nonnegative")
    return [BlockMap(images) for images, _ in _walk_images(lp, l, lambda i, u, v: 1)]


def _aligned_run_lengths(y: str, x: str) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Run lengths of (y, x) after dropping y's unusable leading run.

    None when y runs out of runs, i.e. no embedding can exist.
    """
    ry = Rle.encode(y)
    rx = Rle.encode(x)
    ky = ry.lengths
    if ry.leading != rx.leading:
        ky = ky[1:]
        if not ky:
            return None
    return ky, rx.lengths


def _parity_sums(ky: tuple[int, ...]) -> list[int]:
    """q[v + 1] = ky[v-1] + ky[v-3] + ..., so the same-parity runs of y in
    (u, v] hold q[v + 1] - q[u] symbols."""
    q = [0] * (len(ky) + 2)
    for v in range(1, len(ky) + 1):
        q[v + 1] = q[v - 1] + ky[v - 1]
    return q


def count_embeddings_runs(y: str, x: str) -> int:
    """Number of embeddings of x in y, by the run-length route.

    A chain sum over the images f(1), ..., f(lp) of the block maps, one step
    per run of x; see the module docstring.
    """
    validate_bits(y)
    validate_bits(x)
    if not x:
        return 1
    if not y:
        return 0
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return 0
    ky, kx = aligned
    lp, l = len(kx), len(ky)
    q = _parity_sums(ky)
    chain = {0: 1}
    for i, need in enumerate(kx, start=1):
        nxt = {}
        for v in range(i, l - (lp - i) + 1, 2):
            top, last = q[v + 1], ky[v - 1]
            total = 0
            for u, w in chain.items():
                if u >= v:
                    break
                avail = top - q[u]
                if avail < need:  # and less still for every larger u
                    break
                total += w * (comb(avail, need) - comb(avail - last, need))
            if total:
                nxt[v] = total
        if not nxt:
            return 0
        chain = nxt
    return sum(chain.values())


def block_map_weights(y: str, x: str) -> list[tuple[BlockMap, int]]:
    """Per-map weights of the run route, for maps of nonzero weight.

    The weights partition the mask set: they sum to count_embeddings_dp(y, x).
    Maps are indexed against y's runs after leading-symbol alignment.
    """
    validate_bits(y)
    validate_bits(x)
    if not x:
        return [(BlockMap(()), 1)]
    if not y:
        return []
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return []
    ky, kx = aligned
    q = _parity_sums(ky)

    def factor(i: int, u: int, v: int) -> int:
        avail = q[v + 1] - q[u]
        return comb(avail, kx[i]) - comb(avail - ky[v - 1], kx[i])

    return [
        (BlockMap(images), w) for images, w in _walk_images(len(kx), len(ky), factor)
    ]
