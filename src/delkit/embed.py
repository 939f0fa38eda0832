"""Counting the embeddings of one bit string inside another.

An embedding of x in y is a strictly increasing choice of |x| positions of y
whose projection spells x; the number of embeddings is the weight of y as a
supersequence of x.  Three independent routes compute it:

* a dynamic program over prefix pairs (the workhorse; it uses no run
  lengths), which on short pairs packs every prefix count of x into one int
  and adds them all at once per symbol of y, and on long ones updates at
  each symbol of y only the prefixes of x that are already reached and can
  still complete, which lie between x's greedy leftmost and rightmost
  embeddings in y,
* explicit enumeration of the masks, extending only prefixes that complete,
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

With lp runs of x and l aligned runs of y, l <= lp + 1 leaves one map at
most, f(i) = i (f(lp) <= l has lp's parity, so f(lp) = lp, and so on down),
and the count is the product of C(ky_i, k'_i): 0 where a run of y is too
short, and 0 where l < lp.  Otherwise each factor depends only on the pair
(f(i-1), f(i)), so the sum over maps is a chain sum over map images: after i
runs of x, chain[v] holds the summed weight of the maps of those runs with
f(i) = v.  Step i tries only the same-parity images between left_i and
right_i, the runs of y holding the last symbol of run i in x's greedy
leftmost and rightmost embeddings; no other image can complete.  Run i's
factor for (u, v) is C(s(v) - s(u-1), k'_i) - C(s(v-2) - s(u-1), k'_i), with
s(v) = ky_v + ky_(v-2) + ..., so the step stores T(v) - T(v-2), T(v) being
chain[u] times the first binomial summed over u < v: one binomial per (u, v),
as C(0, k) = 0.  That is O(lp * band^2) exact integer steps, band being the
most images between two bounds and at most (l - lp) / 2 + 1, instead of one
step per map.  No route lists the maps: block maps are listed in
paper_objects, whose block_map_weights walks the image prefixes inside the
same bounds and drops a prefix as soon as one of its factors is 0 (the maps
of nonzero weight).
"""
from __future__ import annotations

from collections import deque
from math import comb, prod

from .core import Mask, _run_lengths, validate_bits

__all__ = ["count_embeddings_dp", "count_embeddings_runs", "enumerate_masks"]


# The packed kernel answers where its table, (|x| + 1) slots of W bits, fits
# in this many bits; fitted against the banded kernel on a grid of (|y|, |x|)
PACKED_BITS = 3072


def count_embeddings_dp(y: str, x: str) -> int:
    """Number of embeddings of x in y, by dynamic programming.

    One pass over y with the counts w_{x[:j]} in its scanned prefix, packed
    by _count_packed where their (|x| + 1) slots of W bits fit PACKED_BITS,
    W = C(|y|, min(|x|, |y| // 2)).bit_length(), and banded by _count_banded
    elsewhere.  |y|.bit_length() <= W, so (|x| + 1) * |y|.bit_length() rules
    long pairs out before their binomial.  Neither kernel uses run lengths;
    the binomial only sizes the slots.
    """
    validate_bits(y)
    validate_bits(x)
    m, n = len(x), len(y)
    if m == 0:
        return 1
    if m > n:
        return 0
    if (m + 1) * n.bit_length() <= PACKED_BITS:
        width = comb(n, min(m, n // 2)).bit_length()
        if (m + 1) * width <= PACKED_BITS:
            return _count_packed(y, x, width)
    return _count_banded(y, x)


def _count_packed(y: str, x: str, width: int) -> int:
    """The dp's table in one int: slot j, bits [j * width, (j + 1) * width),
    holds w_{x[:j]} in the scanned prefix of y.  Symbol c adds slot j into
    slot j + 1 wherever x[j] == c, all at once, as one shift, mask and add.
    After i symbols slot j holds at most C(i, j) <= C(|y|, min(|x|, |y| // 2)),
    which width bits hold, so no slot carries into the next.  |y| operations
    on ints of (|x| + 1) * width bits.
    """
    full, one = (1 << width) - 1, 0
    for j, c in enumerate(x, 1):
        if c == "1":
            one |= full << j * width
    zero = (1 << (len(x) + 1) * width) - 1 - full - one  # slots 1 to |x| that one leaves
    counts = 1
    for c in y:
        counts += counts << width & (one if c == "1" else zero)
    return counts >> len(x) * width


def _count_banded(y: str, x: str) -> int:
    """count_embeddings_dp on a table indexed by prefixes of x, updated only
    on the band of prefixes that can still be both reached and
    completed: y[i] updates prefix j only while x[:j] embeds in y[:i + 1]
    and x[j:] embeds in y[i + 1:].  The first bound moves with the greedy
    leftmost embedding of x, found inside the pass; the second is the
    position of x[j] in the greedy rightmost embedding, found by one backward
    pass first (which also answers 0 when x does not embed at all).  That
    pass steps back one symbol where y holds x[j] just before x[j + 1]'s
    place, and searches y with rfind only elsewhere.  Both
    bounds are at least as tight as the length bounds, so the band is never
    wider than d + 1 = |y| - |x| + 1, and on y whose runs x keeps it is about
    one run wide.  O(|y| + sum of the band widths) exact int additions, O(|x|)
    space.  Trusts its caller for valid bits and 0 < |x| <= |y|.
    """
    m = len(x)
    # last[j] = position of x[j] in the rightmost embedding of x in y.  Prefix
    # j leaves the band at y[last[j]], after which x[j:] no longer fits; its
    # count is still read once, at that same symbol (no x[j] lies between
    # last[j] and last[j + 1]), and it is exact there.  Once at < 0, x does
    # not embed and at stays negative
    at, rfind = len(y), y.rfind
    last = [
        at := at - 1 if y[at - 1] == c else rfind(c, 0, at) if at > 0 else -1 for c in reversed(x)
    ]
    if at < 0:
        return 0
    last.reverse()
    last.append(len(y))
    # counts[j] = embeddings of x[:j] in the scanned prefix of y; live[c]
    # holds the band's prefixes j with x[j-1] == c, descending, so each y
    # symbol is used at most once per embedding.  x[:reach] is what the
    # leftmost embedding has placed so far and lo the shortest live prefix.
    counts = [1] + [0] * m
    live = {"0": deque(), "1": deque()}
    reach, lo = 0, 1
    xs = x + " "  # want turns blank once all of x is placed
    want, drop = x[0], last[1]
    for i, ch in enumerate(y):
        if i == drop:
            live[x[lo - 1]].pop()
            lo += 1
            drop = last[lo]
        band = live[ch]
        if ch == want:
            reach += 1
            band.appendleft(reach)
            want = xs[reach]
        for j in band:
            counts[j] += counts[j - 1]
    return counts[m]


def enumerate_masks(y: str, x: str) -> list[Mask]:
    """All embedding masks of x in y, as 0-based tuples in lexicographic order.

    Depth first, placing x[j] no later than in x's greedy rightmost embedding
    in y: every prefix it extends completes, so it visits at most omega * |x|.
    """
    validate_bits(y)
    validate_bits(x)
    # end[j] = 1 + x[j]'s place in the rightmost embedding, 0 once x[j:] has no room;
    # max(at, 0) keeps a failed search's -1 from counting back from y's end
    at = len(y)
    end = [(at := y.rfind(c, 0, max(at, 0))) + 1 for c in reversed(x)][::-1]
    out: list[Mask] = []
    prefix: list[int] = []
    i = 0  # the next position to try for x[len(prefix)]
    while True:
        j = len(prefix)
        if j == len(x):
            out.append(tuple(prefix))
        elif (i := y.find(x[j], i, end[j])) >= 0:
            prefix.append(i)
            i += 1
            continue
        if not prefix:
            return out
        i = prefix.pop() + 1


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

    One binomial product where there is one block map at most, else a chain
    sum over the images f(1), ..., f(lp) of the block maps, one step per run
    of x; see the module docstring.
    """
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return 0
    ky, kx, q = aligned
    lp, l = len(kx), len(ky)
    if l - lp <= 1:
        # the one map, if any, is f(i) = i; zip drops y's last run where
        # l = lp + 1, and comb is 0 where a run of y is too short
        return prod(map(comb, ky, kx)) if l >= lp else 0
    bounds = _image_bounds(kx, q, l)
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
