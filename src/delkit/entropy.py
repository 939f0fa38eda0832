"""Posterior weight distributions and their entropy.

Fix x and n = |x| + d.  Conditioned on observing x after d symbol deletions,
the posterior over candidate originals y is proportional to the embedding
weight: P(y | x) = w_x(y) / mu, where mu = C(n, m) 2^(n-m) is the total mask
mass.  Everything entropic about that posterior is determined by the weight
histogram.  weight_distribution computes it for any d by one of two routes
in space, whichever closed forms of their step counts say is cheaper: a walk
over classes of y prefixes that share their live prefix counts, or a join of
that walk stopped halfway on x and on reversed x (every embedding in uv
splits between u and v at exactly one symbol of x).  For d = 1 and d = 2
closed-form predicted multisets need only x's run lengths.

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
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, isfinite, log2

from .core import Rle, check_budget, hamming_weight, validate_bits
from .space import (
    _split_half_histogram,
    _split_half_pays,
    _walk_histogram,
    cluster_size_closed,
    composition_slots,
    upsilon_size,
)

__all__ = [
    "WeightDistribution",
    "delta_single",
    "double_count_identity",
    "double_weight_identity",
    "g_chain",
    "g_transform",
    "min_entropy",
    "mu",
    "predicted_weights_double",
    "predicted_weights_single",
    "renyi_entropy",
    "shannon_entropy",
    "weight_distribution",
]


def mu(n: int, m: int) -> int:
    """Total mask mass over the compatible set: C(n, m) * 2^(n-m)."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return comb(n, m) * 2 ** (n - m)


@dataclass
class WeightDistribution:
    """Exact histogram {weight: string count} over the compatible set of x.

    Construction checks conservation: string counts must sum to the size of
    the compatible set and weighted counts to mu, so a malformed histogram
    cannot exist.  An optional per-cluster breakdown must aggregate back to
    the histogram, and each cluster must hold exactly its closed-form string
    count and mask mass C(n,m) C(n-m,c).
    """

    n: int
    x: str
    counts: dict[int, int]
    by_cluster: dict[int, dict[int, int]] | None = None

    def __post_init__(self) -> None:
        validate_bits(self.x)
        m = len(self.x)
        if not 0 <= m <= self.n:
            raise ValueError(f"need 0 <= |x| <= n, got |x|={m}, n={self.n}")
        for w, k in self.counts.items():
            if w < 1 or k < 1:
                raise ValueError(f"bad histogram entry {w}: {k}")
        if self.total_strings != upsilon_size(self.n, m):
            raise ValueError("string count does not match the compatible-set size")
        if self.total_masks != mu(self.n, m):
            raise ValueError("weighted count does not match the mask mass")
        if self.by_cluster is not None:
            h = hamming_weight(self.x)
            agg: Counter[int] = Counter()
            for c, part in self.by_cluster.items():
                if c < 0 or c > self.n - m:
                    raise ValueError(f"cluster index {c} out of range")
                for w, k in part.items():
                    if w < 1 or k < 1:
                        raise ValueError(f"bad histogram entry {w}: {k} in cluster {c}")
                    agg[w] += k
                if sum(part.values()) != cluster_size_closed(self.n, m, h, c):
                    raise ValueError(f"cluster {c} string count does not match its size")
                if sum(w * k for w, k in part.items()) != comb(self.n, m) * comb(
                    self.n - m, c
                ):
                    raise ValueError(f"cluster {c} mask mass is wrong")
            if agg != Counter(self.counts):
                raise ValueError("cluster breakdown does not aggregate to the histogram")

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def total_strings(self) -> int:
        return sum(self.counts.values())

    @property
    def total_masks(self) -> int:
        return sum(w * k for w, k in self.counts.items())


def weight_distribution(
    n: int, x: str, by_cluster: bool = False, budget: int | None = None
) -> WeightDistribution:
    """Histogram of embedding weights over all length-n supersequences of x.

    Walks classes of y prefixes, or joins that walk's halves where closed
    forms of both routes' step counts say that is cheaper.  An n over
    the budget is refused before either closed form is evaluated.
    """
    validate_bits(x)
    check_budget(n, budget)
    route = _split_half_histogram if _split_half_pays(n, len(x)) else _walk_histogram
    counts, clusters = route(n, x, by_cluster, budget)
    breakdown = None
    if clusters is not None:
        breakdown = {
            c: dict(sorted(clusters[c].items())) for c in sorted(clusters)
        }
    return WeightDistribution(n, x, dict(sorted(counts.items())), breakdown)


def shannon_entropy(d: WeightDistribution) -> float:
    """Shannon entropy (bits) of the posterior, summed in ascending weight."""
    denom = mu(d.n, d.m)
    lg_denom = log2(denom)
    h = 0.0
    for w in sorted(d.counts):
        h -= d.counts[w] * (w / denom) * (log2(w) - lg_denom)
    return h


def renyi_entropy(d: WeightDistribution, alpha: float) -> float:
    """Renyi entropy of order alpha; alpha must be positive, finite and not 1."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha == 1:
        raise ValueError("alpha = 1 is the Shannon case; use shannon_entropy")
    denom = mu(d.n, d.m)
    s = 0.0
    for w in sorted(d.counts):
        s += d.counts[w] * (w / denom) ** alpha
    if s == 0.0:
        # every term underflowed (large alpha): factor out the largest weight,
        # whose term is then 1, and add its share back in the log domain;
        # alpha / (1 - alpha) keeps alpha * log2(...) from overflowing
        top = max(d.counts)
        s = sum(d.counts[w] * (w / top) ** alpha for w in sorted(d.counts))
        return alpha / (1 - alpha) * (log2(top) - log2(denom)) + log2(s) / (1 - alpha)
    # a point mass gives log2(1.0) / (1 - alpha), which is -0.0 for alpha > 1;
    # adding 0.0 turns it into 0.0 and leaves every other value unchanged
    return log2(s) / (1 - alpha) + 0.0


def min_entropy(d: WeightDistribution) -> float:
    """Min-entropy: -log2 of the largest posterior probability."""
    return log2(mu(d.n, d.m)) - log2(max(d.counts))


def g_transform(x: str) -> str:
    """Fuse the first two runs of x into one run of the second run's symbol.

    Run lengths (k1, k2, k3, ...) become (k1+k2, k3, ...) and the leading
    symbol flips.  Strings with a single run are fixed points.
    """
    validate_bits(x)
    if not x:
        raise ValueError("g_transform needs a nonempty string")
    r = Rle.encode(x)
    if r.block_count <= 1:
        return x
    flipped = "1" if r.leading == "0" else "0"
    merged = (r.lengths[0] + r.lengths[1],) + r.lengths[2:]
    return Rle(flipped, merged).decode()


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
    r = Rle.encode(x)
    counts: Counter[int] = Counter()
    for k in r.lengths:
        counts[k + 1] += 1
    counts[1] += len(x) - r.block_count + 2
    return WeightDistribution(len(x) + 1, x, dict(sorted(counts.items())))


def _double_insertion_cases(ks: tuple[int, ...]) -> tuple[Counter, Counter, Counter]:
    """Weight multisets at n = m + 2 for a composition of run lengths.

    Returned as (both insertions lengthen, one lengthens and one splits,
    both split).  Weights depend only on the run lengths, not the symbols.
    """
    ell = len(ks)
    m = sum(ks)
    lengthen: Counter[int] = Counter()
    for k in ks:
        lengthen[comb(k + 2, 2)] += 1
    for i in range(ell):
        for j in range(i + 1, ell):
            lengthen[(ks[i] + 1) * (ks[j] + 1)] += 1
    t = sum(composition_slots(ks))
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
    lengthen, mixed, split = _double_insertion_cases(Rle.encode(x).lengths)
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
