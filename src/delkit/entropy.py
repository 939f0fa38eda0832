"""Posterior weight distributions and their entropy.

Fix x and n = |x| + d.  Conditioned on observing x after d symbol deletions,
the posterior over candidate originals y is proportional to the embedding
weight: P(y | x) = w_x(y) / mu, where mu = C(n, m) 2^(n-m) is the total mask
mass.  Everything entropic about that posterior is determined by the weight
histogram, which weight_distribution reads from space for any d.  For d = 1
and d = 2 closed-form predicted multisets need only x's run lengths.

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
from collections.abc import Iterator
from math import comb, isfinite, log2
from operator import mul

from .core import _Value, _run_lengths, hamming_weight, validate_bits
from .space import _weight_histograms, cluster_size_closed, upsilon_size

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
    "weight_distributions",
]


def mu(n: int, m: int) -> int:
    """Total mask mass over the compatible set: C(n, m) * 2^(n-m)."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return comb(n, m) * 2 ** (n - m)


class WeightDistribution(_Value):
    """Exact histogram {weight: string count} over the compatible set of x.

    Construction checks conservation: string counts must sum to the size of
    the compatible set and weighted counts to mu, so a malformed histogram
    cannot exist.  An optional per-cluster breakdown must aggregate back to
    the histogram, and each cluster must hold exactly its closed-form string
    count and mask mass C(n,m) C(n-m,c).
    """

    def __init__(
        self,
        n: int,
        x: str,
        counts: dict[int, int],
        by_cluster: dict[int, dict[int, int]] | None = None,
    ) -> None:
        self.n, self.x, self.counts, self.by_cluster = n, x, counts, by_cluster
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
            agg: dict[int, int] = {}  # every count is positive, so dict equality is exact
            for c, part in self.by_cluster.items():
                if c < 0 or c > self.n - m:
                    raise ValueError(f"cluster index {c} out of range")
                for w, k in part.items():
                    if w < 1 or k < 1:
                        raise ValueError(f"bad histogram entry {w}: {k} in cluster {c}")
                    agg[w] = agg.get(w, 0) + k
                if sum(part.values()) != cluster_size_closed(self.n, m, h, c):
                    raise ValueError(f"cluster {c} string count does not match its size")
                if sum(map(mul, part, part.values())) != comb(self.n, m) * comb(self.n - m, c):
                    raise ValueError(f"cluster {c} mask mass is wrong")
            if agg != self.counts:
                raise ValueError("cluster breakdown does not aggregate to the histogram")

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def total_strings(self) -> int:
        return sum(self.counts.values())

    @property
    def total_masks(self) -> int:
        return sum(map(mul, self.counts, self.counts.values()))


def weight_distributions(
    n: int, xs, by_cluster: bool = False, budget: int | None = None
) -> Iterator[WeightDistribution]:
    """weight_distribution of each x in xs, sharing walked prefixes (most in sorted xs)."""
    xs = list(xs)
    for x, histogram in zip(xs, _weight_histograms(n, xs, by_cluster, budget)):
        yield WeightDistribution(n, x, *histogram)


def weight_distribution(
    n: int, x: str, by_cluster: bool = False, budget: int | None = None
) -> WeightDistribution:
    """Histogram of embedding weights over all length-n supersequences of x."""
    return next(weight_distributions(n, [x], by_cluster, budget))


def shannon_entropy(d: WeightDistribution) -> float:
    """Shannon entropy (bits) of the posterior, summed in ascending weight.

    Below mu = 2^1000 every count and every w / mu is a normal float; past it
    a count may not fit a float, so each class's mass is one exact ratio.
    """
    denom = mu(d.n, d.m)
    lg_denom, huge = log2(denom), denom >> 1000
    h = 0.0
    for w in sorted(d.counts):
        k = d.counts[w]
        h -= (k * w / denom if huge else k * (w / denom)) * (log2(w) - lg_denom)
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
    if not denom >> 1000:  # past mu = 2^1000 a count may not fit a float
        for w in sorted(d.counts):
            s += d.counts[w] * (w / denom) ** alpha
    if s == 0.0:
        # every term underflowed (large alpha) or was skipped (huge mu): factor
        # out the largest weight, then add up the terms' log2 relative to the
        # largest term; alpha / (1 - alpha) keeps alpha * log2(...) from overflowing
        top = max(d.counts)
        logs = [log2(d.counts[w]) + alpha * log2(w / top) for w in sorted(d.counts)]
        peak = max(logs)
        s = sum(2 ** (t - peak) for t in logs)
        return alpha / (1 - alpha) * (log2(top) - log2(denom)) + (peak + log2(s)) / (1 - alpha)
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
    # the runs' insertion slots (space.composition_slots) summed in closed form
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
