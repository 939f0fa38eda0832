"""Posterior weight distributions and their entropy.

Fix x and n = |x| + d.  Conditioned on observing x after d symbol deletions,
the posterior over candidate originals y is proportional to the embedding
weight: P(y | x) = w_x(y) / mu, where mu = C(n, m) 2^(n-m) is the total mask
mass.  Everything entropic about that posterior is determined by the weight
histogram, which weight_distribution reads from space for any d.  The d = 1
and d = 2 closed forms, which need only x's run lengths, are in deletions.
"""
from __future__ import annotations

from collections.abc import Iterator
from math import comb, isfinite, log2
from operator import mul

from .core import _Value, hamming_weight, validate_bits
from .space import _weight_histograms, cluster_size_closed, upsilon_size

__all__ = [
    "WeightDistribution",
    "min_entropy",
    "mu",
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
