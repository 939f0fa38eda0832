import random
from collections import Counter, defaultdict
from functools import cache
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delkit import space
from delkit.clusters import (
    RunSlots,
    cluster_size_recursive,
    cluster_size_simple,
    composition_slots,
    initial_mask,
    is_maximal_initial,
    maximal_initials_cluster,
    maximal_initials_total,
    run_slots,
    singleton_cluster_count,
    singleton_count,
)
from delkit.core import BudgetError
from delkit.deletions import predicted_weights_double, predicted_weights_single
from delkit.embed import count_embeddings_dp, enumerate_masks
from delkit.entropy import weight_distribution
from delkit.oracle import oracle_weight_table
from delkit.space import (
    _prefix_level,
    _split_half_level,
    _split_half_pays,
    _weight_histograms,
    cluster_size_closed,
    enumerate_supersequences,
    upsilon_size,
)

from helpers import all_bits
from oracle_scan import oracle_space

bits = st.text(alphabet="01", max_size=10)

# maximal initials at n=5 with their greedy masks (1-based), frozen from the oracle
MAXIMAL_110 = {
    "00110": (3, 4, 5), "01010": (2, 4, 5), "01110": (2, 3, 5),
    "10010": (1, 4, 5), "10110": (1, 3, 5), "11110": (1, 2, 5),
}
MAXIMAL_101 = {
    "00101": (3, 4, 5), "01001": (2, 3, 5), "01101": (2, 4, 5),
    "10001": (1, 2, 5), "11001": (1, 3, 5), "11101": (1, 4, 5),
}


def test_upsilon_golden():
    assert upsilon_size(5, 3) == 16
    assert upsilon_size(7, 7) == 1
    assert upsilon_size(6, 0) == 64
    assert upsilon_size(5, 4) == 6
    with pytest.raises(ValueError):
        upsilon_size(3, 4)


def test_upsilon_size_equals_the_long_sum():
    # it sums the shorter tail of row n of Pascal's triangle
    for n in range(65):
        for m in range(n + 1):
            assert upsilon_size(n, m) == sum(comb(n, r) for r in range(m, n + 1)), (n, m)


def test_enumerate_supersequences_golden():
    rows = list(enumerate_supersequences(5, "110"))
    assert len(rows) == 16
    assert sum(w for _, w in rows) == 40
    assert ("11100", 6) in rows
    assert ("11010", 4) in rows
    assert list(enumerate_supersequences(3, "110")) == [("110", 1)]
    assert list(enumerate_supersequences(2, "110")) == []


def test_enumerate_supersequences_is_lex_and_complete():
    # checked against the oracle's scan of {0,1}^n (suffix recursion), not
    # against the prefix dp that the enumerator's count table shares
    for m in range(0, 7):
        for x in all_bits(m):
            for n in range(0, 11):
                rows = list(enumerate_supersequences(n, x))
                ys = [y for y, _ in rows]
                assert ys == sorted(ys)
                assert len(rows) == (upsilon_size(n, m) if n >= m else 0)
                assert dict(rows) == oracle_space(n, x).weights


def _oracle_histograms(n, x, ones):
    """Histogram and cluster breakdown from the oracle's scan of {0,1}^n."""
    h = x.count("1")
    clusters = {}
    for (hy, w), k in Counter(zip(ones, oracle_weight_table(n, x).tolist())).items():
        if w:
            clusters.setdefault(hy - h, Counter())[w] = k
    return sum(clusters.values(), Counter()), clusters


def _as_level(n, x, counts, clusters, by_ones):
    """The level at depth n that holds these histograms: cluster c at popcount c + h(x)."""
    if not by_ones:
        return [counts]
    h = x.count("1")
    return [clusters.get(ones - h, {}) for ones in range(n + 1)]


def test_split_half_histogram_equals_walk_and_oracle_exhaustive():
    # every x with |x| <= 6 at every n <= 14, in both modes: the join builds
    # the walk's level at depth n, and that level holds the oracle's position scan
    for n in range(15):
        ones = [bin(i).count("1") for i in range(1 << n)]
        for m in range(min(n, 6) + 1):
            for x in all_bits(m):
                counts, clusters = _oracle_histograms(n, x, ones)
                for by_ones in (False, True):
                    level = _prefix_level(n, x, n, by_ones, [], 0)
                    half = _prefix_level(n, x, n // 2, by_ones, [], 0)
                    assert _split_half_level(n, x, by_ones, half) == level, (n, x, by_ones)
                    assert level == _as_level(n, x, counts, clusters, by_ones), (n, x, by_ones)


@pytest.mark.parametrize(
    "n, x, counts, clusters",
    [
        (0, "", {1: 1}, {0: {1: 1}}),  # no halves at all
        (1, "", {1: 2}, {0: {1: 1}, 1: {1: 1}}),  # empty left half
        (1, "1", {1: 1}, {0: {1: 1}}),
        (1, "0", {1: 1}, {0: {1: 1}}),
        (3, "010", {1: 1}, {0: {1: 1}}),  # m = n
        (4, "", {1: 16}, {0: {1: 1}, 1: {1: 4}, 2: {1: 6}, 3: {1: 4}, 4: {1: 1}}),
        (
            6,
            "110",
            {1: 10, 2: 6, 3: 9, 4: 4, 5: 1, 6: 6, 7: 2, 9: 2, 10: 1, 12: 1},
            {
                0: {1: 4, 2: 3, 3: 2, 4: 1},
                1: {1: 3, 2: 2, 3: 4, 4: 2, 5: 1, 6: 2, 7: 1, 9: 1},
                2: {1: 2, 2: 1, 3: 2, 4: 1, 6: 3, 7: 1, 9: 1, 12: 1},
                3: {1: 1, 3: 1, 6: 1, 10: 1},
            },
        ),
        (
            7,
            "0110",
            {1: 10, 2: 12, 3: 9, 4: 9, 5: 3, 6: 8, 7: 2, 8: 3, 9: 4, 10: 1, 12: 3},
            {
                0: {1: 1, 2: 2, 3: 2, 4: 3, 6: 2},
                1: {1: 2, 2: 4, 3: 4, 4: 2, 5: 3, 7: 2, 8: 2, 9: 2, 12: 1},
                2: {1: 3, 2: 6, 4: 4, 6: 4, 8: 1, 9: 2, 12: 2},
                3: {1: 4, 3: 3, 6: 2, 10: 1},
            },
        ),
    ],
)
def test_split_half_histogram_edges(n, x, counts, clusters):
    # frozen from the walk
    for by_ones in (False, True):
        half = _prefix_level(n, x, n // 2, by_ones, [], 0)
        assert _split_half_level(n, x, by_ones, half) == _as_level(n, x, counts, clusters, by_ones)


def _flat_level(level):
    return Counter(
        {(ones, band): k for ones, states in enumerate(level) for band, k in states.items()}
    )


def test_prefix_level_holds_the_live_bands_of_every_prefix():
    # the level contract the join reads: per u, from the dp, w_{x[:j]}(u) in
    # slot j - (L - d) of x's level, w_{x[j:]}(u) in slot (n - L) - j of
    # reversed x's level, zero bands dropped
    dp = cache(count_embeddings_dp)
    for m in range(6):
        for x in all_bits(m):
            for n in range(m, 11):
                d, width = n - m, comb(n, m).bit_length()
                for depth in range(n + 1):
                    live = range(max(0, depth - d), min(depth, m) + 1)
                    prefixes, suffixes = Counter(), Counter()
                    for u in all_bits(depth):
                        ones = u.count("1")
                        band = sum(dp(u, x[:j]) << (j - depth + d) * width for j in live)
                        if band:
                            prefixes[ones, band] += 1
                        band = sum(
                            dp(u, x[m - i :]) << (n - depth - m + i) * width for i in live
                        )
                        if band:
                            suffixes[ones, band] += 1
                    assert _flat_level(_prefix_level(n, x, depth, True, [], 0)) == prefixes
                    assert _flat_level(_prefix_level(n, x[::-1], depth, True, [], 0)) == suffixes
                    merged = Counter()
                    for (_, band), k in prefixes.items():
                        merged[band] += k
                    assert _prefix_level(n, x, depth, False, [], 0) == [merged]


def _oracle_histograms_np(n, x):
    """_oracle_histograms, tallied by numpy for n past 20."""
    import numpy as np

    weights = oracle_weight_table(n, x)
    ids = np.arange(1 << n)
    ones = sum((ids >> b) & 1 for b in range(n))
    top = int(weights.max()) + 1
    tally = np.bincount(ones * top + weights)
    h, clusters = x.count("1"), {}
    for key in np.flatnonzero(tally).tolist():
        hy, w = divmod(key, top)
        if w:
            clusters.setdefault(hy - h, Counter())[w] = int(tally[key])
    return sum(clusters.values(), Counter()), clusters


@pytest.mark.parametrize(
    "n, x",
    [(n, x) for x in ("", "00000", "01") for n in (20, 21, 22)] + [(20, "0110100111010001")],
)
def test_split_half_histogram_with_merged_and_dead_halves(n, x):
    # halves that share a band are one class, counted by its multiplicity
    m, left = len(x), n // 2
    assert (m + 1) << n <= 1 << 26  # inside the oracle's memory guard
    for depth, word in ((left, x), (n - left, x[::-1])):
        level = _prefix_level(n, word, depth, True, [], 0)
        assert sum(map(len, level)) < sum(sum(states.values()) for states in level)
    counts, clusters = _oracle_histograms_np(n, x)
    for by_ones in (False, True):
        level = _as_level(n, x, counts, clusters, by_ones)
        half = _prefix_level(n, x, left, by_ones, [], 0)
        assert _split_half_level(n, x, by_ones, half) == level
        assert _prefix_level(n, x, n, by_ones, [], 0) == level


@pytest.mark.parametrize(
    "x, slot_bits",
    [("0110101", 16), ("0000000", 16), ("011010110", 32), ("000000000", 32)],
)
def test_split_half_level_equals_the_walk_in_wide_slots(x, slot_bits):
    # C(19, 7) = 50,388 fills a 16-bit slot and C(19, 9) = 92,378 needs a
    # 32-bit one; the exhaustive test above reaches only 8- and 16-bit slots.
    # A constant x reaches the bound: y = 0^19 embeds 0^m C(19, m) times
    assert slot_bits // 2 < comb(19, len(x)).bit_length() <= slot_bits
    for by_ones in (False, True):
        half = _prefix_level(19, x, 19 // 2, by_ones, [], 0)
        assert _split_half_level(19, x, by_ones, half) == _prefix_level(19, x, 19, by_ones, [], 0)


def test_split_half_route_rule():
    assert _split_half_pays(19, 7)  # 54,830 steps against 480,492 supersequences
    assert not _split_half_pays(13, 11)  # 1,448 steps against 92


def test_split_half_guard_keeps_slots_exact():
    # C(n, m) bounds every partial sum in a 64-bit slot; past 2^64 the rule
    # falls back to the walk although the step counts favour the split, and
    # the route refuses before building any table
    assert comb(67, 33) < 1 << 64 <= comb(68, 34)
    assert _split_half_pays(67, 33) and not _split_half_pays(68, 34)
    assert comb(70, 35) >= 1 << 64 and (1 << 35) * 38 + (1 << 70) // 11 < upsilon_size(70, 35)
    assert not _split_half_pays(70, 35)
    with pytest.raises(ValueError, match="64-bit slot"):
        _split_half_level(70, "01" * 17 + "0", False, [])


def _histograms(level, x, by_cluster):
    """What _weight_histograms yields for the level at depth n."""
    counts = sum(map(Counter, level), Counter())
    clusters = {i - x.count("1"): dict(p) for i, p in enumerate(level) if p}
    return dict(counts), clusters if by_cluster else None


@pytest.mark.parametrize("n, m", [(24, 0), (44, 1), (100, 0), (60, 2), (20, 1), (30, 2)])
def test_split_half_rule_walks_short_x(monkeypatch, n, m):
    # upsilon(n, m) overstates the walk's merged states by orders of magnitude
    # here, so the step counts admit the join; the walk's level at depth n // 2
    # holds far more than 4 live prefixes per state, and the walk answers
    x = ("", "1", "01")[m]
    assert _split_half_pays(n, m)
    monkeypatch.setattr(space, "_split_half_level", None)  # a join would raise TypeError
    for by_cluster in (False, True):
        got = next(_weight_histograms(n, [x], by_cluster, n))
        assert got == _histograms(_prefix_level(n, x, n, by_cluster, [], 0), x, by_cluster)


@pytest.mark.parametrize(
    "n, m, joins",
    [(14, 10, False), (15, 11, False), (24, 16, False)]
    + [(19, 7, True), (20, 7, True), (24, 11, True), (24, 12, True)],
)
def test_split_half_rule_counts_the_join_tally(n, m, joins):
    # the join tallies up to 2^n live (u, v) pairs at about a tenth of a walk
    # state's cost each; counted, they send the first three shapes to the
    # walk, which answers them faster, and admit the last four to the join
    assert _split_half_pays(n, m) == joins


@pytest.mark.parametrize(
    "n, x, states, prefixes, joins",
    [
        (14, "00001", 19, 128, False),
        (20, "10", 176, 1024, False),
        (22, "110", 384, 2048, False),
        (16, "11110", 35, 256, False),
        (20, "00010", 258, 1024, True),  # 3.97 prefixes per state
        (20, "0010", 511, 1024, True),
        (19, "0110101", 512, 512, True),
    ],
)
def test_the_half_level_picks_the_route_at_its_boundary(monkeypatch, n, x, states, prefixes, joins):
    # the join runs only if the walk's level at depth n // 2 holds fewer than
    # 4 live prefixes per state, and then takes that level as its left half
    assert _split_half_pays(n, len(x))
    joined, join = [], space._split_half_level

    def spy(*args):
        joined.append(args)
        return join(*args)

    monkeypatch.setattr(space, "_split_half_level", spy)
    for by_cluster in (False, True):
        half = _prefix_level(n, x, n // 2, by_cluster, [], 0)
        assert (sum(map(len, half)), sum(sum(p.values()) for p in half)) == (states, prefixes)
        walk = _prefix_level(n, x, n, by_cluster, [], 0)
        assert next(_weight_histograms(n, [x], by_cluster)) == _histograms(walk, x, by_cluster)
        assert [args[:3] for args in joined] == ([(n, x, by_cluster)] if joins else [])
        if joins:
            assert joined.pop()[3] == half
        if n <= 20:  # both routes agree on either side of the boundary
            assert join(n, x, by_cluster, half) == walk


@pytest.mark.parametrize("n, m, walks", [(14, 5, 4), (11, 7, 16)])
def test_a_batch_of_walks_and_joins_equals_each_walk_alone_in_any_order(monkeypatch, n, m, walks):
    # at (14, 5) the x 00000, 00001, 11110 and 11111 walk and the other 28
    # join; at (11, 7) 16 of 128 walk, and a sorted walk keeps levels past the
    # join's depth 5.  A join keeps only the levels of its common prefix with
    # the next x, so every histogram must be x's own
    xs = list(all_bits(m))
    joined, join = set(), space._split_half_level

    def spy(*args):
        joined.add(args[1])
        return join(*args)

    monkeypatch.setattr(space, "_split_half_level", spy)
    shuffled = random.Random(2018).sample(xs, len(xs))
    for by_cluster in (False, True):
        want = {x: _histograms(_prefix_level(n, x, n, by_cluster, [], 0), x, by_cluster) for x in xs}
        for order in (sorted(xs), sorted(xs, reverse=True), shuffled):
            got = list(_weight_histograms(n, order, by_cluster))
            assert got == [want[x] for x in order], (n, by_cluster)
        assert len(joined) == len(xs) - walks


@pytest.mark.parametrize("by_cluster", [False, True])
@pytest.mark.parametrize(
    "n, x, message",
    [
        (10, "0a1", "not a bit string: '0a1'"),
        (10**9, "1", "n=1000000000 exceeds enumeration budget 24"),
        (-1, "", "need n >= 0, got -1"),
        (2, "111", "need 0 <= |x| <= n, got |x|=3, n=2"),
        # two faults at once: the first check in that order answers
        (10**9, "0a1", "not a bit string: '0a1'"),
        (-1, "111", "need n >= 0, got -1"),
    ],
)
def test_weight_histogram_refuses_before_either_route(
    monkeypatch, n, x, message, by_cluster
):
    # the routes trust their one entry to check x, n and the budget
    def no_route(*args):
        raise AssertionError("a route ran on input the entry must refuse")

    monkeypatch.setattr(space, "_prefix_level", no_route)
    monkeypatch.setattr(space, "_split_half_level", no_route)

    def one(n, x, by_cluster):
        return next(_weight_histograms(n, [x], by_cluster))

    for entry in (one, weight_distribution):
        with pytest.raises(ValueError) as refused:
            entry(n, x, by_cluster)
        assert str(refused.value) == message


def test_weight_histograms_check_each_x_before_its_own_work():
    # a bad x is refused when its turn comes, after the x before it is answered
    histograms = _weight_histograms(5, ["01", None, "10"])
    assert next(histograms) == next(_weight_histograms(5, ["01"]))
    with pytest.raises(ValueError, match="^not a bit string: None$"):
        next(histograms)


def _enumerated(n, x, by_cluster):
    counts, clusters = Counter(), defaultdict(Counter)
    for y, w in enumerate_supersequences(n, x):
        counts[w] += 1
        clusters[y.count("1") - x.count("1")][w] += 1
    return counts, clusters if by_cluster else None


def test_shared_walk_equals_each_walk_alone_in_any_order():
    # each walk resumes from the level the walk before it left at their common
    # prefix, and the x after it may have another length; in any order every
    # histogram must be x's own.  At n = 8, |x| = 4 joins halves instead.
    rng = random.Random(2018)
    for n in range(12):
        xs = [x for m in range(max(0, n - 3), min(n, 8) + 1) for x in all_bits(m)]
        xs += list(all_bits(4)) if n == 8 else []
        assert (n == 8) == any(_split_half_pays(n, len(x)) for x in xs)
        shuffled = rng.sample(xs, len(xs))
        for by_cluster in (False, True):
            want = {x: _enumerated(n, x, by_cluster) for x in xs}
            for x in xs:
                level = _as_level(n, x, *want[x], by_cluster)
                assert _prefix_level(n, x, n, by_cluster, [], 0) == level, (n, x)
            for order in (sorted(xs), sorted(xs, reverse=True), shuffled):
                got = list(_weight_histograms(n, order, by_cluster))
                assert got == [want[x] for x in order], (n, by_cluster)


def test_a_joined_x_leaves_no_kept_levels_to_the_next_walk():
    # all three x join at n = 8, each on its own walk's level at depth 4:
    # 0001 resumes at depth 3 from 0000's, and 1111 walks from the root.
    # test_a_batch_of_walks_and_joins_equals_each_walk_alone_in_any_order
    # runs walks after joins
    n, xs = 8, ["0000", "0001", "1111"]
    assert _split_half_pays(n, 4)
    for by_cluster in (False, True):
        want = [next(_weight_histograms(n, [x], by_cluster)) for x in xs]
        assert list(_weight_histograms(n, xs, by_cluster)) == want


@pytest.mark.parametrize(
    "n, x, L",
    [(13, "01101001110", L) for L in (0, 1, 6, 11)]
    + [(10, "0110", 0), (10, "0110", 2), (10, "0110", 4), (9, "", 0), (12, "111000", 3)],
)
def test_prefix_level_continues_from_the_kept_level(n, x, L):
    # equality alone cannot tell a resumed walk from one that restarted at the
    # root; scaling the kept level by 3 can: every count at depth n triples.
    # With L = 0 nothing is kept and the walk starts at the root
    for by_ones in (False, True):
        fresh = _prefix_level(n, x, n, by_ones, [], 0)
        kept = []
        _prefix_level(n, x, L, by_ones, kept, L)
        assert len(kept) == L
        if kept:
            kept[-1] = [{band: 3 * k for band, k in states.items()} for states in kept[-1]]
        factor = 3 if L else 1
        level = _prefix_level(n, x, n, by_ones, kept, 0)
        assert level == [{w: factor * k for w, k in part.items()} for part in fresh]
        assert kept == []


def test_prefix_level_reads_a_kept_level_past_its_depth():
    # a walk to depth L over more kept levels answers with the kept level at
    # depth L, builds nothing and cuts kept to keep levels
    n, x = 13, "01101001110"
    for by_ones in (False, True):
        kept = []
        _prefix_level(n, x, 8, by_ones, kept, 8)
        levels = list(kept)
        assert _prefix_level(n, x, 5, by_ones, kept, n) is levels[4]
        assert kept == levels
        assert _prefix_level(n, x, 5, by_ones, kept, 3) == _prefix_level(n, x, 5, by_ones, [], 0)
        assert kept == levels[:3]


# Exact whole histograms from classical formulas that no route uses, checked
# on the walk past the default budget and on the join at n = 20.


def _inversion_histograms(n):
    """Histograms of x = 01 (and 10) at length n, from Gaussian binomials.

    w_01(y) counts the pairs i < j with y_i = 0 and y_j = 1, so over the y
    with k ones sum_y q^w(y) is [n choose k]_q (MacMahon), built here by
    q-Pascal: [i, k] = [i - 1, k - 1] + q^k [i - 1, k].  Its q^0 term is the
    one y that does not contain 01, and y with k ones is cluster k - 1.
    w_10 counts the pairs with y_i = 1 and y_j = 0: the same histograms.
    """
    row = [[1]]
    for i in range(1, n + 1):
        inner = [
            [a + b for a, b in zip_longest(row[k - 1], [0] * k + row[k], fillvalue=0)]
            for k in range(1, i)
        ]
        row = [[1], *inner, [1]]
    clusters = {k - 1: {w: c for w, c in enumerate(row[k]) if w} for k in range(1, n)}
    return _summed(clusters), clusters


def _constant_histograms(n, m):
    """Histograms of x = 0^m at length n: the C(n, c) strings with c ones
    (cluster c) hold C(n - c, m) embeddings each."""
    clusters = {c: {comb(n - c, m): comb(n, c)} for c in range(n - m + 1)}
    return _summed(clusters), clusters


def _summed(clusters):
    return dict(sum(map(Counter, clusters.values()), Counter()))


@pytest.mark.parametrize("n", [40, 60])
@pytest.mark.parametrize("x", ["01", "10"])
def test_walk_equals_the_gaussian_binomials(x, n):
    counts, clusters = _inversion_histograms(n)
    for by_cluster in (False, True):
        d = weight_distribution(n, x, by_cluster, budget=n)
        assert d.counts == counts and d.by_cluster == (clusters if by_cluster else None)


@pytest.mark.parametrize("n, m", [(100, m) for m in range(5)] + [(19, 7), (28, 6), (60, 8)])
def test_a_one_run_x_walks_and_equals_the_binomials(monkeypatch, n, m):
    # a one-run x's band at depth L is a function of the prefix's zero count,
    # so its level at depth n // 2 holds at most n // 2 + 1 states, and it
    # walks although the step counts admit the join
    assert _split_half_pays(n, m)
    monkeypatch.setattr(space, "_split_half_level", None)  # a join would raise TypeError
    counts, clusters = _constant_histograms(n, m)
    for by_cluster in (False, True):
        d = weight_distribution(n, "0" * m, by_cluster, budget=n)
        assert d.counts == counts and d.by_cluster == (clusters if by_cluster else None)
    assert weight_distribution(n, "1" * m, budget=n).counts == counts


@pytest.mark.parametrize("x", ["01", "10", "", "0", "00", "000", "0000"])
def test_split_half_level_equals_the_classical_histograms(x):
    # at n = 20 the join is exact and affordable for these x, which walk in
    # weight_distribution
    n = 20
    counts, clusters = (
        _inversion_histograms(n) if "1" in x else _constant_histograms(n, len(x))
    )
    for by_ones in (False, True):
        half = _prefix_level(n, x, n // 2, by_ones, [], 0)
        assert _split_half_level(n, x, by_ones, half) == _as_level(n, x, counts, clusters, by_ones)


@pytest.mark.parametrize(
    "x",
    ["01" * 100, "".join(random.Random(2018).choices("01", k=200))],
    ids=["alternating", "seeded"],
)
def test_walk_equals_the_d_le_2_closed_forms_at_m_200(x):
    # by cluster, each cluster's string count and mask mass is checked on construction
    for n, predict in ((201, predicted_weights_single), (202, predicted_weights_double)):
        want = predict(x).counts
        for by_cluster in (False, True):
            assert weight_distribution(n, x, by_cluster, budget=n).counts == want


def test_enumerate_supersequences_budget():
    with pytest.raises(BudgetError):
        list(enumerate_supersequences(25, "1"))
    gen = enumerate_supersequences(25, "1", budget=25)
    assert next(gen) == ("0" * 24 + "1", 1)


def test_cluster_golden_values():
    assert [cluster_size_closed(5, 3, 2, c) for c in (0, 1, 2)] == [6, 7, 3]
    assert [cluster_size_simple(5, 3, 2, c) for c in (0, 1, 2)] == [6, 7, 3]
    assert [cluster_size_recursive(5, "110", c) for c in (0, 1, 2)] == [6, 7, 3]
    assert cluster_size_closed(5, 3, 3, 0) == 10
    assert cluster_size_simple(5, 3, 0, 2) == comb(5, 2)
    assert cluster_size_recursive(5, "110", 3) == 0
    assert cluster_size_recursive(5, "110", -1) == 0
    assert cluster_size_recursive(4, "", 2) == 6
    assert cluster_size_closed(4, 0, 0, 2) == 6


def test_cluster_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        cluster_size_closed(3, 4, 0, 0)
    with pytest.raises(ValueError):
        cluster_size_closed(5, 3, 4, 0)
    with pytest.raises(ValueError):
        cluster_size_simple(5, 3, -1, 0)


def test_cluster_triple_agreement_small_grid():
    for n in range(0, 14):
        for m in range(0, n + 1):
            for h in range(0, m + 1):
                x = "1" * h + "0" * (m - h)
                for c in range(0, n - m + 1):
                    a = cluster_size_closed(n, m, h, c)
                    b = cluster_size_simple(n, m, h, c)
                    r = cluster_size_recursive(n, x, c)
                    assert a == b == r, (n, m, h, c)


def test_cluster_partition_sums_to_upsilon():
    for n in range(0, 14):
        for m in range(0, n + 1):
            for h in range(0, m + 1):
                total = sum(cluster_size_closed(n, m, h, c) for c in range(0, n - m + 1))
                assert total == upsilon_size(n, m)


def test_cluster_depends_only_on_weight_not_form():
    # every x of the same (m, h) must give the same enumerated cluster sizes
    for m in range(0, 6):
        for x in all_bits(m):
            h = x.count("1")
            for n in range(m, 9):
                seen = {}
                for y, _ in enumerate_supersequences(n, x):
                    c = y.count("1") - h
                    seen[c] = seen.get(c, 0) + 1
                for c in range(0, n - m + 1):
                    assert seen.get(c, 0) == cluster_size_closed(n, m, h, c), (n, x, c)


def test_initial_mask_golden():
    assert initial_mask("110011", "1011") == (0, 2, 4, 5)
    assert initial_mask("101011", "1011") == (0, 1, 2, 4)
    assert initial_mask("11000", "110") == (0, 1, 2)
    assert initial_mask("111", "000") is None
    assert initial_mask("101", "") == ()


@settings(max_examples=150, deadline=None)
@given(bits, bits)
def test_initial_mask_is_lex_first(y, x):
    masks = enumerate_masks(y, x)
    if masks:
        assert initial_mask(y, x) == masks[0]
    else:
        assert initial_mask(y, x) is None


def test_is_maximal_initial_golden():
    assert is_maximal_initial("00110", "110")
    assert not is_maximal_initial("01100", "110")
    assert is_maximal_initial("110", "110")
    assert not is_maximal_initial("111", "110")
    assert is_maximal_initial("", "")
    assert not is_maximal_initial("1", "")


def test_maximal_initials_frozen_rows():
    for x, table in (("110", MAXIMAL_110), ("101", MAXIMAL_101)):
        found = {}
        for y in all_bits(5):
            if is_maximal_initial(y, x):
                mask = initial_mask(y, x)
                found[y] = tuple(i + 1 for i in mask)
        assert found == table
        split = {}
        for y in found:
            c = y.count("1") - 2
            split[c] = split.get(c, 0) + 1
        assert split == {0: 3, 1: 2, 2: 1}
    assert maximal_initials_total(5, 3) == 6
    assert maximal_initials_cluster(5, 3, 2, 0) == 3
    assert maximal_initials_cluster(5, 3, 2, 1) == 2
    assert maximal_initials_cluster(5, 3, 2, 2) == 1


def test_maximal_initials_formulas_match_enumeration():
    for m in range(1, 6):
        for x in all_bits(m):
            h = x.count("1")
            for n in range(m, 9):
                per_cluster = {}
                total = 0
                for y in all_bits(n):
                    if is_maximal_initial(y, x):
                        total += 1
                        c = y.count("1") - h
                        per_cluster[c] = per_cluster.get(c, 0) + 1
                assert total == maximal_initials_total(n, m)
                for c in range(0, n - m + 1):
                    assert per_cluster.get(c, 0) == maximal_initials_cluster(n, m, h, c)


def test_maximal_initials_edge_cases():
    assert maximal_initials_total(7, 1) == 1
    assert maximal_initials_cluster(5, 3, 2, 9) == 0
    with pytest.raises(ValueError):
        maximal_initials_total(5, 0)
    with pytest.raises(ValueError):
        maximal_initials_total(3, 4)


def test_composition_slots_cases():
    assert composition_slots(()) == ()
    assert composition_slots((4,)) == (5,)
    assert composition_slots((2, 1)) == (2, 1)
    assert composition_slots((2, 1, 3)) == (2, 0, 3)
    with pytest.raises(ValueError):
        composition_slots((2, 0))


def test_run_slots_golden():
    assert run_slots("110") == RunSlots(rho0=1, rho1=2)
    assert run_slots("101") == RunSlots(rho0=0, rho1=2)
    assert run_slots("0") == RunSlots(rho0=2, rho1=0)
    assert run_slots("1111") == RunSlots(rho0=0, rho1=5)
    assert run_slots("0110") == RunSlots(rho0=2, rho1=1)
    with pytest.raises(ValueError):
        run_slots("")


def test_singleton_count_golden():
    assert singleton_count(5, "110") == 6
    assert singleton_count(5, "101") == 3
    assert singleton_count(3, "110") == 1
    assert singleton_count(4, "") == 16
    for n in range(2, 9):
        for m in range(1, n + 1):
            assert singleton_count(n, "1" * m) == comb(n, n - m)


def singletons(n, x):
    return [y for y, w in enumerate_supersequences(n, x) if w == 1]


def test_singletons_golden():
    assert singletons(5, "101") == ["00101", "01010", "10100"]
    assert singletons(5, "110") == [
        "00110", "01010", "01101", "10010", "10101", "11011",
    ]
    assert singletons(3, "110") == ["110"]


def test_singleton_formulas_match_enumeration():
    for m in range(0, 6):
        for x in all_bits(m):
            h = x.count("1")
            for n in range(m, 9):
                singles = singletons(n, x)
                assert len(singles) == singleton_count(n, x), (n, x)
                for c in range(0, n - m + 1):
                    got = sum(1 for y in singles if y.count("1") - h == c)
                    assert got == singleton_cluster_count(n, x, c), (n, x, c)


def test_singleton_cluster_sum_equals_total():
    for m in range(0, 8):
        for x in all_bits(m):
            for n in range(m, m + 5):
                total = sum(
                    singleton_cluster_count(n, x, c) for c in range(0, n - m + 1)
                )
                assert total == singleton_count(n, x)
