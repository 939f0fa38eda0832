from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delkit import clusters, space
from delkit.clusters import composition_slots
from delkit.core import complement
from delkit.deletions import (
    _double_insertion_cases,
    delta_single,
    double_count_identity,
    double_weight_identity,
    g_chain,
    g_transform,
    predicted_weights_double,
    predicted_weights_single,
)
from delkit.entropy import (
    WeightDistribution,
    min_entropy,
    mu,
    renyi_entropy,
    shannon_entropy,
    weight_distribution,
)
from delkit.space import _prefix_level, _split_half_pays, enumerate_supersequences, upsilon_size

from helpers import all_bits, compositions

bits = st.text(alphabet="01", min_size=1, max_size=8)


def test_mu_golden():
    assert mu(5, 3) == 40
    assert mu(8, 5) == 448
    assert mu(4, 4) == 1
    assert mu(3, 0) == 8
    with pytest.raises(ValueError):
        mu(2, 3)


def test_weight_distribution_golden():
    d = weight_distribution(5, "110")
    assert d.counts == {1: 6, 2: 3, 3: 4, 4: 1, 6: 2}
    assert d.total_strings == 16 and d.total_masks == 40
    d2 = weight_distribution(5, "101")
    assert d2.counts == {1: 3, 2: 6, 3: 3, 4: 4}
    assert weight_distribution(4, "1010").counts == {1: 1}


def test_weight_distribution_by_cluster_golden():
    d = weight_distribution(5, "110", by_cluster=True)
    assert d.by_cluster == {
        0: {1: 3, 2: 2, 3: 1},
        1: {1: 2, 2: 1, 3: 2, 4: 1, 6: 1},
        2: {1: 1, 3: 1, 6: 1},
    }


def test_weight_distribution_takes_the_route_the_rule_picks(monkeypatch):
    joins, join = [], space._split_half_level

    def spy(*args):
        joins.append(args)
        return join(*args)

    # (19, 7) joins half tables, (13, 11) walks its 92 supersequences
    monkeypatch.setattr(space, "_split_half_level", spy)
    d = weight_distribution(19, "0110101", by_cluster=True)
    assert d.total_strings == upsilon_size(19, 7) == 480_492
    assert [args[:3] for args in joins] == [(19, "0110101", True)]
    assert joins[0][3] == _prefix_level(19, "0110101", 19 // 2, True, [], 0)
    assert weight_distribution(13, "01101010110", by_cluster=True).total_strings == 92
    assert len(joins) == 1


def test_weight_distribution_rejects_bad_histograms():
    with pytest.raises(ValueError):
        WeightDistribution(5, "110", {1: 16})
    with pytest.raises(ValueError):
        WeightDistribution(5, "110", {1: 6, 2: 3, 3: 4, 4: 1, 6: 2, 9: 0})
    with pytest.raises(ValueError):
        WeightDistribution(3, "11010", {1: 1})
    good = {1: 6, 2: 3, 3: 4, 4: 1, 6: 2}
    with pytest.raises(ValueError):
        WeightDistribution(5, "110", good, by_cluster={0: good})
    with pytest.raises(ValueError):
        WeightDistribution(5, "110", good, by_cluster={7: good})


def test_posteriors_sum_to_one_over_the_space():
    # P(y | x) = w_x(y) / mu, with w_x(y) from the dp, not the enumerator's table
    from delkit.embed import count_embeddings_dp
    from delkit.space import enumerate_supersequences

    for x in ("", "1", "110", "0101"):
        n = len(x) + 2
        total = sum(
            Fraction(count_embeddings_dp(y, x), mu(n, len(x)))
            for y, _ in enumerate_supersequences(n, x)
        )
        assert total == 1


def test_shannon_entropy_golden():
    d = weight_distribution(5, "110")
    assert abs(shannon_entropy(d) - 3.720950594454668) < 1e-12
    d2 = weight_distribution(5, "101")
    assert abs(shannon_entropy(d2) - 3.8653115322251015) < 1e-12


def test_entropy_edge_distributions():
    # point mass: the only supersequence carries every mask
    assert shannon_entropy(weight_distribution(3, "010")) == 0.0
    assert min_entropy(weight_distribution(3, "010")) == 0.0
    # uniform over all of {0,1}^n: the empty string weights everything once
    d = weight_distribution(3, "")
    assert shannon_entropy(d) == 3.0
    assert renyi_entropy(d, 2.0) == 3.0
    assert min_entropy(d) == 3.0


def test_renyi_entropy_validation_and_golden():
    d = weight_distribution(5, "110")
    with pytest.raises(ValueError):
        renyi_entropy(d, 0.0)
    with pytest.raises(ValueError):
        renyi_entropy(d, -2.0)
    with pytest.raises(ValueError):
        renyi_entropy(d, 1)
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            renyi_entropy(d, alpha)
    want_r2 = -log2(sum(c * (w / 40) ** 2 for w, c in d.counts.items()))
    assert abs(renyi_entropy(d, 2.0) - want_r2) < 1e-12


def test_min_entropy_golden():
    d = weight_distribution(5, "110")
    assert abs(min_entropy(d) - (log2(40) - log2(6))) < 1e-12


def test_entropy_ordering_min_le_renyi_le_shannon():
    for m in range(1, 7):
        for x in all_bits(m):
            d = weight_distribution(m + 2, x)
            h = shannon_entropy(d)
            r2 = renyi_entropy(d, 2.0)
            hm = min_entropy(d)
            assert hm <= r2 + 1e-12
            assert r2 <= h + 1e-12


def test_renyi_entropy_at_large_alpha_stays_between_min_and_r2():
    # (w / mu) ** 2000 underflows to 0.0 for all but the point masses; the
    # order-2000 value must still sit between min-entropy and collision entropy
    for m in range(1, 6):
        for x in all_bits(m):
            for n in (m, m + 1, m + 3):
                d = weight_distribution(n, x)
                r = renyi_entropy(d, 2000.0)
                assert min_entropy(d) - 1e-12 <= r <= renyi_entropy(d, 2.0) + 1e-12
    # exact at the extremes: point mass and uniform posterior
    assert renyi_entropy(weight_distribution(3, "010"), 2000.0) == 0.0
    assert abs(renyi_entropy(weight_distribution(3, ""), 1e308) - 3.0) < 1e-12


@pytest.mark.parametrize("n", [1026, 1029, 1100])
def test_entropies_stay_exact_past_the_float_range(n):
    # x = 0: the C(n, w) strings with w zeros weigh w each.  mu = n 2^(n-1)
    # is past 2^1024 and C(n, n / 2) is too at n = 1100, so neither every
    # count nor every w / mu is a float; 50-digit decimals are the reference
    d = WeightDistribution(n, "0", {w: comb(n, w) for w in range(1, n + 1)})
    with localcontext() as ctx:
        ctx.prec = 50
        ln2, mass = Decimal(2).ln(), [(Decimal(w) / mu(n, 1), k) for w, k in d.counts.items()]
        want = float(-sum(k * p * p.ln() for p, k in mass) / ln2)
        assert abs(shannon_entropy(d) - want) <= 1e-12 * want
        for alpha in (0.5, 2, 3, 2000):
            a = Decimal(alpha)
            want = float(sum(k * p**a for p, k in mass).ln() / ln2 / (1 - a))
            assert abs(renyi_entropy(d, alpha) - want) <= 1e-12 * want, alpha


def test_histogram_is_invariant_under_reversal_and_complement():
    # sweep computes one row per orbit of x under these maps, so this is the
    # theorem its reuse rests on; every n = m + 4 from (5, 1) to (11, 7) takes
    # the join, and the rest of the range walks
    assert _split_half_pays(11, 7) and not _split_half_pays(10, 7)
    for m in range(8):
        for n in range(m, m + 5):
            dists = {x: weight_distribution(n, x, by_cluster=True) for x in all_bits(m)}
            for x, d in dists.items():
                assert weight_distribution(n, x).counts == d.counts
                rev, flip = dists[x[::-1]], dists[complement(x)]
                for other in (rev, flip, dists[complement(x)[::-1]]):
                    assert other.counts == d.counts
                assert rev.by_cluster == d.by_cluster
                assert flip.by_cluster == {
                    (n - m) - c: part for c, part in d.by_cluster.items()
                }


def test_walk_equals_the_supersequence_enumeration():
    # the merged walk counts classes of prefixes; the enumerator lists every
    # supersequence one at a time with its own count table
    for m in range(10):
        for n in range(m, m + 4):
            for x in all_bits(m):
                level = [Counter() for _ in range(n + 1)]
                for y, w in enumerate_supersequences(n, x):
                    level[y.count("1")][w] += 1
                assert _prefix_level(n, x, n, False, [], 0) == [sum(level, Counter())]
                assert _prefix_level(n, x, n, True, [], 0) == level


def test_walk_equals_the_closed_forms():
    for m in range(1, 12):
        for x in all_bits(m):
            for n, want in ((m + 1, predicted_weights_single), (m + 2, predicted_weights_double)):
                assert _prefix_level(n, x, n, False, [], 0) == [want(x).counts]


@pytest.mark.parametrize("symbol", "01")
def test_walk_slots_hold_the_largest_weight(symbol):
    # y with r copies of x = symbol^m has weight C(r, m); the C(n, r) of them
    # have popcount n - r for 0^m and r for 1^m.  The top weight C(n, m)
    # fills its slot, up to C(24, 12) at the default budget.
    for n in range(25):
        for m in range(n + 1):
            level = [Counter() for _ in range(n + 1)]
            for r in range(m, n + 1):
                level[n - r if symbol == "0" else r][comb(r, m)] += comb(n, r)
            assert _prefix_level(n, symbol * m, n, True, [], 0) == level, (n, m)


@given(bits)
def test_entropy_is_complement_invariant(x):
    n = len(x) + 2
    a = shannon_entropy(weight_distribution(n, x))
    b = shannon_entropy(weight_distribution(n, complement(x)))
    assert abs(a - b) < 1e-12


def test_g_transform_golden():
    assert g_transform("110") == "000"
    assert g_transform("1001110") == "0001110"
    assert g_transform("101010") == "001010"
    assert g_transform("0000") == "0000"
    assert g_transform("1") == "1"
    with pytest.raises(ValueError):
        g_transform("")


@given(bits)
def test_g_transform_preserves_length_and_drops_a_run(x):
    from delkit.core import Rle

    gx = g_transform(x)
    assert len(gx) == len(x)
    ell = Rle.encode(x).block_count
    assert Rle.encode(gx).block_count == max(ell - 1, 1)


def test_run_readers_agree_with_rle_exhaustively():
    # g_transform, run_slots and predicted_weights_single read runs on their
    # own; Rle.encode is the independent side
    from delkit.core import Rle

    for m in range(1, 13):
        for x in all_bits(m):
            r = Rle.encode(x)
            ks = r.lengths
            flip = "1" if r.leading == "0" else "0"
            if len(ks) == 1:
                assert g_transform(x) == x
            else:
                assert g_transform(x) == Rle(flip, (ks[0] + ks[1],) + ks[2:]).decode()
            rho: Counter[str] = Counter()
            for i, slots in enumerate(clusters.composition_slots(ks)):
                rho[r.leading if i % 2 == 0 else flip] += slots
            assert clusters.run_slots(x) == clusters.RunSlots(rho["0"], rho["1"])
            counts: Counter[int] = Counter({1: m - r.block_count + 2})
            for k in ks:
                counts[k + 1] += 1
            assert predicted_weights_single(x).counts == counts


def test_g_chain_golden():
    assert g_chain("101010") == [
        "101010", "001010", "111010", "000010", "111110", "000000",
    ]
    assert g_chain("0000") == ["0000"]
    assert g_chain("110") == ["110", "000"]


def test_predicted_single_golden():
    assert predicted_weights_single("110").counts == {1: 3, 2: 1, 3: 1}
    assert predicted_weights_single("1111").counts == {1: 5, 5: 1}
    assert predicted_weights_single("").counts == {1: 2}
    assert predicted_weights_single("101").counts == {1: 2, 2: 3}


def test_predicted_single_matches_enumeration():
    for m in range(0, 8):
        for x in all_bits(m):
            assert predicted_weights_single(x).counts == weight_distribution(m + 1, x).counts


def test_double_insertion_cases_golden():
    # x = 110 has run lengths (2, 1)
    lengthen, mixed, split = _double_insertion_cases((2, 1))
    assert lengthen == {3: 1, 6: 2}
    assert mixed == {2: 3, 3: 3, 4: 1}
    assert split == {1: 6}


def test_double_split_count_equals_the_summed_composition_slots():
    # both insertions split runs: C(t + 1, 2) strings of weight 1 over the t
    # slots, whose total the cases take in closed form
    for m in range(1, 13):
        for ks in compositions(m):
            t = sum(composition_slots(ks))
            assert _double_insertion_cases(ks)[2] == {1: t * (t + 1) // 2}, ks


def test_predicted_double_golden():
    assert predicted_weights_double("110").counts == {1: 6, 2: 3, 3: 4, 4: 1, 6: 2}
    assert predicted_weights_double("101").counts == {1: 3, 2: 6, 3: 3, 4: 4}
    assert predicted_weights_double("11").counts == {1: 6, 3: 4, 6: 1}
    with pytest.raises(ValueError):
        predicted_weights_double("")


def test_predicted_double_matches_enumeration():
    for m in range(1, 8):
        for x in all_bits(m):
            assert predicted_weights_double(x).counts == weight_distribution(m + 2, x).counts


def test_delta_single_golden_and_positive():
    assert abs(delta_single(1, 1) - (3 * log2(3) - 4)) < 1e-12
    assert delta_single(2, 3) == delta_single(3, 2)
    for k1 in range(1, 13):
        for k2 in range(1, 13):
            assert delta_single(k1, k2) > 1e-9
    with pytest.raises(ValueError):
        delta_single(0, 1)


def test_delta_single_matches_entropy_difference():
    # 2(m+1) (H(10) - H(00)) telescopes to the closed form at m = 2
    h10 = shannon_entropy(predicted_weights_single("10"))
    h00 = shannon_entropy(predicted_weights_single("00"))
    assert abs(2 * 3 * (h10 - h00) - delta_single(1, 1)) < 1e-9


def test_identity_golden_values():
    assert double_count_identity((2, 1)) == (16, 16)
    assert double_weight_identity((2, 1)) == (40, 40)
    assert double_count_identity((1, 1)) == (
        comb(4, 2) + comb(4, 3) + comb(4, 4),
        comb(4, 2) + comb(4, 3) + comb(4, 4),
    )
    for m in range(1, 7):
        lhs, rhs = double_count_identity((m,))
        assert lhs == rhs == comb(m + 2, 2) + m + 3
    with pytest.raises(ValueError):
        double_count_identity(())
    with pytest.raises(ValueError):
        double_count_identity((2, 0))


def test_identities_hold_for_all_small_compositions():
    for m in range(1, 11):
        for ks in compositions(m):
            lhs, rhs = double_count_identity(ks)
            assert lhs == rhs, ks
            lhs, rhs = double_weight_identity(ks)
            assert lhs == rhs, ks


@settings(max_examples=150, deadline=None)
@given(bits)
def test_two_entropy_paths_agree(x):
    from oracle_scan import oracle_entropy

    n = len(x) + 2
    d = weight_distribution(n, x)
    rep = oracle_entropy(n, x, alphas=(2.0,))
    assert abs(shannon_entropy(d) - rep.shannon) < 1e-12
    assert abs(renyi_entropy(d, 2.0) - rep.renyi[2.0]) < 1e-12
    assert abs(min_entropy(d) - rep.min_entropy) < 1e-12


def test_distribution_conservation_invariants():
    for m in range(0, 7):
        for x in all_bits(m):
            for n in (m, m + 1, m + 3):
                d = weight_distribution(n, x)
                assert d.total_strings == upsilon_size(n, m)
                assert d.total_masks == mu(n, m)
