from fractions import Fraction
from math import comb, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delkit.entropy import (
    WeightDistribution,
    _double_insertion_cases,
    delta_single,
    double_count_identity,
    double_weight_identity,
    g_chain,
    g_transform,
    min_entropy,
    mu,
    predicted_weights_double,
    predicted_weights_single,
    renyi_entropy,
    shannon_entropy,
    weight_distribution,
)
from delkit.space import upsilon_size

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


@given(bits)
def test_entropy_is_complement_invariant(x):
    from delkit.core import complement

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
    from delkit.oracle import oracle_entropy

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
