from collections import Counter
from math import copysign

import pytest

from delkit.core import BudgetError
from delkit.entropy import renyi_entropy, weight_distribution
from delkit.oracle import OracleBudget, oracle_count, oracle_weight_table

from helpers import all_bits
from oracle_scan import oracle_entropy, oracle_space


def test_oracle_count_golden():
    assert oracle_count("11000", "110") == 3
    assert oracle_count("10101", "101") == 4
    assert oracle_count("0000111100001111", "0011") == 300
    assert oracle_count("10", "101") == 0
    assert oracle_count("", "") == 1
    assert oracle_count("0110", "") == 1


def test_oracle_count_budget():
    with pytest.raises(BudgetError):
        oracle_count("0" * 30, "0" * 15)
    with pytest.raises(BudgetError):
        oracle_count("01" * 10, "0" * 10, OracleBudget(max_subsets=100))


def test_oracle_space_golden():
    sp = oracle_space(5, "110")
    assert len(sp.weights) == 16
    assert sum(sp.weights.values()) == 40
    assert sp.weights["11100"] == 6
    assert sp.weights["11010"] == 4
    assert list(sp.weights) == sorted(sp.weights)
    assert oracle_space(3, "110").weights == {"110": 1}
    assert oracle_space(2, "110").weights == {}


def test_oracle_space_distribution_and_singletons():
    sp = oracle_space(5, "101")
    assert Counter(sp.weights.values()) == {1: 3, 2: 6, 3: 3, 4: 4}
    assert sp.singletons() == ["00101", "01010", "10100"]
    assert {y.count("1") - 2 for y in sp.weights} == {0, 1, 2}


def test_oracle_space_masks_listing():
    sp = oracle_space(4, "10", with_masks=True)
    assert sp.masks is not None
    for y, masks in sp.masks.items():
        assert len(masks) == sp.weights[y]
        for pi in masks:
            assert "".join(y[i] for i in pi) == "10"
    from delkit.embed import enumerate_masks

    for y, masks in sp.masks.items():
        assert masks == enumerate_masks(y, "10")


def test_oracle_space_budget():
    with pytest.raises(BudgetError):
        oracle_space(15, "1")
    with pytest.raises(BudgetError):
        oracle_space(10, "1", max_n=8)
    assert oracle_space(8, "1", max_n=8).weights


def test_weight_table_matches_scalar_scan():
    for m in range(0, 5):
        for x in all_bits(m):
            for n in range(m, 8):
                table = oracle_weight_table(n, x)
                sp = oracle_space(n, x)
                # format(0, "00b") is "0", so the one string of length 0 is spelled out
                got = {
                    format(i, f"0{n}b") if n else "": int(w)
                    for i, w in enumerate(table)
                    if w
                }
                assert got == sp.weights, (n, x)


def test_weight_table_budget():
    with pytest.raises(BudgetError):
        oracle_weight_table(25, "1")
    with pytest.raises(BudgetError):
        oracle_weight_table(23, "1" * 20)


def test_oracle_entropy_golden():
    rep = oracle_entropy(5, "110", alphas=(0.5, 2.0))
    assert abs(rep.shannon - 3.720950594454668) < 1e-12
    assert set(rep.renyi) == {0.5, 2.0}
    # uniform posterior: empty x weights all strings equally
    uni = oracle_entropy(4, "")
    assert abs(uni.shannon - 4.0) < 1e-12
    assert abs(uni.renyi[2.0] - 4.0) < 1e-12
    assert abs(uni.min_entropy - 4.0) < 1e-12
    with pytest.raises(ValueError):
        oracle_entropy(4, "1", alphas=(1.0,))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_oracle_entropy_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match=f"alpha.*got {alpha}"):
        oracle_entropy(3, "1", alphas=(2.0, alpha))


def test_oracle_entropy_agrees_at_large_alpha():
    # (w / total) ** 2000 underflows to 0.0 for every string of these spaces
    for n, x in ((5, "110"), (8, "0110"), (10, "0101100")):
        rep = oracle_entropy(n, x, alphas=(2000.0,))
        want = renyi_entropy(weight_distribution(n, x), 2000.0)
        assert abs(rep.renyi[2000.0] - want) < 1e-9
        assert rep.min_entropy - 1e-12 <= rep.renyi[2000.0]


def test_oracle_entropy_of_a_point_mass_is_positive_zero():
    # the only supersequence of 010 at n = 3 is itself: no -0.0 anywhere
    rep = oracle_entropy(3, "010", alphas=(0.5, 2.0))
    assert rep.renyi == {0.5: 0.0, 2.0: 0.0} and rep.min_entropy == 0.0
    values = [rep.shannon, rep.min_entropy, *rep.renyi.values()]
    assert all(copysign(1.0, v) == 1.0 for v in values)
