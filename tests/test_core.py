from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delkit.core import (
    Rle,
    binomial,
    complement,
    format_mask,
    hamming_weight,
    mask_complement,
    multichoose,
    validate_bits,
)

bits = st.text(alphabet="01", max_size=40)


def test_validate_bits_accepts_and_rejects():
    assert validate_bits("") == ""
    assert validate_bits("0110") == "0110"
    for bad in ("012", "ab", "1 0", None, 10):
        with pytest.raises(ValueError):
            validate_bits(bad)


def test_complement_golden():
    assert complement("110") == "001"
    assert complement("") == ""


@given(bits)
def test_complement_is_an_involution(s):
    assert complement(complement(s)) == s
    assert hamming_weight(complement(s)) == len(s) - hamming_weight(s)


def test_binomial_golden_and_conventions():
    assert binomial(5, 3) == 10
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multichoose_conventions():
    # zero objects always fit, positive objects never fit in zero bins
    assert multichoose(0, 0) == 1
    assert multichoose(0, 5) == 1
    assert multichoose(2, 0) == 0
    assert multichoose(-1, 3) == 0
    assert multichoose(3, 2) == 4
    for objects in range(0, 8):
        for bins in range(1, 8):
            assert multichoose(objects, bins) == binomial(objects + bins - 1, objects)


def test_rle_golden():
    assert Rle.encode("0011010001") == Rle("0", (2, 2, 1, 1, 3, 1))
    assert Rle("1", (6, 1)).decode() == "1111110"
    assert Rle.encode("") == Rle("0", ())
    assert Rle.encode("1").symbols() == ("1",)
    assert Rle.encode("10").symbols() == ("1", "0")


def test_rle_rejects_malformed():
    with pytest.raises(ValueError):
        Rle("2", (1,))
    with pytest.raises(ValueError):
        Rle("0", (1, 0, 2))
    with pytest.raises(ValueError):
        Rle("1", (-1,))


def test_rle_text_form():
    assert str(Rle("1", (6, 1))) == "(1; 6,1)"
    assert str(Rle("0", ())) == "(0; )"


def test_rle_round_trip_exhaustive_small():
    for n in range(0, 17):
        for tup in product("01", repeat=n):
            s = "".join(tup)
            assert Rle.encode(s).decode() == s


@given(bits)
def test_rle_round_trip_property(s):
    r = Rle.encode(s)
    assert r.decode() == s
    assert r.total == len(s)
    assert all(k >= 1 for k in r.lengths)


def test_mask_formatting_is_one_based():
    assert format_mask((0, 1, 2)) == "{1, 2, 3}"
    assert format_mask(()) == "{}"


def test_mask_complement():
    assert mask_complement((0, 2), 4) == (1, 3)
    assert mask_complement((), 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        mask_complement((4,), 4)
    with pytest.raises(ValueError):
        mask_complement((1, 1), 4)


@given(st.sets(st.integers(min_value=0, max_value=15)), st.just(16))
def test_mask_complement_partitions_positions(chosen, n):
    mask = tuple(sorted(chosen))
    other = mask_complement(mask, n)
    assert sorted(mask + other) == list(range(n))


def test_package_exports_the_union_of_module_lists():
    import delkit
    from delkit import core, embed, entropy, oracle, space

    names = core.__all__ + embed.__all__ + entropy.__all__ + oracle.__all__ + space.__all__
    assert len(set(names)) == len(names)
    assert sorted(delkit.__all__) == sorted(names)
    assert all(hasattr(delkit, name) for name in names)
