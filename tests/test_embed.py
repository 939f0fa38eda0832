import random
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delkit.core import Rle, complement
from delkit.embed import (
    BlockMap,
    block_map_weights,
    count_embeddings_dp,
    count_embeddings_runs,
    enumerate_block_maps,
    enumerate_masks,
    sigma_count,
)
from delkit.oracle import oracle_count

from helpers import all_bits

bits = st.text(alphabet="01", max_size=20)

# weights of every length-5 supersequence, frozen from the brute-force oracle
GOLDEN_110 = {
    "00110": 1, "01010": 1, "01100": 2, "10010": 1, "10100": 2, "11000": 3,
    "01101": 1, "01110": 3, "10101": 1, "10110": 3, "11001": 2, "11010": 4,
    "11100": 6, "11011": 1, "11101": 3, "11110": 6,
}
GOLDEN_101 = {
    "00101": 1, "01001": 2, "01010": 1, "10001": 3, "10010": 2, "10100": 1,
    "01011": 2, "01101": 2, "10011": 4, "10101": 4, "10110": 2, "11001": 4,
    "11010": 2, "10111": 3, "11011": 4, "11101": 3,
}


def test_dp_golden_values():
    assert count_embeddings_dp("11000", "110") == 3
    assert count_embeddings_dp("10101", "101") == 4
    assert count_embeddings_dp("110", "110") == 1
    assert count_embeddings_dp("111", "000") == 0
    assert count_embeddings_dp("", "") == 1
    assert count_embeddings_dp("1010", "") == 1
    assert count_embeddings_dp("10", "100") == 0


def test_dp_golden_rows():
    for y, w in GOLDEN_110.items():
        assert count_embeddings_dp(y, "110") == w
    for y, w in GOLDEN_101.items():
        assert count_embeddings_dp(y, "101") == w


def test_runs_golden_rows():
    for y, w in GOLDEN_110.items():
        assert count_embeddings_runs(y, "110") == w
    for y, w in GOLDEN_101.items():
        assert count_embeddings_runs(y, "101") == w


def test_worked_example_300():
    y, x = "0000111100001111", "0011"
    assert count_embeddings_dp(y, x) == 300
    assert count_embeddings_runs(y, x) == 300
    breakdown = block_map_weights(y, x)
    assert [(b.images, w) for b, w in breakdown] == [
        ((1, 2), 36),
        ((1, 4), 132),
        ((3, 4), 132),
    ]


def subset_tally(y):
    """oracle_count for every x at once: each index subset of y, tallied by
    the string it spells."""
    tally = {}
    for keep in product((0, 1), repeat=len(y)):
        s = "".join(compress(y, keep))
        tally[s] = tally.get(s, 0) + 1
    return tally


def test_dp_equals_oracle_exhaustive():
    # every y with |y| <= 9 against every x with |x| <= |y| + 1: covers no
    # deletions (d = 0), the empty x and x longer than y
    for n in range(0, 10):
        for y in all_bits(n):
            tally = subset_tally(y)
            if n <= 6:
                assert tally == {x: oracle_count(y, x) for x in tally}
            for m in range(0, n + 2):
                for x in all_bits(m):
                    assert count_embeddings_dp(y, x) == tally.get(x, 0), (y, x)


def test_masks_golden():
    assert enumerate_masks("11000", "110") == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert enumerate_masks("00110", "110") == [(2, 3, 4)]
    assert enumerate_masks("10011", "101") == [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4)]
    assert enumerate_masks("111", "000") == []
    assert enumerate_masks("101", "") == [()]


def test_masks_are_lexicographic_and_consistent_with_dp():
    for y in all_bits(7):
        for m in range(0, 5):
            for x in all_bits(m):
                masks = enumerate_masks(y, x)
                assert masks == sorted(masks)
                assert len(set(masks)) == len(masks)
                assert len(masks) == count_embeddings_dp(y, x)
                for pi in masks:
                    assert "".join(y[i] for i in pi) == x


def test_sigma_golden():
    assert sigma_count(2, 4) == 3
    assert sigma_count(3, 3) == 1
    assert sigma_count(3, 2) == 0
    assert sigma_count(1, 5) == 3
    assert sigma_count(0, 4) == 1
    with pytest.raises(ValueError):
        sigma_count(-1, 3)


def test_sigma_matches_first_image_recurrence():
    # condition on f(1): remaining is the same problem shifted past f(1)
    def recur(lp, l):
        if lp == 0:
            return 1
        return sum(recur(lp - 1, l - f) for f in range(1, l - lp + 2, 2))

    for lp in range(0, 9):
        for l in range(0, 14):
            assert sigma_count(lp, l) == recur(lp, l)


def test_block_maps_golden():
    assert [b.images for b in enumerate_block_maps(2, 4)] == [(1, 2), (1, 4), (3, 4)]
    assert [b.images for b in enumerate_block_maps(0, 3)] == [()]
    assert enumerate_block_maps(3, 2) == []


def test_block_maps_are_valid_lex_and_counted_by_sigma():
    for lp in range(0, 6):
        for l in range(0, 10):
            maps = enumerate_block_maps(lp, l)
            images = [b.images for b in maps]
            assert images == sorted(images)
            assert len(maps) == sigma_count(lp, l)
            for b in maps:
                assert len(b.images) == lp
                for i, v in enumerate(b.images, start=1):
                    assert v % 2 == i % 2
                    assert b(i) == v
                assert all(a < c for a, c in zip(b.images, b.images[1:]))


def test_block_map_rejects_bad_images():
    with pytest.raises(ValueError):
        BlockMap((2,))
    with pytest.raises(ValueError):
        BlockMap((1, 3, 2))


def test_block_map_weights_partition_the_masks():
    # tag each mask by the run of y hosting the last symbol of each run of x;
    # the per-map weights must reproduce the tag counts exactly
    for y in all_bits(8):
        for x in ("1", "10", "110", "0101"):
            if Rle.encode(y).leading != Rle.encode(x).leading and y:
                continue
            run_of = []
            for i, ch in enumerate(y):
                run_of.append(1 if i == 0 else run_of[-1] + (y[i] != y[i - 1]))
            ends = []
            total = 0
            for k in Rle.encode(x).lengths:
                total += k
                ends.append(total - 1)
            tags = {}
            for pi in enumerate_masks(y, x):
                f = tuple(run_of[pi[e]] for e in ends)
                tags[f] = tags.get(f, 0) + 1
            got = {b.images: w for b, w in block_map_weights(y, x)}
            assert got == tags


def test_runs_equals_dp_exhaustive_small():
    for y in all_bits(8):
        for m in range(0, 5):
            for x in all_bits(m):
                assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


@settings(max_examples=200, deadline=None)
@given(bits, bits)
def test_runs_equals_dp_random(y, x):
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


@st.composite
def deletion_pairs(draw):
    """A y of length <= 60 and an x made by deleting drawn positions of y."""
    y = draw(st.text(alphabet="01", max_size=60))
    keep = draw(st.lists(st.booleans(), min_size=len(y), max_size=len(y)))
    return y, "".join(c for c, k in zip(y, keep) if k)


@settings(max_examples=200, deadline=None)
@given(deletion_pairs())
def test_runs_equals_dp_long_random(pair):
    y, x = pair
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


def long_runs(rnd, n):
    """A length-n string of alternating runs, each 6 to 12 long but the
    last, which is cut at n."""
    y = ""
    while len(y) < n:
        y += ("1" if y.endswith("0") else "0") * rnd.randint(6, 12)
    return y[:n]


def test_runs_equals_dp_long_pair():
    # the pairs-long shape: runs of 6 to 12, a quarter of positions
    # deleted, so x keeps every run of y and the dp band is |y| / 4 + 1 wide
    y = long_runs(random.Random(2000), 2000)
    x = "".join(c for i, c in enumerate(y) if i % 4 != 3)
    assert len(x) == 1500
    assert Rle.encode(x).block_count == Rle.encode(y).block_count
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


@st.composite
def long_run_pairs(draw):
    """A long_runs y of length <= 300, x by deleting drawn positions."""
    n = draw(st.integers(min_value=0, max_value=300))
    y = long_runs(random.Random(draw(st.integers(min_value=0))), n)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return y, "".join(compress(y, keep))


@settings(max_examples=100, deadline=None)
@given(long_run_pairs())
def test_runs_equals_dp_long_runs_random(pair):
    y, x = pair
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


@pytest.mark.parametrize("reps", [22, 200])
def test_runs_is_polynomial_on_alternating_strings(reps):
    # sigma_count(reps, 2 * reps) block maps: 193,536,720 at reps = 22; the
    # chain sum visits O(reps^3) image pairs instead
    y, x = "01" * reps, "01" * (reps // 2)
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


def test_block_map_weights_sum_to_the_chain():
    # per-map enumeration is the independent check on the chain sum
    for n in range(0, 9):
        for y in all_bits(n):
            for m in range(0, min(n, 5) + 1):
                for x in all_bits(m):
                    total = sum(w for _, w in block_map_weights(y, x))
                    assert total == count_embeddings_runs(y, x)


@given(bits, bits)
def test_count_is_complement_invariant(y, x):
    assert count_embeddings_dp(y, x) == count_embeddings_dp(complement(y), complement(x))


def test_same_run_count_gives_a_product_formula():
    # when x and y have equally many runs and matching leading symbol, each
    # run of x draws only from its own run of y
    import math

    for y in all_bits(9):
        ry = Rle.encode(y)
        for x in all_bits(4):
            rx = Rle.encode(x)
            if not x or rx.leading != ry.leading or rx.block_count != ry.block_count:
                continue
            want = math.prod(
                max(0, math.comb(ky, kx))
                for ky, kx in zip(ry.lengths, rx.lengths)
            )
            assert count_embeddings_dp(y, x) == want
