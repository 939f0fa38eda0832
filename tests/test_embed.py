import random
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delkit.core import Rle, complement
from delkit.embed import (
    BlockMap,
    _aligned_run_lengths,
    _image_bounds,
    block_map_weights,
    count_embeddings_dp,
    count_embeddings_runs,
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


def all_block_maps(lp, l):
    """Images of every map sigma_count(lp, l) counts: the maps of alternating
    strings with l and lp unit runs, where every factor is 1."""
    maps = block_map_weights(("01" * l)[:l], ("01" * lp)[:lp])
    assert all(w == 1 for _, w in maps)
    return [bm.images for bm, _ in maps]


def test_block_maps_golden():
    assert all_block_maps(2, 4) == [(1, 2), (1, 4), (3, 4)]
    assert all_block_maps(0, 3) == [()]
    assert all_block_maps(3, 2) == []


def test_block_maps_are_valid_lex_and_counted_by_sigma():
    for lp in range(0, 6):
        for l in range(0, 10):
            maps = all_block_maps(lp, l)
            assert maps == sorted(maps)
            assert len(maps) == sigma_count(lp, l)
            for images in maps:
                assert len(images) == lp
                for i, v in enumerate(images, start=1):
                    assert v % 2 == i % 2
                assert all(a < c for a, c in zip(images, images[1:]))


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


def image_bounds(y, x):
    aligned = _aligned_run_lengths(y, x)
    return aligned and _image_bounds(aligned[1], aligned[2], len(aligned[0]))


def test_image_bounds_are_the_extreme_images_of_the_maps():
    # the greedy bounds exist exactly when x embeds, and then each is the
    # least or greatest image of its run over the maps of nonzero weight,
    # which together hold every embedding
    xs = [x for m in range(0, 7) for x in all_bits(m)]
    for n in range(0, 11):
        for y in all_bits(n):
            for x in xs:
                bounds, count = image_bounds(y, x), count_embeddings_dp(y, x)
                assert (bounds is None) == (count == 0), (y, x)
                if count:
                    maps = block_map_weights(y, x)
                    assert sum(w for _, w in maps) == count, (y, x)
                    images = list(zip(*(bm.images for bm, _ in maps)))
                    assert bounds[0] == [min(f) for f in images], (y, x)
                    assert bounds[1] == [max(f) for f in images], (y, x)


@st.composite
def dense_pairs(draw):
    """The pairs-dense benchmark's shape: y uniform with 24 <= |y| <= 40, x
    made by deleting a quarter or a half of its positions."""
    n = draw(st.integers(min_value=24, max_value=40))
    y = draw(st.text(alphabet="01", min_size=n, max_size=n))
    k = round(n * draw(st.sampled_from([0.25, 0.5])))
    gone = draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
    return y, "".join(c for i, c in enumerate(y) if i not in gone)


@settings(max_examples=300, deadline=None)
@given(dense_pairs())
def test_runs_equals_dp_on_dense_pairs(pair):
    y, x = pair
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


def test_dp_equals_the_subset_tally_at_length_10():
    # test_dp_equals_oracle_exhaustive stops at |y| = 9.  Here every y of
    # length 10 meets every x of length <= 10, most of which do not embed,
    # and four x one symbol longer than y
    xs = [x for m in range(0, 11) for x in all_bits(m)]
    for y in all_bits(10):
        tally = subset_tally(y)
        for x in xs:
            assert count_embeddings_dp(y, x) == tally.get(x, 0), (y, x)
        for x in (y + "0", y + "1", "0" + y, "1" + y):
            assert count_embeddings_dp(y, x) == 0, (y, x)


@st.composite
def run_structured_pairs(draw):
    """A y of runs 1 to 12 long, |y| <= 200, and an x keeping a drawn number
    of symbols of each run: all of them, none (which merges the neighbouring
    runs) or anything between."""
    y = x = ""
    sym = draw(st.sampled_from("01"))
    while len(y) < 200 and draw(st.integers(0, 30)):
        k = draw(st.integers(1, min(12, 200 - len(y))))
        kept = draw(st.one_of(st.just(k), st.just(0), st.integers(0, k)))
        y, x = y + sym * k, x + sym * kept
        sym = "1" if sym == "0" else "0"
    return y, x


@settings(max_examples=200, deadline=None)
@given(run_structured_pairs())
def test_runs_equals_dp_on_run_structured_pairs(pair):
    y, x = pair
    assert count_embeddings_runs(y, x) == count_embeddings_dp(y, x)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_same_run_count_product_formula_at_length_2000(seed):
    # x keeps at least one symbol of every run of y, so run i of x draws
    # only from run i of y and omega = prod C(ky_i, kx_i)
    import math

    rnd = random.Random(seed)
    ky, kx = [], []
    while sum(ky) < 2000:
        ky.append(rnd.randint(1, 12))
        kx.append(rnd.randint(1, ky[-1]))
    sym = rnd.choice("01")
    y = x = ""
    for a, b in zip(ky, kx):
        y, x = y + sym * a, x + sym * b
        sym = "1" if sym == "0" else "0"
    want = math.prod(math.comb(a, b) for a, b in zip(ky, kx))
    assert count_embeddings_dp(y, x) == want
    assert count_embeddings_runs(y, x) == want
