"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single PASS line on success so a verbose run reads as a
checklist.  Tolerances: counts are exact integers; entropy comparisons use
1e-9 unless a tighter two-path bound (1e-12) is stated inline.
"""
import random
import time
from collections import Counter
from itertools import combinations, product

import numpy as np

from delkit.clusters import (
    cluster_size_recursive,
    cluster_size_simple,
    is_maximal_initial,
    maximal_initials_cluster,
    maximal_initials_total,
    singleton_count,
)
from delkit.core import binomial
from delkit.embed import count_embeddings_dp, count_embeddings_runs
from delkit.deletions import (
    delta_single,
    double_count_identity,
    double_weight_identity,
    g_chain,
    predicted_weights_double,
    predicted_weights_single,
)
from delkit.entropy import min_entropy, mu, renyi_entropy, shannon_entropy, weight_distribution
from delkit.oracle import oracle_weight_table
from delkit.paper_objects import block_map_weights
from delkit.space import cluster_size_closed, enumerate_supersequences, upsilon_size

# length-5 weight rows published for x=110 and x=101 (15 rows each)
TABLE_110 = {
    "00110": 1, "01010": 1, "01100": 2, "10010": 1, "10100": 2, "11000": 3,
    "01101": 1, "01110": 3, "10101": 1, "10110": 3, "11001": 2,
    "11100": 6, "11011": 1, "11101": 3, "11110": 6,
}
TABLE_101 = {
    "00101": 1, "01001": 2, "01010": 1, "10001": 3, "10010": 2, "10100": 1,
    "01011": 2, "01101": 2, "10011": 4, "10101": 4, "11001": 4,
    "11010": 2, "10111": 3, "11011": 4, "11101": 3,
}

# boldface maximal-initial rows at n=5
MAXIMAL_110 = {"00110", "01010", "01110", "10010", "10110", "11110"}
MAXIMAL_101 = {"00101", "01001", "01101", "10001", "11001", "11101"}

# entropies along the 101010 run-merging chain at n=8, frozen from the oracle
CHAIN_8 = [
    "101010", "001010", "111010", "000010", "111110", "000000",
]
CHAIN_8_H = [
    5.091454837527391,
    4.99945695785062,
    4.850788601434683,
    4.662253291139842,
    4.443754583936745,
    4.201838730514398,
]


def all_bits(m):
    return ("".join(t) for t in product("01", repeat=m))


def alternating(m):
    return {"".join("01"[(i + s) % 2] for i in range(m)) for s in (0, 1)}


def test_c01_golden_embeddings():
    t0 = time.perf_counter()
    for table, x in ((TABLE_110, "110"), (TABLE_101, "101")):
        assert len(table) == 15
        for y, w in table.items():
            assert count_embeddings_dp(y, x) == w
            assert count_embeddings_runs(y, x) == w
    y, x = "0000111100001111", "0011"
    assert count_embeddings_dp(y, x) == 300
    assert [(b.images, w) for b, w in block_map_weights(y, x)] == [
        ((1, 2), 36),
        ((1, 4), 132),
        ((3, 4), 132),
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden embedding tables and 300-example ({elapsed:.3f}s)")


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    xs_by_m = {m: list(all_bits(m)) for m in range(7)}
    pairs = 0
    for ny in range(13):
        for y in all_bits(ny):
            for m in range(min(6, ny) + 1):
                enum = Counter(
                    "".join(y[i] for i in mask)
                    for mask in combinations(range(ny), m)
                )
                for x in xs_by_m[m]:
                    w = enum.get(x, 0)
                    assert count_embeddings_dp(y, x) == w
                    assert count_embeddings_runs(y, x) == w
                    pairs += 1
            for m in range(ny + 1, 7):
                for x in xs_by_m[m]:
                    assert count_embeddings_dp(y, x) == 0
                    assert count_embeddings_runs(y, x) == 0
                    pairs += 1
    rng = random.Random(20260819)
    for _ in range(10_000):
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, len(y))))
        assert count_embeddings_dp(y, x) == count_embeddings_runs(y, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 2: dp == runs == subset enumeration on {pairs} pairs ({elapsed:.1f}s)")


def test_c03_conservation():
    t0 = time.perf_counter()
    cases = 0
    for m in range(0, 11):
        for x in all_bits(m):
            for n in (m + 1, m + 2):
                strings = 0
                masks = 0
                for y, w in enumerate_supersequences(n, x):
                    assert w == count_embeddings_dp(y, x)
                    strings += 1
                    masks += w
                assert strings == sum(binomial(n, r) for r in range(m, n + 1))
                assert masks == binomial(n, m) * 2 ** (n - m)
                cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 3: string and mask conservation on {cases} spaces ({elapsed:.1f}s)")


def test_c04_cluster_triple_agreement():
    t0 = time.perf_counter()
    for n in range(0, 21):
        for m in range(0, n + 1):
            for h in range(0, m + 1):
                x = "1" * h + "0" * (m - h)
                for c in range(0, n - m + 1):
                    closed = cluster_size_closed(n, m, h, c)
                    assert closed == cluster_size_simple(n, m, h, c)
                    assert closed == cluster_size_recursive(n, x, c)
    for n in range(0, 13):
        pop = [bin(i).count("1") for i in range(1 << n)]
        for m in range(0, n + 1):
            for h in range(0, m + 1):
                x = "1" * h + "0" * (m - h)
                table = oracle_weight_table(n, x)
                enum = Counter(pop[i] - h for i, w in enumerate(table) if w)
                for c in range(0, n - m + 1):
                    assert enum.get(c, 0) == cluster_size_closed(n, m, h, c)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 4: cluster sizes agree three ways (n<=20) and with the oracle (n<=12) ({elapsed:.1f}s)")


def test_c05_maximal_initials():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for x in all_bits(m):
            h = x.count("1")
            for n in range(m, 13):
                total = 0
                per_cluster = Counter()
                for y in all_bits(n):
                    if is_maximal_initial(y, x):
                        total += 1
                        per_cluster[y.count("1") - h] += 1
                assert total == maximal_initials_total(n, m) == binomial(n - 1, m - 1)
                for c in range(0, n - m + 1):
                    assert per_cluster.get(c, 0) == maximal_initials_cluster(n, m, h, c)
    for x, bold in (("110", MAXIMAL_110), ("101", MAXIMAL_101)):
        h = x.count("1")
        found = {y for y in all_bits(5) if is_maximal_initial(y, x)}
        assert found == bold and len(found) == 6
        split = Counter(y.count("1") - h for y in found)
        assert split == {0: 3, 1: 2, 2: 1}
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 5: maximal initials match C(n-1,m-1) and the per-cluster product ({elapsed:.1f}s)")


def test_c06_singletons():
    t0 = time.perf_counter()
    for m in range(0, 9):
        for x in all_bits(m):
            for n in range(m, 15):
                table = oracle_weight_table(n, x)
                assert int((table == 1).sum()) == singleton_count(n, x)
    for m in range(2, 11):
        constants = {"0" * m, "1" * m}
        alts = alternating(m)
        for n in range(m + 1, 15):
            counts = {x: singleton_count(n, x) for x in all_bits(m)}
            top = max(counts.values())
            low = min(counts.values())
            assert {x for x, v in counts.items() if v == top} == constants
            assert {x for x, v in counts.items() if v == low} == alts
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 6: singleton closed form vs oracle, extremes at constant/alternating ({elapsed:.1f}s)")


def test_c07_insertion_multisets():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 11):
        for x in all_bits(m):
            for extra, predict in (
                (1, predicted_weights_single),
                (2, predicted_weights_double),
            ):
                table = oracle_weight_table(m + extra, x)
                nz = table[table != 0]
                values, reps = np.unique(nz, return_counts=True)
                observed = {int(v): int(k) for v, k in zip(values, reps)}
                assert observed == predict(x).counts
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS criterion 7: one/two-insertion weight multisets match the oracle on {checked} cases ({elapsed:.1f}s)")


def test_c08_entropy_minimization():
    t0 = time.perf_counter()
    for m in range(1, 11):
        constants = {"0" * m, "1" * m}
        for predict in (predicted_weights_single, predicted_weights_double):
            values = {x: shannon_entropy(predict(x)) for x in all_bits(m)}
            low = min(values.values())
            assert {x for x, v in values.items() if v <= low + 1e-9} == constants
            assert values["0" * m] == values["1" * m]
        dists = {x: predicted_weights_single(x) for x in all_bits(m)}
        for alpha in (0.5, 2.0, 3.0):
            values = {x: renyi_entropy(d, alpha) for x, d in dists.items()}
            low = min(values.values())
            assert {x for x, v in values.items() if v <= low + 1e-9} == constants
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: constant strings minimize H (n=m+1, m+2) and Renyi (n=m+1) for m<=10 ({elapsed:.1f}s)")


def test_c09_g_monotonicity():
    t0 = time.perf_counter()
    cache_1: dict[str, float] = {}
    cache_2: dict[str, float] = {}
    for m in range(1, 11):
        for x in all_bits(m):
            chain = g_chain(x)
            for cache, predict in (
                (cache_1, predicted_weights_single),
                (cache_2, predicted_weights_double),
            ):
                hs = []
                for s in chain:
                    if s not in cache:
                        cache[s] = shannon_entropy(predict(s))
                    hs.append(cache[s])
                assert all(a > b + 1e-9 for a, b in zip(hs, hs[1:]))
    for k1 in range(1, 51):
        for k2 in range(1, 51):
            assert delta_single(k1, k2) > 0
    assert g_chain("101010") == CHAIN_8
    for s, frozen in zip(CHAIN_8, CHAIN_8_H):
        assert abs(shannon_entropy(predicted_weights_double(s)) - frozen) < 1e-9
    assert all(a > b + 1e-9 for a, b in zip(CHAIN_8_H, CHAIN_8_H[1:]))
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: g-steps strictly lower H, delta grid positive, frozen chain reproduced ({elapsed:.1f}s)")


def test_c10_identities_and_sweep_ranking():
    t0 = time.perf_counter()
    def compositions(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    checked = 0
    for m in range(1, 13):
        for ks in compositions(m):
            lhs, rhs = double_count_identity(ks)
            assert lhs == rhs
            lhs, rhs = double_weight_identity(ks)
            assert lhs == rhs
            checked += 1

    m, n = 5, 8
    shannon = {}
    for x in all_bits(m):
        d = weight_distribution(n, x)
        h = shannon_entropy(d)
        shannon[x] = h
        hmin = min_entropy(d)
        for alpha in (2.0, 3.0):
            r = renyi_entropy(d, alpha)
            assert hmin <= r + 1e-12
            assert r <= h + 1e-12
    low = min(shannon.values())
    top = max(shannon.values())
    assert {x for x, v in shannon.items() if v <= low + 1e-9} == {"00000", "11111"}
    assert {x for x, v in shannon.items() if v >= top - 1e-9} == {"01010", "10101"}
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 10: both identities hold on {checked} compositions; m=5,n=8 sweep ranks as required ({elapsed:.1f}s)")
