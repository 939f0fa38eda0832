"""The self-check suites behind `delkit verify`.

Each suite re-derives closed forms of the paper from enumeration and returns
one row (case, lhs, rhs, ok) per check.  Only `delkit verify` imports this
module, so no other CLI start compiles it.  cli.SUITES names each suite's
function here, with its default --max-m and longest n - m; the CLI refuses
an over-budget --max-m or n before this module loads.
"""
from __future__ import annotations

from collections import Counter

from . import entropy as ent
from . import space
from .cli import _all_bits

Row = tuple[str, str, str, bool]


def _multiset_text(counts: dict[int, int]) -> str:
    return " ".join(f"{w}:{counts[w]}" for w in sorted(counts)) or "-"


def _compositions(m: int):
    """All compositions of m into positive parts, in lex order."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in _compositions(m - first):
            yield (first,) + rest


def clusters(max_m: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(0, max_m + 1):
        for n in range(m, m + 4):
            for h in range(0, m + 1):
                x = "1" * h + "0" * (m - h)
                members = space.enumerate_supersequences(n, x, budget)
                tally = Counter(y.count("1") - h for y, _ in members)
                for c in range(0, n - m + 1):
                    closed = space.cluster_size_closed(n, m, h, c)
                    simple = space.cluster_size_simple(n, m, h, c)
                    rec = space.cluster_size_recursive(n, x, c)
                    enum = tally[c]
                    ok = closed == simple == rec == enum
                    rows.append(
                        (f"n={n} m={m} h={h} c={c}", str(closed), str(enum), ok)
                    )
    return rows


def initials(max_m: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        for n in range(m, m + 4):
            for x in _all_bits(m):
                h = x.count("1")
                members = space.enumerate_supersequences(n, x, budget)
                tally = Counter(
                    y.count("1") - h for y, _ in members if space.is_maximal_initial(y, x)
                )
                total = sum(tally.values())
                ok = total == space.maximal_initials_total(n, m) and all(
                    tally[c] == space.maximal_initials_cluster(n, m, h, c)
                    for c in range(0, n - m + 1)
                )
                rows.append(
                    (f"n={n} x={x}", str(total), str(space.maximal_initials_total(n, m)), ok)
                )
    return rows


def singletons(max_m: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        for n in range(m, m + 4):
            for x in _all_bits(m):
                h = x.count("1")
                singles = [y for y, w in space.enumerate_supersequences(n, x, budget) if w == 1]
                tally = Counter(y.count("1") - h for y in singles)
                closed = space.singleton_count(n, x)
                ok = len(singles) == closed and all(
                    tally[c] == space.singleton_cluster_count(n, x, c)
                    for c in range(0, n - m + 1)
                )
                rows.append((f"n={n} x={x}", str(closed), str(len(singles)), ok))
    return rows


def _lemma_rows(max_m: int, extra: int, budget: int) -> list[Row]:
    predict = ent.predicted_weights_single if extra == 1 else ent.predicted_weights_double
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        n = m + extra
        for x in _all_bits(m):
            predicted = predict(x).counts
            observed = Counter(w for _, w in space.enumerate_supersequences(n, x, budget))
            rows.append(
                (
                    f"x={x}",
                    _multiset_text(predicted),
                    _multiset_text(observed),
                    predicted == observed,
                )
            )
    return rows


def lemma1(max_m: int, budget: int) -> list[Row]:
    return _lemma_rows(max_m, 1, budget)


def lemma4(max_m: int, budget: int) -> list[Row]:
    return _lemma_rows(max_m, 2, budget)


def _identity_rows(max_m: int, fn) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        for ks in _compositions(m):
            lhs, rhs = fn(ks)
            rows.append((",".join(str(k) for k in ks), str(lhs), str(rhs), lhs == rhs))
    return rows


def identity_b(max_m: int, _budget: int) -> list[Row]:
    return _identity_rows(max_m, ent.double_count_identity)


def identity_c(max_m: int, _budget: int) -> list[Row]:
    return _identity_rows(max_m, ent.double_weight_identity)


def entropy_min(max_m: int, _budget: int) -> list[Row]:
    def argmin_text(values: dict[str, float]) -> str:
        low = min(values.values())
        return "{" + ",".join(sorted(x for x, v in values.items() if v <= low + 1e-9)) + "}"

    rows: list[Row] = []
    for m in range(1, max_m + 1):
        expected = "{" + ",".join(sorted(["0" * m, "1" * m])) + "}"
        for extra, predict in (
            (1, ent.predicted_weights_single),
            (2, ent.predicted_weights_double),
        ):
            n = m + extra
            got = argmin_text({x: ent.shannon_entropy(predict(x)) for x in _all_bits(m)})
            rows.append((f"m={m} n={n} measure=H", got, expected, got == expected))
        n = m + 1
        dists = {x: ent.predicted_weights_single(x) for x in _all_bits(m)}
        for a in (0.5, 2.0, 3.0):
            got = argmin_text({x: ent.renyi_entropy(d, a) for x, d in dists.items()})
            rows.append((f"m={m} n={n} measure=R{a:g}", got, expected, got == expected))
    return rows
