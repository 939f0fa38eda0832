"""The self-check suites behind `delkit verify`.

Each suite checks closed forms of the paper against the compatible sets and
returns one row (case, lhs, rhs, ok) per check.  clusters, singletons and
lemma (lemma1, lemma4) read the weight histograms from space._weight_histograms,
one call per (m, n) over x in lex order; initials tests each member string, so
it lists them with space.enumerate_supersequences.  Only `delkit verify`
imports this module, once the CLI has refused an over-budget --max-m or n; it
calls the function cli.SUITES names with (max_m, extra, budget), extra being
the suite's longest n - m there, so each suite's n range is stated once.
"""
from __future__ import annotations

from collections import Counter

from . import entropy as ent
from . import space
from .clusters import (
    cluster_size_recursive, cluster_size_simple, is_maximal_initial, maximal_initials_cluster,
    maximal_initials_total, singleton_cluster_count, singleton_count,
)
from .core import _all_bits
from .deletions import (
    double_count_identity, double_weight_identity, predicted_weights_double,
    predicted_weights_single,
)

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


def clusters(max_m: int, extra: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(0, max_m + 1):
        for n in range(m, m + extra + 1):
            xs = ["1" * h + "0" * (m - h) for h in range(0, m + 1)]
            for h, (_, parts) in enumerate(space._weight_histograms(n, xs, True, budget)):
                for c in range(0, n - m + 1):
                    closed = space.cluster_size_closed(n, m, h, c)
                    simple = cluster_size_simple(n, m, h, c)
                    rec = cluster_size_recursive(n, xs[h], c)
                    enum = sum(parts.get(c, {}).values())
                    ok = closed == simple == rec == enum
                    rows.append((f"n={n} m={m} h={h} c={c}", str(closed), str(enum), ok))
    return rows


def initials(max_m: int, extra: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        for n in range(m, m + extra + 1):
            for x in _all_bits(m):
                h = x.count("1")
                members = space.enumerate_supersequences(n, x, budget)
                tally = Counter(
                    y.count("1") - h for y, _ in members if is_maximal_initial(y, x)
                )
                total = sum(tally.values())
                ok = total == maximal_initials_total(n, m) and all(
                    tally[c] == maximal_initials_cluster(n, m, h, c)
                    for c in range(0, n - m + 1)
                )
                rows.append(
                    (f"n={n} x={x}", str(total), str(maximal_initials_total(n, m)), ok)
                )
    return rows


def singletons(max_m: int, extra: int, budget: int) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        xs = list(_all_bits(m))
        for n in range(m, m + extra + 1):
            for x, (counts, parts) in zip(xs, space._weight_histograms(n, xs, True, budget)):
                singles, closed = counts.get(1, 0), singleton_count(n, x)
                ok = singles == closed and all(
                    parts.get(c, {}).get(1, 0) == singleton_cluster_count(n, x, c)
                    for c in range(0, n - m + 1)
                )
                rows.append((f"n={n} x={x}", str(closed), str(singles), ok))
    return rows


def lemma(max_m: int, extra: int, budget: int) -> list[Row]:
    predict = predicted_weights_single if extra == 1 else predicted_weights_double
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        xs = list(_all_bits(m))
        for x, (observed, _) in zip(xs, space._weight_histograms(m + extra, xs, budget=budget)):
            predicted = predict(x).counts
            text = _multiset_text(predicted), _multiset_text(observed)
            rows.append((f"x={x}", *text, predicted == observed))
    return rows


def _identity_rows(max_m: int, fn) -> list[Row]:
    rows: list[Row] = []
    for m in range(1, max_m + 1):
        for ks in _compositions(m):
            lhs, rhs = fn(ks)
            rows.append((",".join(str(k) for k in ks), str(lhs), str(rhs), lhs == rhs))
    return rows


def identity_b(max_m: int, _extra: None, _budget: int) -> list[Row]:
    return _identity_rows(max_m, double_count_identity)


def identity_c(max_m: int, _extra: None, _budget: int) -> list[Row]:
    return _identity_rows(max_m, double_weight_identity)


def entropy_min(max_m: int, _extra: None, _budget: int) -> list[Row]:
    def argmin_text(values: dict[str, float]) -> str:
        low = min(values.values())
        return "{" + ",".join(sorted(x for x, v in values.items() if v <= low + 1e-9)) + "}"

    rows: list[Row] = []
    for m in range(1, max_m + 1):
        expected = "{" + ",".join(sorted(["0" * m, "1" * m])) + "}"
        for extra, predict in (
            (1, predicted_weights_single),
            (2, predicted_weights_double),
        ):
            n = m + extra
            got = argmin_text({x: ent.shannon_entropy(predict(x)) for x in _all_bits(m)})
            rows.append((f"m={m} n={n} measure=H", got, expected, got == expected))
        n = m + 1
        dists = {x: predicted_weights_single(x) for x in _all_bits(m)}
        for a in (0.5, 2.0, 3.0):
            got = argmin_text({x: ent.renyi_entropy(d, a) for x, d in dists.items()})
            rows.append((f"m={m} n={n} measure=R{a:g}", got, expected, got == expected))
    return rows
