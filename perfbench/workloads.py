"""Workload definitions: seeded inputs, exact work counters and output checks.

Every input is a pure function of (workload, seed), so two runs with the same
seed use the same inputs and report the same corpus digest.  The checks here
compare the program's output with a route other than the one being timed:
the runs route and the brute-force oracle for embedding counts, the d = 2
closed form for `sweep`, and the numpy full-space scan for `distribution`.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Run-count profiles of the pairs-dense corpus come from this fixed draw, so
# every workload seed shares one block-map total; the seed picks the bits.
PROFILE_SEED = 20180202
HEAVY_SHARE = 0.01
FLIP = str.maketrans("01", "10")
DENSE_PAIRS = 400
DENSE_N = range(24, 41)
DENSE_FRACS = (0.25, 0.5)
LONG_PAIRS = 16
LONG_N = (1000, 2000)
LONG_FRACS = (0.10, 0.25)
LONG_RUN = (6, 12)
SWEEP_ARGV = ["sweep", "--m", "11", "--n", "13", "--alpha", "0.5", "2"]
DIST_X, DIST_N = "0110101", 19


class MissingProgram(RuntimeError):
    """The checkout holds no delkit sources to benchmark."""


def require_program() -> None:
    if not (SRC / "delkit" / "__init__.py").is_file():
        raise MissingProgram(f"no delkit package under {SRC}")


def import_delkit():
    """Import delkit from this checkout's src/, never from anywhere else."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import delkit

    if Path(delkit.__file__).resolve().parent != SRC / "delkit":
        raise MissingProgram(f"delkit imported from {delkit.__file__}, not {SRC}")
    return delkit


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "delkit").glob("*.py"))
    )


def _runs(s: str) -> int:
    return 1 + sum(1 for a, b in zip(s, s[1:]) if a != b)


def _delete(rng: random.Random, y: str, k: int, protected: frozenset = frozenset()) -> str:
    pool = [i for i in range(len(y)) if i not in protected]
    gone = set(rng.sample(pool, k))
    return "".join(c for i, c in enumerate(y) if i not in gone)


def _profile(y: str, x: str) -> tuple[int, int, int]:
    """(runs of y, runs of y after leading-symbol alignment, runs of x)."""
    ry = _runs(y)
    return ry, ry if x[0] == y[0] else ry - 1, _runs(x)


def _y_with_runs(rng: random.Random, n: int, runs: int) -> str:
    """Uniform over the length-n strings with exactly `runs` runs."""
    cuts = sorted(rng.sample(range(1, n), runs - 1)) + [n]
    sym = rng.choice("01")
    parts, prev = [], 0
    for c in cuts:
        parts.append(sym * (c - prev))
        prev, sym = c, sym.translate(FLIP)
    return "".join(parts)


def _dense_strata() -> list[tuple[int, int, tuple[int, int, int], tuple[str, str] | None]]:
    """Per pair: (n, deleted count, run profile, fixed pair or None).

    A deletion-channel draw with a fixed seed.  A pair whose block maps are
    at least HEAVY_SHARE of the draw's total is kept whole: these few pairs
    take about half the runs route's time, and their cost depends on their
    run lengths, so redrawing them would make the run depend on the seed.
    """
    rng = random.Random(PROFILE_SEED)
    draw = []
    for i in range(DENSE_PAIRS):
        n = DENSE_N[i % len(DENSE_N)]
        k = round(n * DENSE_FRACS[(i // len(DENSE_N)) % len(DENSE_FRACS)])
        y = "".join(rng.choice("01") for _ in range(n))
        draw.append((n, k, y, _delete(rng, y, k)))
    maps = [_block_maps(y, x) for _, _, y, x in draw]
    return [
        (n, k, _profile(y, x), (y, x) if m >= HEAVY_SHARE * sum(maps) else None)
        for (n, k, y, x), m in zip(draw, maps)
    ]


def _block_maps(y: str, x: str) -> int:
    """Block maps the runs route enumerates for (y, x): sigma_count of the
    aligned run counts, C(lx + u, u) with u = (t - lx) / 2.  Restated with
    the stdlib so the harness never imports delkit; the self-test checks it
    against delkit's sigma_count."""
    ry, lx = _profile(y, x)[1:]
    t = ry if (ry - lx) % 2 == 0 else ry - 1
    return comb(lx + (t - lx) // 2, (t - lx) // 2) if t >= lx else 0


def dense_pairs(seed: int) -> list[tuple[str, str]]:
    """y uniform over {0,1}^n, x = y minus a random quarter or half.

    Stratified by n, deletion share and run profile: pair i is drawn from the
    channel conditioned on the profile of stratum i, so the heavy tail of the
    block-map count is the same for every seed instead of deciding the run.
    The heaviest strata keep their reference pair, complemented by the seed.
    """
    rng = random.Random(seed)
    pairs = []
    for n, k, prof, fixed in _dense_strata():
        if fixed is None:
            pairs.append(_pair_with_profile(rng, n, k, prof))
        else:
            flip = rng.random() < 0.5
            pairs.append(tuple(s.translate(FLIP) if flip else s for s in fixed))
    return pairs


def _pair_with_profile(rng: random.Random, n: int, k: int, prof: tuple[int, int, int]) -> tuple[str, str]:
    while True:
        y = _y_with_runs(rng, n, prof[0])
        for _ in range(64):
            x = _delete(rng, y, k)
            if _profile(y, x) == prof:
                return y, x


def long_pairs(seed: int) -> list[tuple[str, str]]:
    """y of evenly spread length in LONG_N, built from runs of length >= 6;
    x deletes 10-25% of y's positions but keeps one symbol of every run, so
    no run vanishes and the runs route sees exactly one block map."""
    rng = random.Random(seed)
    lo, hi = LONG_N
    flo, fhi = LONG_FRACS
    count, pairs = LONG_PAIRS, []
    for i in range(count):
        n = lo + (hi - lo) * (2 * i + 1) // (2 * count)
        frac = flo + (fhi - flo) * ((7 * i) % count + 0.5) / count
        lengths, left = [], n
        while left > sum(LONG_RUN):
            lengths.append(rng.randint(*LONG_RUN))
            left -= lengths[-1]
        lengths += [left] if left <= LONG_RUN[1] else [left // 2, left - left // 2]
        sym, parts, keep, start = rng.choice("01"), [], set(), 0
        for length in lengths:
            parts.append(sym * length)
            keep.add(start + rng.randrange(length))
            start += length
            sym = sym.translate(FLIP)
        y = "".join(parts)
        pairs.append((y, _delete(rng, y, round(n * frac), frozenset(keep))))
    return pairs


def dist_x(seed: int) -> str:
    """A seeded member of DIST_X's orbit under reversal and complement.

    All four have the same histogram and cluster row count.  Over all 7-bit
    x, peak RSS differs by up to 13% with the row count, which would make
    the run depend on the seed.
    """
    comp = DIST_X.translate(FLIP)
    return random.Random(seed).choice([DIST_X, DIST_X[::-1], comp, comp[::-1]])


@dataclass
class Job:
    """One workload instance: its inputs and what one operation produces."""

    workload: str
    seed: int
    kind: str  # "pairs": in-process library calls; "cli": one delkit subprocess
    entry: str  # module a user imports first
    pairs: list[tuple[str, str]] = field(default_factory=list)
    argv: list[str] = field(default_factory=list)

    def payload(self) -> dict:
        return {"workload": self.workload, "seed": self.seed, "kind": self.kind,
                "entry": self.entry, "pairs": self.pairs, "argv": self.argv}

    def digest(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


WORKLOADS = ("pairs-dense", "pairs-long", "sweep", "distribution")


def make_job(workload: str, seed: int) -> Job:
    if workload == "pairs-dense":
        return Job(workload, seed, "pairs", "delkit", pairs=dense_pairs(seed))
    if workload == "pairs-long":
        return Job(workload, seed, "pairs", "delkit", pairs=long_pairs(seed))
    if workload == "sweep":
        return Job(workload, seed, "cli", "delkit.cli", argv=list(SWEEP_ARGV))
    if workload == "distribution":
        argv = ["distribution", "--x", dist_x(seed), "--n", str(DIST_N), "--by-cluster"]
        return Job(workload, seed, "cli", "delkit.cli", argv=argv)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def enumerate_calls(job: Job) -> list[tuple[int, str]]:
    """(n, x) of every enumerate_supersequences call the CLI job makes."""
    if job.workload == "sweep":
        m, n = int(_arg(job.argv, "--m")), int(_arg(job.argv, "--n"))
        return [(n, format(i, f"0{m}b")) for i in range(1 << m)]
    if job.workload == "distribution":
        return [(int(_arg(job.argv, "--n")), _arg(job.argv, "--x"))]
    return []


def upsilon_size(n: int, m: int) -> int:
    """Length-n supersequences of an m-bit x (delkit's upsilon_size, restated
    like _block_maps)."""
    return sum(comb(n, r) for r in range(m, n + 1))


def exact_counters(job: Job) -> dict[str, int]:
    """Work counts derived from the generated inputs alone."""
    calls = enumerate_calls(job)
    return {
        "embed.runs.calls": len(job.pairs),
        "embed.runs.block_maps": sum(_block_maps(y, x) for y, x in job.pairs),
        "embed.dp.calls": len(job.pairs),
        "embed.dp.cells": sum(len(y) * len(x) for y, x in job.pairs),
        "space.enumerate.calls": len(calls),
        "space.enumerate.strings": sum(upsilon_size(n, len(x)) for n, x in calls),
    }


def items_per_op(job: Job, counters: dict[str, int]) -> int:
    """Items one operation finishes: pairs, x rows or supersequences."""
    if job.workload == "sweep":
        return counters["space.enumerate.calls"]
    if job.workload == "distribution":
        return counters["space.enumerate.strings"]
    return len(job.pairs)


# ---------------------------------------------------------------- checks


def oracle_counts(pairs: list[tuple[str, str]]) -> dict[int, int]:
    """oracle_count for every pair that fits the oracle's own budget."""
    dk = import_delkit()
    b = dk.OracleBudget()
    return {
        i: dk.oracle_count(y, x)
        for i, (y, x) in enumerate(pairs)
        if len(y) <= b.max_n and comb(len(y), len(x)) <= b.max_subsets
    }


def check_pairs(dp: list, runs: list, oracle: dict[int, int], count: int) -> int:
    """Pairs whose dp and runs counts disagree, are missing, or miss the oracle."""
    if len(dp) != count or len(runs) != count:
        return count
    failed = 0
    for i, (a, b) in enumerate(zip(dp, runs)):
        if a is None or a != b or oracle.get(i, a) != a:
            failed += 1
    return failed


def _fmt(v: float) -> str:
    return format(v, ".17g")


def expected_output(job: Job) -> bytes:
    """CSV the CLI job must print, built from the route it does not time."""
    dk = import_delkit()
    if job.workload == "sweep":
        m, n = int(_arg(job.argv, "--m")), int(_arg(job.argv, "--n"))
        alphas = [float(a) for a in job.argv[job.argv.index("--alpha") + 1 :]]
        if n != m + 2:
            raise ValueError("the sweep check uses the d = 2 closed form")
        lines = [f"# m={m}", f"# n={n}", "# alphas=" + ",".join(f"{a:g}" for a in alphas)]
        lines.append(",".join(["x", "n", "H"] + [f"R_{a:g}" for a in alphas] + ["Hmin"]))
        for i in range(1 << m):
            x = format(i, f"0{m}b")
            d = dk.predicted_weights_double(x)
            vals = [dk.shannon_entropy(d)] + [dk.renyi_entropy(d, a) for a in alphas]
            lines.append(",".join([x, str(n)] + [_fmt(v) for v in vals + [dk.min_entropy(d)]]))
        return ("\n".join(lines) + "\n").encode()
    import numpy as np

    x, n = _arg(job.argv, "--x"), int(_arg(job.argv, "--n"))
    m, h = len(x), x.count("1")
    table = dk.oracle_weight_table(n, x)
    hit = table > 0
    cluster = np.bitwise_count(np.arange(1 << n, dtype=np.int64))[hit].astype(np.int64) - h
    keys, counts = np.unique(np.stack([cluster, table[hit]]), axis=1, return_counts=True)
    lines = [
        f"# x={x}",
        f"# n={n}",
        f"# mu={comb(n, m) * 2 ** (n - m)}",
        f"# upsilon={upsilon_size(n, m)}",
        "cluster,weight,count",
    ]
    lines += [f"{c},{w},{k}" for (c, w), k in zip(keys.T.tolist(), counts.tolist())]
    return ("\n".join(lines) + "\n").encode()
