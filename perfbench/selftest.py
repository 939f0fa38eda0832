"""Self-test of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 perfbench/selftest.py

Checks that every metric a run emits is declared in BENCHMARK.json with a
valid name, that a deliberately wrong answer fed to each check raises the
error ratio, that a seed always yields the same corpus digest and exact
counters, and that the counters' closed forms agree with delkit's.  Runs
each workload once untraced and once traced in a separate work directory;
takes well under a minute.
"""
from __future__ import annotations

import json
import re

import run
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def shrink() -> None:
    wl.DENSE_PAIRS = 20
    wl.LONG_PAIRS, wl.LONG_N = 2, (60, 80)
    wl.SWEEP_ARGV = ["sweep", "--m", "4", "--n", "6", "--alpha", "0.5", "2"]
    wl.DIST_N = 9
    run.WORK = wl.ROOT / ".perfbench_work" / "selftest"
    run.SETUP_REPS = run.IMPORT_REPS = run.MIN_REPS = 1


def check_declarations() -> dict[str, set[str]]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    expect(all(NAME.match(n) for n in names), "declared names use letters, digits, _ . -")
    expect(len(names) == len(set(names)), "declared names are unique")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workloads match")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")
    return {kind: {m["name"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def check_emitted(declared: dict[str, set[str]]) -> None:
    for name in wl.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            r = run.run_workload(name, 7, 1, trace)
            emitted = set(r["result"]["metrics"])
            tag = f"{name} trace={int(trace)}"
            expect(emitted == declared[kind], f"{tag}: emits exactly the declared {kind} metrics")
            expect(all(NAME.match(k) for k in emitted), f"{tag}: emitted names are valid")
            expect(r["result"]["correct"] and r["info"]["error_ratio"] == 0.0,
                   f"{tag}: correct with error_ratio 0")


def check_wrong_answers() -> None:
    job = wl.make_job("pairs-dense", 3)
    check = run.Checker(job, wl.oracle_counts(job.pairs), b"")
    dk = wl.import_delkit()
    right = [dk.count_embeddings_dp(y, x) for y, x in job.pairs]
    check.pairs({"dp": right, "runs": list(right)})
    expect(check.failed == 0, "pairs: right answers pass")
    wrong = list(right)
    wrong[1] += 1
    check.pairs({"dp": right, "runs": wrong})
    expect(check.failed == 1, "pairs: a wrong runs count is a failure")
    oracle_pair = min(check.oracle, default=None)
    expect(oracle_pair is not None, "pairs: the tiny corpus has an oracle-checked pair")
    if oracle_pair is not None:
        both = list(right)
        both[oracle_pair] += 1
        check.pairs({"dp": both, "runs": list(both)})
        expect(check.failed == 2, "pairs: dp and runs agreeing on a wrong count fail the oracle")
    check.pairs(None)
    expect(check.failed == 2 + len(job.pairs), "pairs: a crashed child fails every pair")
    for name in ("sweep", "distribution"):
        job = wl.make_job(name, 3)
        check = run.Checker(job, {}, wl.expected_output(job))
        out = run.WORK / f"wrong-{name}.csv"
        out.write_bytes(check.expected)
        check.cli(0, out)
        expect(check.failed == 0, f"{name}: the expected output passes")
        text = check.expected.decode()
        out.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
        check.cli(0, out)
        check.cli(1, out.with_suffix(".missing"))
        expect(check.failed == 2 and check.failed / check.attempted > 0,
               f"{name}: a changed digit and a failed exit both raise error_ratio")


def check_determinism() -> None:
    for name in wl.WORKLOADS:
        a, b = wl.make_job(name, 11), wl.make_job(name, 11)
        expect(a.digest() == b.digest(), f"{name}: same seed, same digest")
        expect(wl.exact_counters(a) == wl.exact_counters(b), f"{name}: same seed, same counters")
        if name != "sweep":  # sweep's input does not depend on the seed
            digests = {wl.make_job(name, seed).digest() for seed in range(8)}
            expect(len(digests) > 1, f"{name}: other seeds, other digests")
    dk = wl.import_delkit()
    pairs = wl.dense_pairs(5) + wl.long_pairs(5)
    same = all(
        wl._block_maps(y, x) == dk.sigma_count(dk.Rle.encode(x).block_count,
                                               dk.Rle.encode(y).block_count - (y[0] != x[0]))
        for y, x in pairs
    )
    expect(same, "block-map counts equal delkit's sigma_count")
    expect(all(wl.upsilon_size(n, m) == dk.upsilon_size(n, m) for n in range(12) for m in range(n + 1)),
           "string counts equal delkit's upsilon_size")
    strata = [len(y) for y, _ in wl.dense_pairs(5)] == [len(y) for y, _ in wl.dense_pairs(6)]
    expect(strata, "pairs-dense: every seed shares the length strata")


def main() -> int:
    shrink()
    run.WORK.mkdir(parents=True, exist_ok=True)
    declared = check_declarations()
    check_determinism()
    check_wrong_answers()
    check_emitted(declared)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
