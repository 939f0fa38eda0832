"""One benchmark operation in a fresh interpreter, so delkit's caches start empty.

    python3 perfbench/child.py {prepare|time|trace|alloc} JOB.json

`prepare` computes what the checks need (it is the only place the oracle
runs), `time` runs the job untraced and reports its in-process wall and CPU
time, `trace` runs it with spans around delkit's public functions, and
`alloc` measures tracemalloc peaks of the layers that hold memory.  A pairs
job counts every pair with both routes; a cli job calls delkit.cli.main in
process with its output sent to a file.  The result goes to stdout as one
JSON object.
"""
from __future__ import annotations

import json
import sys
import tracemalloc
from time import perf_counter, process_time

from tracing import Tracer
import workloads as wl

MB = 1 << 20


def _count(fn, y: str, x: str):
    try:
        return fn(y, x)
    except Exception:  # a raising route is a failed operation, not a crash
        return None


def run_pairs(pairs, tracer: Tracer | None) -> dict:
    import delkit.embed as embed

    dp, runs = [], []
    start, cpu = perf_counter(), process_time()
    for i, (y, x) in enumerate(pairs):
        if tracer is not None:
            tracer.job = i
        dp.append(_count(embed.count_embeddings_dp, y, x))
        runs.append(_count(embed.count_embeddings_runs, y, x))
    return {"wall_s": perf_counter() - start, "cpu_s": process_time() - cpu, "dp": dp, "runs": runs}


def run_cli(argv: list[str], out: str) -> dict:
    import delkit.cli as cli

    start = perf_counter()
    try:
        code = cli.main(argv + ["--out", out])
    except SystemExit as e:
        code = e.code
    return {"wall_s": perf_counter() - start, "exit": code}


def alloc_peaks(job: dict) -> dict:
    """Peak traced allocation above the level at the start of each layer's work."""
    import delkit.embed as embed
    import delkit.space as space

    tracemalloc.start()
    runs_peak = enum_peak = 0
    base = tracemalloc.get_traced_memory()[0]
    for y, x in job["pairs"]:
        embed.count_embeddings_runs(y, x)
    if job["pairs"]:
        runs_peak = tracemalloc.get_traced_memory()[1] - base
    for n, x in job["enumerate_calls"][:: job["alloc_stride"]]:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in space.enumerate_supersequences(n, x):
            pass
        enum_peak = max(enum_peak, tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    return {"embed.runs.alloc_peak_mb": runs_peak / MB, "space.enumerate.alloc_peak_mb": enum_peak / MB}


def prepare(body: dict) -> dict:
    """Oracle counts, the expected CLI output and, for a traced run, the
    share of block maps with nonzero weight."""
    job = wl.Job(**{k: body[k] for k in ("workload", "seed", "kind", "entry", "pairs", "argv")})
    result = {"oracle": wl.oracle_counts(job.pairs)}
    if job.kind == "cli":
        with open(body["expected"], "wb") as f:
            f.write(wl.expected_output(job))
    if body["trace"]:
        dk = wl.import_delkit()
        maps = wl.exact_counters(job)["embed.runs.block_maps"]
        useful = sum(len(dk.block_map_weights(y, x)) for y, x in job.pairs)
        result["useful_ratio"] = useful / maps if maps else 0.0
    return result


def main(argv: list[str]) -> int:
    mode, path = argv
    with open(path, encoding="utf-8") as f:
        job = json.load(f)
    wl.import_delkit()
    if job["kind"] == "cli":
        import delkit.cli  # noqa: F401  (the entry module, loaded before tracing)
    if mode == "prepare":
        result = prepare(job)
    elif mode == "alloc":
        result = alloc_peaks(job)
    else:
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install()
        if job["kind"] == "pairs":
            result = run_pairs(job["pairs"], tracer)
        else:
            result = run_cli(job["argv"], job["out"])
        if tracer is not None:
            result.update(drained_strings=tracer.drained, paused_s=tracer.paused, spans=tracer.spans)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
