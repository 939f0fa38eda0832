"""delkit benchmark: closed loop, one caller, one child process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (see README.md): pairs-dense and pairs-long count embeddings with
both library routes in a fresh child interpreter; sweep and distribution run
the delkit CLI as a subprocess.  With --trace 0 the run reports the
end-to-end metrics (setup_s, items_per_s at reference host speed,
peak_rss_mb); with --trace 1 it reports the per-layer metrics from a
separate traced child, a tracemalloc child, `python -X importtime`, and the
tracing overhead.  Every operation's output is checked outside the timed
region; the last stdout line is one JSON object {"correct", "attempted",
"failed", "metrics"}.  This process never imports delkit; children do.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time, sleep

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
WORK = wl.ROOT / ".perfbench_work"
PY = sys.executable
# Fast-host times of the two references on the 2-vCPU Xeon this benchmark
# was sized on; they only set the scale of the scaled metrics.
SLICE_REFERENCE_S = 0.0005
IMPORT_REFERENCE_S = 0.13
IMPORT_REFERENCE = "import numpy"
SETUP_REPS = 12
IMPORT_REPS = 5
MIN_REPS = 3
SLICE_GAP_S = 0.02
CHILD_TIMEOUT_S = 60.0


class Child:
    """Outcome of one child process: wall and CPU time, exit code, peak RSS,
    stdout, and the host speed it ran at (CPU time per reference slice)."""

    def __init__(self, wall: float, cpu: float, code: int, rss_mb: float, out: Path,
                 slice_s: float | None) -> None:
        self.wall, self.cpu, self.code, self.rss_mb, self.out = wall, cpu, code, rss_mb, out
        self.slice_s = slice_s

    def json(self) -> dict | None:
        try:
            return json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None


def reference_slice() -> None:
    """A fixed sliver of pure-Python work: small-int loop, tuple and string
    churn, big-int additions, the mix of work delkit does."""
    s = 0
    for i in range(3_000):
        s += i * i % 7
    stack = [("", (1, 0, 0, 0, 0))]
    while stack:
        prefix, counts = stack.pop()
        if len(prefix) == 6:
            continue
        for bit in "10":
            grown = list(counts)
            for j in range(4, 0, -1):
                if "0110"[j - 1] == bit:
                    grown[j] += grown[j - 1]
            stack.append((prefix + bit, tuple(grown)))
    big = [1] + [0] * 100
    for k in range(30):
        for j in range(100, 0, -1):
            if (j + k) % 2:
                big[j] += big[j - 1]


def spawn(cmd: list[str], out: Path, sample: bool = False) -> Child:
    """Run cmd to completion with stdout to `out` and stderr beside it.

    Wall time spans start to reap; CPU time and peak RSS are this child's
    own, from wait4.  With `sample`, while the child runs this process
    times a reference_slice every SLICE_GAP_S on the CPU they share (see
    main): the CPU time of one slice is the host speed the child ran at.
    """
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    slices, slice_cpu = 0, 0.0
    with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, env=env, cwd=wl.ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            pid = 0
            while sample and not pid:
                t = process_time()
                reference_slice()
                slice_cpu += process_time() - t
                slices += 1
                sleep(SLICE_GAP_S)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if not pid:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss / 1024, out,
                 slice_cpu / slices if slices else None)


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def write_job(job: wl.Job, trace: bool) -> tuple[Path, Path, Path]:
    tag = f"{job.workload}-{job.seed}"
    path, out, expected = WORK / f"job-{tag}.json", WORK / f"out-{tag}.csv", WORK / f"expected-{tag}.csv"
    calls = wl.enumerate_calls(job)
    body = dict(job.payload(), out=str(out), expected=str(expected), trace=trace,
                enumerate_calls=calls, alloc_stride=max(1, len(calls) // 256))
    path.write_text(json.dumps(body), encoding="utf-8")
    return path, out, expected


def prepare(job_path: Path) -> dict:
    """Oracle counts and expected output, from a child.

    The harness itself never imports delkit or numpy: a child started with
    vfork and exec inherits its parent's peak RSS as the floor of its own
    ru_maxrss, so a heavy parent would inflate every peak_rss_mb.
    """
    c = spawn([PY, str(HERE / "child.py"), "prepare", str(job_path)], job_path.with_suffix(".prep"))
    result = c.json() if c.code == 0 else None
    if result is None:
        raise RuntimeError(f"preparing the job failed; see {c.out.with_suffix('.err')}")
    result["oracle"] = {int(k): v for k, v in result["oracle"].items()}
    return result


class Checker:
    """Counts attempted and failed operations against an independent route."""

    def __init__(self, job: wl.Job, oracle: dict[int, int], expected: bytes) -> None:
        self.job, self.oracle, self.expected = job, oracle, expected
        self.attempted = self.failed = 0

    def pairs(self, result: dict | None) -> None:
        n = len(self.job.pairs)
        self.attempted += n
        if result is None:
            self.failed += n
        else:
            self.failed += wl.check_pairs(result.get("dp", []), result.get("runs", []), self.oracle, n)

    def cli(self, code: int, out: Path) -> None:
        self.attempted += 1
        ok = code == 0 and out.is_file() and out.read_bytes() == self.expected
        self.failed += not ok

    def child(self, c: Child) -> dict | None:
        """A measuring child with no output to check: only its exit counts."""
        result = c.json() if c.code == 0 else None
        self.attempted += 1
        self.failed += result is None
        return result


def setup_once(entry: str) -> tuple[float, float]:
    """CPU time of a fresh interpreter that imports the entry module and
    exits: scaled to reference host speed, and as measured.

    Start-up slows with the host's memory and file system more than with
    its CPU, and most of it is loading numpy's C extensions.  So the
    reference is a fresh interpreter that imports numpy alone, timed right
    before and after.  Whatever delkit adds to, or takes from, its import
    moves the ratio; a slow host phase moves both and cancels.
    """
    def cpu(code: str) -> float:
        c = spawn([PY, "-c", code], WORK / "setup.txt")
        if c.code != 0:
            raise RuntimeError(f"{code!r} failed; see {c.out.with_suffix('.err')}")
        return c.cpu

    before = cpu(IMPORT_REFERENCE)
    raw = cpu(f"import {entry}")
    ref = (before + cpu(IMPORT_REFERENCE)) / 2
    return raw * IMPORT_REFERENCE_S / ref, raw


def run_once(job: wl.Job, job_path: Path, out: Path, check: Checker, mode: str) -> Child:
    """One operation: the CLI subprocess for an end-to-end cli job, else
    child.py in `mode`.  End-to-end operations sample the host's speed."""
    e2e = mode == "e2e"
    out.unlink(missing_ok=True)
    if job.kind == "cli" and e2e:
        c = spawn([PY, "-m", "delkit.cli", *job.argv], out, sample=True)
        check.cli(c.code, out)
        return c
    res_path = WORK / f"{mode}-{job.workload}-{job.seed}.json"
    c = spawn([PY, str(HERE / "child.py"), "time" if e2e else mode, str(job_path)], res_path, sample=e2e)
    result = c.json() if c.code == 0 else None
    if job.kind == "pairs":
        check.pairs(result)
    else:
        check.cli(c.code if result is None else result["exit"], out)
    return c


def end_to_end(job: wl.Job, job_path: Path, out: Path, seconds: float, check: Checker,
               items: int) -> tuple[dict, dict]:
    setup_once(job.entry)  # compiles bytecode once, as an install would
    setup, rates, raw, slices, rss, walls = [], [], [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_REPS or perf_counter() - start + median(walls) <= seconds:
        # set-up samples interleave with the reps, so both see the same host
        setup.append(setup_once(job.entry))
        failed_before = check.failed
        c = run_once(job, job_path, out, check, "e2e")
        walls.append(c.wall)
        if c.code != 0 or check.failed != failed_before:
            continue
        cpu = c.cpu if job.kind == "cli" else c.json()["cpu_s"]
        raw.append(items / cpu)
        slices.append(c.slice_s)
        # the rate at reference host speed: CPU time scaled by SLICE_REFERENCE_S / slice
        rates.append(raw[-1] * c.slice_s / SLICE_REFERENCE_S)
        rss.append(c.rss_mb)
    while len(setup) < SETUP_REPS:
        setup.append(setup_once(job.entry))
    metrics = {
        "setup_s": median([scaled for scaled, _ in setup]),
        "items_per_s": median(rates),
        "peak_rss_mb": median(rss),
    }
    samples = {"setup_s": [scaled for scaled, _ in setup], "raw_setup_s": [r for _, r in setup],
               "items_per_s": rates, "raw_items_per_cpu_s": raw, "slice_s": slices, "peak_rss_mb": rss}
    return metrics, samples


def import_times(entry: str) -> dict[str, float]:
    """Cumulative import time of the delkit and numpy packages, -X importtime."""
    found: dict[str, list[float]] = {"delkit": [], "numpy": []}
    out = WORK / "importtime.txt"
    for _ in range(IMPORT_REPS):
        spawn([PY, "-X", "importtime", "-c", f"import {entry}"], out)
        for line in out.with_suffix(".err").read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{k}_s": median(v) for k, v in found.items()}


def traced(job: wl.Job, job_path: Path, out: Path, seconds: float, check: Checker,
           counters: dict[str, int], useful_ratio: float) -> dict[str, float]:
    """Per-layer metrics: call and string counts and busy times from the
    spans of traced operations, each paired with an untraced one for the
    overhead; then a tracemalloc child and `-X importtime`."""
    metrics: dict[str, float] = dict(import_times(job.entry))
    plain, traced_walls, layers, drained = [], [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start + median(plain) + median(traced_walls) <= seconds:
        failed_before = check.failed
        c = run_once(job, job_path, out, check, "time")
        t = run_once(job, job_path, out, check, "trace")
        if check.failed != failed_before:
            break
        plain.append(c.json()["wall_s"])
        result = t.json()
        traced_walls.append(result["wall_s"] - result["paused_s"])
        layers.append(tracing.layer_metrics(result["spans"]))
        drained.append(result["drained_strings"])
        (WORK / f"trace-{job.workload}-{job.seed}.json").write_text(
            json.dumps({"spans": result["spans"]}), encoding="utf-8")
    for key in tracing.layer_metrics([]):
        metrics[key] = median([m[key] for m in layers])
    metrics["space.enumerate.strings"] = median(drained)
    metrics["embed.runs.block_maps"] = counters["embed.runs.block_maps"]
    metrics["embed.dp.cells"] = counters["embed.dp.cells"]
    metrics["trace.overhead"] = median(traced_walls) / median(plain) if plain else 0.0
    enum_s = metrics["space.enumerate.busy_s"]
    metrics["space.enumerate.strings_per_s"] = metrics["space.enumerate.strings"] / enum_s if enum_s else 0.0
    a = spawn([PY, str(HERE / "child.py"), "alloc", str(job_path)], WORK / f"alloc-{job.workload}-{job.seed}.json")
    peaks = check.child(a)
    metrics.update(peaks or {"embed.runs.alloc_peak_mb": 0.0, "space.enumerate.alloc_peak_mb": 0.0})
    metrics["embed.runs.useful_ratio"] = useful_ratio
    metrics["src.lines"] = wl.src_lines()
    return metrics


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl.require_program()
    job = wl.make_job(name, seed)
    WORK.mkdir(exist_ok=True)
    job_path, out, expected = write_job(job, trace)
    prepared = prepare(job_path)
    check = Checker(job, prepared["oracle"], expected.read_bytes() if job.kind == "cli" else b"")
    counters = wl.exact_counters(job)
    items = wl.items_per_op(job, counters)
    info: dict = {"workload": name, "seed": seed, "digest": job.digest(),
                  "items_per_op": items, "src_lines": wl.src_lines(), "counters": counters}
    if trace:
        values = traced(job, job_path, out, seconds, check, counters, prepared["useful_ratio"])
        units = declared("per_layer")
    else:
        values, samples = end_to_end(job, job_path, out, seconds, check, items)
        info["samples"] = samples
        units = declared("end_to_end")
    info["error_ratio"] = check.failed / check.attempted if check.attempted else 1.0
    return {
        "info": info,
        "result": {
            "correct": check.failed == 0,
            "attempted": max(check.attempted, 1),
            "failed": check.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }


def print_table(info: dict, result: dict) -> None:
    print(f"# {info['workload']} seed={info['seed']} digest={info['digest']} "
          f"src_lines={info['src_lines']} correct={result['correct']}")
    for k, m in result["metrics"].items():
        print(f"{info['workload']:>14} {k:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{info['workload']:>14} {'error_ratio':<36} {info['error_ratio']:>16.6g} ratio")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    names = wl.WORKLOADS if args.workload == "all" else [args.workload]
    # One CPU for this process and every child it starts.  The host's speed
    # drifts by up to 2x in phases of seconds to minutes, and differs from
    # one CPU to the other; reference slices timed on the child's own CPU,
    # interleaved with it, see the speed it ran at.  Times are CPU times,
    # which leave out any wait for the CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RuntimeError as e:  # no delkit to benchmark, or it fails to import or prepare
        print(f"error: {e}", file=sys.stderr)
        return 2
    for r in runs:
        print_table(r["info"], r["result"])
        print(json.dumps({"info": r["info"]}))
    if len(runs) == 1:
        print(json.dumps(runs[0]["result"]))
    else:
        print(json.dumps({r["info"]["workload"]: r["result"] for r in runs}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
