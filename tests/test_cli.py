import collections
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from delkit import core, entropy, space, verify
from delkit.cli import SUITES, main
from delkit.clusters import is_maximal_initial
from delkit.embed import count_embeddings_dp
from delkit.oracle import oracle_weight_table

from helpers import all_bits
from oracle_scan import oracle_space

GOLDEN_DIST_110 = """\
# x=110
# n=5
# mu=40
# upsilon=16
weight,count
1,6
2,3
3,4
4,1
6,2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            meta[k] = v
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--y", "11000", "--x", "110")
    assert code == 0 and out == "3\n"


def test_count_runs_method(capsys):
    code, out, _ = run(
        capsys, "count", "--y", "0000111100001111", "--x", "0011", "--method", "runs"
    )
    assert code == 0 and out == "300\n"


def test_count_runs_method_is_polynomial(capsys):
    # 193,536,720 block maps: the chain sum never lists them
    y, x = "01" * 22, "01" * 11
    code, out, _ = run(capsys, "count", "--y", y, "--x", x, "--method", "runs")
    assert code == 0
    assert out == f"{count_embeddings_dp(y, x)}\n"


def test_count_runs_method_follows_the_budget(capsys, monkeypatch):
    # runs(x) * ((runs(y) - runs(x)) // 2 + 1)^2 chain steps against 2^budget:
    # 20 * 11^2 = 2420 > 2^10 is refused before any counting, 8 * 5^2 = 200 is not
    big = ("count", "--y", "01" * 20, "--x", "01" * 10, "--method", "runs")
    small = ("count", "--y", "01" * 8, "--x", "01" * 4, "--method", "runs")
    want = f"{count_embeddings_dp('01' * 8, '01' * 4)}\n"
    for extra in (("--budget", "10"), ()):
        if not extra:
            monkeypatch.setenv("DELKIT_BUDGET", "10")
        code, out, err = run(capsys, *big, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: runs(x)*((runs(y)-runs(x))//2+1)^2=2420 exceeds 2^10 ")
        assert err.count("\n") == 1
        assert run(capsys, *small, *extra) == (0, want, "")


def test_count_runs_method_refuses_a_long_alternating_pair_at_the_default_budget(capsys):
    # about 2.0e9 chain steps; the chain would run for minutes
    y, x = "01" * 2000, "01" * 1000
    code, out, err = run(capsys, "count", "--y", y, "--x", x, "--method", "runs")
    assert (code, out) == (2, "")
    assert err.startswith("error: runs(x)*((runs(y)-runs(x))//2+1)^2=2004002000 exceeds 2^24 ")
    # the dp is not bounded this way
    code, out, _ = run(capsys, "count", "--y", y, "--x", x)
    assert code == 0 and out == f"{count_embeddings_dp(y, x)}\n"


def test_count_oracle_method(capsys):
    code, out, _ = run(capsys, "count", "--y", "10101", "--x", "101", "--method", "oracle")
    assert code == 0 and out == "4\n"


def test_count_oracle_method_follows_the_budget(capsys):
    argv = ("count", "--x", "11", "--method", "oracle", "--budget")
    code, out, err = run(capsys, *argv, "5", "--y", "1" * 10)
    assert code == 2 and out == ""
    assert err == "error: |y|=10 exceeds enumeration budget 5\n"
    # a budget above the default admits more than the default does
    code, out, _ = run(capsys, *argv, "30", "--y", "1" * 26)
    assert code == 0 and out == "325\n"


def test_count_masks(capsys):
    code, out, _ = run(capsys, "count", "--y", "10011", "--x", "101", "--masks")
    assert code == 0
    assert out == "4\n{1, 2, 4}\n{1, 2, 5}\n{1, 3, 4}\n{1, 3, 5}\n"


def test_count_masks_of_a_long_x_print_without_a_traceback():
    # x = y has exactly one mask, 1,000 symbols deep: past the interpreter's
    # default recursion limit, so the walk over masks must not recurse per symbol
    y = "01" * 500
    proc = subprocess.run(
        [sys.executable, "-m", "delkit.cli", "count", "--y", y, "--x", y, "--masks", "--budget", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-300:]
    assert proc.stdout == "1\n{" + ", ".join(map(str, range(1, 1001))) + "}\n"


def test_count_masks_of_an_x_longer_than_y_print_zero_at_once():
    # no mask exists, so the walk must not try a single host for x[0]; a
    # search bound that goes negative would count back from y's end and walk
    # about 6.9e10 dead prefixes here
    proc = subprocess.run(
        [sys.executable, "-m", "delkit.cli", "count", "--y", "0" * 40, "--x", "0" * 60, "--masks", "--budget", "40"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_count_masks_walk_only_prefixes_that_complete():
    # x needs four 1s and y holds three, so no mask exists; a walk that
    # extends prefixes which cannot complete tries every placement of the 14
    # zeros first (32.5 s of CPU on a 2-vCPU host), while ω·max(|x|, 1) = 0 admits it
    y, x = "0" * 28 + "1" * 3, "0" * 14 + "1" * 4
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "delkit.cli", "count", "--y", y, "--x", x, "--masks", "--budget", "40"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_count_masks_are_bounded_by_their_positions_not_by_y(capsys, monkeypatch):
    # one mask of 25 positions is admitted at the default budget, though |y| = 25 > 24
    monkeypatch.delenv("DELKIT_BUDGET", raising=False)
    code, out, err = run(capsys, "count", "--y", "0" * 25, "--x", "0" * 25, "--masks")
    assert (code, err) == (0, "")
    assert out == "1\n{" + ", ".join(map(str, range(1, 26))) + "}\n"


def test_count_masks_past_the_budget_are_refused_before_any_is_listed():
    # C(24, 12) = 2,704,156 masks of 12 positions each would be held at once,
    # about 0.9 GB; the child is run apart so a listing cannot reach the tests
    argv = ["count", "--y", "0" * 24, "--x", "0" * 12, "--masks"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "delkit.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: omega*max(|x|,1)=32449872 exceeds 2^24 mask positions for "
        "count --masks; raise --budget or DELKIT_BUDGET\n"
    )


def test_count_masks_follow_the_budget(capsys):
    # 0^3 in 0^6 has 20 masks of 3 positions: 60 > 2^5 is refused, 60 <= 2^6 is
    # not, and the empty x's one empty mask counts as one position
    argv = ("count", "--y", "0" * 6, "--x", "0" * 3, "--masks", "--budget")
    code, out, err = run(capsys, *argv, "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: omega*max(|x|,1)=60 exceeds 2^5 ")
    code, out, _ = run(capsys, *argv, "6")
    assert code == 0 and out.splitlines()[:2] == ["20", "{1, 2, 3}"] and len(out.splitlines()) == 21
    code, out, _ = run(capsys, "count", "--y", "", "--x", "", "--masks", "--budget", "0")
    assert (code, out) == (0, "1\n{}\n")


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "--y", "11000", "--x", "110", "--masks", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "y": "11000",
        "x": "110",
        "method": "dp",
        "omega": 3,
        "masks": [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
    }


def test_count_rejects_bad_bits(capsys):
    code, _, err = run(capsys, "count", "--y", "11002", "--x", "110")
    assert code == 2 and "error" in err


def test_distribution_golden_bytes(capsys):
    code, out, _ = run(capsys, "distribution", "--x", "110", "--n", "5")
    assert code == 0 and out == GOLDEN_DIST_110


def test_distribution_is_deterministic(capsys):
    _, first, _ = run(capsys, "distribution", "--x", "10110", "--n", "8")
    _, second, _ = run(capsys, "distribution", "--x", "10110", "--n", "8")
    assert first == second


def test_distribution_by_cluster(capsys):
    code, out, _ = run(capsys, "distribution", "--x", "110", "--n", "5", "--by-cluster")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["cluster", "weight", "count"]
    assert meta == {"x": "110", "n": "5", "mu": "40", "upsilon": "16"}
    got = {}
    for c, w, k in rows:
        got.setdefault(int(c), {})[int(w)] = int(k)
    assert got == {
        0: {1: 3, 2: 2, 3: 1},
        1: {1: 2, 2: 1, 3: 2, 4: 1, 6: 1},
        2: {1: 1, 3: 1, 6: 1},
    }


def test_distribution_json(capsys):
    code, out, _ = run(capsys, "distribution", "--x", "101", "--n", "5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] == 40 and obj["upsilon"] == 16
    assert {r["weight"]: r["count"] for r in obj["rows"]} == {1: 3, 2: 6, 3: 3, 4: 4}


def test_distribution_out_file(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    code, out, _ = run(capsys, "distribution", "--x", "110", "--n", "5", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == GOLDEN_DIST_110


@pytest.mark.parametrize("where", ["missing-dir/dist.csv", "."])
def test_out_path_that_cannot_be_written_is_refused(capsys, tmp_path, where):
    # a missing parent directory, and an existing directory
    path = tmp_path / where
    code, out, err = run(capsys, "count", "--y", "101", "--x", "1", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1


def no_work(*args, **kwargs):
    raise AssertionError("computed before refusing the arguments")


@pytest.mark.parametrize("argv", [
    ["distribution", "--x", "110", "--n", "5"],
    ["sweep", "--m", "10", "--n", "13"],
])
@pytest.mark.parametrize("where", ["missing-dir/out.csv", ".", "file.txt/out.csv"])
def test_out_path_is_refused_before_the_work(capsys, monkeypatch, tmp_path, argv, where):
    monkeypatch.setattr(entropy, "weight_distributions", no_work)
    (tmp_path / "file.txt").write_text("kept\n")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    path = tmp_path / where
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
    assert (tmp_path / "file.txt").read_text() == "kept\n"


def test_out_path_without_write_permission_is_refused(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(entropy, "weight_distribution", no_work)
    locked, kept = tmp_path / "locked", tmp_path / "kept.csv"
    locked.mkdir()
    kept.write_text("kept\n")
    locked.chmod(0o500)
    kept.chmod(0o400)
    try:
        if os.access(locked, os.W_OK):
            pytest.skip("this user may write to a read-only directory")
        for path in (locked / "new.csv", kept):
            code, out, err = run(capsys, "distribution", "--x", "1", "--n", "2", "--out", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: cannot write --out {path}: Permission denied\n"
        assert list(locked.iterdir()) == [] and kept.read_text() == "kept\n"
    finally:
        locked.chmod(0o700)
        kept.chmod(0o600)


def test_distribution_rejects_n_below_m(capsys):
    code, _, err = run(capsys, "distribution", "--x", "110", "--n", "2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "x, n, message",
    [
        ("01", "-1", "need n >= 0, got -1"),
        ("", "-1", "need n >= 0, got -1"),
        ("110", "2", "need 0 <= |x| <= n, got |x|=3, n=2"),
        ("1", "0", "need 0 <= |x| <= n, got |x|=1, n=0"),
    ],
)
@pytest.mark.parametrize("extra", [[], ["--by-cluster"]])
def test_distribution_refuses_a_bad_length_in_one_line(capsys, x, n, message, extra):
    code, out, err = run(capsys, "distribution", "--x", x, "--n", n, *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_basic(capsys):
    code, out, _ = run(capsys, "sweep", "--m", "3", "--n", "5", "--alpha", "0.5", "2")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["x", "n", "H", "R_0.5", "R_2", "Hmin"]
    assert len(rows) == 8
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    values = {r[0]: float(r[2]) for r in rows}
    # complement symmetry within the table
    assert values["110"] == pytest.approx(values["001"], abs=1e-12)
    assert min(values, key=values.get) in ("000", "111")


def test_sweep_prints_the_benchmark_table_byte_for_byte(capsys):
    # the benchmark's sweep shape, pinned by digest: 528 orbit walks that
    # resume at shared prefixes, and every row's floats as printed
    code, out, _ = run(capsys, "sweep", "--m", "11", "--n", "13", "--alpha", "0.5", "2")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0356ddc5574d022c17125ae0988adaf62490f7a3ca7ded0cea2dcefd2676ddcf"


def test_sweep_floats_round_trip(capsys):
    _, out, _ = run(capsys, "sweep", "--m", "2", "--n", "4")
    _, _, rows = parse_csv(out)
    _, out2, _ = run(capsys, "sweep", "--m", "2", "--n", "4", "--format", "json")
    obj = json.loads(out2)
    for row, jrow in zip(rows, obj["rows"]):
        assert float(row[2]) == jrow["H"]
        assert float(row[-1]) == jrow["Hmin"]


def test_sweep_cap_and_budget_precedence(capsys, monkeypatch):
    code, _, err = run(capsys, "sweep", "--m", "13", "--n", "14")
    assert code == 2 and "cap" in err
    # env lowers the cap
    monkeypatch.setenv("DELKIT_BUDGET", "4")
    code, _, err = run(capsys, "sweep", "--m", "5", "--n", "6")
    assert code == 2
    # a flag beats the env
    code, out, _ = run(capsys, "sweep", "--m", "5", "--n", "6", "--budget", "8")
    assert code == 0 and len(out.splitlines()) == 4 + 32


@pytest.mark.parametrize(
    "argv",
    [
        ["distribution", "--x", "1", "--n", "1000000000"],
        ["distribution", "--x", "", "--n", "100000", "--by-cluster"],
        ["sweep", "--m", "3", "--n", "1000000"],
    ],
)
def test_an_n_over_the_budget_is_refused_at_once(capsys, argv):
    # C(n, m) fits 64 bits here, so the route rule must not run first: its
    # closed forms cost a 2^(n/2) integer and n + 1 binomials
    code, out, err = run(capsys, *argv)
    n = argv[argv.index("--n") + 1]
    assert code == 2 and out == ""
    assert err.startswith(f"error: n={n} exceeds enumeration budget ")


def test_short_x_with_a_raised_budget_walks(capsys):
    # the empty x has weight 1 in every y, so cluster c is C(n, c) strings of
    # weight 1; the split-half join would need 2^50-entry half tables
    code, out, _ = run(
        capsys, "distribution", "--x", "", "--n", "100", "--budget", "100", "--by-cluster"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["cluster", "weight", "count"]
    assert rows == [[str(c), "1", str(math.comb(100, c))] for c in range(101)]


# the CLI in a child capped at the given bytes of address space and 30 s of CPU
CAPPED = """\
import resource, sys
memory = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
resource.setrlimit(resource.RLIMIT_CPU, (30, 30))
from delkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(*argv, memory=1 << 30):
    """The capped child's exit code, stdout, stderr and CPU seconds."""
    import resource

    def cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    start = cpu()
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED, str(memory), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, cpu() - start


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
@pytest.mark.parametrize("x, n", [("00000000", 60), ("000000", 28)])
def test_a_one_run_x_walks_where_the_join_would_not_fit(x, n):
    # the rule would join 2^n pairs here, which runs out of the 1 GB at n = 60
    # and takes about 18 s at n = 28; a one-run x has at most L + 1 walk
    # states at depth L, and y with c ones holds C(n - c, m) embeddings of 0^m
    code, out, err, cpu = run_capped("distribution", "--x", x, "--n", str(n), "--budget", str(n))
    assert code == 0 and err == "" and cpu < 1, (code, err, cpu)
    _, header, rows = parse_csv(out)
    m = len(x)
    assert header == ["weight", "count"]
    assert rows == [[str(math.comb(z, m)), str(math.comb(n, z))] for z in range(m, n + 1)]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
def test_running_out_of_memory_exits_2_in_one_line():
    # both routes need more than 1 GB for a general 8-bit x at n = 60
    code, out, err, _ = run_capped(
        "distribution", "--x", "01101001", "--n", "60", "--budget", "60"
    )
    assert code == 2 and out == "", (code, err)
    assert err == "error: distribution ran out of memory\n"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
def test_a_long_sweep_holds_only_the_levels_the_next_x_resumes_from():
    # x = "0" walks to depth n // 2 = 550 before the route is picked; keeping
    # all 550 levels of that walk (up to 551 states each, every band an int of
    # up to 12,100 bits) took about 195 MB, where the walk on needs only the last
    argv = ["sweep", "--m", "1", "--n", "1100", "--budget", "1100", "--alpha", "0.5", "2", "3"]
    code, out, err, _ = run_capped(*argv, "--format", "json", memory=128 << 20)
    assert code == 0 and err == "", (code, err)
    assert [row["x"] for row in json.loads(out)["rows"]] == ["0", "1"]


def test_sweep_point_mass_entropies_are_positive_zero(capsys):
    # at n = m every posterior is a point mass, and R_2 used to print as -0
    _, out, _ = run(capsys, "sweep", "--m", "3", "--n", "3", "--alpha", "0.5", "2")
    _, header, rows = parse_csv(out)
    assert header == ["x", "n", "H", "R_0.5", "R_2", "Hmin"]
    assert all(row[2:] == ["0", "0", "0", "0"] for row in rows)
    _, out, _ = run(capsys, "sweep", "--m", "3", "--n", "3", "--format", "json")
    for row in json.loads(out)["rows"]:
        assert math.copysign(1.0, row["R"]["2"]) == 1.0
    assert "-0" not in out


@pytest.mark.parametrize("alphas", [["2.0000001", "2"], ["2", "2"], ["0.5", "3", "3.0"]])
def test_sweep_rejects_alphas_with_one_label(capsys, alphas):
    code, out, err = run(capsys, "sweep", "--m", "2", "--n", "3", "--alpha", *alphas)
    assert code == 2 and out == ""
    assert err.startswith("error: --alpha orders ") and err.count("\n") == 1


def test_sweep_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, "sweep", "--m", "2", "--n", "3", "--alpha", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_sweep_rejects_non_finite_alpha(capsys, alpha):
    code, out, err = run(
        capsys, "sweep", "--m", "2", "--n", "3", "--alpha", alpha, "--format", "json"
    )
    assert code == 2 and out == ""
    assert err == f"error: alpha must be finite, got {alpha}\n"


@pytest.mark.parametrize("alpha", ["1000", "2000"])
def test_sweep_large_alpha_is_finite(capsys, alpha):
    code, out, err = run(capsys, "sweep", "--m", "2", "--n", "3", "--alpha", alpha)
    assert code == 0 and err == ""
    _, header, rows = parse_csv(out)
    assert header == ["x", "n", "H", f"R_{alpha}", "Hmin"]
    for row in rows:
        r, hmin = float(row[3]), float(row[4])
        assert math.isfinite(r) and hmin - 1e-12 <= r <= hmin + 0.01


def test_sweep_past_the_float_range_prints_finite_json(capsys):
    # mu = 1030 * 2^1029 and C(1030, 515) are past 2^1024, the float range
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    argv = "sweep --m 1 --n 1030 --budget 1030 --alpha 0.5 2 3 --format json"
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    rows = json.loads(out, parse_constant=refuse)["rows"]
    assert [row["x"] for row in rows] == ["0", "1"]
    for row in rows:
        values = [row["H"], *row["R"].values(), row["Hmin"]]
        assert all(math.isfinite(v) and 1029 <= v <= 1030 for v in values), row


def test_sweep_rows_match_entropies_computed_per_x(capsys):
    # sweep copies one row per reversal/complement orbit; every row must
    # still equal the entropies of that x's own histogram
    alphas = [0.5, 2.0, 3.0]
    for m in range(9):
        for n in range(m, m + 5):
            rows = []
            for x in all_bits(m):
                d = entropy.weight_distribution(n, x)
                rs = [entropy.renyi_entropy(d, a) for a in alphas]
                rows.append((x, entropy.shannon_entropy(d), rs, entropy.min_entropy(d)))
            argv = ["sweep", "--m", str(m), "--n", str(n), "--alpha", "0.5", "2", "3"]
            _, out, _ = run(capsys, *argv)
            want = [f"# m={m}", f"# n={n}", "# alphas=0.5,2,3", "x,n,H,R_0.5,R_2,R_3,Hmin"]
            want += [
                ",".join([x, str(n)] + [format(v, ".17g") for v in [h, *rs, hmin]])
                for x, h, rs, hmin in rows
            ]
            assert out == "\n".join(want) + "\n"
            _, out, _ = run(capsys, *argv, "--format", "json")
            assert json.loads(out) == {
                "m": m,
                "n": n,
                "alphas": alphas,
                "rows": [
                    {"x": x, "n": n, "H": h, "R": dict(zip(["0.5", "2", "3"], rs)), "Hmin": hmin}
                    for x, h, rs, hmin in rows
                ],
            }


@pytest.mark.parametrize("m", range(11))
def test_sweep_builds_one_histogram_per_orbit(capsys, monkeypatch, m):
    real = entropy.weight_distributions
    calls = []

    def counted(n, xs, **kwargs):
        calls.extend(xs)
        return real(n, xs, **kwargs)

    monkeypatch.setattr(entropy, "weight_distributions", counted)
    code, out, _ = run(capsys, "sweep", "--m", str(m), "--n", str(m + 1))
    assert code == 0 and len(out.splitlines()) == 4 + 2**m
    # Burnside over the four maps, for m >= 1: the identity fixes 2^m strings,
    # reversal 2^ceil(m/2), complement none, and both 2^(m/2) at even m only
    orbits = 1 if m == 0 else (2 ** (m - 1) + 2 ** (m // 2)) // 2
    assert len(calls) == orbits
    assert calls == sorted(set(calls))


@pytest.mark.parametrize(
    "orders, message",
    [
        (["--alpha", "1"], "alpha = 1 is the Shannon case; use shannon_entropy"),
        (["--alpha", "2", "1"], "alpha = 1 is the Shannon case; use shannon_entropy"),
        (["--alpha", "0"], "alpha must be positive, got 0.0"),
        (["--alpha=-1"], "alpha must be positive, got -1.0"),
        (["--alpha=-inf"], "alpha must be positive, got -inf"),
        (["--alpha", "nan"], "alpha must be finite, got nan"),
        (["--alpha", "0.5", "inf"], "alpha must be finite, got inf"),
    ],
)
def test_sweep_refuses_a_bad_order_before_the_work(capsys, monkeypatch, orders, message):
    # n = 24 would take the split-half join before renyi_entropy saw the order
    monkeypatch.setattr(entropy, "weight_distributions", no_work)
    code, out, err = run(capsys, "sweep", "--m", "12", "--n", "24", *orders)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_negative_budget_flag_is_refused(capsys):
    code, out, err = run(capsys, "count", "--y", "11", "--x", "1", "--budget", "-1")
    assert code == 2 and out == ""
    assert err == "error: --budget must be nonnegative, got -1\n"


def test_negative_budget_env_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("DELKIT_BUDGET", "-3")
    code, out, err = run(capsys, "distribution", "--x", "1", "--n", "3")
    assert code == 2 and out == ""
    assert err == "error: DELKIT_BUDGET must be nonnegative, got -3\n"
    # zero is a budget, not a refusal: it only admits n = 0
    monkeypatch.setenv("DELKIT_BUDGET", "0")
    code, out, _ = run(capsys, "distribution", "--x", "", "--n", "0")
    assert code == 0 and out.endswith("weight,count\n1,1\n")


def test_gchain_budget_is_checked(capsys, monkeypatch):
    code, out, err = run(capsys, "gchain", "--x", "10", "--budget", "-5")
    assert code == 2 and out == ""
    assert err == "error: --budget must be nonnegative, got -5\n"
    monkeypatch.setenv("DELKIT_BUDGET", "abc")
    code, out, err = run(capsys, "gchain", "--x", "10")
    assert code == 2 and out == ""
    assert err == "error: DELKIT_BUDGET='abc' is not an integer\n"


def test_verify_budget_is_checked(capsys, monkeypatch):
    argv = ("verify", "--suite", "identityB", "--max-m", "1")
    code, out, err = run(capsys, *argv, "--budget", "-2")
    assert code == 2 and out == ""
    assert err == "error: --budget must be nonnegative, got -2\n"
    monkeypatch.setenv("DELKIT_BUDGET", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: DELKIT_BUDGET='abc' is not an integer\n"
    monkeypatch.setenv("DELKIT_BUDGET", "3")
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_verify_max_m_follows_the_budget(capsys, monkeypatch):
    code, out, err = run(
        capsys, "verify", "--suite", "identityB", "--max-m", "4", "--budget", "3"
    )
    assert code == 2 and out == ""
    assert err == "error: --max-m=4 exceeds enumeration budget 3\n"
    # the default --max-m of clusters is 6
    monkeypatch.setenv("DELKIT_BUDGET", "4")
    code, out, err = run(capsys, "verify", "--suite", "clusters")
    assert code == 2 and out == ""
    assert err == "error: --max-m=6 exceeds enumeration budget 4\n"


def test_verify_refuses_an_over_budget_length_before_any_work(capsys):
    # clusters --max-m 22 would check every m <= 21 before reaching n = 25
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "clusters", "--max-m", "22")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: n=25 exceeds enumeration budget 24\n")
    # a suite that enumerates nothing is not refused
    code, out, _ = run(capsys, "verify", "--suite", "initials", "--max-m", "0", "--budget", "0")
    assert code == 0 and parse_csv(out)[0]["checks"] == "0"


@pytest.mark.parametrize("suite", [s for s, (_, _, extra) in SUITES.items() if extra is not None])
def test_verify_enumerates_under_the_budget_it_checks(capsys, monkeypatch, suite):
    # the longest n is refused up front, and the budget reaches the walk or the
    # enumerator, which would otherwise refuse every n > 0 at the default patched to 0
    monkeypatch.setattr(core, "DEFAULT_BUDGET", 0)
    top = 3 + SUITES[suite][2]
    argv = ("verify", "--suite", suite, "--max-m", "3", "--budget")
    code, out, err = run(capsys, *argv, str(top - 1))
    assert (code, out, err) == (2, "", f"error: n={top} exceeds enumeration budget {top - 1}\n")
    code, out, _ = run(capsys, *argv, str(top))
    assert code == 0 and parse_csv(out)[0]["failures"] == "0"


def test_gchain_golden(capsys):
    code, out, _ = run(capsys, "gchain", "--x", "101010", "--deletions", "2")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["step", "x", "H"]
    assert [r[1] for r in rows] == [
        "101010", "001010", "111010", "000010", "111110", "000000",
    ]
    hs = [float(r[2]) for r in rows]
    assert all(a > b + 1e-9 for a, b in zip(hs, hs[1:]))
    assert meta == {"x": "101010", "deletions": "2", "n": "8"}


def test_gchain_single_row_for_constant(capsys):
    code, out, _ = run(capsys, "gchain", "--x", "0000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][1] == "0000"


def test_gchain_two_steps(capsys):
    code, out, _ = run(capsys, "gchain", "--x", "110", "--deletions", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["110", "000"]


def test_gchain_follows_the_budget(capsys, monkeypatch):
    # runs(x) rows of |x| symbols against 2^budget: 34 * 34 = 1156 > 2^10 is
    # refused before any work, 32 * 32 = 1024 is not
    for extra in (("--budget", "10"), ()):
        if not extra:
            monkeypatch.setenv("DELKIT_BUDGET", "10")
        code, out, err = run(capsys, "gchain", "--x", "01" * 17, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: runs(x)*|x|=1156 exceeds 2^10 ")
        assert err.count("\n") == 1
        code, out, err = run(capsys, "gchain", "--x", "01" * 16, *extra)
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[2]) == 32


def test_gchain_refuses_a_long_alternating_x_at_the_default_budget(capsys):
    # 4200 * 4200 = 17,640,000 > 2^24; (01)^2000's 16,000,000 is admitted
    start = time.perf_counter()
    code, out, err = run(capsys, "gchain", "--x", "01" * 2100, "--deletions", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: runs(x)*|x|=17640000 exceeds 2^24 ")


def test_verify_identity_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identityB", "--max-m", "6")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["suite", "case", "lhs", "rhs", "ok"]
    assert meta["failures"] == "0"
    assert all(r[4] == "true" for r in rows)
    assert len(rows) == sum(2 ** (m - 1) for m in range(1, 7))


def test_verify_singletons_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "singletons", "--max-m", "3")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["failures"] == "0" and rows


def test_verify_entropy_min_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "entropy-min", "--max-m", "4", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert all(row["ok"] for row in obj["rows"])


def test_verify_lemma4_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma4", "--max-m", "5")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["failures"] == "0"
    assert len(rows) == sum(2**m for m in range(1, 6))


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_suite_passes_at_its_default_max_m(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["max_m"] == str(SUITES[suite][1])
    assert meta["failures"] == "0" and rows


CASE_LENGTHS = re.compile(r"n=(\d+) (?:m=(\d+)|x=([01]+))")


@pytest.mark.parametrize(
    "suite, max_m, low", [("clusters", 10, 0), ("initials", 9, 1), ("singletons", 9, 1)]
)
def test_verify_checks_every_length_up_to_max_m(capsys, suite, max_m, low):
    # each m <= --max-m is checked at every n from m to m + 3, however large
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-m", str(max_m))
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["failures"] == "0"
    lengths = set()
    for row in rows:
        n, m, x = CASE_LENGTHS.match(row[1]).groups()
        lengths.add((len(x) if m is None else int(m), int(n)))
    assert lengths == {(m, n) for m in range(low, max_m + 1) for n in range(m, m + 4)}


def _brute_force_column(suite, case):
    """One row's enumerated value, rebuilt by scanning every string of length n."""
    f = dict(kv.split("=") for kv in case.split())
    if suite == "clusters":
        n, m, h, c = (int(f[k]) for k in "nmhc")
        ys = oracle_space(n, "1" * h + "0" * (m - h)).weights
        return str(sum(1 for y in ys if y.count("1") - h == c))
    x = f["x"]
    if suite == "initials":
        return str(sum(1 for y in all_bits(int(f["n"])) if is_maximal_initial(y, x)))
    if suite == "singletons":
        return str(len(oracle_space(int(f["n"]), x).singletons()))
    table = oracle_weight_table(len(x) + (1 if suite == "lemma1" else 2), x)
    observed = collections.Counter(table[table > 0].tolist())
    return " ".join(f"{w}:{observed[w]}" for w in sorted(observed)) or "-"


# the column of each brute-force suite's rows that comes from the walk or the enumerator
ENUMERATED = {"clusters": 3, "initials": 2, "singletons": 3, "lemma1": 3, "lemma4": 3}


@pytest.mark.parametrize("suite", list(ENUMERATED))
def test_verify_enumeration_equals_the_oracle_at_the_default_max_m(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    _, _, rows = parse_csv(out)
    col = ENUMERATED[suite]
    assert [r[col] for r in rows] == [_brute_force_column(suite, r[1]) for r in rows]


def test_verify_reads_histograms_from_the_walk_and_initials_enumerates(capsys, monkeypatch):
    # the histogram suites read space._weight_histograms, not the enumerator
    # and not entropy's checked WeightDistribution entries; initials tests
    # each member string, so it alone still lists them
    def refuse(*args, **kwargs):
        raise AssertionError("not called by the histogram suites")

    real = space.enumerate_supersequences
    for name in ("weight_distribution", "weight_distributions"):
        monkeypatch.setattr(entropy, name, refuse)
    monkeypatch.setattr(space, "enumerate_supersequences", refuse)
    for suite in ("clusters", "singletons", "lemma1", "lemma4"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-m", "4")
        assert (code, err) == (0, ""), suite
        assert parse_csv(out)[0]["failures"] == "0"
    calls = []

    def spy(n, x, budget=None):
        calls.append((n, x))
        return real(n, x, budget)

    monkeypatch.setattr(space, "enumerate_supersequences", spy)
    code, out, _ = run(capsys, "verify", "--suite", "initials", "--max-m", "2")
    assert code == 0 and parse_csv(out)[0]["failures"] == "0"
    assert calls == [(n, x) for m in (1, 2) for n in range(m, m + 4) for x in all_bits(m)]


def test_verify_reports_failed_rows_without_a_traceback(capsys, monkeypatch):
    # closed forms off by one must fail every row they feed, and exit 1
    real_count, real_double = verify.singleton_count, verify.predicted_weights_double
    monkeypatch.setattr(verify, "singleton_count", lambda n, x: real_count(n, x) + 1)
    monkeypatch.setattr(
        verify,
        "predicted_weights_double",
        lambda x: SimpleNamespace(counts={w: k + 1 for w, k in real_double(x).counts.items()}),
    )
    for suite in ("singletons", "lemma4"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-m", "3")
        assert (code, err) == (1, ""), suite
        meta, _, rows = parse_csv(out)
        assert meta["failures"] == meta["checks"] == str(len(rows)) and rows
        assert all(r[4] == "false" for r in rows)


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--y", "11000"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "delkit.cli", "count", "--y", "11000", "--x", "110"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "3\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    # (19, 7) takes the split-half route; numpy would cost 12 MB of RSS
    code = (
        "import contextlib, io, sys\n"
        "from delkit.cli import main\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['distribution', '--x', '0110101', '--n', '19', '--by-cluster'])\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\nFalse\n"


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # together about 12 ms of every start, and delkit needs neither
    code = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "loaded()\n"
        "import delkit\n"
        "loaded()\n"
        "from delkit.cli import main\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['sweep', '--m', '3', '--n', '5'])\n"
        "    main(['distribution', '--x', '0110101', '--n', '19', '--by-cluster'])\n"
        "    main(['gchain', '--x', '0110', '--deletions', '2'])\n"
        "loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n" * 4


SRC = Path(__file__).resolve().parent.parent / "src"


def test_start_up_loads_only_what_the_entry_point_uses():
    # -S: no site hook preloads typing; space, entropy and oracle load on
    # first use, oracle only in count --method oracle, json only with
    # --format json, and numpy in no subcommand (verify enumerates with space)
    code = (
        "import contextlib, io, sys\n"
        "def package():\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'delkit'))\n"
        "import delkit\n"
        "package()\n"
        "print(hasattr(delkit, '__wrapped__'))\n"
        "package()\n"
        "from delkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['sweep', '--m', '3', '--n', '5'])\n"
        "    main(['distribution', '--x', '0110101', '--n', '12', '--by-cluster'])\n"
        "    main(['gchain', '--x', '0110', '--deletions', '2'])\n"
        "    main(['count', '--y', '0110', '--x', '01', '--method', 'dp'])\n"
        "    main(['verify', '--suite', 'clusters', '--max-m', '3'])\n"
        "    main(['verify', '--suite', 'singletons', '--max-m', '3'])\n"
        "    main(['verify', '--suite', 'lemma1', '--max-m', '3'])\n"
        "print([m for m in ('delkit.oracle', 'json', 'typing', 'numpy') if m in sys.modules])\n"
        "print(delkit.weight_distribution is delkit.entropy.weight_distribution)\n"
        "try:\n"
        "    delkit.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['delkit', 'delkit.core', 'delkit.embed']",
        "False",
        "['delkit', 'delkit.core', 'delkit.embed']",
        "[]",
        "True",
        "module 'delkit' has no attribute 'no_such_name'",
    ]


def _package_modules_after(code):
    """The delkit modules loaded by a fresh -S interpreter that ran code."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'delkit'))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\n" + code],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_importing_a_submodule_by_from_loads_no_other_module():
    # the import system probes the package for the name before loading it
    want = _package_modules_after("import delkit.cli")
    assert want == [str(["delkit", "delkit.cli", "delkit.core", "delkit.embed",
                         "delkit.entropy", "delkit.space"])]
    assert _package_modules_after("from delkit import cli") == want
    assert _package_modules_after("from delkit import oracle") == [
        str(["delkit", "delkit.core", "delkit.embed", "delkit.oracle"])
    ]
    assert _package_modules_after(
        "import delkit\n"
        "try:\n"
        "    delkit.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )[0] == "module 'delkit' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "name, loads",
    [
        ("oracle_count", ["delkit.oracle"]),
        ("count_embeddings_dp", []),
        ("weight_distribution", ["delkit.entropy", "delkit.space"]),
        ("g_chain", ["delkit.deletions", "delkit.entropy", "delkit.space"]),
        ("run_slots", ["delkit.clusters", "delkit.space"]),
        ("Rle", ["delkit.paper_objects"]),
        ("sigma_count", ["delkit.paper_objects"]),
        ("block_map_weights", ["delkit.paper_objects"]),
    ],
)
def test_a_package_level_name_loads_only_the_module_that_exports_it(name, loads):
    # on top of what import delkit loads, the owner and the modules it imports
    lines = _package_modules_after(f"import delkit\ndelkit.{name}")
    assert lines == [str(sorted(["delkit", "delkit.core", "delkit.embed", *loads]))]


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["count", "--y", "0110", "--x", "01"], []),
        (["gchain", "--x", "0110", "--deletions", "2"], ["delkit.deletions"]),
        (["verify", "--suite", "identityB", "--max-m", "3"], ["delkit.clusters", "delkit.deletions"]),
        (["sweep", "--m", "3", "--n", "5"], []),
        (["distribution", "--x", "0110101", "--n", "12", "--by-cluster"], []),
    ],
)
def test_each_subcommand_loads_clusters_or_deletions_only_if_it_calls_them(argv, loads):
    lines = _package_modules_after(
        "import contextlib, io\n"
        "from delkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
        "print([m for m in ('delkit.clusters', 'delkit.deletions') if m in sys.modules])\n"
    )
    assert lines[0] == str(loads)


def test_verify_run_as_a_module_leaves_delkit_cli_unloaded():
    # under -m the running CLI is __main__; importing delkit.cli again would
    # compile and run cli.py a second time
    lines = _package_modules_after(
        "import contextlib, io, runpy\n"
        "sys.argv = ['delkit', 'verify', '--suite', 'identityB', '--max-m', '3']\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runpy.run_module('delkit.cli', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    print(e.code)\n"
        "print('delkit.verify' in sys.modules, 'delkit.cli' in sys.modules)\n"
    )
    assert lines[:2] == ["0", "True False"]


def test_only_verify_loads_the_verify_suites():
    lines = _package_modules_after(
        "import contextlib, io\n"
        "from delkit.cli import main\n"
        "def loaded():\n"
        "    print([m for m in ('delkit.verify', 'delkit.oracle') if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['sweep', '--m', '3', '--n', '5'])\n"
        "    main(['distribution', '--x', '0110101', '--n', '12', '--by-cluster'])\n"
        "    main(['count', '--y', '0110', '--x', '01'])\n"
        "    main(['gchain', '--x', '0110', '--deletions', '2'])\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['verify', '--suite', 'identityB', '--max-m', '3'])\n"
        "loaded()\n"
    )
    assert lines[:2] == ["[]", "['delkit.verify']"]


def test_star_import_and_dir_cover_every_exported_name():
    import delkit

    names = {}
    exec("from delkit import *", names)
    assert set(delkit.__all__) <= set(names) and set(delkit.__all__) <= set(dir(delkit))
    assert all(names[k] is getattr(delkit, k) for k in delkit.__all__)


@pytest.mark.parametrize(
    "argv", [["sweep", "--m", "11", "--n", "13"], ["count", "--y", "0110", "--x", "01"]]
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # sweep's output overflows the pipe in _emit; count's fits and fails in the flush
    with subprocess.Popen(
        [sys.executable, "-m", "delkit.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1 and "Traceback" not in err and "Exception ignored" not in err, err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """(arguments, expected stdout) of every `$ delkit ...` line in README's
    sh blocks that shows its output."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line, output in re.findall(r"^\$ delkit (.*)\n((?:(?!\$ ).*\n)*)", block, re.M):
            if output:
                yield line, output


def output_pattern(text):
    """A line that is only `...` stands for any number of lines; a line
    ending in `...` matches as a prefix."""
    parts = []
    for line in text.splitlines():
        if line == "...":
            parts.append(r"(?:.*\n)*")
        elif line.endswith("..."):
            parts.append(re.escape(line[:-3]) + r".*\n")
        else:
            parts.append(re.escape(line) + r"\n")
    return "".join(parts)


def test_readme_cli_examples_print_what_readme_shows(capsys):
    examples = list(readme_cli_examples())
    assert len(examples) >= 4
    for line, output in examples:
        code, out, _ = run(capsys, *shlex.split(line))
        assert code == 0, line
        assert re.fullmatch(output_pattern(output), out), (line, out)


def exact_digits(n):
    """Decimal digits of n >= 0, 1,000 at a time, so no int-to-str cap applies."""
    chunks = []
    while True:
        n, r = divmod(n, 10**1000)
        chunks.append(r)
        if not n:
            break
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


@pytest.mark.parametrize("method", ["dp", "runs"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_count_prints_a_count_of_over_4300_digits(capsys, fmt, method):
    # omega = C(9, 7)^3000 = 36^3000 has 4,669 digits, past Python 3.11's
    # default int-to-str cap; the cap must be back in place afterwards
    y, x = ("0" * 9 + "1" * 9) * 1500, ("0" * 7 + "1" * 7) * 1500
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "count", "--y", y, "--x", x, "--method", method, "--format", fmt)
    assert (code, err) == (0, "")
    want = exact_digits(math.comb(9, 7) ** 3000)
    assert len(want) == 4669
    if fmt == "csv":
        assert out == want + "\n"
    else:
        assert out == f'{{\n  "y": "{y}",\n  "x": "{x}",\n  "method": "{method}",\n  "omega": {want}\n}}\n'
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str cap")
def test_distribution_prints_counts_past_the_int_digit_cap(capsys):
    # every subcommand prints exact ints past the interpreter's cap: x = "" at
    # n = 2200 has 2^2200 supersequences, 663 digits against a cap of 640
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(
            capsys, "distribution", "--x", "", "--n", "2200", "--budget", "2200"
        )
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(cap)
    want = exact_digits(2**2200)
    assert len(want) == 663
    assert (code, err) == (0, "")
    assert out == f"# x=\n# n=2200\n# mu={want}\n# upsilon={want}\nweight,count\n1,{want}\n"
