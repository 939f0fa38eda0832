"""Command-line interface.

Subcommands: count (one embedding count), distribution (weight histogram),
sweep (entropy table over all x of one length), gchain (run-merging chain
with entropies), verify (self-check suites).  Output is CSV (with leading
``# key=value`` metadata lines) or JSON; both are deterministic byte-for-byte
for a given invocation.  Exit codes: 0 success, 1 verification failure
or stdout closed early, 2 usage/budget error or out of memory.

Budgets resolve as --budget over DELKIT_BUDGET over the default 24, and
must be nonnegative.  Before any work, _check_work refuses count --method
runs past 2^budget chain steps, count --masks past 2^budget mask positions,
sweep past its cap on m (the budget if set, else min(budget, 12)) and gchain
past 2^budget chain symbols; verify and the library use core.check_budget.
"""
from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain

from . import entropy as ent
from . import space
from .core import (
    DEFAULT_BUDGET, BudgetError, _all_bits, _run_lengths, check_budget, complement,
    format_mask, validate_bits,
)
from .embed import count_embeddings_dp, count_embeddings_runs, enumerate_masks

ENV_BUDGET = "DELKIT_BUDGET"
SWEEP_DEFAULT_MAX_M = 12
RAISE_BUDGET = f"raise --budget or {ENV_BUDGET}"


def _resolve_budget(args: argparse.Namespace) -> tuple[int, bool]:
    """Effective enumeration budget and whether it was set explicitly."""
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get(ENV_BUDGET)
        if env is None:
            return DEFAULT_BUDGET, False
        try:
            budget, source = int(env), ENV_BUDGET
        except ValueError:
            raise BudgetError(f"{ENV_BUDGET}={env!r} is not an integer") from None
    if budget < 0:
        raise BudgetError(f"{source} must be nonnegative, got {budget}")
    return budget, True


def _check_work(what: str, work: int, limit: int, cap: str, remedy: str = RAISE_BUDGET) -> None:
    """Refuse in one line, before it starts, work past its limit."""
    if work > limit:
        raise BudgetError(f"{what}={work} exceeds {cap}; {remedy}")


def _cell(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_text(obj: object) -> str:
    import json
    return json.dumps(obj, indent=2) + "\n"


@contextmanager
def _any_int_digits():
    """Lift Python 3.11+'s cap on int-to-str digits (4,300 by default) for the
    duration, so exact counts print in full; 3.10 has no cap to lift."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    cap = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _check_out(out: str) -> None:
    """Refuse an --out path that open() would refuse, before any work is done."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {out}: {os.strerror(err)}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed reader shows here, not in the flush at exit
    else:
        try:
            f = open(out, "w", encoding="utf-8")
        except OSError as e:
            raise ValueError(f"cannot write --out {out}: {e.strerror}") from None
        with f:
            f.write(text)


def _emit_table(
    args: argparse.Namespace,
    meta: list[tuple[str, object]],
    header: list[str],
    rows: Iterable,
) -> None:
    """CSV under ``# key=value`` lines, or JSON: the meta keys plus one row object each."""
    if args.format == "json":
        obj = dict(meta)
        obj["rows"] = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(obj), args.out)
        return
    buf = io.StringIO()
    for k, v in meta:
        buf.write(f"# {k}={v}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        rows = chain([first], rows)
        # csv writes an int or a str as str(v), as _cell does; each column
        # holds one type, so a first row without floats or bools needs no _cell
        if any(isinstance(v, (bool, float)) for v in first):
            rows = ([_cell(v) for v in row] for row in rows)
        w.writerows(rows)
    _emit(buf.getvalue(), args.out)


def cmd_count(args: argparse.Namespace) -> int:
    y = validate_bits(args.y)
    x = validate_bits(args.x)
    budget, _ = _resolve_budget(args)
    if args.method == "dp":
        w = count_embeddings_dp(y, x)
    elif args.method == "runs":
        # the chain's (u, v) pairs: at most runs(x) steps of band^2 pairs each
        rx, ry = len(_run_lengths(x)), len(_run_lengths(y))
        steps = rx * (max(ry - rx, 0) // 2 + 1) ** 2
        _check_work("runs(x)*((runs(y)-runs(x))//2+1)^2", steps, 2**budget,
                    f"2^{budget} chain steps for --method runs", "--method dp counts this pair")
        w = count_embeddings_runs(y, x)
    else:
        from .oracle import OracleBudget, oracle_count
        w = oracle_count(y, x, OracleBudget(max_n=budget))
    masks = None
    if args.masks:
        # the mask table holds omega tuples of |x| positions, and the empty mask counts one
        _check_work("omega*max(|x|,1)", w * max(len(x), 1), 2**budget,
                    f"2^{budget} mask positions for count --masks")
        masks = enumerate_masks(y, x)
    if args.format == "json":
        obj: dict[str, object] = {"y": y, "x": x, "method": args.method, "omega": w}
        if masks is not None:
            obj["masks"] = [[i + 1 for i in pi] for pi in masks]
        text = _json_text(obj)
    else:
        lines = [str(w)]
        if masks is not None:
            lines.extend(format_mask(pi) for pi in masks)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_distribution(args: argparse.Namespace) -> int:
    x = validate_bits(args.x)
    budget, _ = _resolve_budget(args)
    d = ent.weight_distribution(args.n, x, by_cluster=args.by_cluster, budget=budget)
    meta: list[tuple[str, object]] = [
        ("x", x),
        ("n", d.n),
        ("mu", ent.mu(d.n, d.m)),
        ("upsilon", space.upsilon_size(d.n, d.m)),
    ]
    if d.by_cluster is not None:
        header = ["cluster", "weight", "count"]
        rows = ((c, w, k) for c, part in d.by_cluster.items() for w, k in part.items())
    else:
        header = ["weight", "count"]
        rows = d.counts.items()
    _emit_table(args, meta, header, rows)
    return 0


def _orbit_rows(m: int, n: int, budget: int, tail) -> Iterator[tuple]:
    """(x, n, *tail(d)) for every x of length m in lex order, d its weight distribution.

    Reversal and complement keep every weight, so tail runs once per orbit, on
    its lex minimum; the sorted minima share walked prefixes.
    """
    keys = {x: min(x, x[::-1], (c := complement(x)), c[::-1]) for x in _all_bits(m)}
    reps = sorted(set(keys.values()))
    tails = {k: tail(d) for k, d in zip(reps, ent.weight_distributions(n, reps, budget=budget))}
    return ((x, n, *tails[k]) for x, k in keys.items())


def cmd_sweep(args: argparse.Namespace) -> int:
    budget, explicit = _resolve_budget(args)
    m, n = args.m, args.n
    if m < 0 or n < m:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    cap = budget if explicit else min(budget, SWEEP_DEFAULT_MAX_M)
    _check_work("m", m, cap, f"the sweep cap {cap}")
    alphas = args.alpha
    orders = [f"{a:g}" for a in alphas]
    seen: dict[str, float] = {}
    point_mass = ent.WeightDistribution(0, "", {1: 1})
    for a, o in zip(alphas, orders):
        ent.renyi_entropy(point_mass, a)  # refuses a bad order before any work
        if o in seen:
            raise ValueError(f"--alpha orders {seen[o]!r} and {a!r} share the label R_{o}")
        seen[o] = a

    def tail(d: ent.WeightDistribution) -> tuple:
        h, rs = ent.shannon_entropy(d), [ent.renyi_entropy(d, a) for a in alphas]
        if args.format == "json":
            return h, dict(zip(orders, rs)), ent.min_entropy(d)
        return tuple(_cell(v) for v in (h, *rs, ent.min_entropy(d)))  # formatted once per orbit

    if args.format == "json":
        meta, header = [("m", m), ("n", n), ("alphas", list(alphas))], ["x", "n", "H", "R", "Hmin"]
    else:
        meta = [("m", m), ("n", n), ("alphas", ",".join(orders))]
        header = ["x", "n", "H"] + [f"R_{o}" for o in orders] + ["Hmin"]
    _emit_table(args, meta, header, _orbit_rows(m, n, budget, tail))
    return 0


def cmd_gchain(args: argparse.Namespace) -> int:
    x = validate_bits(args.x)
    budget, _ = _resolve_budget(args)
    if not x:
        raise ValueError("gchain needs a nonempty string")
    # the chain has runs(x) rows of |x| symbols, which bounds output and work
    _check_work("runs(x)*|x|", len(_run_lengths(x)) * len(x), 2**budget,
                f"2^{budget} chain symbols for gchain")
    from .deletions import g_chain, predicted_weights_double, predicted_weights_single
    predict = predicted_weights_single if args.deletions == 1 else predicted_weights_double
    rows = [(i, s, ent.shannon_entropy(predict(s))) for i, s in enumerate(g_chain(x))]
    meta: list[tuple[str, object]] = [
        ("x", x),
        ("deletions", args.deletions),
        ("n", len(x) + args.deletions),
    ]
    _emit_table(args, meta, ["step", "x", "H"], rows)
    return 0


# suite name -> (its rows function in delkit.verify, called as f(max_m, extra,
# budget); default --max-m; extra, n - m at its longest compatible set, or
# None), in --help order; only clusters builds one at m = 0
SUITES = {
    "clusters": ("clusters", 6, 3),
    "initials": ("initials", 5, 3),
    "singletons": ("singletons", 5, 3),
    "lemma1": ("lemma", 8, 1),
    "lemma4": ("lemma", 8, 2),
    "identityB": ("identity_b", 10, None),
    "identityC": ("identity_c", 10, None),
    "entropy-min": ("entropy_min", 8, None),
}


def cmd_verify(args: argparse.Namespace) -> int:
    budget, _ = _resolve_budget(args)
    rows_of, default_max_m, extra = SUITES[args.suite]
    max_m = default_max_m if args.max_m is None else args.max_m
    if max_m < 0:
        raise ValueError(f"--max-m must be nonnegative, got {max_m}")
    check_budget(max_m, budget, "--max-m")
    if extra is not None and (max_m or args.suite == "clusters"):
        check_budget(max_m + extra, budget)
    from . import verify  # every refusal is made; only verify compiles the suites
    rows = getattr(verify, rows_of)(max_m, extra, budget)
    failures = sum(1 for r in rows if not r[3])
    meta: list[tuple[str, object]] = [
        ("suite", args.suite),
        ("max_m", max_m),
        ("checks", len(rows)),
        ("failures", failures),
    ]
    header = ["suite", "case", "lhs", "rhs", "ok"]
    _emit_table(args, meta, header, [(args.suite, *r) for r in rows])
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="delkit",
        description="Exact combinatorics of deletion channels on binary strings.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--out", metavar="PATH", default=None, help="write here instead of stdout")
        sp.add_argument(
            "--budget",
            type=int,
            default=None,
            help=f"length cap and log2 work cap (default {DEFAULT_BUDGET}; env {ENV_BUDGET})",
        )

    c = sub.add_parser("count", help="embedding count of x in y")
    c.add_argument("--y", required=True, help="the longer string")
    c.add_argument("--x", required=True, help="the embedded string")
    c.add_argument("--method", choices=["dp", "runs", "oracle"], default="dp")
    c.add_argument("--masks", action="store_true", help="also list embedding masks, 1-based")
    common(c)
    c.set_defaults(func=cmd_count)

    d = sub.add_parser("distribution", help="weight histogram of the length-n supersequences of x")
    d.add_argument("--x", required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--by-cluster", action="store_true", help="split by excess-1s cluster")
    common(d)
    d.set_defaults(func=cmd_distribution)

    s = sub.add_parser("sweep", help="entropy table over every x of length m")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument(
        "--alpha", type=float, nargs="+", default=[2.0], help="Renyi orders (default: 2)"
    )
    common(s)
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gchain", help="run-merging chain of x with entropies")
    g.add_argument("--x", required=True)
    g.add_argument("--deletions", type=int, choices=[1, 2], default=1)
    common(g)
    g.set_defaults(func=cmd_gchain)

    v = sub.add_parser("verify", help="self-check suites (exit 1 on any failure)")
    v.add_argument(
        "--suite",
        required=True,
        choices=list(SUITES),
        help=(
            "clusters/initials/singletons: closed forms vs the compatible sets; "
            "lemma1/lemma4: predicted one/two-insertion multisets vs the observed ones; "
            "identityB/identityC: count and mask-mass identities over compositions; "
            "entropy-min: constant strings minimize H and Renyi entropy"
        ),
    )
    v.add_argument("--max-m", type=int, default=None, help="sweep bound (per-suite default)")
    common(v)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        with _any_int_digits():
            return args.func(args)
    except ValueError as e:
        message = str(e)
    except MemoryError:  # reported below, once the frames that held the memory are gone
        message = f"{args.command} ran out of memory"
    except BrokenPipeError:  # stdout closed early: keep the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
