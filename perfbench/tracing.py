"""Spans around calls into delkit's modules, and the per-layer metrics they give.

The spans are recorded from the benchmark's side: `install` replaces each
traced public function, wherever a delkit module refers to it, with a wrapper
that notes name, start, end, parent span and job id; each weight_distribution
call is followed by a timed drain of enumerate_supersequences on the same
arguments, which is the `space.enumerate` span.  The program itself is not
changed.  `layer_metrics` turns the spans of one traced job into the
per-layer metrics declared in BENCHMARK.json.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (module, public function, span name, drain the enumeration after the call)
TRACED = (
    ("embed", "count_embeddings_dp", "embed.dp", False),
    ("embed", "count_embeddings_runs", "embed.runs", False),
    ("entropy", "weight_distribution", "entropy.weight_distribution", True),
    ("entropy", "WeightDistribution", "entropy.validate", False),
    ("entropy", "shannon_entropy", "entropy.eval", False),
    ("entropy", "renyi_entropy", "entropy.eval", False),
    ("entropy", "min_entropy", "entropy.eval", False),
    ("cli", "main", "cli.main", False),
)
DRAIN = "space.enumerate"


class Tracer:
    """In-memory spans: [id, name, start, end, parent id or None, job id, paused].

    `paused` is time the tracer itself spent inside the span (drains), which
    durations leave out.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = 0
        self.paused = 0.0
        self.drained = 0

    def wrap(self, name: str, fn, drain: bool):
        sig = inspect.signature(fn) if drain else None

        def traced(*args, **kwargs):
            span = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job, 0.0]
            self.spans.append(span)
            self.stack.append(span[0])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.stack.pop()
            if sig is not None:
                self._drain(span[0], sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _drain(self, parent: int, a: dict) -> None:
        """Time enumerate_supersequences on a weight_distribution call's
        arguments, right after the call so that both see the same host, and
        leave the drain out of every enclosing span."""
        enumerate_supersequences = sys.modules["delkit.space"].enumerate_supersequences
        start = perf_counter()
        for _ in enumerate_supersequences(a["n"], a["x"], a.get("budget")):
            self.drained += 1
        end = perf_counter()
        self.spans.append([len(self.spans), DRAIN, start, end, parent, self.job, 0.0])
        for sid in self.stack:
            self.spans[sid][6] += end - start
        self.paused += end - start

    def install(self) -> None:
        """Wrap every TRACED function in each loaded delkit module."""
        modules = [m for k, m in sys.modules.items() if k == "delkit" or k.startswith("delkit.")]
        for mod_name, attr, span_name, drain in TRACED:
            owner = sys.modules.get(f"delkit.{mod_name}")
            if owner is None:
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(span_name, orig, drain)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)


def _busy(spans: list[list], name: str) -> float:
    return sum(s[3] - s[2] - s[6] for s in spans if s[1] == name)


def _calls(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Busy times and call counts per layer from one traced job's spans."""
    main_ids = {s[0] for s in spans if s[1] == "cli.main"}
    main_children = sum(s[3] - s[2] - s[6] for s in spans if s[4] in main_ids)
    main = _busy(spans, "cli.main")
    enum_s = _busy(spans, DRAIN)
    return {
        "embed.runs.calls": _calls(spans, "embed.runs"),
        "embed.runs.busy_s": _busy(spans, "embed.runs"),
        "embed.dp.calls": _calls(spans, "embed.dp"),
        "embed.dp.busy_s": _busy(spans, "embed.dp"),
        "space.enumerate.calls": _calls(spans, DRAIN),
        "space.enumerate.busy_s": enum_s,
        "entropy.weight_distribution.calls": _calls(spans, "entropy.weight_distribution"),
        "entropy.weight_distribution.self_s": _busy(spans, "entropy.weight_distribution") - enum_s,
        "entropy.validate.busy_s": _busy(spans, "entropy.validate"),
        "entropy.eval.calls": _calls(spans, "entropy.eval"),
        "entropy.eval.busy_s": _busy(spans, "entropy.eval"),
        "cli.main.busy_s": main,
        "cli.self_s": main - main_children,
    }
