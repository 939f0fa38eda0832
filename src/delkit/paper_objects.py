"""The paper's run-length objects, which only tests and the benchmark call.

Rle, the run route's block maps (BlockMap, block_map_weights) and their count
sigma_count check the routes in embed independently; kept out of core and
embed, they load on first use, not on `import delkit`.  ROADMAP item 19 moves
them into tests/ once item 14 retires the benchmark's three calls of them.
"""
from __future__ import annotations

from math import comb

from .core import _Frozen, _run_lengths, binomial, validate_bits
from .embed import _aligned_run_lengths, _image_bounds

__all__ = ["BlockMap", "Rle", "block_map_weights", "sigma_count"]


class Rle(_Frozen):
    """Run-length encoding: the leading symbol plus the maximal-run lengths.

    Adjacent runs alternate symbols by construction, so the leading symbol
    and the length sequence determine the string; non-alternating encodings
    cannot be represented.  The empty string is encoded as zero runs with
    leading symbol '0' by convention.
    """

    def __init__(self, leading: str, lengths: tuple[int, ...]) -> None:
        if leading not in ("0", "1"):
            raise ValueError(f"leading symbol must be '0' or '1', got {leading!r}")
        if any(not isinstance(k, int) or k < 1 for k in lengths):
            raise ValueError(f"run lengths must be positive integers, got {lengths}")
        vars(self).update(leading=leading, lengths=lengths)

    @classmethod
    def encode(cls, s: str) -> "Rle":
        validate_bits(s)
        if not s:
            return cls("0", ())
        return cls(s[0], _run_lengths(s))

    def decode(self) -> str:
        sym = self.leading
        parts = []
        for k in self.lengths:
            parts.append(sym * k)
            sym = "1" if sym == "0" else "0"
        return "".join(parts)

    @property
    def block_count(self) -> int:
        return len(self.lengths)


def sigma_count(lp: int, l: int) -> int:
    """Number of strictly increasing parity-preserving maps [lp] -> [l].

    With lt = l if l and lp share parity else l-1: zero when lt < lp, else
    C(lp + u, u) where u = (lt - lp) / 2.
    """
    if lp < 0 or l < 0:
        raise ValueError("run counts must be nonnegative")
    lt = l if (l - lp) % 2 == 0 else l - 1
    if lt < lp:
        return 0
    u = (lt - lp) // 2
    return binomial(lp + u, u)


class BlockMap(_Frozen):
    """A strictly increasing map of run indices with f(i) = i (mod 2).

    ``images`` holds f(1), ..., f(lp) as 1-based run indices of y.
    """

    def __init__(self, images: tuple[int, ...]) -> None:
        prev = 0
        for i, v in enumerate(images, start=1):
            if v <= prev or (v - i) % 2:
                raise ValueError(f"not an increasing parity-preserving map: {images}")
            prev = v
        vars(self).update(images=images)


def block_map_weights(y: str, x: str) -> list[tuple[BlockMap, int]]:
    """Per-map weights of the run route, for maps of nonzero weight.

    The weights partition the mask set: they sum to count_embeddings_dp(y, x).
    Maps are indexed against y's runs after leading-symbol alignment.
    """
    aligned = _aligned_run_lengths(y, x)
    if aligned is None:
        return []
    ky, kx, q = aligned
    bounds = _image_bounds(kx, q, len(ky))
    if bounds is None:
        return []
    left, right = bounds
    lp = len(kx)
    out = []
    # depth first over image prefixes, in lex order: (images, weight so far)
    stack: list[tuple[tuple[int, ...], int]] = [((), 1)]
    while stack:
        images, w = stack.pop()
        i = len(images)
        if i == lp:
            out.append((BlockMap(images), w))
            continue
        u = images[-1] if images else 0
        children = []
        # only images that can complete; a zero factor drops the prefix with
        # all its extensions
        for v in range(max(u + 1, left[i]), right[i] + 1, 2):
            avail = q[v + 1] - q[u]
            if step := comb(avail, kx[i]) - comb(avail - ky[v - 1], kx[i]):
                children.append((images + (v,), w * step))
        stack.extend(reversed(children))
    return out
