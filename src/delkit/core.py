"""Shared value types and exact arithmetic for bit-string combinatorics.

Bit strings are plain ``str`` objects over the characters '0' and '1' (the
CLI wire format); masks are tuples of 0-based indices, rendered 1-based
wherever output is meant for humans.  All counts are Python ints, so nothing
here can overflow.
"""
from __future__ import annotations

import re
from math import comb

__all__ = [
    "BudgetError",
    "DEFAULT_BUDGET",
    "Mask",
    "Rle",
    "binomial",
    "complement",
    "format_mask",
    "hamming_weight",
    "multichoose",
    "validate_bits",
]

Mask = tuple[int, ...]

DEFAULT_BUDGET = 24  # max string length for exhaustive enumerations


class _Value:
    """Base of the value types: == and repr over the fields that __init__
    sets, in the order it sets them."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Value):
    """A _Value whose fields only __init__ sets; it hashes by them."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class BudgetError(ValueError):
    """An enumeration was refused because its input exceeds the budget."""


def check_budget(n: int, budget: int | None = None, what: str = "n") -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if n > limit:
        raise BudgetError(f"{what}={n} exceeds enumeration budget {limit}")


def validate_bits(s: str) -> str:
    """Return ``s`` unchanged if it is a string over {'0','1'}, else raise."""
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    return s


_FLIP = str.maketrans("01", "10")


def complement(s: str) -> str:
    """Bitwise complement."""
    return validate_bits(s).translate(_FLIP)


def hamming_weight(s: str) -> int:
    """Number of 1s."""
    return s.count("1")


_RUN = re.compile("0+|1+")


def _run_lengths(s: str) -> tuple[int, ...]:
    """Lengths of the maximal runs of a bit string, in order."""
    return tuple(map(len, _RUN.findall(s)))


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n.  Needs n >= 0."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multichoose(objects: int, bins: int) -> int:
    """Ways to distribute ``objects`` identical items over ``bins`` bins.

    C(objects + bins - 1, objects), with the edge conventions that zero
    objects always fit (even with zero bins) and that a positive number of
    objects never fits into zero bins.
    """
    if objects < 0:
        return 0
    if objects == 0:
        return 1
    if bins <= 0:
        return 0
    return comb(objects + bins - 1, objects)


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

    def symbols(self) -> tuple[str, ...]:
        """Symbol of each run, in order."""
        first = self.leading
        other = "1" if first == "0" else "0"
        return tuple(first if i % 2 == 0 else other for i in range(len(self.lengths)))


def format_mask(mask: Mask) -> str:
    """Render a 0-based index tuple 1-based, e.g. (0, 1, 3) -> ``{1, 2, 4}``."""
    return "{" + ", ".join(str(i + 1) for i in mask) + "}"

