"""Enumeration helpers shared by the test modules."""
from itertools import product


def all_bits(m):
    return ("".join(t) for t in product("01", repeat=m))


def compositions(m):
    """All compositions of m into positive parts, in lex order."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest
