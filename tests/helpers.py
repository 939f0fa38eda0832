"""Helpers shared by the test modules: the CLI's own enumeration copies, and
one level of the histogram walk."""
from itertools import islice

from delkit.cli import _all_bits as all_bits  # noqa: F401
from delkit.space import _prefix_levels
from delkit.verify import _compositions as compositions  # noqa: F401


def prefix_level(n, x, depth, by_ones):
    """x's level at `depth` of its length-n walk, walked from the root."""
    return next(islice(_prefix_levels(n, x, by_ones), depth, None))
