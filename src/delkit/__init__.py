"""Exact combinatorics of deletion channels on binary strings.

Counting how often a string embeds in another, the structure of the space of
supersequences compatible with an observation (clusters, maximal initials,
singletons), and the entropy of the posterior a deletion channel induces over
that space, with every closed form backed by an independent brute-force
oracle.  All arithmetic is exact.
"""
from . import core, embed, entropy, oracle, space
from .core import *
from .embed import *
from .entropy import *
from .oracle import *
from .space import *

__all__ = core.__all__ + embed.__all__ + entropy.__all__ + oracle.__all__ + space.__all__
__version__ = "0.1.0"
