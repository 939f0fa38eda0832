"""Exact combinatorics of deletion channels on binary strings.

Counting how often a string embeds in another, the structure of the space of
supersequences compatible with an observation (clusters, maximal initials,
singletons), and the entropy of the posterior a deletion channel induces over
that space, with every closed form backed by an independent brute-force
oracle.  All arithmetic is exact.
"""
from . import core, embed
from .core import *
from .embed import *

_LAZY = ("space", "entropy", "oracle")  # loaded on first use, in this order
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the _LAZY modules until one binds name, as a star-import would.

    A submodule's own name loads that submodule alone, or nothing: the import
    system probes it on ``from delkit import cli`` before loading the module.
    """
    if name in _LAZY:
        return __import__(f"{__name__}.{name}", fromlist=["__all__"])
    if not name.startswith("__"):
        from os.path import isfile, join
        if isfile(join(__path__[0], f"{name}.py")):
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if not name.startswith("__") or name == "__all__":
        for lazy in _LAZY:
            module = __import__(f"{__name__}.{lazy}", fromlist=["__all__"])
            globals().update((k, getattr(module, k)) for k in module.__all__)
            if name in globals():
                return globals()[name]
    if name == "__all__":
        names = [k for m in _LAZY for k in globals()[m].__all__]
        return globals().setdefault("__all__", core.__all__ + embed.__all__ + names)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
