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

# each module loaded on first use, with the names it exports (its __all__)
_LAZY = {
    "space": ("cluster_size_closed", "enumerate_supersequences", "upsilon_size"),
    "clusters": (
        "RunSlots", "cluster_size_recursive", "cluster_size_simple", "composition_slots",
        "initial_mask", "is_maximal_initial", "maximal_initials_cluster",
        "maximal_initials_total", "run_slots", "singleton_cluster_count", "singleton_count",
    ),
    "entropy": (
        "WeightDistribution", "min_entropy", "mu", "renyi_entropy", "shannon_entropy",
        "weight_distribution", "weight_distributions",
    ),
    "deletions": (
        "delta_single", "double_count_identity", "double_weight_identity", "g_chain",
        "g_transform", "predicted_weights_double", "predicted_weights_single",
    ),
    "oracle": ("OracleBudget", "oracle_count", "oracle_weight_table"),
    "paper_objects": ("BlockMap", "Rle", "block_map_weights", "sigma_count"),
}
__all__ = core.__all__ + embed.__all__ + [name for names in _LAZY.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load the one _LAZY module that is name, or that exports it.

    Any other submodule's name raises, so that the import system loads that
    submodule alone: it probes the package for the name on ``from delkit
    import cli`` before loading the module.
    """
    if name in _LAZY:
        return __import__(f"{__name__}.{name}", fromlist=["__all__"])
    for module_name, names in _LAZY.items():
        if name in names:
            module = __import__(f"{__name__}.{module_name}", fromlist=["__all__"])
            globals().update((k, getattr(module, k)) for k in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
