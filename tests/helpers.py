"""Enumeration helpers shared by the test modules: the CLI's own copies."""
from delkit.cli import _all_bits as all_bits, _compositions as compositions  # noqa: F401
