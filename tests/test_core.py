import ast
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delkit.core import (
    binomial,
    complement,
    format_mask,
    hamming_weight,
    multichoose,
    validate_bits,
)
from delkit.paper_objects import Rle

bits = st.text(alphabet="01", max_size=40)


def test_validate_bits_accepts_and_rejects():
    assert validate_bits("") == ""
    assert validate_bits("0110") == "0110"
    for bad in ("012", "ab", "1 0", None, 10):
        with pytest.raises(ValueError):
            validate_bits(bad)


def test_complement_golden():
    assert complement("110") == "001"
    assert complement("") == ""


@given(bits)
def test_complement_is_an_involution(s):
    assert complement(complement(s)) == s
    assert hamming_weight(complement(s)) == len(s) - hamming_weight(s)


def test_binomial_golden_and_conventions():
    assert binomial(5, 3) == 10
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multichoose_conventions():
    # zero objects always fit, positive objects never fit in zero bins
    assert multichoose(0, 0) == 1
    assert multichoose(0, 5) == 1
    assert multichoose(2, 0) == 0
    assert multichoose(-1, 3) == 0
    assert multichoose(3, 2) == 4
    for objects in range(0, 8):
        for bins in range(1, 8):
            assert multichoose(objects, bins) == binomial(objects + bins - 1, objects)


def test_rle_golden():
    assert Rle.encode("0011010001") == Rle("0", (2, 2, 1, 1, 3, 1))
    assert Rle("1", (6, 1)).decode() == "1111110"
    assert Rle.encode("") == Rle("0", ())
    assert Rle.encode("1") == Rle("1", (1,))
    assert Rle.encode("10") == Rle("1", (1, 1))


def test_rle_rejects_malformed():
    with pytest.raises(ValueError):
        Rle("2", (1,))
    with pytest.raises(ValueError):
        Rle("0", (1, 0, 2))
    with pytest.raises(ValueError):
        Rle("1", (-1,))


def test_rle_round_trip_exhaustive_small():
    for n in range(0, 17):
        for tup in product("01", repeat=n):
            s = "".join(tup)
            assert Rle.encode(s).decode() == s


@given(bits)
def test_rle_round_trip_property(s):
    r = Rle.encode(s)
    assert r.decode() == s
    assert sum(r.lengths) == len(s)
    assert all(k >= 1 for k in r.lengths)


def test_mask_formatting_is_one_based():
    assert format_mask((0, 1, 2)) == "{1, 2, 3}"
    assert format_mask(()) == "{}"


def test_package_exports_the_union_of_module_lists():
    import delkit
    from delkit import clusters, core, deletions, embed, entropy, oracle, paper_objects, space

    names = (
        core.__all__ + embed.__all__ + entropy.__all__ + deletions.__all__ + oracle.__all__
        + space.__all__ + clusters.__all__ + paper_objects.__all__
    )
    assert len(set(names)) == len(names)
    assert sorted(delkit.__all__) == sorted(names)
    assert all(hasattr(delkit, name) for name in names)


SRC = Path(__file__).resolve().parent.parent / "src" / "delkit"


def test_each_lazy_table_entry_is_its_modules_export_list():
    import importlib

    import delkit

    for module, names in delkit._LAZY.items():
        assert list(names) == importlib.import_module(f"delkit.{module}").__all__, module


@pytest.mark.parametrize("module", ["oracle", "embed", "space"])
def test_independent_routes_import_only_core(module):
    # the oracle, the counting routes and the space code check one another,
    # so none of them may lean on another module of the package
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "core", ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] != "delkit", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "delkit" for a in node.names), ast.unparse(node)


def test_readme_quick_start_runs():
    readme = (SRC.parent.parent / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


@pytest.mark.parametrize(
    "bad", ["0a1", "01\n", "1 ", "\n", "0\x001", " 01", "01 ", "\uff10\uff11", b"01", None]
)
def test_validate_bits_rejects_any_stray_character(bad):
    with pytest.raises(ValueError) as err:
        validate_bits(bad)
    assert str(err.value) == f"not a bit string: {bad!r}"


@given(st.text(alphabet="01 \n\x00\uff10\uff11a", max_size=12))
def test_validate_bits_accepts_exactly_the_strings_over_0_and_1(s):
    if set(s) <= {"0", "1"}:
        assert validate_bits(s) is s
    else:
        with pytest.raises(ValueError):
            validate_bits(s)


def test_run_lengths_match_the_runs_spelled_out():
    from itertools import groupby

    from delkit.core import _run_lengths

    for n in range(0, 13):
        for s in ("".join(p) for p in product("01", repeat=n)):
            assert _run_lengths(s) == tuple(len(list(g)) for _, g in groupby(s))
