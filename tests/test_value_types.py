"""The value types' contract: constructor, equality, hashing, repr, and
assignment refused on the frozen ones."""
import pytest

from delkit import BlockMap, OracleBudget, Rle, RunSlots, WeightDistribution

from oracle_scan import EntropyReport, OracleSpace


def check_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_rle():
    r = Rle(leading="0", lengths=(2, 1))
    assert r == Rle("0", (2, 1)) and r != Rle("1", (2, 1)) and r != Rle("0", (1, 2))
    assert hash(r) == hash(Rle("0", (2, 1))) and len({r, Rle("0", (2, 1))}) == 1
    assert repr(r) == "Rle(leading='0', lengths=(2, 1))"
    assert repr(Rle.encode("")) == "Rle(leading='0', lengths=())"
    check_frozen(r, "leading")
    check_frozen(r, "lengths")
    with pytest.raises(ValueError, match=r"^leading symbol must be '0' or '1', got '2'$"):
        Rle("2", (1,))
    with pytest.raises(ValueError, match=r"^run lengths must be positive integers, got \(1, 0\)$"):
        Rle("1", (1, 0))


def test_block_map():
    b = BlockMap(images=(1, 4))
    assert b == BlockMap((1, 4)) and b != BlockMap((1, 2)) and b != (1, 4)
    assert hash(b) == hash(BlockMap((1, 4)))
    assert repr(b) == "BlockMap(images=(1, 4))"
    check_frozen(b, "images")
    with pytest.raises(ValueError, match=r"^not an increasing parity-preserving map: \(2,\)$"):
        BlockMap((2,))


def test_run_slots():
    s = RunSlots(rho0=2, rho1=3)
    assert s == RunSlots(2, 3) and s != RunSlots(3, 2) and s != (2, 3)
    assert hash(s) == hash(RunSlots(2, 3))
    assert repr(s) == "RunSlots(rho0=2, rho1=3)"
    assert s.total == 5
    check_frozen(s, "rho0")


def test_weight_distribution():
    d = WeightDistribution(3, "01", {1: 2, 2: 2})
    assert d.by_cluster is None
    assert d == WeightDistribution(n=3, x="01", counts={1: 2, 2: 2}, by_cluster=None)
    assert d != WeightDistribution(3, "10", {1: 2, 2: 2})
    with pytest.raises(TypeError):
        hash(d)
    assert repr(d) == "WeightDistribution(n=3, x='01', counts={1: 2, 2: 2}, by_cluster=None)"
    c = WeightDistribution(2, "1", {1: 2, 2: 1}, {0: {1: 2}, 1: {2: 1}})
    assert repr(c) == "WeightDistribution(n=2, x='1', counts={1: 2, 2: 1}, by_cluster={0: {1: 2}, 1: {2: 1}})"
    assert c != WeightDistribution(2, "1", {1: 2, 2: 1})
    with pytest.raises(ValueError, match=r"^string count does not match the compatible-set size$"):
        WeightDistribution(3, "01", {1: 2})
    with pytest.raises(ValueError, match=r"^need 0 <= \|x\| <= n, got \|x\|=2, n=1$"):
        WeightDistribution(1, "01", {})


def test_oracle_budget():
    b = OracleBudget()
    assert b == OracleBudget(max_n=24, max_subsets=2_000_000)
    assert b != OracleBudget(max_subsets=8) and b != (24, 2_000_000)
    assert hash(b) == hash(OracleBudget())
    assert repr(b) == "OracleBudget(max_n=24, max_subsets=2000000)"
    assert repr(OracleBudget(10)) == "OracleBudget(max_n=10, max_subsets=2000000)"
    check_frozen(b, "max_n")


def test_oracle_space():
    s = OracleSpace(2, "1", {"01": 1, "10": 1, "11": 2})
    assert s.masks is None
    assert s == OracleSpace(n=2, x="1", weights={"01": 1, "10": 1, "11": 2}, masks=None)
    assert s != OracleSpace(2, "1", {"01": 1}, {"01": [(1,)]})
    with pytest.raises(TypeError):
        hash(s)
    assert repr(s) == "OracleSpace(n=2, x='1', weights={'01': 1, '10': 1, '11': 2}, masks=None)"
    assert s.singletons() == ["01", "10"]
    s.masks = {}
    assert s.masks == {}


def test_entropy_report():
    r = EntropyReport(shannon=1.5, renyi={2.0: 1.25}, min_entropy=1.0)
    assert r == EntropyReport(1.5, {2.0: 1.25}, 1.0) and r != EntropyReport(1.5, {}, 1.0)
    with pytest.raises(TypeError):
        hash(r)
    assert repr(r) == "EntropyReport(shannon=1.5, renyi={2.0: 1.25}, min_entropy=1.0)"
    r.shannon = 0.0
    assert r.shannon == 0.0
