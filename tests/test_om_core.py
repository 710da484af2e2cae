import itertools

import pytest

from omcp.guards import SizeGuardError
from omcp.om import (
    NOT_A_BASIS,
    ExplicitOM,
    NotABasis,
    check_circuit_axioms,
    ground_from_json,
)
from omcp.signs import GroundSet, SignedSet


def free_om(k):
    names = [chr(ord("a") + i) for i in range(k)]
    return ExplicitOM(GroundSet.plain(names), frozenset())


def test_axioms_valid_examples(pm, ext, ext_degenerate):
    assert check_circuit_axioms(pm.circuits) is None
    assert check_circuit_axioms(ext.circuits) is None
    assert check_circuit_axioms(ext_degenerate.circuits) is None


def test_axioms_c0(ground1):
    violation = check_circuit_axioms({SignedSet.zero(ground1)})
    assert violation is not None and violation.axiom == "C0"


def test_axioms_c1(ground1):
    violation = check_circuit_axioms({SignedSet.decode(ground1, "++")})
    assert violation is not None and violation.axiom == "C1"


def test_axioms_c2(ground1q):
    circuits = {
        SignedSet.decode(ground1q, s) for s in ("++0", "--0", "+++", "---")
    }
    violation = check_circuit_axioms(circuits)
    assert violation is not None and violation.axiom == "C2"


def test_axioms_c3(ground1q):
    # Two crossing circuit pairs with no eliminating circuit present.
    circuits = {
        SignedSet.decode(ground1q, s) for s in ("++0", "--0", "+-0", "-+0")
    }
    violation = check_circuit_axioms(circuits)
    assert violation is not None and violation.axiom in ("C2", "C3")


def test_axioms_c3_witness_reproduces(ground1q):
    circuits = {
        SignedSet.decode(ground1q, s)
        for s in ("+-0", "-+0", "+0-", "-0+", "0+-", "0-+")
    }
    violation = check_circuit_axioms(circuits)
    if violation is not None and violation.axiom == "C3":
        x, y = violation.witnesses
        e = violation.element
        assert x.sign_of(e) == 1 and y.sign_of(e) == -1


def test_rank_and_bases(pm, ext, ext_degenerate):
    assert pm.rank == 1
    assert pm.is_basis({"s1"}) and pm.is_basis({"t1"})
    assert not pm.is_basis({"s1", "t1"})
    # All three elements of the uniform extension are parallel: rank 1.
    assert ext.rank == 1
    assert not ext.is_basis({"s1", "q"})
    assert ext_degenerate.rank == 1
    assert free_om(4).rank == 4


def test_uniformity(ext, ext_degenerate):
    assert ext.is_uniform()
    # q is a loop in the degenerate extension, so {q} is not a basis.
    assert not ext_degenerate.is_uniform()
    assert free_om(3).is_uniform()


def test_cocircuits_free_om():
    om = free_om(2)
    expected = {"+0", "-0", "0+", "0-"}
    assert {c.encode() for c in om.cocircuits()} == expected


def test_cocircuits_examples(pm, ext):
    assert {c.encode() for c in pm.cocircuits()} == {"+-", "-+"}
    assert {c.encode() for c in ext.cocircuits()} == {"+-+", "-+-"}


def test_duality_involution(pm, non_pm, ext, ext_degenerate):
    for om in (pm, non_pm, ext, ext_degenerate, free_om(3)):
        assert om.dual().dual().circuits == om.circuits


def test_circuit_cocircuit_orthogonality(pm, ext, ext_degenerate):
    for om in (pm, ext, ext_degenerate):
        for x in om.circuits:
            for y in om.cocircuits():
                assert x.orthogonal(y)


def test_fundamental_circuit_examples(ext, ext_degenerate):
    assert ext.query(frozenset({"s1"}), "q").encode() == "-0+"
    assert ext.query(frozenset({"t1"}), "q").encode() == "0++"
    assert ext_degenerate.query(frozenset({"s1"}), "q").encode() == "00+"


def test_fundamental_circuit_errors(ext):
    with pytest.raises(ValueError):
        ext.query(frozenset({"s1"}), "s1")
    assert isinstance(ext.query(frozenset({"s1", "t1"}), "q"), NotABasis)


def test_fundamental_cocircuit_examples(pm):
    assert pm.fundamental_cocircuit({"s1"}, "s1").encode() == "+-"
    assert pm.fundamental_cocircuit({"t1"}, "t1").encode() == "-+"
    om = free_om(2)
    assert om.fundamental_cocircuit({"a", "b"}, "a").encode() == "+0"


def test_fundamental_cocircuit_errors(pm):
    with pytest.raises(ValueError):
        pm.fundamental_cocircuit({"s1"}, "t1")
    with pytest.raises(ValueError):
        pm.fundamental_cocircuit({"s1", "t1"}, "s1")


def test_minor_delete(pm, ext, ext_degenerate):
    assert ext.minor_delete("q").circuits == pm.circuits
    assert ext_degenerate.minor_delete("q").circuits == pm.circuits
    om = free_om(3)
    smaller = om.minor_delete("a")
    assert smaller.ground.size == 2 and not smaller.circuits


def test_fundamental_circuit_uniqueness(ext):
    for basis in ext.bases():
        for e in ext.ground.elements:
            if e in basis:
                continue
            c = ext.query(basis, e)
            matches = [
                x
                for x in ext.circuits
                if x.sign_of(e) == 1 and x.support() <= basis | {e}
            ]
            assert matches == [c]


def test_size_guard(monkeypatch):
    om = free_om(13)
    with pytest.raises(SizeGuardError):
        om.cocircuits()
    monkeypatch.setenv("OMCP_GUARD_OVERRIDE", "13")
    assert len(om.cocircuits()) == 26


def test_json_roundtrip(ext):
    d = ext.to_json_dict()
    assert d["n"] == 1 and d["ground"] == ["s1", "t1", "q"]
    again = ExplicitOM.from_json_dict(d)
    assert again.circuits == ext.circuits and again.ground == ext.ground


def test_json_rejects_bad_instances(ground1):
    with pytest.raises(ValueError):
        ExplicitOM.from_json_dict({"n": 1, "ground": ["s1", "t1"], "circuits": ["++"]})
    with pytest.raises(ValueError):
        ground_from_json({"n": 0, "ground": []})
    # --no-validate path loads without checking
    om = ExplicitOM.from_json_dict(
        {"n": 1, "ground": ["s1", "t1"], "circuits": ["++"]}, validate=False
    )
    assert len(om.circuits) == 1
