import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from omcp.extend import (
    ExtensionOM,
    LexAtom,
    Localization,
    extension_fundamental_circuit,
    lex_localization,
    materialize_extension,
    validate_localization,
)
from omcp.om import NOT_A_BASIS, ExplicitOM, NotABasis
from omcp.plcp import random_p_matrix
from omcp.realize import RationalMatrix, RealizedOM, hstack, is_generic, negated, omcp_from_plcp
from omcp.signs import MINUS, PLUS, SIGNS, ZERO, GroundSet, SignedSet


def sigma_table_for_ext(pm):
    g = pm.ground
    return Localization(
        pm,
        (),
        {
            SignedSet.decode(g, "+-"): PLUS,
            SignedSet.decode(g, "-+"): MINUS,
        },
    )


def test_lex_atom_evaluation(pm):
    sigma = lex_localization(pm, "t1", MINUS)
    assert sigma.evaluate(SignedSet.decode(pm.ground, "+-")) == PLUS
    assert sigma.evaluate(SignedSet.decode(pm.ground, "-+")) == MINUS


def test_lex_zero_sign_gives_all_zero(pm):
    sigma = lex_localization(pm, "t1", ZERO)
    for d in pm.cocircuits():
        assert sigma.evaluate(d) == ZERO


def test_lex_zero_entry_branch(pm, ext):
    # Cocircuits of the extension restricted to a base without t1 in support
    # do not occur for this tiny base; exercise the branch via a table-free
    # localization over the 2-element free matroid instead.
    from omcp.om import ExplicitOM

    free = ExplicitOM(GroundSet.plain(["a", "b"]), frozenset())
    sigma = lex_localization(free, "a", MINUS)
    d = SignedSet.decode(free.ground, "0+")
    assert sigma.evaluate(d) == ZERO


def test_compose_identity_and_idempotence(pm):
    zero = Localization(pm)
    sigma = lex_localization(pm, "t1", MINUS)
    for d in pm.cocircuits():
        assert zero.compose(sigma).evaluate(d) == sigma.evaluate(d)
        assert sigma.compose(sigma).evaluate(d) == sigma.evaluate(d)


def test_compose_matches_entrywise_rule(pm):
    s1 = lex_localization(pm, "t1", MINUS)
    s2 = lex_localization(pm, "s1", MINUS)
    composed = s1.compose(s2)
    for d in pm.cocircuits():
        a, b = s1.evaluate(d), s2.evaluate(d)
        assert composed.evaluate(d) == (a if a != ZERO else b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIGNS), st.sampled_from(SIGNS), st.sampled_from(SIGNS))
def test_compose_associative_on_tables(sa, sb, sc):
    from omcp.om import ExplicitOM

    g = GroundSet.complementary(1)
    pm_local = ExplicitOM.from_encoded(g, ["++", "--"])
    cocircuits = sorted(pm_local.cocircuits(), key=lambda c: c.encode())

    def sign_odd_table(value):
        return Localization(
            pm_local,
            (),
            {cocircuits[0]: value, cocircuits[1]: -value},
        )

    a, b, c = sign_odd_table(sa), sign_odd_table(sb), sign_odd_table(sc)
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    for d in cocircuits:
        assert left.evaluate(d) == right.evaluate(d)


def test_extension_fundamental_circuit_reproduces_example(pm, ext):
    sigma = sigma_table_for_ext(pm)
    assert extension_fundamental_circuit(sigma, frozenset({"s1"})).encode() == "-0+"
    assert extension_fundamental_circuit(sigma, frozenset({"t1"})).encode() == "0++"
    assert materialize_extension(sigma).circuits == ext.circuits


def test_all_zero_extension_is_q_loop(pm, ext_degenerate):
    sigma = Localization(pm)
    for basis in pm.bases():
        c = extension_fundamental_circuit(sigma, basis)
        assert c.encode() == "00+"
    assert materialize_extension(sigma).circuits == ext_degenerate.circuits


def test_lex_atom_circuit_value(pm):
    sigma = lex_localization(pm, "t1", MINUS)
    c = extension_fundamental_circuit(sigma, frozenset({"t1"}))
    assert c.sign_of("t1") == PLUS and c.sign_of("q") == PLUS


def test_extension_oracle_queries(pm, ext):
    sigma = sigma_table_for_ext(pm)
    oracle = ExtensionOM(sigma)
    assert oracle.ground.elements == ("s1", "t1", "q")
    assert oracle.query(frozenset({"s1"}), "q") == ext.query(frozenset({"s1"}), "q")
    assert isinstance(oracle.query(frozenset({"s1", "t1"}), "q"), NotABasis)
    # delegated base query gets lifted with a zero q entry
    lifted = oracle.query(frozenset({"s1"}), "t1")
    assert lifted.encode() == "++0"
    with pytest.raises(ValueError):
        oracle.query(frozenset({"q"}), "s1")


def test_extension_support_invariant(pm):
    sigma = sigma_table_for_ext(pm)
    for basis in pm.bases():
        c = extension_fundamental_circuit(sigma, basis)
        assert c.sign_of("q") == PLUS
        assert c.support() <= basis | {"q"}


def test_validate_lexicographic_by_construction(pm):
    report = validate_localization(lex_localization(pm, "t1", MINUS))
    assert report.valid and report.by_construction
    composed = lex_localization(pm, "t1", MINUS).compose(lex_localization(pm, "s1", PLUS))
    assert validate_localization(composed).by_construction


def test_validate_rejects_sign_even_table(pm):
    g = pm.ground
    bad = Localization(
        pm,
        (),
        {
            SignedSet.decode(g, "+-"): PLUS,
            SignedSet.decode(g, "-+"): PLUS,
        },
    )
    report = validate_localization(bad)
    assert not report.valid and "sign-odd" in report.reason


def test_validate_accepts_good_table(pm):
    report = validate_localization(sigma_table_for_ext(pm))
    assert report.valid and not report.by_construction


def test_validate_rejects_incomplete_table(pm):
    g = pm.ground
    partial = Localization(pm, (), {SignedSet.decode(g, "+-"): PLUS})
    report = validate_localization(partial)
    assert not report.valid


def test_lex_extension_agrees_with_realization():
    # Extending a realized base by the column -a_e realizes [-.e].
    rng = random.Random(17)
    for n in (2, 3):
        while True:
            m = random_p_matrix(n, rng)
            a = hstack(RationalMatrix.identity(n), negated(m))
            if is_generic(a):
                break
        base = RealizedOM(a, GroundSet.complementary(n))
        for i in range(n):
            sigma = lex_localization(base, f"t{i+1}", MINUS)
            q = tuple(-m.entries[r][i] for r in range(n))
            realized_ext = omcp_from_plcp(m, q)
            for basis in realized_ext.minor_delete("q").bases():
                lhs = extension_fundamental_circuit(sigma, basis)
                rhs = realized_ext.query(basis, "q")
                assert lhs == rhs, (n, i, sorted(basis))


def test_json_roundtrip(pm):
    sigma = lex_localization(pm, "t1", MINUS)
    d = sigma.to_json_dict()
    assert d == {"atoms": [["t1", "-"]]}
    again = Localization.from_json_dict(pm, d)
    for c in pm.cocircuits():
        assert again.evaluate(c) == sigma.evaluate(c)
    table = sigma_table_for_ext(pm)
    d2 = table.to_json_dict()
    again2 = Localization.from_json_dict(pm, d2)
    for c in pm.cocircuits():
        assert again2.evaluate(c) == table.evaluate(c)


def test_extension_query_scans_each_base_circuit_once(monkeypatch):
    # n = 3 pairs: the explicit base has |E| = 6 elements and rank r = 3, so
    # C(B, q) needs the n - r = 3 circuits C(B, f), f outside B, once each.
    m = random_p_matrix(3, random.Random(3))
    matrix = hstack(RationalMatrix.identity(3), negated(m))
    explicit = omcp_from_plcp(m, (0, 0, 0)).minor_delete("q")
    realized = RealizedOM(matrix, GroundSet.complementary(3))
    atoms = (LexAtom("t2", MINUS), LexAtom("s1", PLUS))
    via_explicit = ExtensionOM(Localization(explicit, atoms))
    via_realized = ExtensionOM(Localization(realized, atoms))
    calls = []
    original = ExplicitOM.query

    def counting(self, basis, e):
        calls.append(e)
        return original(self, basis, e)

    monkeypatch.setattr(ExplicitOM, "query", counting)
    for basis in explicit.bases():
        before = len(calls)
        answer = via_explicit.query(basis, "q")
        assert len(calls) - before == 3
        assert answer == via_realized.query(basis, "q")
