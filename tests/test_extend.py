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


def ref_extension_q(sigma, basis):
    """C(B, q) from every fundamental cocircuit of B: the entry at b in B is
    -sigma(C*(B, b)), the localization rule read straight off its definition."""
    base = sigma.base
    ground = base.ground.extended_by_q()
    names = frozenset(basis)
    if not base.is_basis(names):
        return NOT_A_BASIS
    signs = [ZERO] * (ground.size - 1) + [PLUS]
    for b, d in base.fundamental_cocircuits(names).items():
        signs[ground.index(b)] = -sigma.evaluate(d)
    return SignedSet.from_signs(ground, signs)


def outcome(query, *args):
    """The answer, or the error text: a missing table entry raises."""
    try:
        return query(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


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
    # n = 3 pairs: each explicit base has |E| = 6 elements and rank r = 3.
    # C(B, q) reads C(B, e) for atoms [s*e] with e outside B only, at most
    # once per atom and never more than once per element outside B, so
    # at most n - r = 3 times.  On the uniform base the first atom outside
    # B signs all of B and ends the scan after exactly one query; on the
    # diagonal one C(B, t_i) signs s_i alone, so each repeat would query.
    m = random_p_matrix(3, random.Random(3))
    diagonal = RationalMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    calls = []
    original = ExplicitOM._circuit

    def counting(self, b, e):
        calls.append(self.ground.elements[e])
        return original(self, b, e)

    # The base is asked through its mask core, C(B, e) from B's mask and e's index.
    monkeypatch.setattr(ExplicitOM, "_circuit", counting)
    for matrix, atom_lists in (
        (m, [
            (LexAtom("t2", MINUS), LexAtom("s1", PLUS)),
            (LexAtom("s1", PLUS), LexAtom("t1", MINUS), LexAtom("t3", PLUS)),
        ]),
        (diagonal, [
            tuple(LexAtom(e, s) for e in ("t1", "t2", "s3", "t3") for s in (MINUS, PLUS, MINUS)),
        ]),
    ):
        explicit = omcp_from_plcp(matrix, (0, 0, 0)).minor_delete("q")
        realized = RealizedOM(hstack(RationalMatrix.identity(3), negated(matrix)), explicit.ground)
        uniform = explicit.is_uniform()
        assert uniform == (matrix is m)
        for atoms in atom_lists:
            via_explicit = ExtensionOM(Localization(explicit, atoms))
            via_realized = ExtensionOM(Localization(realized, atoms))
            for basis in explicit.bases():
                before = len(calls)
                answer = via_explicit.query(basis, "q")
                made = calls[before:]
                outside = [a.element for a in atoms if a.element not in basis]
                assert len(made) <= len(outside) and len(made) <= 3
                assert len(set(made)) == len(made)
                if atoms[0].element not in basis:
                    assert made[:1] == [atoms[0].element]
                    assert len(made) == 1 or not uniform
                assert answer == via_realized.query(basis, "q")
                assert answer == ref_extension_q(Localization(realized, atoms), basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_query_matches_the_cocircuit_rule(data):
    # Entries in -1..1 make dependent r-subsets and zeros in C(B, e), so
    # the later atoms and the table fill entries the first atom leaves.
    n = data.draw(st.integers(1, 4), label="n")
    rows = data.draw(
        st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n),
        label="M",
    )
    realized = RealizedOM(
        hstack(RationalMatrix.identity(n), negated(RationalMatrix.from_rows(rows))),
        GroundSet.complementary(n),
    )
    elements = realized.ground.elements
    atoms = tuple(
        LexAtom(e, s)
        for e, s in data.draw(
            st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(SIGNS)), max_size=6),
            label="atoms",
        )
    )
    table = None
    if data.draw(st.booleans(), label="with table"):
        table = {}
        for d in sorted(realized.cocircuits(), key=lambda c: c.encode()):
            if d not in table and data.draw(st.integers(0, 9), label="keep") > 0:
                value = data.draw(st.sampled_from(SIGNS), label="value")
                table[d], table[d.negate()] = value, -value
    for base in (realized, realized.to_explicit()):
        sigma = Localization(base, atoms, table)
        oracle = ExtensionOM(sigma)
        for subset in itertools.combinations(elements, n):
            new = outcome(oracle.query, subset, "q")
            assert new == outcome(ref_extension_q, sigma, subset), (subset, atoms)
            assert isinstance(new, str) or (new is NOT_A_BASIS) == (
                not realized.is_basis(subset)
            )


def test_extension_query_agrees_on_every_adversary_localization():
    from omcp.adversary import AdversaryState, random_uniform_base, run_game

    class Recording(AdversaryState):
        def answer(self, v):
            out = super().answer(v)
            seen.append(self.sigma)
            return out

    for n, algo, seed in ((2, "jump", 1), (3, "ordered-scan", 2), (4, "jump", 3), (4, "ordered-scan", 4)):
        base = random_uniform_base(n, random.Random(seed))
        seen = [Localization(base)]
        result = run_game(algo, Recording(base))
        seen.append(result.oracle.sigma)
        for sigma in seen:
            oracle = ExtensionOM(sigma)
            for v in range(1 << n):
                basis = base.ground.vertex_basis(v)
                assert oracle.query(basis, "q") == ref_extension_q(sigma, basis), (n, v)


def test_extension_oracles_of_one_base_share_the_extended_ground():
    m = random_p_matrix(2, random.Random(7))
    base = RealizedOM(hstack(RationalMatrix.identity(2), negated(m)), GroundSet.complementary(2))
    extended = base.ground.extended_by_q()
    assert ExtensionOM(Localization(base)).ground is extended
    assert ExtensionOM(lex_localization(base, "t1", MINUS)).ground is extended
    assert extended == GroundSet.complementary(2, with_q=True)
    with pytest.raises(ValueError, match="already has a distinguished"):
        extended.extended_by_q()
    with pytest.raises(ValueError, match="already in use"):
        GroundSet.plain(["a", "q"]).extended_by_q()
