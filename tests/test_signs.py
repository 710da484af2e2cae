import pytest
from hypothesis import given, strategies as st

from omcp.signs import (
    MINUS,
    SIGNS,
    GroundSet,
    SignedSet,
    char_sign,
    sign_char,
)

G3 = GroundSet.complementary(1, with_q=True)


def ss(text, ground=G3):
    return SignedSet.decode(ground, text)


def sign_vectors(size=3):
    return st.tuples(*([st.sampled_from(SIGNS)] * size)).map(
        lambda t: SignedSet(G3, t)
    )


def test_sign_tables():
    assert char_sign(sign_char(MINUS)) == MINUS


def test_negate_examples():
    assert ss("++0").negate() == ss("--0")
    assert ss("000").negate() == ss("000")
    assert ss("-0+").negate() == ss("+0-")


def test_support_examples():
    assert ss("0++").support() == {"t1", "q"}
    assert ss("000").support() == frozenset()
    assert ss("00+").support() == {"q"}


def test_compose_examples():
    g2 = GroundSet.complementary(1)
    a, b = SignedSet.decode(g2, "+0"), SignedSet.decode(g2, "--")
    assert a.compose(b) == SignedSet.decode(g2, "+-")
    zero = SignedSet.zero(g2)
    assert zero.compose(b) == b
    assert b.compose(b) == b


def test_orthogonal_examples():
    assert ss("++0").orthogonal(ss("+-0"))
    assert ss("+00").orthogonal(ss("0+0"))
    assert not ss("++0").orthogonal(ss("+00"))


def test_ground_mismatch_raises():
    other = GroundSet.plain(["a", "b", "c"])
    with pytest.raises(ValueError):
        ss("++0").compose(SignedSet.decode(other, "++0"))
    with pytest.raises(ValueError):
        ss("++0").orthogonal(SignedSet.decode(other, "++0"))


def test_complementary_ground_structure():
    g = GroundSet.complementary(2, with_q=True)
    assert g.elements == ("s1", "s2", "t1", "t2", "q")
    assert g.pair(0) == ("s1", "t1")
    assert g.complementary_basis([0, 1]) == {"s1", "t2"}
    assert g.is_complementary_set({"s1", "t2"})
    assert not g.is_complementary_set({"s1", "t1"})
    assert not g.is_complementary_set({"s1", "q"})
    with pytest.raises(ValueError):
        GroundSet.complementary(0)
    with pytest.raises(ValueError):
        GroundSet(("t1", "s1"), (("s1", "t1"),), None)


def test_encode_decode_roundtrip():
    for text in ("+-0", "000", "+++"):
        assert ss(text).encode() == text


@given(sign_vectors())
def test_negate_involution(x):
    assert x.negate().negate() == x


@given(sign_vectors(), sign_vectors())
def test_orthogonal_symmetric(x, y):
    assert x.orthogonal(y) == y.orthogonal(x)


@given(sign_vectors(), sign_vectors(), sign_vectors())
def test_compose_associative(x, y, z):
    assert x.compose(y).compose(z) == x.compose(y.compose(z))


@given(sign_vectors())
def test_compose_idempotent_and_identity(x):
    assert x.compose(x) == x
    assert SignedSet.zero(G3).compose(x) == x
