import dataclasses
import random

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
        lambda t: SignedSet.from_signs(G3, t)
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
    assert g.vertex_basis(0b01) == {"s1", "t2"}
    assert g.t_half(g.mask({"s1", "t2"})) == 0b10
    assert g.t_half(g.mask({"s1", "t1"})) is None
    assert g.t_half(g.mask({"s1", "q"})) is None
    with pytest.raises(ValueError):
        GroundSet.complementary(0)
    with pytest.raises(ValueError):
        GroundSet(("t1", "s1"), (("s1", "t1"),), None)


def t_half_of(v: int, n: int) -> int:
    """Vertex v's bits in dimension order: bit i holds v_i, bit n - 1 - i of v."""
    return sum(1 << i for i in range(n) if v >> n - 1 - i & 1)


@pytest.mark.parametrize("n, v", [(n, v) for n in range(1, 7) for v in range(1 << n)])
def test_vertex_map_round_trips(n, v):
    g = GroundSet.complementary(n, with_q=True)
    by_name = frozenset(f"t{i + 1}" if v >> n - 1 - i & 1 else f"s{i + 1}" for i in range(n))
    t = t_half_of(v, n)
    assert g.vertex_basis(v) == by_name
    assert frozenset(g.elements[k] for k in g.vertex_columns(t)) == by_name
    assert g.t_half(g.mask(g.vertex_basis(v))) == t
    rest = by_name - set(g.pair(0))
    assert g.t_half(g.mask(rest)) is None
    assert g.t_half(g.mask(by_name | {"q"})) is None
    assert g.t_half(g.mask(rest | {"q"})) is None
    if n > 1:
        assert g.t_half(g.mask(by_name - set(g.pair(1)) | set(g.pair(0)))) is None
    with pytest.raises(ValueError, match="unknown"):
        g.mask(rest | {"x"})
    plain = GroundSet.plain(g.elements)
    with pytest.raises(ValueError, match="complementary structure"):
        plain.t_half(plain.mask(by_name))


@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_halves_split_a_mask_by_pair_in_dimension_order(n, with_q):
    g = GroundSet.complementary(n, with_q)
    rng = random.Random(n)
    for mask in {0, (1 << g.size) - 1} | {rng.randrange(1 << g.size) for _ in range(32)}:
        names = g.names(mask)
        s = sum(1 << i for i in range(n) if f"s{i + 1}" in names)
        t = sum(1 << i for i in range(n) if f"t{i + 1}" in names)
        assert g.halves(mask) == (s, t), mask
    plain = GroundSet.plain(g.elements)
    with pytest.raises(ValueError, match="complementary structure"):
        plain.halves(0)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 12, 16, 17])
def test_vertex_masks_match_the_vertex_columns(n):
    # The mask map reverses vertex bits a byte at a time, so widths on both
    # sides of 8 and 16 are checked against the column list.
    g = GroundSet.complementary(n, with_q=True)
    rng = random.Random(n)
    q_bit = 1 << 2 * n
    for v in {0, (1 << n) - 1} | {rng.randrange(1 << n) for _ in range(64)}:
        t = t_half_of(v, n)
        columns = g.vertex_columns(t)
        mask = sum(1 << k for k in columns)
        assert g.vertex_mask(v) == mask
        assert g.t_half(mask) == t
        assert g.t_half(mask | q_bit) is None
        for i, pair in enumerate(g.pair_masks):
            assert g.t_half(mask ^ pair) == t ^ 1 << i
            assert g.t_half(mask | pair) is None
        picked = [rng.getrandbits(2 * n + 1) for _ in range(3)]
        assert g.on_vertex(v, *picked) == tuple(
            sum(1 << n - 1 - i for i, k in enumerate(columns) if mask >> k & 1)
            for mask in picked
        )
        assert g.on_vertex(v) == ()
        assert g.names(mask) == g.vertex_basis(v)


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


# A plain sign-tuple reference for every SignedSet operation, on a ground
# set of five elements and on the subsets it restricts to.
G5 = GroundSet.complementary(2, with_q=True)
SUBGROUNDS = (G5.without("q"), GroundSet.plain(["t2", "s1"]), GroundSet.plain([]))
REF_CHAR = {1: "+", -1: "-", 0: "0"}

sign_tuples = st.tuples(*([st.sampled_from(SIGNS)] * G5.size))


def ref_orthogonal(a, b):
    products = {x * y for x, y in zip(a, b)} - {0}
    return len(products) != 1


@given(sign_tuples, sign_tuples)
def test_operations_match_sign_tuple_reference(a, b):
    x, y = SignedSet.from_signs(G5, a), SignedSet.from_signs(G5, b)
    assert x.signs == a
    assert tuple(x.sign_of(name) for name in G5.elements) == a
    assert x.negate().signs == tuple(-s for s in a)
    assert x.compose(y).signs == tuple(s if s else t for s, t in zip(a, b))
    assert x.orthogonal(y) == ref_orthogonal(a, b)
    assert x.support() == frozenset(name for name, s in zip(G5.elements, a) if s)
    assert x.is_zero == (not any(a))
    assert (x == y) == (a == b)
    for sub in SUBGROUNDS:
        expected = tuple(a[G5.index(name)] for name in sub.elements)
        assert x.restricted_to(sub).signs == expected


@given(sign_tuples)
def test_from_signs_and_decode_agree(a):
    text = "".join(REF_CHAR[s] for s in a)
    x = SignedSet.from_signs(G5, a)
    assert x.encode() == text
    decoded = SignedSet.decode(G5, text)
    assert decoded == x and hash(decoded) == hash(x)


def test_equal_sets_on_distinct_equal_grounds_hash_equal_and_dedupe():
    a, b = GroundSet.complementary(2, with_q=True), GroundSet.complementary(2, with_q=True)
    assert a == b and a is not b
    x, y = SignedSet.decode(a, "+-0-+"), SignedSet.decode(b, "+-0-+")
    assert x == y and hash(x) == hash(y)
    assert frozenset({x, y, x.negate(), y.negate()}) == {x, x.negate()}


def test_signed_set_is_its_two_masks():
    assert [f.name for f in dataclasses.fields(SignedSet)] == ["ground", "pos_mask", "neg_mask"]
    x = ss("+-0")
    assert (x.pos_mask, x.neg_mask) == (0b001, 0b010)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SignedSet(G3, 0b001, 0b001),
        lambda: SignedSet(G3, 0b1000, 0),
        lambda: SignedSet(G3, 0, -1),
        lambda: SignedSet.from_signs(G3, (1, 0)),
        lambda: SignedSet.from_signs(G3, (1, 0, 0, 0)),
        lambda: SignedSet.from_signs(G3, (1, 0, 2)),
        lambda: SignedSet.decode(G3, "+0"),
        lambda: SignedSet.decode(G3, "+x0"),
    ],
)
def test_invalid_signed_sets_raise(build):
    with pytest.raises(ValueError):
        build()
