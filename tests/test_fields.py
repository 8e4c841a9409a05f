import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    GF,
    QQ,
    ConstantPolynomial,
    DegreeMismatch,
    Fel,
    InfiniteField,
    MixedFields,
    NeedsExtension,
    NonPrimeModulus,
    Poly,
    ReducibleModulus,
    canonical_cmp,
    embed,
    field_make,
    find_root,
)

from conftest import F2, F3, F4, F5, F7, F9, SMALL_FINITE, fel_st


class TestConstruction:
    def test_prime_field(self):
        f = field_make({"kind": "GF", "p": 5, "k": 1})
        assert f.order == 5 and f.char == 5

    def test_gf4_with_verified_modulus(self):
        # x^2 + x + 1 has no root in GF(2): 0^2+0+1 = 1, 1^2+1+1 = 1
        assert all(c % 2 + c % 2 + 1 for c in (0, 1))
        f = GF(2, 2, [1, 1, 1])
        assert f.order == 4

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
    def test_nonprime_rejected(self, p):
        with pytest.raises(NonPrimeModulus):
            GF(p)

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        with pytest.raises(ReducibleModulus):
            GF(2, 2, [1, 0, 1])

    def test_modulus_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 2, [1, 1, 1, 1])
        with pytest.raises(DegreeMismatch):
            GF(2, 2, [1, 1, 0])  # not monic after reduction

    def test_interning_and_pickle(self):
        f1 = GF(3, 2)
        f2 = field_make(f1.descriptor())
        assert f1 is f2
        assert pickle.loads(pickle.dumps(f1)) is f1
        assert pickle.loads(pickle.dumps(QQ)) is QQ

    def test_auto_modulus_is_first_irreducible(self):
        # over GF(2): x^2, x^2+1, x^2+x all reducible, x^2+x+1 is first
        assert GF(2, 2).modulus == (1, 1, 1)
        assert GF(2, 2) is F4


class TestArith:
    def test_q_add(self):
        assert str(QQ.el("1/2") + QQ.el("1/3")) == "5/6"

    def test_gf5_add(self):
        assert (F5.el(2) + F5.el(4)).raw == 1

    def test_gf4_generator_square(self):
        # x^2 reduced mod x^2+x+1 is x+1
        g = F4.el([0, 1])
        assert g * g == F4.el([1, 1])

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QQ.el(1) / QQ.el(0)
        with pytest.raises(ZeroDivisionError):
            F5.el(3) / F5.el(0)
        with pytest.raises(ZeroDivisionError):
            F4.el(1) / F4.el(0)

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFields):
            F5.el(1) + F7.el(1)
        with pytest.raises(MixedFields):
            QQ.el(1) * F5.el(1)

    def test_fraction_normalization_is_canonical(self):
        assert QQ.el("2/4") == QQ.el("1/2")
        assert QQ.el(Fraction(-3, -6)) == QQ.el("1/2")

    def test_arbitrary_precision(self):
        x = QQ.el(Fraction(10**40 + 1, 3))
        y = x * x * x
        assert y.raw == Fraction((10**40 + 1) ** 3, 27)

    @pytest.mark.parametrize("field", SMALL_FINITE + [QQ])
    def test_field_axioms_1000_random_triples(self, field):
        rng = random.Random(20240811)

        def draw():
            if field.order is None:
                return Fel(field, Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            return Fel(field, rng.randrange(field.order))

        one, zero = field.el(1), field.el(0)
        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a + (-a) == zero
            if not a.is_zero:
                assert a * (one / a) == one

    @pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F9])
    def test_frobenius(self, field):
        p = field.char
        rng = random.Random(7)
        for _ in range(200):
            a = Fel(field, rng.randrange(field.order))
            b = Fel(field, rng.randrange(field.order))
            assert (a + b) ** p == a**p + b**p


class TestElements:
    def test_gf3_order(self):
        assert [e.raw for e in F3.elements()] == [0, 1, 2]

    def test_gf4_order(self):
        # 0, 1, g, g+1 in coefficient order
        assert [F4.text(e.raw) for e in F4.elements()] == [
            [0, 0],
            [1, 0],
            [0, 1],
            [1, 1],
        ]

    def test_q_is_infinite(self):
        with pytest.raises(InfiniteField):
            list(QQ.elements())

    @pytest.mark.parametrize("field", SMALL_FINITE)
    def test_count_and_distinct(self, field):
        els = list(field.elements())
        assert len(els) == field.order == len(set(els))


class TestCanonicalCmp:
    def test_q_by_numerator_then_denominator(self):
        assert canonical_cmp(QQ.el("1/2"), QQ.el("2/3")) == -1

    def test_gf5(self):
        assert canonical_cmp(F5.el(4), F5.el(2)) == 1

    def test_reflexive(self):
        assert canonical_cmp(F5.el(3), F5.el(3)) == 0
        assert canonical_cmp(QQ.el("-7/2"), QQ.el("-7/2")) == 0

    def test_mixed(self):
        with pytest.raises(MixedFields):
            canonical_cmp(F5.el(1), F7.el(1))


class TestFindRoot:
    def test_sqrt2_in_gf7(self):
        # 3^2 = 9 = 2 (mod 7), and 3 is the first such residue
        squares = {x: x * x % 7 for x in range(7)}
        assert min(x for x, s in squares.items() if s == 2) == 3
        k, r, emb = find_root(F7, Poly(F7, [-2, 0, 1]))
        assert k is F7 and r.raw == 3

    def test_cbrt2_needs_gf343(self):
        cubes = {pow(x, 3, 7) for x in range(7)}
        assert cubes == {0, 1, 6} and 2 not in cubes
        k, r, emb = find_root(F7, Poly(F7, [-2, 0, 0, 1]))
        assert k.order == 343
        assert (r * r * r).raw == emb.raw(2)
        assert emb.src is F7 and emb.dst is k

    def test_rational_root(self):
        k, r, emb = find_root(QQ, Poly(QQ, [-4, 0, 1]))
        assert k is QQ and r.raw == 2

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("e", [16, 17, 52, 400])
    def test_exact_rational_roots_of_large_height(self, n, e):
        # the root 10^e: a float estimate misses it from 10^16 up and
        # overflows near 10^308
        u = Fraction(7**n, 10 ** (e * n))
        k, r, emb = find_root(QQ, Poly(QQ, [-u, *[0] * (n - 1), 1]))
        assert k is QQ and r.raw == Fraction(7, 10**e)

    @pytest.mark.parametrize("n", [2, 3])
    def test_near_powers_have_no_root(self, n):
        for e in (16, 52, 400):
            for off in (-1, 1):
                u = 10 ** (e * n) + off
                with pytest.raises(NeedsExtension):
                    find_root(QQ, Poly(QQ, [-u, *[0] * (n - 1), 1]))

    def test_needs_extension_over_q(self):
        poly = Poly(QQ, [Fraction(-1, 18), 0, 0, 1])
        with pytest.raises(NeedsExtension) as exc:
            find_root(QQ, poly)
        assert exc.value.poly == poly

    def test_general_cubic_over_q(self):
        # (x - 2/3)(x^2 + 1) = x^3 - 2/3 x^2 + x - 2/3
        poly = Poly(QQ, [Fraction(-2, 3), 1, Fraction(-2, 3), 1])
        k, r, emb = find_root(QQ, poly)
        assert r.raw == Fraction(2, 3)

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            find_root(F5, Poly(F5, [3]))

    def test_linear(self):
        k, r, _ = find_root(F5, Poly(F5, [3, 1]))
        assert k is F5 and r.raw == 2

    @pytest.mark.parametrize(
        "field,coeffs",
        [
            (F3, [-2, 0, 1]),  # x^2 - 2, 2 not a square mod 3
            (F5, [-2, 0, 1]),
            (F7, [-3, 0, 0, 1]),
            (F9, [1, 1, 1]),  # x^2 + x + 1 = (x-1)^2 in char 3
            (F4, [-2, 1, 1]),
        ],
    )
    def test_root_is_exact_and_degree_divides_six(self, field, coeffs):
        poly = Poly(field, coeffs)
        k, r, emb = find_root(field, poly)
        mapped = Poly(k, [Fel(k, emb.raw(c)) for c in poly.coeffs])
        assert mapped.eval(r).is_zero
        assert (k.k // field.k) in (1, 2, 3) and 6 % (k.k // field.k) == 0

    def test_tower_flattened(self):
        # a non-square in GF(9) forces GF(3^4), not a tower over GF(9)
        squares = {F9.mul(x, x) for x in range(9)}
        nonsq = next(x for x in range(9) if x not in squares)
        k, r, emb = find_root(F9, Poly(F9, [Fel(F9, F9.neg(nonsq)), Fel(F9, 0), Fel(F9, 1)]))
        assert k.char == 3 and k.k == 4
        assert (r * r).raw == emb.raw(nonsq)

    @pytest.mark.parametrize("field", [F5, F7, F9])
    def test_embedding_is_homomorphism(self, field):
        ext, emb = None, None
        # force a proper extension with a non-square
        squares = {field.mul(x, x) for x in range(field.order)}
        nonsq = next(x for x in range(field.order) if x not in squares)
        poly = Poly(field, [Fel(field, field.neg(nonsq)), Fel(field, 0), Fel(field, 1)])
        ext, _, emb = find_root(field, poly)
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randrange(field.order)
            b = rng.randrange(field.order)
            assert emb.raw(field.add(a, b)) == ext.add(emb.raw(a), emb.raw(b))
            assert emb.raw(field.mul(a, b)) == ext.mul(emb.raw(a), emb.raw(b))
        assert emb.raw(field.one) == ext.one


class TestEncoding:
    def test_q_text(self):
        assert QQ.text(QQ.coerce("-3")) == "-3"
        assert QQ.text(QQ.coerce("5/6")) == "5/6"

    def test_gf_text_roundtrip(self):
        for field in (F5, F4, F9):
            for e in field.elements():
                assert field.parse(field.text(e.raw)) == e.raw

    def test_q_rejects_floats(self):
        with pytest.raises(Exception):
            QQ.coerce(0.5)

    @pytest.mark.parametrize("field", [F4, F9])
    def test_gf_parse_rejects_wrong_length(self, field):
        with pytest.raises(Exception):
            field.parse([1, 2, 3])


@settings(max_examples=200)
@given(data=st.data())
def test_property_inverse_roundtrip_gf9(data):
    a = data.draw(fel_st(F9, nonzero=True))
    assert (F9.el(1) / a) * a == F9.el(1)


@settings(max_examples=200)
@given(data=st.data())
def test_property_sub_is_add_neg_q(data):
    a = data.draw(fel_st(QQ))
    b = data.draw(fel_st(QQ))
    assert a - b == a + (-b)
