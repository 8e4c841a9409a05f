import itertools
import math
import pickle
import random
import time
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
    FieldError,
    InfiniteField,
    MixedFields,
    NeedsExtension,
    NonPrimeModulus,
    Poly,
    ReducibleModulus,
    canonical_cmp,
    embed,
    extension_of,
    field_make,
    find_root,
)
from evoalg import fields as fields_mod

from conftest import F2, F3, F4, F5, F7, F9, SMALL_FINITE, big_fraction_st, fel_st


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

    @pytest.mark.parametrize("p", [0, 4])
    def test_nonprime_with_a_modulus_rejected(self, p):
        # p is proved prime before the modulus is reduced mod p
        with pytest.raises(NonPrimeModulus):
            GF(p, 2, [1, 1, 1])

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        with pytest.raises(ReducibleModulus):
            GF(2, 2, [1, 0, 1])

    def test_modulus_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            GF(2, 2, [1, 1, 1, 1])
        with pytest.raises(DegreeMismatch):
            GF(2, 2, [1, 1, 0])  # not monic after reduction

    @pytest.mark.parametrize(
        "desc",
        [
            {"kind": "GF", "p": 5.9},
            {"kind": "GF", "p": 5.0},
            {"kind": "GF", "p": True},
            {"kind": "GF", "p": "5"},
            {"kind": "GF"},
            {"kind": "GF", "p": 2, "k": 2.7},
            {"kind": "GF", "p": 2, "k": True},
            {"kind": "GF", "p": 2, "k": "abc"},
            {"kind": "GF", "p": 2, "k": 2, "modulus": [1.9, 1, 1]},
            {"kind": "GF", "p": 2, "k": 2, "modulus": [True, 1, 1]},
            {"kind": "GF", "p": 2, "k": 2, "modulus": "111"},
            {"kind": "GF", "p": 2, "k": 2, "modulus": 7},
        ],
    )
    def test_non_integers_refused(self, desc):
        # p, k and the modulus coefficients are never truncated or parsed
        with pytest.raises(FieldError, match="are integers"):
            field_make(desc)

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


class TestRabinRunsOnce:
    """field_make proves a modulus irreducible once: a default modulus by the
    scan that finds it, a caller's modulus before its field is interned. The
    test is Ben-Or's; the class keeps the name it had under Rabin's."""

    @staticmethod
    def _count(monkeypatch):
        """The moduli Ben-Or's test is run on from now on, in call order. The
        scan also passes whether its root sieve has already run on m."""
        calls = []
        test = fields_mod._pf_is_irreducible

        def counted(m, f, *rootless):
            calls.append(m)
            return test(m, f, *rootless)

        monkeypatch.setattr(fields_mod, "_pf_is_irreducible", counted)
        return calls

    @pytest.mark.parametrize("p,k", [(3, 5), (2, 8)])
    def test_default_modulus(self, monkeypatch, p, k):
        calls = self._count(monkeypatch)
        m = fields_mod._first_irreducible(p, k)
        scan = len(calls)
        calls.clear()
        # start cold: GF(p, k) is interned with and without its default modulus
        monkeypatch.delitem(fields_mod._FIELDS, ("GF", p, k, m), raising=False)
        monkeypatch.delitem(fields_mod._FIELDS, ("GF", p, k), raising=False)
        assert field_make({"kind": "GF", "p": p, "k": k}).modulus == m
        assert len(calls) == scan

    def test_given_modulus(self, monkeypatch):
        calls = self._count(monkeypatch)
        m = (1, 1, 0, 1, 1, 0, 0, 0, 1)  # x^8 + x^4 + x^3 + x + 1
        monkeypatch.delitem(fields_mod._FIELDS, ("GF", 2, 8, m), raising=False)
        assert GF(2, 8, m).modulus == m
        assert calls == [m]
        GF(2, 8, m)  # interned: no second test
        assert calls == [m]


class TestSolvedOnce:
    """A root problem over a finite field and a default modulus are each
    solved once per process; over Q nothing is cached."""

    @staticmethod
    def _count(monkeypatch, name):
        """The argument tuples `fields.<name>` is called with from now on."""
        calls = []
        fn = getattr(fields_mod, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(fields_mod, name, counted)
        return calls

    @staticmethod
    def _nonsquare_poly(field):
        """x^2 - c for the least non-square c of `field`: its root needs an
        extension."""
        squares = {field.mul(x, x) for x in range(field.order)}
        c = next(x for x in range(field.order) if x not in squares)
        return Poly(field, [Fel(field, field.neg(c)), Fel(field, 0), Fel(field, 1)])

    @pytest.mark.parametrize("field", [GF(13, 2), F5])
    def test_repeat_find_root_is_not_solved_again(self, monkeypatch, field):
        fields_mod._finite_root.cache_clear()
        calls = self._count(monkeypatch, "_first_root_raw")
        poly = self._nonsquare_poly(field)
        ext, root, emb = find_root(field, poly)
        solved = len(calls)
        assert solved >= 2  # the base field, its quadratic extension and any embedding
        assert find_root(field, poly) == (ext, root, emb)
        assert len(calls) == solved
        mapped = Poly(ext, [Fel(ext, emb.raw(c)) for c in poly.coeffs])
        assert ext.k == 2 * field.k and mapped.eval(root).is_zero

    def test_repeat_default_modulus_is_not_scanned_again(self, monkeypatch):
        K = GF(7, 3)
        monkeypatch.delitem(fields_mod._FIELDS, ("GF", 7, 3))
        calls = self._count(monkeypatch, "_first_irreducible")
        assert GF(7, 3) is K  # one scan, which finds the interned field
        assert calls == [(7, 3)]
        assert GF(7, 3) is K
        assert field_make({"kind": "GF", "p": 7, "k": 3}) is K
        assert extension_of(F7, 3)[0] is K
        assert calls == [(7, 3)]

    def test_q_is_not_cached(self, monkeypatch):
        calls = self._count(monkeypatch, "_rational_root")
        before = fields_mod._finite_root.cache_info()
        poly = Poly(QQ, [-4, 0, 1])
        assert find_root(QQ, poly)[1].raw == 2
        assert find_root(QQ, poly)[1].raw == 2
        assert len(calls) == 2
        after = fields_mod._finite_root.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_cache_stays_at_its_bound(self):
        F13 = GF(13)
        bound = fields_mod._finite_root.cache_info().maxsize
        fields_mod._finite_root.cache_clear()
        # distinct cubics c3 x^3 + c2 x^2 + c1 x + c0 with a root r in GF(13):
        # cheap to solve, since none needs an extension
        cubics = dict.fromkeys(
            (-r * (c1 + r * (c2 + r * c3)) % 13, c1, c2, c3)
            for r, c3, c2, c1 in itertools.product(range(13), range(1, 13), range(13), range(13))
        )
        assert len(cubics) > bound + 100
        for coeffs in itertools.islice(cubics, bound + 100):
            find_root(F13, Poly(F13, coeffs))
        assert fields_mod._finite_root.cache_info().currsize == bound


def _short(n):
    return f"{n:.3g}" if n > 10**6 else str(n)


class TestSizeBudget:
    """A GF(p^k) descriptor with k * ceil(log2 p) past the budget is refused
    before any work; within it the default modulus is found in bounded time."""

    @staticmethod
    def _cold(monkeypatch, p, k):
        for key in [key for key in fields_mod._FIELDS if key[:3] == ("GF", p, k)]:
            monkeypatch.delitem(fields_mod._FIELDS, key)

    def test_gf_2_200_builds_in_half_a_second(self, monkeypatch):
        self._cold(monkeypatch, 2, 200)
        start = time.perf_counter()
        F = field_make({"kind": "GF", "p": 2, "k": 200})
        assert time.perf_counter() - start < 0.5
        assert F.order == 2**200 and len(F.modulus) == 201

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "p,k,low",
        [(7, 75, (4, 3, 1, 3)), (31, 49, (29, 1, 1)), (11, 55, (4, 1, 0, 1))],
        ids=["7^75", "31^49", "11^55"],
    )
    def test_slowest_odd_p_moduli_build_in_five_seconds(self, monkeypatch, p, k, low):
        # each took 4.5-8 s on the list arithmetic; the moduli are pinned from it
        self._cold(monkeypatch, p, k)
        start = time.perf_counter()
        F = GF(p, k)
        assert time.perf_counter() - start < 5.0
        assert F.modulus == low + (0,) * (k - len(low)) + (1,)

    @pytest.mark.parametrize("p,k", [(2, 256), (1000000000000000000000007, 3)], ids=_short)
    def test_at_the_budget_accepted(self, p, k):
        assert k * math.ceil(math.log2(p)) <= fields_mod._SIZE_BUDGET == 256
        assert GF(p, k).order == p**k

    @pytest.mark.parametrize("p,k", [(1000000000000000000000007, 3), (1000003, 4)], ids=_short)
    def test_scan_skips_binomials_that_cannot_be_irreducible(self, monkeypatch, p, k):
        # p = 2 mod 3 makes every c0 a cube, and p = 3 mod 4 rules out x^4 + c0:
        # each of the p binomials x^k + c0 is reducible, so none is tested
        assert p % 3 == 2 if k == 3 else p % 4 == 3
        self._cold(monkeypatch, p, k)
        tested = []
        test = fields_mod._pf_is_irreducible

        def counted(m, f, *rootless):
            tested.append(m)
            assert any(m[1:-1]) and len(tested) < 50, m  # stops a scan of the binomials
            return test(m, f, *rootless)

        monkeypatch.setattr(fields_mod, "_pf_is_irreducible", counted)
        m = GF(p, k).modulus
        assert m[1:] == (1,) + (0,) * (k - 2) + (1,) and tested[-1] == m

    @pytest.mark.parametrize(
        "p,k",
        [(2, 257), (2, 800), (3, 129), (5, 86), (1000000000000000000000007, 4), (2**300 + 1, 1)],
        ids=_short,
    )
    def test_past_the_budget_refused(self, p, k):
        assert k * math.ceil(math.log2(p)) > fields_mod._SIZE_BUDGET
        with pytest.raises(FieldError, match="past the budget of 256"):
            field_make({"kind": "GF", "p": p, "k": k})
        with pytest.raises(FieldError, match="past the budget"):
            GF(p, k, [1] * (k + 1))  # a caller's modulus too


class TestArith:
    def test_q_add(self):
        assert str(QQ.el("1/2") + QQ.el("1/3")) == "5/6"

    @pytest.mark.parametrize("p,k", [(13, 2), (2, 9), (5, 6)])
    def test_sub_above_the_tables_is_add_of_neg(self, p, k):
        K = GF(p, k)
        rng = random.Random(p * 100 + k)
        for _ in range(200):
            a, b = rng.randrange(K.order), rng.randrange(K.order)
            assert K.sub(a, b) == K.add(a, K.neg(b))

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


# GF(p), GF(p^k) with tables (order <= 128) and GF(p^k) past them
_PRODUCT_FIELDS = [GF(13), GF(2**61 - 1), GF(2, 2), GF(5, 3), GF(2, 7), GF(3, 5), GF(2, 8), GF(13, 2), GF(2, 100)]


class TestProductOps:
    """`sqr` and `prod_eq` agree with `mul`. Over Q they skip the gcd, and
    prod_eq tests zeros and sizes before it forms a product, so equal
    products of factors of very different sizes are drawn too."""

    @settings(max_examples=300, deadline=None)
    @given(a=big_fraction_st(), b=big_fraction_st(), c=big_fraction_st(), d=big_fraction_st())
    def test_q_against_mul(self, a, b, c, d):
        assert QQ.prod_eq(a, b, c, d) == (a * b == c * d)
        assert QQ.prod_eq(a, b, b, a) and QQ.prod_eq(a, 0, 0, d)
        for x in (a, b, c, d):
            sq = QQ.sqr(x)
            assert (sq.numerator, sq.denominator) == ((x * x).numerator, (x * x).denominator)

    @settings(max_examples=300, deadline=None)
    @given(a=big_fraction_st(nonzero=True), b=big_fraction_st(nonzero=True), k=big_fraction_st(nonzero=True))
    def test_q_equal_and_nearly_equal_products(self, a, b, k):
        c, d = a * k, b / k
        assert QQ.prod_eq(a, b, c, d) and QQ.prod_eq(c, d, b, a) and QQ.prod_eq(-a, b, c, -d)
        assert not QQ.prod_eq(a, b, c, d + 1) and not QQ.prod_eq(a, b, -c, d) and not QQ.prod_eq(a, b, 0, d)

    @pytest.mark.parametrize("field", _PRODUCT_FIELDS, ids=str)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_finite_against_mul(self, field, data):
        a, b, c, d = (data.draw(st.integers(0, field.order - 1)) for _ in range(4))
        mul = field.mul
        assert field.prod_eq(a, b, c, d) == (mul(a, b) == mul(c, d))
        assert field.sqr(a) == mul(a, a) and field.sqr(d) == mul(d, d)
        if c:  # c (b / c) a = a b
            assert field.prod_eq(a, b, field.div(b, c), mul(c, a))


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


def _trial_division_root(coeffs):
    """Reference for `_rational_root` off the pure x^n = u path, the
    candidate enumeration it replaced: every p/q with p | a_0 and q | a_n,
    the divisors found by trial division up to the square root, tried in the
    documented order (0 first, then ascending |r|, positive first)."""

    def divisors(n):
        n = abs(n)
        small, big = [], []
        f = 1
        while f * f <= n:
            if n % f == 0:
                small.append(f)
                if f * f != n:
                    big.append(n // f)
            f += 1
        return small + big[::-1]

    if coeffs[0] == 0:
        return Fraction(0)
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    cands = {Fraction(s * dn, dd) for dn in divisors(ints[0]) for dd in divisors(ints[-1]) for s in (1, -1)}
    for cand in sorted(cands, key=lambda r: (abs(r), r < 0)):
        if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
            return cand
    return None


def _expand(roots, lead, extra=()):
    """Coefficients, low degree first, of lead * prod(x - r) * (the
    polynomial with coefficients `extra`, if any)."""
    cs = [Fraction(lead)]
    for factor in [(-r, 1) for r in roots] + ([extra] if extra else []):
        out = [Fraction(0)] * (len(cs) + len(factor) - 1)
        for i, a in enumerate(cs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        cs = out
    return tuple(cs)


class TestRationalRoots:
    """Rational roots of non-pure quadratics and cubics over Q come from the
    integer roots of a monic transform, found by bisection, in bounded work."""

    small = st.fractions(min_value=-40, max_value=40, max_denominator=9)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        deg=st.sampled_from([2, 3]),
        lead=st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool),
    )
    def test_agrees_with_trial_division(self, data, deg, lead):
        if data.draw(st.booleans()):  # as many rational roots as the degree
            coeffs = _expand(data.draw(st.lists(self.small, min_size=deg, max_size=deg)), lead)
        else:
            coeffs = (*data.draw(st.lists(self.small, min_size=deg, max_size=deg)), lead)
        if all(c == 0 for c in coeffs[1:-1]):
            return  # the pure x^n = u path
        assert fields_mod._rational_root(coeffs) == _trial_division_root(coeffs)

    @pytest.mark.parametrize("c0", [10**16 + 61, 10**20 + 39, 10**400 + 3])
    def test_large_constant_term_without_a_root(self, c0):
        # x^2 + x + c0 has no real root; trial division up to sqrt(c0) took
        # 15 s at 10^16 + 61
        start = time.perf_counter()
        with pytest.raises(NeedsExtension):
            find_root(QQ, Poly(QQ, [c0, 1, 1]))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "roots,lead,extra,first",
        [
            # a cubic whose only rational root has 300 digits
            ([Fraction(10**300 + 7, 3)], 1, (1, 1, 1), Fraction(10**300 + 7, 3)),
            ([Fraction(10**200), -(10**200) - 1], Fraction(-5, 7), (), Fraction(10**200)),
            ([Fraction(-(10**150), 11), Fraction(10**150, 11), 3], 13, (), 3),
            ([Fraction(-(10**150), 11), Fraction(10**150, 11), 10**151], 2, (), Fraction(10**150, 11)),
            ([Fraction(-(10**150), 11), Fraction(10**150, 11) + 1], 2, (), Fraction(-(10**150), 11)),
            ([Fraction(10**90 + 1, 10**60), Fraction(10**90 + 1, 10**60)], 1, (), Fraction(10**90 + 1, 10**60)),
        ],
    )
    def test_large_roots(self, roots, lead, extra, first):
        coeffs = _expand(roots, lead, extra)
        start = time.perf_counter()
        k, r, _ = find_root(QQ, Poly(QQ, coeffs))
        assert time.perf_counter() - start < 1
        assert k is QQ and r.raw == first


def _bisection_root(x, n):
    """Exact integer n-th root of x >= 0 or None, by bisection on
    [0, 2^(bits / n + 1))."""
    lo, hi = 0, 1 << x.bit_length() // n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**n <= x else (lo, mid)
    return lo if lo**n == x else None


class TestIntegerRoots:
    """The pure x^n = u path over Q: residues turn away non-powers, square
    roots come from math.isqrt and cube roots from a seeded Newton run."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_bisection(self, n):
        rng = random.Random(n)
        values = list(range(300))
        for _ in range(25):
            r = rng.getrandbits(rng.randrange(1, 4000 // n))
            values += [r**n - 1, r**n, r**n + 1, rng.getrandbits(rng.randrange(1, 4000))]
        for x in values:
            if x >= 0:
                assert fields_mod._int_nthroot(x, n) == _bisection_root(x, n), (x, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_residue_tables(self, n):
        M, tables = fields_mod._POWER_RESIDUES[n]
        ms = [m for m, _ in tables]
        assert M == math.prod(ms) < 2**63 and math.lcm(*ms) == M  # pairwise coprime
        for m, powers in tables:
            assert powers == {r for r in range(m) if any(pow(x, n, m) == r for x in range(m))}, m
        # by the Chinese remainder theorem, the share of residues mod M that
        # pass every table, which every n-th power does
        assert math.prod(len(powers) / m for m, powers in tables) < 0.01

    def test_cube_root_floors(self):
        for x in [*range(5000), *(r**3 + d for r in (2**200, 3**500, 10**600) for d in (-1, 0, 1))]:
            r = fields_mod._icbrt(x)
            assert r**3 <= x < (r + 1) ** 3, x

    def test_denominator_root_only_after_numerator_root(self, monkeypatch):
        """The first six numerators fail a residue table, so math.isqrt never
        runs; 2545 = 5 * 509 passes every table, so its square root is taken.
        No denominator's root is taken unless the numerator has one."""
        isqrt_calls, root_calls = [], []
        isqrt, nthroot = math.isqrt, fields_mod._int_nthroot
        monkeypatch.setattr(math, "isqrt", lambda x: isqrt_calls.append(x) or isqrt(x))
        monkeypatch.setattr(fields_mod, "_int_nthroot", lambda x, n: root_calls.append(x) or nthroot(x, n))
        for num in (2, 3, 7, 10**400 + 1, 3**2001, 2 * 7**600, 2545):
            with pytest.raises(NeedsExtension):
                find_root(QQ, Poly(QQ, [-Fraction(num, 11**300), 0, 1]))
            assert root_calls == [num]
            root_calls.clear()
        assert isqrt_calls == [2545]
        isqrt_calls.clear()
        assert find_root(QQ, Poly(QQ, [-Fraction(9, 11**300), 0, 1]))[1].raw == Fraction(3, 11**150)
        assert isqrt_calls == [9, 11**300] and root_calls == [9, 11**300]


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

    def test_coefficient_vectors_coerce_like_gf_p(self):
        # 1/2 = 2 in GF(3); GF(4) has characteristic 2, where 1/2 has no image
        assert F9.coerce([Fraction(1, 2), 0]) == 2
        with pytest.raises(FieldError):
            F4.coerce([Fraction(1, 2), 0])
        with pytest.raises(FieldError):
            F9.coerce([1.5, 0])


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
