"""The integer kernel over GF(p)[x], and its packed ring GF(p^k)[y]/(h),
against an independent reference.

The reference multiplies coefficient lists with the list toolkit (`_poly_mul`,
`_poly_rem`, `_poly_powmod`, one field-method call per coefficient) and adds
them coefficient by coefficient; the kernel works on base-p indices, with XOR
and carry-less products over GF(2) and packed slots for odd p. The library
no longer multiplies lists, so `_poly_mul` and `_poly_powmod` are kept below,
as the library last had them.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import GF, EvolutionMsc, Poly, classify, embed, find_root
from evoalg import fields as fields_mod


def _poly_mul(a, b, f) -> tuple:
    if not a or not b:
        return ()
    add, mul = f.add, f.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return fields_mod._poly_trim(out)


def _poly_powmod(a, n: int, m, f) -> tuple:
    """a^n modulo the monic m, by square-and-multiply."""
    _poly_rem = fields_mod._poly_rem
    acc, a = (f.one,), _poly_rem(a, m, f)
    while n:
        if n & 1:
            acc = _poly_rem(_poly_mul(acc, a, f), m, f)
        n >>= 1
        if n:
            a = _poly_rem(_poly_mul(a, a, f), m, f)
    return acc


def _index(cs, p):
    return sum(c * p**i for i, c in enumerate(cs))


def ref_op(F, op, a, b):
    """add, sub, neg (of b) or mul of raw a and b in F, by the reference."""
    base, p = GF(F.p), F.p
    ca, cb = F.text(a), F.text(b)
    if op == "add":
        return _index([base.add(x, y) for x, y in zip(ca, cb)], p)
    if op == "sub":
        return _index([base.sub(x, y) for x, y in zip(ca, cb)], p)
    if op == "neg":
        return _index([base.neg(y) for y in cb], p)
    trim = fields_mod._poly_trim
    prod = _poly_mul(trim(ca), trim(cb), base)
    return _index(fields_mod._poly_rem(prod, F.modulus, base), p)


ABOVE_TABLES = [(2, 8), (2, 31), (2, 62), (3, 5), (3, 40), (13, 2), (13, 16), (211, 2)]
WITH_TABLES = [(2, 2), (3, 2), (2, 4), (3, 3), (2, 6), (5, 3)]


class TestKernelAgainstReference:
    def test_fields_lie_above_the_tables(self):
        assert all(p**k > fields_mod._TABLE_MAX for p, k in ABOVE_TABLES)
        assert all(p**k <= fields_mod._TABLE_MAX for p, k in WITH_TABLES)

    @pytest.mark.parametrize("p,k", ABOVE_TABLES, ids=lambda v: str(v))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ops_above_the_tables(self, p, k, data):
        F = GF(p, k)
        a = data.draw(st.integers(0, F.order - 1))
        b = data.draw(st.integers(0, F.order - 1))
        assert F.add(a, b) == ref_op(F, "add", a, b)
        assert F.sub(a, b) == ref_op(F, "sub", a, b)
        assert F.neg(b) == ref_op(F, "neg", a, b)
        assert F.mul(a, b) == ref_op(F, "mul", a, b)
        if a:
            assert F.mul(a, F.inv(a)) == 1

    @pytest.mark.parametrize("p,k", WITH_TABLES + [(2, 1), (5, 1), (127, 1)], ids=lambda v: str(v))
    def test_tables(self, p, k):
        # the prime fields' tables serve the census; their own ops stay residues
        F = GF(p, k)
        add, sub, mul, neg, inv = F.tables
        ref_mul = (lambda a, b: a * b % p) if k == 1 else (lambda a, b: ref_op(F, "mul", a, b))
        for a, b in itertools.product(range(F.order), repeat=2):
            assert mul[a][b] == F.mul(a, b) == ref_mul(a, b), (a, b)
            assert add[a][b] == F.add(a, b) == ref_op(F, "add", a, b), (a, b)
            assert sub[a][b] == F.sub(a, b) == ref_op(F, "sub", a, b), (a, b)
        assert neg == [F.neg(b) for b in range(F.order)] == [ref_op(F, "neg", 0, b) for b in range(F.order)]
        assert inv[0] is None
        assert all(inv[a] == F.inv(a) and mul[a][inv[a]] == 1 for a in range(1, F.order))

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_reducible_modulus_products(self, p):
        # Ben-Or's steps multiply modulo candidates that may factor
        m = (1, 0, 1, 0, 1) if p == 2 else (p - 1, 0, 0, 0, 1)  # (x^2 + x + 1)^2, x^4 - 1
        ring, base = fields_mod._PolyMod(p, m), GF(p)
        rng = random.Random(p)
        for _ in range(200):
            a, b = rng.randrange(p**4), rng.randrange(p**4)
            prod = _poly_mul(
                fields_mod._poly_trim(fields_mod._digits(a, p)),
                fields_mod._poly_trim(fields_mod._digits(b, p)),
                base,
            )
            assert ring.mul(a, b) == _index(fields_mod._poly_rem(prod, m, base), p)


class TestTablesAreLazy:
    """Only a use of `tables` builds them: no construction, no GF(p)
    arithmetic and no extension-field arithmetic above _TABLE_MAX does."""

    def test_construction_and_arithmetic(self):
        prime = fields_mod.PrimeField(127)  # not interned, so no other test touched it
        ext = fields_mod.ExtensionField(GF(2), (1, 1, 0, 0, 1))  # GF(2^4), x^4 + x + 1
        big = fields_mod.ExtensionField(GF(2), (1, 1, 0, 1, 1, 0, 0, 0, 1))  # GF(2^8)
        assert all("tables" not in F.__dict__ for F in (prime, ext, big))
        for F in (prime, big):
            a, b = 3, F.order - 2
            F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.inv(a), F.div(a, b), F.pow_raw(a, 5)
            assert "tables" not in F.__dict__
        assert ext.mul(2, 3) == 6 and "tables" in ext.__dict__

    def test_classify_with_a_witness_above_the_tables(self):
        F = GF(113)
        for field in (F, GF(113, 2)):
            field.__dict__.pop("tables", None)
        res = classify(EvolutionMsc.of(F, (1, 3, 0, 0)))  # 3 is not a square mod 113
        assert res.key.label == "E4" and res.witness_field is GF(113, 2)
        assert "tables" not in F.__dict__ and "tables" not in res.witness_field.__dict__


class TestDistinctRootStep:
    """Over a polynomial with coefficients in GF(p) the gcd with y^q - y is
    taken in the prime field's kernel; the list toolkit over f gives the
    same monic gcd."""

    @pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (13, 2), (13, 3), (2, 20)], ids=str)
    def test_same_gcd_as_over_the_field(self, p, k):
        f = GF(p, k)
        rng = random.Random(p * k)
        for _ in range(12):
            g = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 4))) + (1,)
            y = fields_mod._poly_rem((0, 1), g, f)
            frob = _poly_powmod(y, f.order, g, f)
            want = fields_mod._poly_gcd(g, fields_mod._poly_sub(frob, y, f), f)
            ring = fields_mod._PolyMod(p, g)
            y = ring.mul(p, 1)  # x mod g
            got = fields_mod._px_gcd(ring.m, fields_mod._px_add(p, -1, ring.pow(y, f.order), y), p)
            assert tuple(fields_mod._digits(got, p)) == want, g

    def test_roots_of_prime_field_polynomials(self):
        f = GF(13, 3)
        for u in (2, 6, 7):  # non-cubes mod 13: every root lies outside GF(13)
            roots = fields_mod._roots_raw(f, (13 - u, 0, 0, 1))
            assert len(roots) == 3 and all(f.pow_raw(r, 3) == u for r in roots)
            assert find_root(GF(13), Poly(GF(13), [-u, 0, 0, 1]))[1].raw == min(roots)


class TestLargeExtensionPins:
    """A witness and an embedding root that must not move, as earlier
    versions computed them (in about 4 s and 50 s), each within a time bound."""

    def test_non_cube_e3_over_gf_2_20(self):
        start = time.perf_counter()
        res = classify(EvolutionMsc.of(GF(2, 20), (0, [0, 1], 1, 0)))
        assert time.perf_counter() - start < 1.0
        K = res.witness_field
        assert res.key.label == "E3" and K.k == 60 and K.modulus == (1, 1) + (0,) * 58 + (1,)
        assert res.witness.ginv.e == ((179764648356544458, 0), (0, 37131437909651339))

    def test_embed_gf_2_41_into_gf_2_82(self):
        start = time.perf_counter()
        emb = embed(GF(2, 41), GF(2, 82))
        assert emb.raw(2) == 555030246052383603926014  # raw 2 is the generator x
        assert time.perf_counter() - start < 5.0


RING_FIELDS = [(2, 8), (2, 31), (2, 62), (3, 5), (13, 2), (13, 3), (211, 2)]


def _linear_product(rs, f):
    out = (f.one,)
    for r in rs:
        out = _poly_mul(out, (f.neg(r), f.one), f)
    return out


def ring_modulus(f):
    """Monic moduli h over f: any of degree 1-4, products of linear factors
    (reducible, repeated factors allowed), and degree 12."""
    elt = st.integers(0, f.order - 1)
    coeffs = lambda n: st.lists(elt, min_size=n, max_size=n).map(lambda cs: (*cs, f.one))
    return st.one_of(
        st.integers(1, 4).flatmap(coeffs),
        st.lists(elt, min_size=2, max_size=4).map(lambda rs: _linear_product(rs, f)),
        coeffs(12),
    )


class TestPackedRing:
    """GF(p^k)[y]/(h) on single ints against the list toolkit over f."""

    @pytest.mark.parametrize("p,k", RING_FIELDS, ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_product_and_power(self, p, k, data):
        f = GF(p, k)
        h = data.draw(ring_modulus(f))
        d = len(h) - 1
        el = st.lists(st.integers(0, f.order - 1), min_size=d, max_size=d).map(fields_mod._poly_trim)
        a, b = data.draw(el), data.draw(el)
        n = data.draw(st.integers(1, 300))
        ring = fields_mod._PolyRing(f, h)
        A, B = ring.pack(a), ring.pack(b)
        assert ring.unpack(A) == a
        assert ring.unpack(ring.mul(A, B)) == fields_mod._poly_rem(_poly_mul(a, b, f), h, f)
        assert ring.unpack(ring.sqr(A)) == fields_mod._poly_rem(_poly_mul(a, a, f), h, f)
        assert ring.unpack(ring.pow(A, n)) == _poly_powmod(a, n, h, f)

    @pytest.mark.parametrize("p,k", RING_FIELDS + [(2, 1), (3, 1), (1009, 1)], ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 12])
    def test_largest_operands(self, p, k, d):
        # a product leaves every slot below 2p; operands with every slot
        # 2p - 1 (the element with every digit p - 1) make the largest
        # coefficients there are, which the slots must hold
        f = GF(p, k)
        top, ones = f.order - 1, (f.order - 1) // (p - 1)  # digits p - 1 and digits 1
        h = (ones,) * d + (f.one,)
        ring = fields_mod._PolyRing(f, h)
        a = (top,) * d
        A = ring.pack(a)
        T = 2 * A + ring.pack((ones,) * d) if p > 2 else A
        want = fields_mod._poly_rem(_poly_mul(a, a, f), h, f)
        assert ring.unpack(T) == a
        assert ring.unpack(ring.mul(T, T)) == ring.unpack(ring.sqr(T)) == ring.unpack(ring.mul(A, A)) == want
        assert ring.unpack(ring.pow(T, 7)) == _poly_powmod(a, 7, h, f)


def _brute_roots(f, coeffs):
    return sorted(x for x in range(f.order) if fields_mod._horner(f, coeffs, x) == 0)


class TestRoots:
    @pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (13, 2), (131, 1)], ids=str)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_root_against_a_scan(self, p, k, data):
        # coefficients over the whole field, so the distinct-root step and
        # every split run in the packed ring over f
        f = GF(p, k)
        elt = st.integers(0, f.order - 1)
        coeffs = data.draw(
            st.one_of(
                st.lists(elt, min_size=2, max_size=6).map(lambda cs: (*cs, f.one)),
                st.lists(elt, min_size=1, max_size=5).map(lambda rs: _linear_product(rs, f)),
            )
        )
        assert sorted(fields_mod._roots_raw(f, coeffs)) == _brute_roots(f, coeffs)

    # every _roots_raw call of the E3/E4 ops of perfbench large_field seeds 1-3
    # (p, k, coefficients, roots), and the embedding GF(3^10) -> GF(3^20), as
    # the list splitting found them; default moduli throughout
    PINS = [
        (179, 1, (177, 0, 1), ()),
        (179, 2, (177, 0, 1), (13962, 18079)),
        (31, 3, (26, 0, 0, 1), (15376, 17298, 26908)),
        (13, 3, (9, 0, 0, 1), (169, 507, 1521)),
        (43, 3, (38, 0, 0, 1), (129, 774, 946)),
        (19, 3, (3, 0, 0, 1), (95, 304, 323)),
        (223, 1, (203, 0, 1), ()),
        (223, 2, (203, 0, 1), (9366, 40363)),
        (37, 3, (24, 0, 0, 1), (8214, 10952, 31487)),
        (149, 1, (51, 0, 1), ()),
        (149, 2, (51, 0, 1), (1490, 20711)),
        (113, 2, (46, 0, 1), (4068, 8701)),
        (3, 20, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), (
            129452980, 231811033, 258702461, 334419668, 726089840,
            1016750155, 1207194487, 2287642086, 2414310206, 2894682942,
        )),
    ]

    @pytest.mark.parametrize("p,k,coeffs,roots", PINS, ids=lambda v: str(v)[:12])
    def test_pinned_root_sets(self, p, k, coeffs, roots):
        assert tuple(sorted(fields_mod._roots_raw(GF(p, k), coeffs))) == roots

    def test_embedding_root_and_splitting_tries(self, monkeypatch):
        # the shifts come from _SPLIT_SEED in the same order, so the number of
        # tries is the list splitting's too
        calls, split = [], fields_mod._split_poly
        monkeypatch.setattr(fields_mod, "_split_poly", lambda *a: calls.append(1) or split(*a))
        src, dst = GF(3, 10), GF(3, 20)
        roots = fields_mod._roots_raw(dst, src.modulus)
        assert len(calls) == 8 and min(roots) == self.PINS[-1][3][0]
        assert embed(src, dst).raw(3) == min(roots)  # raw 3 is the generator x

    def test_a_broken_split_fails_fast(self, monkeypatch):
        # a split that never cuts: the bounded shifts end in an error, also
        # under python -O, instead of a loop without end
        monkeypatch.setattr(fields_mod, "_split_poly", lambda ring, a: (ring.f.one,))
        start = time.perf_counter()
        with pytest.raises(AssertionError, match="no split"):
            fields_mod._roots_raw(GF(3, 20), GF(3, 10).modulus)
        assert time.perf_counter() - start < 1


class TestInverseAboveTables:
    """Inversion above the tables is the extended Euclidean algorithm; it
    agrees with Fermat's a^(q-2)."""

    @pytest.mark.parametrize("p,k", ABOVE_TABLES, ids=lambda v: str(v))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_inverse(self, p, k, data):
        F = GF(p, k)
        a = data.draw(st.integers(1, F.order - 1))
        inv = F.inv(a)
        assert F.mul(a, inv) == 1
        assert inv == F._ring.pow(a, F.order - 2)
        assert F.inv(1) == 1 and F.inv(F.order - 1) == F._ring.pow(F.order - 1, F.order - 2)
