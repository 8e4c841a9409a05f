"""The integer kernel over GF(p)[x] against an independent reference.

The reference multiplies coefficient lists with the list toolkit over the
prime field (`_poly_mul`, `_poly_rem`, one field-method call per coefficient)
and adds them coefficient by coefficient; the kernel works on base-p indices,
with XOR and carry-less products over GF(2) and packed slots for odd p.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import GF, EvolutionMsc, Poly, classify, embed, find_root
from evoalg import fields as fields_mod


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
    prod = fields_mod._poly_mul(trim(ca), trim(cb), base)
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

    @pytest.mark.parametrize("p,k", WITH_TABLES, ids=lambda v: str(v))
    def test_tables(self, p, k):
        F = GF(p, k)
        for a, b in itertools.product(range(F.order), repeat=2):
            assert F.mul(a, b) == ref_op(F, "mul", a, b), (a, b)
            assert F.add(a, b) == ref_op(F, "add", a, b), (a, b)
        assert [F.neg(b) for b in range(F.order)] == [ref_op(F, "neg", 0, b) for b in range(F.order)]
        assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.order))

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_reducible_modulus_products(self, p):
        # Ben-Or's steps multiply modulo candidates that may factor
        m = (1, 0, 1, 0, 1) if p == 2 else (p - 1, 0, 0, 0, 1)  # (x^2 + x + 1)^2, x^4 - 1
        ring, base = fields_mod._PolyMod(p, m), GF(p)
        rng = random.Random(p)
        for _ in range(200):
            a, b = rng.randrange(p**4), rng.randrange(p**4)
            prod = fields_mod._poly_mul(
                fields_mod._poly_trim(fields_mod._digits(a, p)),
                fields_mod._poly_trim(fields_mod._digits(b, p)),
                base,
            )
            assert ring.mul(a, b) == _index(fields_mod._poly_rem(prod, m, base), p)


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
            frob = fields_mod._poly_powmod(y, f.order, g, f)
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
