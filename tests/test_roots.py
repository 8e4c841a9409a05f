"""Root finding, default moduli and primality pinned against the exhaustive
searches they replaced.

The references below are kept here on purpose: a scan over every field
element in canonical order, trial division by every monic polynomial of
degree <= k/2, and trial division of integers. Above the table size the
library finds roots by Cantor-Zassenhaus, proves moduli irreducible by
Ben-Or's test and tests primality by Miller-Rabin; every output must stay the
one the exhaustive search gives.
"""

import functools
import math
import random
import time

import pytest

from evoalg import (
    GF,
    CanonicalKey,
    EvolutionMsc,
    Fel,
    FieldError,
    NonPrimeModulus,
    Poly,
    ReducibleModulus,
    canonical_msc,
    classify,
    embed,
    field_make,
    find_root,
    transform,
)
from evoalg import fields as fields_mod

# ---------------------------------------------------------------------------
# the exhaustive references
# ---------------------------------------------------------------------------


def ref_is_prime(n):
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


# psi_j, the least strong pseudoprime to the first j prime bases (OEIS A014233)
A014233 = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
]


def ref_miller_rabin(n):
    """Miller-Rabin with all 13 prime bases up to 41, whatever the size of n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    for b in bases:
        x = pow(b, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_mod(a, b, p):
    """a mod the monic b over GF(p)."""
    a, db = list(a), len(b) - 1
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
    return _ref_trim(a[:db])


def _ref_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _ref_powmod(a, n, m, p):
    """a^n mod the monic m over GF(p), by square-and-multiply."""
    acc = (1,)
    for bit in bin(n)[2:]:
        acc = _ref_mod(_ref_mul(acc, acc, p), m, p)
        if bit == "1":
            acc = _ref_mod(_ref_mul(acc, a, p), m, p)
    return tuple(acc)


def _monics(p, d):
    for idx in range(p**d):
        g, i = [], idx
        for _ in range(d):
            i, r = divmod(i, p)
            g.append(r)
        yield (*g, 1)


def ref_is_irreducible(m, p):
    k = len(m) - 1
    return k >= 1 and all(
        _ref_mod(m, g, p) for d in range(1, k // 2 + 1) for g in _monics(p, d)
    )


def ref_first_irreducible(p, k):
    return next(m for m in _monics(p, k) if ref_is_irreducible(m, p))


def ref_scan(f, coeffs):
    """First element of f, in canonical order, where the polynomial vanishes."""
    add, mul, z = f.add, f.mul, f.zero
    rev = tuple(reversed(coeffs))
    for cand in range(f.order):
        acc = z
        for c in rev:
            acc = add(mul(acc, cand), c)
        if acc == z:
            return cand
    return None


def _ref_image(F, ext, gen, a):
    """Image of a in ext when F's generator goes to gen."""
    if F.k == 1:
        return a
    acc, pw = ext.zero, ext.one
    for c in F.text(a):
        acc = ext.add(acc, ext.mul(c, pw))
        pw = ext.mul(pw, gen)
    return acc


def ref_find_root(F, coeffs):
    """(modulus of the witness field or None, generator image, root) the way
    find_root used to get them: scan F, else scan the extension of the
    polynomial's degree, built with the reference modulus and embedding."""
    r = ref_scan(F, coeffs)
    if r is not None:
        return None, None, r
    deg = len(coeffs) - 1
    modulus = ref_first_irreducible(F.char, F.k * deg)
    ext = GF(F.char, F.k * deg, modulus)
    gen = ref_scan(ext, F.modulus) if F.k > 1 else None
    return modulus, gen, ref_scan(ext, [_ref_image(F, ext, gen, c) for c in coeffs])


def _polys(F):
    """x^2 - u and x^3 - u for every u in F, and x^2 + x + 1."""
    for n in (2, 3):
        for u in range(F.order):
            yield (F.neg(u),) + (0,) * (n - 1) + (1,)
    yield (1, 1, 1)


def assert_root_matches(F, coeffs):
    k, r, emb = find_root(F, Poly(F, [Fel(F, c) for c in coeffs]))
    modulus, gen, root = ref_find_root(F, coeffs)
    assert r.raw == root, (F, coeffs)
    if modulus is None:
        assert k is F
    else:
        assert k.modulus == modulus, (F, coeffs)
        if gen is not None:
            assert emb.raw(F.char) == gen, (F, coeffs)  # raw p is F's generator


SMALL_BASES = [GF(q_p, q_k) for q_p, q_k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))]
MEDIUM_BASES = [(17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


class TestRootsAgainstScan:
    @pytest.mark.parametrize("F", SMALL_BASES, ids=repr)
    def test_every_radicand_q_up_to_16(self, F):
        for coeffs in _polys(F):
            assert_root_matches(F, coeffs)

    def test_the_sweep_reaches_the_large_extensions(self):
        # GF(7^3), GF(13^2), GF(13^3) and GF(2^12) have no tables, so the
        # sweep above compares Cantor-Zassenhaus with the scan there
        orders = set()
        for F in SMALL_BASES:
            for coeffs in _polys(F):
                k, _, _ = find_root(F, Poly(F, [Fel(F, c) for c in coeffs]))
                orders.add(k.order)
        assert {7**3, 13**2, 13**3, 2**12} <= orders
        assert min(7**3, 13**2, 13**3, 2**12) > fields_mod._TABLE_MAX

    @pytest.mark.slow
    @pytest.mark.parametrize("pk", MEDIUM_BASES, ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
    def test_seeded_samples_q_17_to_32(self, pk):
        # three radicands with a root in F and three without (GF(5^6) for
        # the cube roots over GF(25)), and x^2 + x + 1
        F = GF(*pk)
        rng = random.Random(F.order)
        polys = list(_polys(F))[:-1]
        split = [[c for c in polys if (ref_scan(F, c) is None) is side] for side in (False, True)]
        sample = [c for group in split for c in rng.sample(group, min(3, len(group)))]
        for coeffs in sample + [(1, 1, 1)]:
            assert_root_matches(F, coeffs)

    def test_first_root_raw_keeps_its_contract_above_the_tables(self):
        # no root, a repeated root, and a product of distinct linear factors
        K = GF(2, 12)
        assert fields_mod._first_root_raw(K, (2, 0, 0, 1)) == ref_scan(K, (2, 0, 0, 1))
        K = GF(3, 5)
        for coeffs in [(1, 0, 1), (0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (5, 7, 1)]:
            assert fields_mod._first_root_raw(K, coeffs) == ref_scan(K, coeffs)


SWEEP_PRIMES = [p for p in range(37, 300) if ref_is_prime(p)] + [10007, 1000003, 2**31 - 1, 999999999989, 2**61 - 1]


def _coset_radicands(p, n):
    """One seeded u from each coset of GF(p)* modulo n-th powers; u^e for
    e = (p - 1) / gcd(n, p - 1) names the coset."""
    rng, e, found = random.Random(p * n), (p - 1) // math.gcd(n, p - 1), {}
    while len(found) < math.gcd(n, p - 1):
        u = rng.randrange(1, p)
        found.setdefault(pow(u, e, p), u)
    return sorted(found.values())


class TestPrimeFieldBinomials:
    """y^n = u over GF(p) is solved through GF(p) when its root needs an
    extension; the first root is the one the search in the field, then in
    the extension, finds."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_first_root_agrees_with_the_search(self, n):
        for p in SWEEP_PRIMES:
            F = GF(p)
            for u in _coset_radicands(p, n):
                coeffs = (p - u,) + (0,) * (n - 1) + (1,)
                want = F, fields_mod._first_root_raw(F, coeffs)
                if want[1] is None:
                    ext, _ = fields_mod.extension_of(F, n)
                    want = ext, fields_mod._first_root_raw(ext, coeffs)
                fields_mod._finite_root.cache_clear()
                assert fields_mod._finite_root(F, coeffs)[:2] == want, (p, n, u)

    @pytest.mark.parametrize("n", [2, 3])
    def test_extension_modulus_is_a_binomial(self, n):
        # the step needs x^n - nu; any other modulus would leave it to the search
        for p in SWEEP_PRIMES:
            if (p - 1) % n == 0:
                m = fields_mod.extension_of(GF(p), n)[0].modulus
                assert m[0] and not any(m[1:-1]), (p, n, m)


# p - 1 with a large 2- or 3-part: 2 * 3^4, 2 * 3^5, 2^16, 3 * 2^18, 119 * 2^23
TWO_THREE_PRIMES = [163, 487, 65537, 786433, 998244353]


class TestPrimeFieldRoots:
    """`_pf_root` by exponentiation against the least root the search finds."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_radicand_below_300(self, n):
        for p in range(2, 300):
            if ref_is_prime(p):
                F = GF(p)
                for w in range(p):
                    want = fields_mod._first_root_raw(F, (-w % p,) + (0,) * (n - 1) + (1,))
                    assert fields_mod._pf_root(w, n, p) == want, (p, n, w)

    @pytest.mark.parametrize("p", TWO_THREE_PRIMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_powers_and_non_powers(self, p, n):
        # w = s^n has a least root r <= s; when n | p - 1, g w for a non-power
        # g has none (for n = 3 over 65537 every w is a cube)
        rng, F, g = random.Random(p * n), GF(p), None
        if (p - 1) % n == 0:
            g = next(g for g in range(2, p) if pow(g, (p - 1) // n, p) != 1)
        for _ in range(40):
            s = rng.randrange(1, p)
            w = pow(s, n, p)
            r = fields_mod._pf_root(w, n, p)
            assert pow(r, n, p) == w and r <= s, (p, n, w)
            assert r == fields_mod._first_root_raw(F, (p - w,) + (0,) * (n - 1) + (1,)), (p, n, w)
            if g is not None:
                assert fields_mod._pf_root(g * w % p, n, p) is None, (p, n, w)
                assert fields_mod._first_root_raw(F, (p - g * w % p,) + (0,) * (n - 1) + (1,)) is None


def ref_first_irreducible_ben_or(p, k):
    """The first monic irreducible by Ben-Or's test on every candidate in
    base-p scan order, binomials included."""
    return next(m for m in _monics(p, k) if fields_mod._pf_is_irreducible(m, GF(p)))


class TestBinomialModuli:
    def test_binomials_against_the_ben_or_scan(self):
        cases = 0
        for p in range(3, 200):
            for k in range(2, 7):
                primes = [r for r in range(2, k + 1) if k % r == 0 and ref_is_prime(r)]
                if ref_is_prime(p) and all((p - 1) % r == 0 for r in primes) and (k % 4 or p % 4 == 1):
                    m = fields_mod._first_irreducible(p, k)
                    assert not any(m[1:-1]) and m == ref_first_irreducible_ben_or(p, k), (p, k)
                    cases += 1
        assert cases == 118  # k = 2 for all 45 odd p, and 3, 4, 5, 6 where p - 1 allows


EMBEDDING_PAIRS = [
    (p, a, b)
    for p in (2, 3, 5, 7)
    for b in range(2, 13)
    if p**b <= 4096
    for a in range(2, b)
    if b % a == 0
]


class TestEmbeddingsAgainstScan:
    @pytest.mark.parametrize("p,a,b", EMBEDDING_PAIRS)
    def test_generator_image(self, p, a, b):
        src, dst = GF(p, a), GF(p, b)
        assert embed(src, dst).raw(p) == ref_scan(dst, src.modulus)

    def test_pairs_cover_fields_without_tables(self):
        above = [(p, a, b) for p, a, b in EMBEDDING_PAIRS if p**b > fields_mod._TABLE_MAX]
        assert len(EMBEDDING_PAIRS) == 17 and len(above) == 13
        assert (2, 6, 12) in above and (3, 3, 6) in above


class TestEmbeddingsAreHomomorphisms:
    @pytest.mark.parametrize("p,a,b", EMBEDDING_PAIRS)
    def test_raw_respects_add_and_mul(self, p, a, b):
        # on all of src, or on a seeded sample of it past the table size
        src, dst = GF(p, a), GF(p, b)
        image = functools.cache(embed(src, dst).raw)
        xs = range(src.order)
        if src.order > fields_mod._TABLE_MAX:
            xs = random.Random(src.order).sample(xs, fields_mod._TABLE_MAX)
        for x in xs:
            for y in xs:
                assert image(src.add(x, y)) == dst.add(image(x), image(y))
                assert image(src.mul(x, y)) == dst.mul(image(x), image(y))
        assert image(src.one) == dst.one


class TestModuliAgainstTrialDivision:
    def test_every_pk_up_to_3_10(self):
        for p in range(2, 244):
            if not ref_is_prime(p):
                continue
            k = 1
            while p**k <= 3**10:
                assert fields_mod._first_irreducible(p, k) == ref_first_irreducible(p, k), (p, k)
                k += 1

    @pytest.mark.parametrize("p,k", [(2, k) for k in range(2, 21)] + [(3, k) for k in range(2, 15)])
    def test_descriptor_default_modulus(self, p, k):
        F = field_make({"kind": "GF", "p": p, "k": k})
        assert F.modulus == ref_first_irreducible(p, k)


class TestIrreducibilityExhaustive:
    """Ben-Or's test on every monic polynomial of small degree, zero constant
    terms included: GF(2) runs the packed-int path, GF(3) and GF(5) the
    generic one, whose gcds of steps 3 and 4 are batched from degree 8 on."""

    @pytest.mark.parametrize("p,top", [(2, 10), (3, 6)])
    def test_every_monic(self, p, top):
        f = GF(p)
        for d in range(1, top + 1):
            for m in _monics(p, d):
                want = ref_is_irreducible(m, p)
                assert fields_mod._pf_is_irreducible(m, f) == want, m
                if d > 1 and all(_index_at(m, a, p) for a in range(p)):  # as the root sieve passes it
                    assert fields_mod._pf_is_irreducible(m, f, True) == want, m

    @pytest.mark.parametrize("p,top", [(3, 8), pytest.param(5, 6, marks=pytest.mark.slow)])
    def test_every_monic_against_products(self, p, top):
        # the reducible monics of degree d are the products of two monics of
        # lower degree; those without a root in GF(p) are tested again as the
        # scan's root sieve passes them, from i = 2 on
        f = GF(p)
        for d in range(1, top + 1):
            reducible = {
                _ref_mul(g, h, p) for i in range(1, d // 2 + 1) for g in _monics(p, i) for h in _monics(p, d - i)
            }
            for m in _monics(p, d):
                want = m not in reducible
                assert fields_mod._pf_is_irreducible(m, f) == want, m
                if d > 1 and all(_index_at(m, a, p) for a in range(p)):
                    assert fields_mod._pf_is_irreducible(m, f, True) == want, m


def _index_at(m, a, p):
    """m(a) mod p."""
    return functools.reduce(lambda acc, c: acc * a + c, reversed(m), 0) % p


class TestBenOrGcdCount:
    """The root sieve and the batched gcds, counted: `_px_gcd` calls of one
    default-modulus scan (before either, 814 for GF(3^128), 1,305 for GF(7^85)
    and 8,663 for GF(61^41)); the moduli are the scan's earlier ones."""

    @pytest.mark.parametrize(
        "p,k,low,gcds",
        [
            (3, 128, (2, 0, 1, 2, 0, 1), 229),
            (7, 85, (3, 6, 2, 1), 412),
            pytest.param(61, 41, (37, 1, 1), 2587, marks=pytest.mark.slow),
        ],
        ids=["3^128", "7^85", "61^41"],
    )
    def test_scan(self, monkeypatch, p, k, low, gcds):
        calls = []
        gcd = fields_mod._px_gcd
        monkeypatch.setattr(fields_mod, "_px_gcd", lambda *args: calls.append(args) or gcd(*args))
        assert fields_mod._first_irreducible(p, k) == low + (0,) * (k - len(low)) + (1,)
        assert len(calls) <= gcds


def _irreducibles(p, d):
    """Monic irreducibles of degree d over GF(p) with a nonzero constant term."""
    return [m for m in _monics(p, d) if m[0] and ref_is_irreducible(m, p)]


def _products(p):
    """(m, k): products of distinct irreducibles whose degrees divide k."""
    (l1, *_), (q1, *qs), (c1, c2, *_) = (_irreducibles(p, d) for d in (1, 2, 3))
    out = [(_ref_mul(_ref_mul(l1, q1, p), c1, p), 6), (_ref_mul(c1, c2, p), 6)]
    if len(qs) >= 2:
        out += [(_ref_mul(q1, qs[0], p), 4), (_ref_mul(_ref_mul(q1, qs[0], p), qs[1], p), 6)]
    return out


class TestReducibleModuliRefused:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_products_whose_factor_degrees_divide_k(self, p):
        # these satisfy x^(p^k) = x mod m, so a test of that alone passes
        # them; the gcd conditions of the irreducibility test refuse them
        cases = _products(p)
        assert len(cases) == (2 if p == 2 else 4)
        for m, k in cases:
            assert len(m) == k + 1 and m[0] != 0
            x = (0, 1)
            assert _ref_powmod(x, p**k, m, p) == x
            with pytest.raises(ReducibleModulus):
                GF(p, k, m)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_squares_of_irreducibles(self, p):
        for d in (1, 2, 3):
            g = _irreducibles(p, d)[0]
            with pytest.raises(ReducibleModulus):
                GF(p, 2 * d, _ref_mul(g, g, p))


class TestPrimality:
    def test_every_n_below_10_5(self):
        assert [n for n in range(10**5) if fields_mod._is_prime(n)] == [
            n for n in range(10**5) if ref_is_prime(n)
        ]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes(self, n):
        assert not fields_mod._is_prime(n)
        with pytest.raises(NonPrimeModulus):
            GF(n)

    def test_each_psi_is_composite(self):
        # psi_j passes the first j bases, so a later base must refuse it; the
        # last passes all 13 and is refused as undecided
        assert list(fields_mod._MR_PSI) == A014233
        assert A014233[-1] == fields_mod._MR_BOUND
        for psi in A014233[:-1]:
            assert not fields_mod._is_prime(psi), psi
        with pytest.raises(FieldError, match="cannot decide"):
            fields_mod._is_prime(A014233[-1])

    def test_agrees_with_all_13_bases(self):
        rng = random.Random(2047)
        ns = [rng.getrandbits(rng.randrange(2, 65)) for _ in range(10**4)]
        for n in ns + [psi + d for psi in A014233 for d in (-2, 2)]:
            if n >= fields_mod._MR_BOUND and ref_miller_rabin(n):
                with pytest.raises(FieldError, match="cannot decide"):
                    fields_mod._is_prime(n)
            else:
                assert fields_mod._is_prime(n) == ref_miller_rabin(n), n

    def test_large_primes_below_the_bound(self):
        for p in (999999999989, 2**61 - 1, 2**31 - 1):
            assert GF(p).order == p

    @pytest.mark.parametrize("p", [fields_mod._MR_BOUND, 2**89 - 1])
    def test_undecided_at_or_above_the_bound(self, p):
        # the bound is a strong pseudoprime to every base; 2^89 - 1 is prime
        assert p >= 3317044064679887385961981
        with pytest.raises(FieldError, match="cannot decide"):
            GF(p)

    def test_composite_above_the_bound_is_still_refused(self):
        with pytest.raises(NonPrimeModulus):
            GF(2**89 + 1)


def _first_nonsquare_modulus(p):
    """x^2 + c0 with the least c0 such that -c0 is a non-square mod p: the
    first irreducible quadratic in base-p scan order."""
    c0 = next(c for c in range(1, p) if pow(-c % p, (p - 1) // 2, p) == p - 1)
    return (c0, 0, 1)


class TestInputsThatNeverFinishedBefore:
    """Each runs once and checks the witness exactly; no time is asserted."""

    @pytest.mark.parametrize("p", [10007, 999999999989])
    def test_non_square_e4(self, p):
        modulus = _first_nonsquare_modulus(p)
        n = -modulus[0] % p  # alpha^2 = n, a non-square
        m = 1234567 % p
        u = m * m * n % p  # roots +-m*alpha
        B = pow(u, p - 2, p)  # (1, B, 0, 0) is E4 with eta2^2 = 1/B = u
        E = EvolutionMsc(GF(p), (1, B, 0, 0))
        res = classify(E)
        K = res.witness_field
        assert res.key.label == "E4" and K.modulus == modulus
        assert res.witness.ginv.e == ((1, 0), (0, min(m, p - m) * p))
        ek = EvolutionMsc(K, E.abcd)  # residues are the constant indices of K
        assert transform(ek, res.witness) == canonical_msc(CanonicalKey(K, "E4"))

    def test_gf_3_40_descriptor(self):
        F = field_make({"kind": "GF", "p": 3, "k": 40})
        # the five earlier candidates x^40 + c1 x + c0 are reducible: x^40,
        # x^40 + x have the root 0, x^40 + 2 and x^40 + x + 1 the root 1, and
        # x^8 + 1 divides x^40 + 1 (a^5 + 1 = (a + 1)(a^4 - a^3 + a^2 - a + 1))
        assert F.modulus == (2, 1) + (0,) * 38 + (1,)
        assert not _ref_mod((1,) + (0,) * 39 + (1,), (1,) + (0,) * 7 + (1,), 3)
        # x has degree 40 over GF(3): the field's own arithmetic agrees
        x = F.el([0, 1])
        assert x ** (3**40) == x and x ** (3**20) != x and x ** (3**8) != x


class TestWitnessesFarOutsideTheField:
    """Carrying values into the witness field costs work per value, never
    work proportional to the order of the field they come from."""

    @pytest.mark.parametrize(
        "abcd,label,k",
        [((0, [2, 1], 1, 0), "E3", 6), ((1, [2, 1], 0, 0), "E4", 4)],
        ids=["non-cube-E3", "non-square-E4"],
    )
    def test_over_gf_10007_squared(self, abcd, label, k):
        F = GF(10007, 2)
        E = EvolutionMsc.of(F, abcd)
        t0 = time.perf_counter()
        res = classify(E)
        elapsed = time.perf_counter() - t0
        K = res.witness_field
        assert res.key.label == label and K.k == k
        emb = embed(F, K)
        assert transform(E.over(emb), res.witness) == canonical_msc(res.key).over(emb)
        assert elapsed < 1.0
