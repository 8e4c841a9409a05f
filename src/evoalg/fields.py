"""Exact arithmetic over Q, prime fields GF(p) and extension fields GF(p^k).

Field contexts are interned: `field_make` returns the same object for the
same descriptor, so identity checks between contexts are cheap and pickled
contexts re-intern on load. Elements are `Fel` values holding a canonical
raw encoding: a normalized Fraction over Q, and over GF(p^k) the base-p
integer index of the coefficient vector, which GF(p) shares as its k = 1
case (the residue in [0, p)). Element equality is equality of that encoding.
There is no floating point anywhere.

Extension fields are single quotients GF(p)[x]/(m), m monic irreducible;
towers are flattened into one extension of the prime field. One integer
kernel does GF(p)[x] on base-p indices: over GF(2) the index is the packed
polynomial (XOR, carry-less products), for odd p a product packs the digits
into slots of one int. It is the arithmetic above order 128 (inverses by the
extended Euclidean algorithm), fills the add and mul tables a field of order
at most 128 builds on first use (GF(p) fills them by residues), and runs
Ben-Or's test, which proves moduli irreducible. Its ring GF(p^k)[y]/(h)
packs a polynomial over GF(p^k) the same way, the coefficient of x^i y^j in
slot i + (2k - 1) j. An embedding keeps one root, the image of the source's
generator, and evaluates coefficients there: no work in the source order.

Roots over a finite field are the least root in canonical order. A field with
tables is scanned element by element; in a larger one, the roots come from
gcd(f, y^q - y) and Cantor-Zassenhaus splitting, all of them, with every
power taken in that ring (in GF(p)[y]/(f) when f lies over GF(p)), and the
least is taken, so both give the same root. A binomial y^n - u over GF(p)
is searched in neither: its roots in GF(p), and the s of its roots s x^j
in the extension, come by modular exponentiation (`_pf_root`). The default
modulus is the first irreducible in base-p scan order, a binomial picked by
Euler's criterion when one can be irreducible. Primality is deterministic
Miller-Rabin with the prime bases up to 41, as few as n allows, exact below
3.317e24; a p at or above that bound that no base proves composite is refused
with FieldError. `field_make` checks each descriptor once, before its field
is interned: p, k and the modulus coefficients must be ints, and
k * ceil(log2 p) must stay within `_SIZE_BUDGET`, so building any field
accepted takes bounded work.

Root problems over finite fields and default moduli are solved once per
process: `_root_raw`, the one root step behind `find_root` and `classify`,
keeps a bounded cache keyed on (field, coefficients), never used over Q, and
a default-modulus field is also interned without its modulus, so neither a
root problem nor `GF(p, k)` repeats its search.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from typing import Iterator

_TABLE_MAX = 128  # largest field order with lookup tables (`tables`)
_ROOT_CACHE_MAX = 2048  # finite-field root problems `find_root` remembers
# largest k * ceil(log2 p) of a GF(p^k) descriptor; the slowest default modulus
# it admits, GF(61^41), takes about 2 s on 2 cores (the README has the sweep)
_SIZE_BUDGET = 256


class FieldError(ValueError):
    """Base for field construction and arithmetic failures."""


class FieldTooLarge(FieldError):
    """A GF(p^k) descriptor past the size budget."""


class MixedFields(FieldError):
    """Operands belong to different field contexts."""


class NonPrimeModulus(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class DegreeMismatch(FieldError):
    pass


class InfiniteField(FieldError):
    pass


class ConstantPolynomial(FieldError):
    pass


class NeedsExtension(FieldError):
    """No root exists in the base field, and Q is never extended.

    Carries the polynomial whose root was requested so callers can report
    exactly what is missing.
    """

    def __init__(self, poly):
        super().__init__(poly)
        self.poly = poly

    def __str__(self):  # built only when shown: a rational polynomial can run to many digits
        return f"needs an extension containing a root of {self.poly}"


# Miller-Rabin with the prime bases up to _MR_BASES[j] decides every n below
# _MR_PSI[j], the least strong pseudoprime to all of them (OEIS A014233;
# Sorenson and Webster 2015 for the last two, the bound).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_BOUND = _MR_PSI[-1]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, stopping after base j once n < _MR_PSI[j]:
    a p near 10^12 takes 5 bases, not 13. A base that witnesses
    compositeness proves it at any size; an n >= _MR_BOUND that no base
    witnesses is left undecided and raises FieldError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise FieldError(
        f"cannot decide whether {n} is prime: the primality test is exact "
        f"only below {_MR_BOUND}"
    )


# ---------------------------------------------------------------------------
# the integer kernel: polynomials over GF(p) as their base-p indices
# ---------------------------------------------------------------------------

def _digits(a: int, p: int) -> list:
    """Coefficients of the polynomial with index a, low degree first."""
    cs = []
    while a:
        a, c = divmod(a, p)
        cs.append(c)
    return cs


def _index(cs, p: int) -> int:
    """Index of the polynomial with integer coefficients cs, reduced mod p."""
    a = 0
    for c in reversed(cs):
        a = a * p + c % p
    return a


def _px_add(p: int, s: int, a: int, b: int) -> int:
    """a + s b for s = 1 or -1."""
    if p == 2:
        return a ^ b
    r, pw = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        r += (x + s * y) % p * pw
        pw *= p
    return r


def _pack(a: int, p: int, w: int) -> int:
    """The digits of a in slots of w bits."""
    packed = shift = 0
    while a:
        a, c = divmod(a, p)
        packed |= c << shift
        shift += w
    return packed


def _unpack(packed: int, n: int, p: int, w: int, base: int) -> int:
    """The low n slots of packed, reduced mod p, as digits in base p or 2^w."""
    mask, a = (1 << w) - 1, 0
    for i in range(n - 1, -1, -1):
        a = a * base + (packed >> i * w & mask) % p
    return a


def _clmul(a: int, b: int) -> int:
    """Carry-less product over GF(2): one shifted copy of a per set bit of b."""
    r = 0
    while b:
        low = b & -b
        r ^= a << low.bit_length() - 1
        b ^= low
    return r


def _gf2_square(a: int) -> int:
    """a^2 over GF(2), unreduced: the bits spread apart."""
    return int("0".join(format(a, "b")), 2)


def _gf2_rem(a: int, b: int) -> int:
    """a mod b != 0 over GF(2)."""
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def _divmod_digits(a: list, b: list, p: int) -> tuple:
    """Quotient and remainder (reduced, trimmed) of the lists a by b; a is consumed."""
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = a[shift + db] * inv % p
        if c:
            for j in range(db):
                a[shift + j] -= c * b[j]
    r = [c % p for c in a[:db]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _px_gcd(a: int, b: int, p: int) -> int:
    """Monic gcd of a and b, not both zero."""
    if p == 2:
        while b:
            a, b = b, _gf2_rem(a, b)
        return a
    a, b = _digits(a, p), _digits(b, p)
    while b:
        a, b = b, _divmod_digits(a, b, p)[1]
    s = pow(a[-1], -1, p)
    return _index([c * s for c in a], p)


def _barrett(m, p: int) -> tuple:
    """Barrett's constants for the monic m of degree k over GF(p), as indices:
    mu = x^(2k-1) div m and m' = -(m - x^k) mod p."""
    k = len(m) - 1
    mu = _divmod_digits([0] * (2 * k - 1) + [1], list(m), p)[0]
    return _index(mu, p), _index([-c for c in m[:-1]], p)


class _PolyMod:
    """GF(p)[x] modulo a monic m of degree k >= 1, irreducible or not, on
    indices below p^k. For odd p a product a b is reduced by Barrett's method
    over Z[x] (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1): its
    quotient by m is q = ((a b div x^k) mu) div x^(k-1), mu = x^(2k-1) div m,
    and a b + q m' agrees mod p with the remainder, m' = -(m - x^k) mod p.
    No coefficient on the way is negative or reaches 2^w, so no slot carries."""

    def __init__(self, p: int, m):
        k = len(m) - 1
        self.p, self.k, self.m = p, k, _index(m, p)
        if p != 2:
            self._w = w = (k**3 * p**4).bit_length() + 1
            self._mu, self._m_neg = (_pack(c, p, w) for c in _barrett(m, p))

    def mul(self, a, b):
        if self.p == 2:
            return _gf2_rem(_clmul(a, b), self.m)
        p, w = self.p, self._w
        return self._mul_packed(_pack(a, p, w), _pack(b, p, w), p)

    def _mul_packed(self, a, b, base):
        k, w = self.k, self._w
        prod = a * b
        if high := prod >> k * w:
            prod += ((high * self._mu) >> (k - 1) * w) * self._m_neg
        return _unpack(prod, k, self.p, w, base)

    def pow(self, a, n: int):
        """a^n for n >= 1, by squaring and multiplying. Over GF(2) a square
        spreads the bits apart; for odd p the powers stay packed."""
        p, acc = self.p, a
        if p == 2:
            for bit in bin(n)[3:]:
                acc = _gf2_rem(_gf2_square(acc), self.m)
                if bit == "1":
                    acc = self.mul(acc, a)
            return acc
        w = self._w
        a = acc = _pack(a, p, w)
        for bit in bin(n)[3:]:
            acc = self._mul_packed(acc, acc, 1 << w)
            if bit == "1":
                acc = self._mul_packed(acc, a, 1 << w)
        return _unpack(acc, self.k, p, w, p)


def _px_inv(a: int, ring: _PolyMod) -> int:
    """1/a modulo the ring's irreducible m, by the extended Euclidean
    algorithm on r_i = s_i a mod m; over GF(2) on the packed polynomials
    (Hankerson, Menezes and Vanstone, Guide to Elliptic Curve Cryptography,
    Algorithm 2.48), for odd p on coefficient lists."""
    p = ring.p
    if p == 2:
        u, v, s, t = a, ring.m, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, s, t, j = v, u, t, s, -j
            u, s = u ^ v << j, s ^ t << j
        return s
    r0, r1, s0, s1 = _digits(ring.m, p), _digits(a, p), [], [1]
    while len(r1) > 1:
        q, r = _divmod_digits(r0, r1, p)
        t = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))  # s0 - q s1; s grows in degree
        for i, c in enumerate(q):
            for j, e in enumerate(s1):
                t[i + j] -= c * e
        r0, r1, s0, s1 = r1, r, s1, [c % p for c in t]
    inv = pow(r1[0], -1, p)
    return _index([c * inv for c in s1], p)


def _slots_or(v: int, w: int) -> int:
    """The OR of the w-bit slots of v, folded in halves."""
    n = -(-v.bit_length() // w)
    while n > 1:
        n = (n + 1) // 2
        v = v >> n * w | v & (1 << n * w) - 1
    return v


class _PolyRing:
    """GF(p^k)[y]/(h) for a monic h of degree d >= 1 over the finite field f
    (k = 1 for a prime field), irreducible or not, on single ints. Kronecker
    substitution (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4)
    puts the coefficient of x^i y^j in slot i + (2k - 1) j, so the blocks of
    a product, of x-degree <= 2k - 2, never overlap, and one int product
    (carry-less over GF(2)) multiplies two elements. Barrett's method reduces
    it, as in _PolyMod: modulo m in x in every block at once, and modulo h in
    y with the quotient ((P div y^d) nu) div y^(d-1), nu = y^(2d-1) div h,
    whose coefficients are packed too. For odd p no coefficient on the way is
    negative, one more Barrett step per product, on all slots at once, brings
    each below 2p, and `unpack` takes them mod p. The slots are w bits wide,
    just enough for what the largest operands, every slot 2p - 1, make: each
    step is monotone in the slots, so no other operands make more."""

    def __init__(self, f, h):
        p, k, d = f.char, f.k, len(h) - 1
        self.f, self.p, self.k, self.d = f, p, k, d
        self._mul, self._add = (_clmul, int.__xor__) if p == 2 else (int.__mul__, int.__add__)
        self._consts = [_poly_divmod((0,) * (2 * d - 1) + (f.one,), h, f)[0], [f.neg(c) for c in h[:-1]]]
        if k > 1:
            self._consts += _barrett(f.modulus, p)
        if p == 2:
            return self._size(1)
        # one product of the largest operands, in slots past a bound of every
        # step's growth, records the widest coefficient
        t = 2 * p - 1
        self._size((2 * (d * k) ** 3 * t**4 * (1 + ((k - 1) * t) ** 2) ** 3).bit_length())
        seen, mul, add = [], self._mul, self._add
        self._mul = lambda a, b: seen.append(mul(a, b)) or seen[-1]
        self._add = lambda a, b: seen.append(add(a, b)) or seen[-1]
        top = self._lo_d // ((1 << self.w) - 1) * t
        self.mul(top, top)
        self._mul, self._add = mul, add
        self._size(_slots_or(functools.reduce(int.__or__, seen), self.w).bit_length())

    def _size(self, w):
        """Slots of w bits: the masks and the packed constants."""
        p, k, d = self.p, self.k, self.d
        bw = (2 * k - 1) * w
        self.w, self._bw = w, bw
        low = lambda n, blocks, step=bw: ((1 << n * w) - 1) * (((1 << blocks * step) - 1) // ((1 << step) - 1))
        self._lo1, self._lo, self._lo_d = low(k - 1, 2 * d - 1), low(k, 2 * d - 1), low(k, d)
        self._even, self._inv_p = low(1, d * k, 2 * w), (1 << w) // p  # every other slot; 2^w / p
        nu, h_neg, *x_consts = self._consts
        self._nu, self._h_neg = self.pack(nu), self.pack(h_neg)
        self._mu, self._m_neg = (_pack(c, p, w) for c in x_consts) if k > 1 else (0, 0)

    def pack(self, cs) -> int:
        """The element with raw coefficients cs, low degree first, len(cs) <= d."""
        p, w = self.p, self.w
        return sum((c if p == 2 else _pack(c, p, w)) << j * self._bw for j, c in enumerate(cs))

    def unpack(self, a) -> tuple:
        k, p, w, mask = self.k, self.p, self.w, (1 << self.k * self.w) - 1
        return _poly_trim(_unpack(a >> j * self._bw & mask, k, p, w, p) for j in range(self.d))

    def _reduce_x(self, a, lo):
        """a, of x-degree <= 2k - 2 in every block, modulo m in each; lo keeps
        the low k slots of the blocks wanted."""
        if self.k == 1:
            return a & lo
        kw, mul = self.k * self.w, self._mul
        q = mul(a >> kw & self._lo1, self._mu) >> kw - self.w & self._lo1
        return self._add(a, mul(q, self._m_neg)) & lo

    def _reduce(self, prod):
        d, bw = self.d, self._bw
        prod = self._reduce_x(prod, self._lo)
        if high := prod >> d * bw:
            q = self._reduce_x(self._mul(high, self._nu) >> (d - 1) * bw, self._lo)
            prod = self._reduce_x(self._add(prod & (1 << d * bw) - 1, self._mul(q, self._h_neg)), self._lo_d)
        if self.p == 2:
            return prod
        # v - p floor(v floor(2^w / p) / 2^w) lies in [0, 2p) for v < 2^w; the
        # even and the odd slots go apart, so that each v floor(2^w / p) has two
        w, even, out = self.w, self._even, 0
        for shift in (0, w):
            v = prod >> shift & even
            out |= v - self.p * (v * self._inv_p >> w & even) << shift
        return out

    def mul(self, a, b):
        return self._reduce(self._mul(a, b))

    def sqr(self, a):
        return self._reduce(_gf2_square(a) if self.p == 2 else a * a)

    def pow(self, a, n: int):
        """a^n for n >= 1, by squaring and multiplying."""
        acc = a
        for bit in bin(n)[3:]:
            acc = self.sqr(acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc


def _pf_is_irreducible(m, f, rootless=False) -> bool:
    """Ben-Or's test for a monic m of degree k over the prime field f = GF(p):
    m is irreducible iff gcd(x^(p^i) - x, m) = 1 for i = 1 .. k/2, since a
    reducible m has an irreducible factor of degree i <= k/2, and that factor
    divides x^(p^i) - x. The powers come one Frobenius step at a time, and the
    test stops at the first nontrivial gcd, which a random reducible m
    reaches at a small i. A caller that knows m has no root in GF(p) passes
    rootless, and the gcds start at i = 2. For odd p the steps i in
    (2^(j-1), 2^j] share one gcd, of m and the product of their x^(p^i) - x
    mod m: an irreducible factor of m divides the product iff it divides one
    of them. Over GF(2), where a packed gcd costs about as much as a product,
    batching made the scans for the default moduli of GF(2^2) .. GF(2^256)
    about 1.4 times slower in all, so every step keeps its own."""
    k, p = len(m) - 1, f.p
    if k < 1 or k > 1 and m[0] == 0:
        return False  # a constant, or x divides m
    if rootless and k < 4:
        return True  # a reducible m of degree 2 or 3 has a linear factor
    ring, h, acc = _PolyMod(p, m), p, 1  # p is the index of x, 1 of the constant 1
    for i in range(1, k // 2 + 1):
        h = ring.pow(h, p)
        if i == 1 and rootless:
            continue
        d = h - p if h // p % p else h + p * (p - 1)  # h - x: one digit changes
        acc = d if acc == 1 else ring.mul(acc, d)
        if p == 2 or i & (i - 1) == 0 or i == k // 2:
            if _px_gcd(ring.m, acc, p) != 1:
                return False
            acc = 1
    return True


# ---------------------------------------------------------------------------
# polynomials over a finite field as trimmed tuples of raw coefficients, low
# degree first; the field context `f` does the coefficient arithmetic. They
# do root finding's gcds and divisions over extension fields; its powers run
# in the packed ring `_PolyRing`.
# ---------------------------------------------------------------------------

def _poly_trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_sub(a, b, f) -> tuple:
    n = max(len(a), len(b))
    a, b = tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b))
    return _poly_trim(map(f.sub, a, b))


def _poly_divmod(a, b, f):
    """Quotient and remainder of a by b != 0. A monic b costs no inversion,
    so reduction modulo a monic modulus never inverts."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul, neg = f.add, f.mul, f.neg
    inv_lead = None if b[-1] == f.one else f.inv(b[-1])
    a = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            if inv_lead is not None:
                c = mul(c, inv_lead)
            quot[shift] = c
            c = neg(c)
            for j in range(db):  # a[shift + db] is not read again
                if b[j]:
                    a[shift + j] = add(a[shift + j], mul(c, b[j]))
    return _poly_trim(quot), _poly_trim(a[:db])


def _poly_rem(a, m, f) -> tuple:
    return _poly_divmod(a, m, f)[1]


def _poly_monic(a, f) -> tuple:
    if a[-1] == f.one:
        return a
    s = f.inv(a[-1])
    return tuple(f.mul(c, s) for c in a)


def _poly_gcd(a, b, f) -> tuple:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _poly_rem(a, b, f)
    return _poly_monic(a, f)


def _first_irreducible(p: int, k: int) -> tuple:
    """First monic irreducible of degree k over GF(p), scanning constant parts
    in base-p counting order. Deterministic across runs.

    The first p candidates are the binomials x^k + c0. Some c0 makes one
    irreducible iff every prime factor of k divides p - 1, and 4 | p - 1 when
    4 | k; then x^k + c0 is irreducible iff -c0 is no r-th power for each
    prime r | k (Lidl and Niederreiter, Finite Fields, Theorem 3.75), which
    Euler's criterion tells without Ben-Or's test. Otherwise the scan starts
    past them, which spares up to p tests and changes no result.

    For k >= 2 a candidate with a root in GF(p) is reducible. When p <= 8k^2
    the scan drops those before Ben-Or's test, which then starts at i = 2.
    The p candidates x^k + x H(x) + c0 of one block share H, so one pass over
    a in GF(p) lists the c0 = -a^k - a H(a) that give a root, about two thirds
    of the block. The pass costs p evaluations of H; each candidate it drops
    saves a Frobenius step and a gcd, which cost more as k grows. Timed on
    231 fields with k = 2 .. 20, the summed scan time fell by 17-37% with the
    sieve for p up to about 8k^2, and rose from about 16k^2 on.
    """
    f = GF(p)
    rest = k
    while (d := math.gcd(rest, p - 1)) > 1:
        rest //= d
    if rest == 1 and (k % 4 or p % 4 == 1):
        rs = [r for r in range(2, k + 1) if k % r == 0 and _is_prime(r)]
        c0 = next(c for c in range(k > 1, p) if all(pow(p - c, (p - 1) // r, p) != 1 for r in rs))
        return (c0, *[0] * (k - 1), 1)  # for k = 1, x
    sieve = p <= 8 * k * k  # k > 1 here
    neg_pow = [-pow(a, k, p) for a in range(p)] if sieve else None
    for idx in range(p, p**k):
        if sieve:
            high, c0 = divmod(idx, p)
            if not c0:  # a new block, as idx = p is: the c0 that give a root
                hs, rooted = _digits(high, p)[::-1], set()
                for a in range(p):
                    v = 0
                    for c in hs:
                        v = v * a + c
                    rooted.add((neg_pow[a] - a * v) % p)
            if c0 in rooted:
                continue
        lows = _digits(idx, p)
        m = (*lows, *[0] * (k - len(lows)), 1)
        if _pf_is_irreducible(m, f, sieve):
            return m
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Fel:
    """An immutable field element: a context plus its canonical raw encoding."""

    __slots__ = ("field", "raw")

    def __init__(self, field: "FieldCtx", raw):
        self.field = field
        self.raw = raw

    def _coerced(self, other) -> "Fel":
        if isinstance(other, Fel):
            if other.field is not self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return other
        return Fel(self.field, self.field.coerce(other))

    def __add__(self, other):
        other = self._coerced(other)
        return Fel(self.field, self.field.add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        return Fel(self.field, self.field.sub(self.raw, other.raw))

    def __rsub__(self, other):
        return self._coerced(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerced(other)
        return Fel(self.field, self.field.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerced(other)
        return Fel(self.field, self.field.div(self.raw, other.raw))

    def __rtruediv__(self, other):
        return self._coerced(other).__truediv__(self)

    def __neg__(self):
        return Fel(self.field, self.field.neg(self.raw))

    def __pow__(self, n: int):
        return Fel(self.field, self.field.pow_raw(self.raw, n))

    def __eq__(self, other):
        return (
            isinstance(other, Fel)
            and other.field is self.field
            and other.raw == self.raw
        )

    def __hash__(self):
        return hash((id(self.field), self.raw))

    @property
    def is_zero(self) -> bool:
        return self.raw == self.field.zero

    def sort_key(self):
        """Key realizing the canonical total order of the element's field."""
        return self.field.sort_key(self.raw)

    def __repr__(self):
        return f"Fel({self.field}, {self.field.text(self.raw)!r})"

    def __str__(self):
        t = self.field.text(self.raw)
        return t if isinstance(t, str) else str(t)


def canonical_cmp(a: Fel, b: Fel) -> int:
    """-1/0/1 in the canonical order: (numerator, denominator) lexicographic
    over Q, coefficient-vector order (= index order) over GF(p^k)."""
    if a.field is not b.field:
        raise MixedFields("cannot compare elements of different fields")
    ka, kb = a.sort_key(), b.sort_key()
    return -1 if ka < kb else (0 if ka == kb else 1)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic context. Subclasses define raw ops on the canonical encoding;
    `el` wraps values into `Fel`. Instances are interned by descriptor."""

    kind: str
    char: int
    order: int | None  # None = infinite
    zero = None
    one = None
    _key: tuple

    def el(self, x) -> Fel:
        return Fel(self, self.coerce(x))

    def elements(self) -> Iterator[Fel]:
        raise InfiniteField(f"{self} is infinite")

    def descriptor(self) -> dict:
        raise NotImplementedError

    def pow_raw(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        acc = self.one
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            n >>= 1
        return acc

    def sqr(self, a):
        return self.mul(a, a)

    def prod_eq(self, a, b, c, d) -> bool:  # a b == c d
        return self.mul(a, b) == self.mul(c, d)

    def __reduce__(self):
        return (field_make, (self.descriptor(),))


_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_fraction(text: str) -> Fraction:
    """The rational written in `text`, which must read "n" or "n/d" with an
    optional leading minus and ASCII digits only (no sign on d, no spaces)."""
    m = _FRACTION.fullmatch(text)
    if m is None:
        raise FieldError(f"bad rational {text!r}: expected n or n/d")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den) if den is not None else 1)
    except ZeroDivisionError:
        raise FieldError(f"bad rational {text!r}: zero denominator") from None
    except ValueError as e:  # past the interpreter's digit limit
        raise FieldError(f"bad rational {text!r}: {e}") from None


class Rationals(FieldCtx):
    kind = "Q"
    char = 0
    order = None
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        self._key = ("Q",)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fel):
            if x.field is not self:
                raise MixedFields(f"{x.field} element used in Q")
            return x.raw
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverting zero in Q")
        return 1 / a

    def sqr(self, a):
        return a**2  # a power of a reduced fraction is reduced: no gcd

    def prod_eq(self, a, b, c, d) -> bool:  # cross-multiplied over positive denominators: no gcd
        x, y = (a.numerator, b.numerator, c.denominator, d.denominator), (c.numerator, d.numerator, a.denominator, b.denominator)
        # zeros and sizes first: 4 factors have 0 to 3 more bits than their product
        if not (all(x) and all(y)) or abs(sum(map(int.bit_length, x)) - sum(map(int.bit_length, y))) > 3:
            return not all(x) and not all(y)
        return math.prod(x) == math.prod(y)

    def text(self, raw) -> str:
        return str(raw)

    def parse(self, obj) -> Fraction:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return self.coerce(obj)
        raise FieldError(f"rational elements are encoded as strings, got {obj!r}")

    def sort_key(self, raw):
        return (raw.numerator, raw.denominator)

    def descriptor(self):
        return {"kind": "Q"}

    def __repr__(self):
        return "Q"


class _built_once:
    """An attribute computed on first use and kept as a plain instance
    attribute. functools.cached_property writes through __dict__, and once
    that exists every attribute load is slower: GF(p) ops by about 30% on
    CPython 3.11."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.build.__name__, value)
        return value


class _FiniteField(FieldCtx):
    """GF(p^k), k >= 1, with elements indexed by the base-p value of their
    coefficient vector (c0 least significant). GF(p) is the case k = 1, where
    the index is the residue itself. Subclasses supply the arithmetic."""

    kind = "GF"
    zero = 0
    one = 1

    def __init__(self, p: int, k: int):
        self.p = self.char = p
        self.k = k
        self.order = p**k

    def _residue(self, x) -> int:
        """The image in GF(p) of an integer, a rational or its string."""
        if _is_int(x):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"{x} has no image in {self}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, str):
            return self._residue(_parse_fraction(x))
        raise FieldError(f"cannot coerce {x!r} into {self}")

    def coerce(self, x) -> int:
        if isinstance(x, Fel):
            if x.field is not self:
                raise MixedFields(f"{x.field} element used in {self}")
            return x.raw
        if isinstance(x, (list, tuple)):
            if len(x) > self.k:
                raise FieldError(f"coefficient vector {x!r} too long for {self}")
            return _index([self._residue(c) for c in x], self.p)
        return self._residue(x)  # constants embed as degree-0 vectors

    def elements(self):
        return (Fel(self, i) for i in range(self.order))

    def text(self, raw) -> list:
        cs = _digits(raw, self.p)
        return cs + [0] * (self.k - len(cs))

    def parse(self, obj) -> int:
        if isinstance(obj, list):
            if len(obj) != self.k or not all(map(_is_int, obj)):
                raise FieldError(f"bad element encoding {obj!r} for {self}")
            return self.coerce(obj)
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return self.coerce(obj)
        raise FieldError(f"bad element encoding {obj!r} for {self}")

    def sort_key(self, raw):
        return raw

    @_built_once
    def tables(self):
        """Plain-int (add, sub, mul, neg, inv) tables on raw encodings, inv[0]
        None, built on first use for orders up to _TABLE_MAX. Only add and mul
        are computed, GF(p)'s by residues and GF(p^k)'s by the kernel; the
        other three are read off those two."""
        q = range(self.order)
        ops = (self.add, self.mul) if self.k == 1 else (functools.partial(_px_add, self.p, 1), self._ring.mul)
        add, mul = ([[op(a, b) for b in q] for a in q] for op in ops)
        neg = [row.index(0) for row in add]
        sub = [[row[b] for b in neg] for row in add]
        return add, sub, mul, neg, [None] + [row.index(1) for row in mul[1:]]


class PrimeField(_FiniteField):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        super().__init__(p, 1)
        self._key = ("GF", p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return pow(a, -1, self.p)

    def descriptor(self):
        return {"kind": "GF", "p": self.p, "k": 1}

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(_FiniteField):
    """GF(p^k) = GF(p)[x]/(modulus), k >= 2. `field_make` checks the modulus
    (monic, irreducible, over the prime field) before it gets here."""

    def __init__(self, base: PrimeField, modulus: tuple):
        super().__init__(base.p, len(modulus) - 1)
        self.modulus = modulus
        self._key = ("GF", self.p, self.k, modulus)
        self._ring = ring = _PolyMod(self.p, modulus)
        if self.order > _TABLE_MAX:  # no tables: the kernel's ops are the field's own
            self.add, self.sub = (functools.partial(_px_add, self.p, s) for s in (1, -1))
            self.neg, self.mul = functools.partial(_px_add, self.p, -1, 0), ring.mul

    def add(self, a, b):
        return self.tables[0][a][b]

    def sub(self, a, b):
        return self.tables[1][a][b]

    def mul(self, a, b):
        return self.tables[2][a][b]

    def neg(self, a):
        return self.tables[3][a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return self.tables[4][a] if self.order <= _TABLE_MAX else _px_inv(a, self._ring)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_raw(self, a, n: int):
        if n < 1 or self.order <= _TABLE_MAX:
            return super().pow_raw(a, n)
        return self._ring.pow(a, n)

    def descriptor(self):
        return {"kind": "GF", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


# ---------------------------------------------------------------------------
# interning and construction
# ---------------------------------------------------------------------------

_FIELDS: dict[tuple, FieldCtx] = {}


def field_make(desc) -> FieldCtx:
    """Build (or fetch) the field for a descriptor:
    {"kind":"Q"} | {"kind":"GF","p":5,"k":1} | {"kind":"GF","p":2,"k":2,"modulus":[1,1,1]}.

    For k >= 2 the modulus may be omitted; the first monic irreducible of the
    right degree (in base-p scan order) is used, which keeps extension choices
    deterministic across runs. This is the one place a descriptor is checked:
    p, k and the modulus coefficients must be ints (not bools), and
    k * ceil(log2 p) at most `_SIZE_BUDGET`; p is proved prime once, when
    GF(p) is interned, and a caller's modulus gets Ben-Or's test once, before
    its field is interned; a default modulus was proved irreducible by the
    scan that found it, which runs once per (p, k): the field is interned
    under ("GF", p, k) as well.
    """
    if isinstance(desc, FieldCtx):
        return desc
    if not isinstance(desc, dict):
        raise FieldError(f"bad field descriptor {desc!r}")
    kind = desc.get("kind")
    if kind == "Q":
        key = ("Q",)
        if key not in _FIELDS:
            _FIELDS[key] = Rationals()
        return _FIELDS[key]
    if kind == "GF":
        p, k, modulus = desc.get("p"), desc.get("k", 1), desc.get("modulus")
        if not (_is_int(p) and _is_int(k)) or not (
            modulus is None or isinstance(modulus, (list, tuple)) and all(map(_is_int, modulus))
        ):
            raise FieldError(
                f"bad field descriptor {desc!r}: p, k and the modulus coefficients are integers"
            )
        if k < 1:
            raise DegreeMismatch("k must be >= 1")
        size = k * (p - 1).bit_length()  # k * ceil(log2 p) for p >= 2
        if size > _SIZE_BUDGET:
            raise FieldTooLarge(
                f"GF(p^{k}) with p of {p.bit_length()} bits is too large: "
                f"k * ceil(log2 p) = {size} is past the budget of {_SIZE_BUDGET}"
            )
        if k == 1:
            if "modulus" in desc:
                raise DegreeMismatch("GF(p) takes no modulus")
            key = ("GF", p)
            if key not in _FIELDS:
                _FIELDS[key] = PrimeField(p)
            return _FIELDS[key]
        base = GF(p)
        if modulus is None:
            hit = _FIELDS.get(("GF", p, k))
            if hit is not None:
                return hit
            m = _first_irreducible(p, k)
        else:
            m = tuple(c % p for c in modulus)
        key = ("GF", p, k, m)
        if key not in _FIELDS:
            if len(m) != k + 1 or m[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {k}, got {list(modulus)}"
                )
            if modulus is not None and not _pf_is_irreducible(m, base):
                raise ReducibleModulus(f"{list(m)} is reducible over {base}")
            _FIELDS[key] = ExtensionField(base, m)
        if modulus is None:
            _FIELDS["GF", p, k] = _FIELDS[key]
        return _FIELDS[key]
    raise FieldError(f"unknown field kind {kind!r}")


def GF(p: int, k: int = 1, modulus=None) -> FieldCtx:
    d = {"kind": "GF", "p": p, "k": k}
    if modulus is not None:
        d["modulus"] = list(modulus)
    return field_make(d)


QQ = field_make({"kind": "Q"})


# ---------------------------------------------------------------------------
# polynomials over a field
# ---------------------------------------------------------------------------

def _horner(f: FieldCtx, coeffs, x):
    """Raw value at the raw x of the polynomial with raw coefficients
    `coeffs` (low degree first) over the field f."""
    add, mul = f.add, f.mul
    acc = f.zero
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


class Poly:
    """Polynomial over one field, coefficients low degree first, trimmed so the
    leading coefficient is nonzero (the zero polynomial has no coefficients)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs):
        raw = [field.coerce(c) for c in coeffs]
        while raw and raw[-1] == field.zero:
            raw.pop()
        self.field = field
        self.coeffs = tuple(raw)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def eval(self, x) -> Fel:
        f = self.field
        xr = x.raw if isinstance(x, Fel) else f.coerce(x)
        if isinstance(x, Fel) and x.field is not f:
            raise MixedFields("evaluating at an element of a different field")
        return Fel(f, _horner(f, self.coeffs, xr))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def text(self) -> list:
        return [self.field.text(c) for c in self.coeffs]

    def __repr__(self):
        return f"Poly({self.field}, {[self.field.text(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# embeddings and root finding
# ---------------------------------------------------------------------------

class Embedding:
    """Field homomorphism src -> dst. `raw` evaluates an element's
    coefficients at `root`, the raw image of the generator of src, which is
    found on first need. Values below the characteristic are constant
    polynomials, which dst encodes as they are; so are all values of the
    identity, and those of a prime field, which never need the root."""

    __slots__ = ("src", "dst", "root")

    def __init__(self, src: FieldCtx, dst: FieldCtx):
        self.src = src
        self.dst = dst
        self.root = None

    def raw(self, a):
        if self.src is self.dst or a < self.src.char:
            return a
        if self.root is None:
            # the first root of src's modulus in dst (first-root convention),
            # which exists: the modulus is irreducible and its degree divides dst.k
            self.root = _first_root_raw(self.dst, self.src.modulus)
        return _horner(self.dst, _digits(a, self.src.char), self.root)

    def __repr__(self):
        return f"Embedding({self.src} -> {self.dst})"


# fixed seed of the shifts that split a product of linear factors; the roots
# found do not depend on it, only the number of tries does
_SPLIT_SEED = 20170101
# shifts one `_roots_raw` call may draw (a try splits with probability about
# 1/2 or more; the embedding GF(3^10) -> GF(3^20) needs 8 in all)
_SPLIT_TRIES = 256


def _split_poly(ring: _PolyRing, a) -> tuple:
    """A polynomial whose gcd with h, the ring's modulus and a monic product
    of distinct linear factors y - r, keeps the r where it vanishes:
    (y + a)^((q-1)/2) - 1 for odd q (r + a a nonzero square), the trace sum
    of (a y)^(2^i), i < n, for q = 2^n (trace of a r zero); d >= 2."""
    f = ring.f
    if f.char != 2:
        return _poly_sub(ring.unpack(ring.pow(ring.pack((a, f.one)), (f.order - 1) // 2)), (f.one,), f)
    t = acc = ring.pack((0, a))
    for _ in range(f.k - 1):
        t = ring.sqr(t)
        acc ^= t  # in characteristic 2 adding is XOR
    return ring.unpack(acc)


def _roots_raw(f: FieldCtx, coeffs) -> list:
    """Every distinct root, in the finite field f, of the polynomial with raw
    coefficients `coeffs` (low degree first, not constant).

    The gcd g with y^q - y is the product of the distinct linear factors.
    Cantor-Zassenhaus equal-degree splitting, with shifts drawn from a
    fixed-seed sequence over the whole field, cuts g until a linear factor
    y - r shows. If the coefficients lie in the subfield of order q0, the map
    r -> r^q0 permutes the roots, so r brings its whole orbit; g loses those
    factors and the search goes on with what is left. The distinct-root step
    takes its power in the kernel's GF(p)[y]/(g) when g lies over GF(p);
    every other power is taken in the packed ring GF(q)[y]/(h).
    """
    g = _poly_monic(_poly_trim(coeffs), f)
    p, k = f.char, f.k
    if all(c < p for c in g):
        # g lies over GF(p), whose integer kernel gives the same gcd
        q0, ring = p, _PolyMod(p, g)
        y = ring.mul(p, 1)  # x mod g; p is the index of x
        g = tuple(_digits(_px_gcd(ring.m, _px_add(p, -1, ring.pow(y, f.order), y), p), p))
    else:
        q0 = next(
            p**s for s in range(2, k + 1)
            if k % s == 0 and all(f.pow_raw(c, p**s) == c for c in g)
        )
        y, ring = _poly_rem((0, f.one), g, f), _PolyRing(f, g)
        g = _poly_gcd(g, _poly_sub(ring.unpack(ring.pow(ring.pack(y), f.order)), y, f), f)
    rng, tries = random.Random(_SPLIT_SEED), 0
    roots = []
    while len(g) > 1:
        h = g
        while len(h) > 2:
            ring, d = _PolyRing(f, h), h
            while not 1 < len(d) < len(h):
                if (tries := tries + 1) > _SPLIT_TRIES:  # raised, not asserted: python -O keeps it
                    raise AssertionError(f"no split after {_SPLIT_TRIES} shifts over {f}")
                d = _poly_gcd(h, _split_poly(ring, rng.randrange(f.order)), f)
            h = min(d, _poly_divmod(h, d, f)[0], key=len)
        orbit = [f.neg(h[0])]
        while (r := f.pow_raw(orbit[-1], q0)) != orbit[0]:
            orbit.append(r)
        for r in orbit:
            g = _poly_divmod(g, (f.neg(r), f.one), f)[0]
        roots += orbit
    return roots


def _first_root_raw(f: FieldCtx, coeffs):
    """First raw element of the finite field f, in canonical order, at which
    the polynomial with raw coefficients `coeffs` (low degree first)
    vanishes, or None. Fields of order <= _TABLE_MAX are scanned, where a
    candidate costs a few table lookups or machine-size residue operations;
    larger ones take the least of all roots from `_roots_raw`."""
    if f.order > _TABLE_MAX:
        return min(_roots_raw(f, coeffs), default=None)
    for x in range(f.order):
        if _horner(f, coeffs, x) == f.zero:
            return x
    return None


@functools.cache
def embed(src: FieldCtx, dst: FieldCtx) -> Embedding:
    """The canonical embedding src -> dst (first-root convention), made once
    per pair of fields; its root is found when a value first needs it."""
    if src is dst:
        return Embedding(src, dst)
    if src.kind != "GF" or dst.kind != "GF" or src.char != dst.char:
        raise FieldError(f"no embedding {src} -> {dst}")
    if dst.k % src.k:
        raise FieldError(f"{src} does not embed in {dst}: {src.k} does not divide {dst.k}")
    return Embedding(src, dst)


def extension_of(field: FieldCtx, degree: int) -> tuple[FieldCtx, Embedding]:
    """Degree-`degree` extension of a finite field, flattened over the prime
    field, together with the embedding."""
    if field.order is None:
        raise InfiniteField("Q is never extended")
    if degree == 1:
        return field, embed(field, field)
    ext = GF(field.char, field.k * degree)
    return ext, embed(field, ext)


# n -> (M, ((m, the n-th powers mod m), ...)), M the word-sized product of
# the m: the residues of a non-power pass every table with odds under 1%
_POWER_RESIDUES = {
    n: (math.prod(ms), tuple((m, {x**n % m for x in range(m)}) for m in ms))
    for n, ms in ((2, (64, 63, 65, 11)), (3, (63, 13, 19, 37)))
}


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for x >= 0, by integer Newton from above. The start,
    the cube root of x's top half of bits rounded up and shifted back, is an
    upper bound whose leading half of bits is already right, so few steps
    remain."""
    if x < 64:
        return (x > 0) + (x > 7) + (x > 26)
    s = x.bit_length() // 6
    r = _icbrt(x >> 3 * s) + 1 << s  # x < (x >> 3s) + 1 << 3s <= r^3
    while (t := (2 * r + x // (r * r)) // 3) < r:
        r = t
    return r


def _int_nthroot(x: int, n: int):
    """Exact integer n-th root of x >= 0 for n = 2 or 3, or None. Residues
    modulo a few small moduli turn away almost every non-power before a root
    is taken."""
    if x < 0:
        raise ValueError("negative radicand")
    M, tables = _POWER_RESIDUES[n]
    x_mod = x % M
    if not all(x_mod % m in powers for m, powers in tables):
        return None
    r = math.isqrt(x) if n == 2 else _icbrt(x)
    return r if r**n == x else None


def _integer_roots(c: list) -> set:
    """Integer roots of the monic integer polynomial `c` (low degree first)
    of degree 2 or 3. Cuts at floor(t) and floor(t) + 1 for each real root t
    of the derivative (exact, by math.isqrt) split [-B, B], B the Cauchy
    bound, into monotone pieces; each is bisected on plain integers."""
    B = 1 + max(map(abs, c[:-1]))
    if len(c) == 3:
        floors = [-c[1] // 2]  # the derivative's root -c1/2 lies in [t, t + 1]
    else:
        # the derivative's roots (-c2 -+ sqrt(D))/3, D = c2^2 - 3 c1, lie in
        # [t, t + 1] for these t, whether D is a square or not
        D = c[2] * c[2] - 3 * c[1]
        s = math.isqrt(D) if D > 0 else None
        floors = [] if s is None else [(-c[2] - s - 1) // 3, (-c[2] + s) // 3]
    cuts = sorted({-B, B, *(t for u in floors for t in (u, u + 1) if -B < t < B)})
    value = lambda y: functools.reduce(lambda acc, a: acc * y + a, reversed(c), 0)
    roots = set()
    for lo, hi in zip(cuts, cuts[1:]):
        vlo = value(lo)
        if vlo * value(hi) > 0:
            continue  # one sign all along a monotone piece
        while hi - lo > 1:  # lo stays on vlo's side of a root; +-B are never roots
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if (value(mid) < 0) == (vlo < 0) else (lo, mid)
        roots.update(y for y in (lo, hi) if value(y) == 0)
    return roots


def _rational_root(coeffs: tuple[Fraction, ...]):
    """First rational root of a degree 1..3 polynomial, or None.

    Candidate order: 0 first, then ascending magnitude with the positive sign
    first, so the choice is deterministic.
    """
    deg = len(coeffs) - 1
    if coeffs[0] == 0:
        return Fraction(0)
    if deg == 1:
        return -coeffs[0] / coeffs[1]
    if all(c == 0 for c in coeffs[1:-1]):
        # pure n-th root: x^n = u
        u = -coeffs[0] / coeffs[-1]
        if u < 0 and deg % 2 == 0:
            return None
        rn = _int_nthroot(abs(u.numerator), deg)
        rd = None if rn is None else _int_nthroot(u.denominator, deg)
        if rd is None:
            return None
        return Fraction(rn if u > 0 else -rn, rd)
    # with integer coefficients a_i, the rational roots x are y / a_n for the
    # integer roots y of the monic y^n + sum a_i a_n^(n-1-i) y^i
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    an = ints[-1]
    monic = [a * an ** (deg - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    roots = (Fraction(y, an) for y in _integer_roots(monic))
    return min(roots, key=lambda r: (abs(r), r < 0), default=None)


def find_root(field: FieldCtx, poly: Poly) -> tuple[FieldCtx, Fel, Embedding]:
    """A root of `poly` (degree 1..3) in `field` or a minimal extension of it.

    Returns (field2, root, embedding of field into field2). Finite fields are
    extended automatically (degree 2 or 3, flattened over the prime field);
    over Q a missing rational root raises NeedsExtension carrying the
    polynomial. Root choice is the first in the canonical element order.
    """
    if poly.field is not field:
        raise MixedFields("polynomial is over a different field")
    deg = poly.degree
    if deg < 1:
        raise ConstantPolynomial("root of a constant polynomial requested")
    if deg > 3:
        raise FieldError("only degrees 1..3 are supported")
    ext, root, emb = _root_raw(field, poly.coeffs)
    if root is None:
        raise NeedsExtension(poly)
    return ext, Fel(ext, root), emb


def _root_raw(field: FieldCtx, coeffs: tuple):
    """The root step of `find_root` and `classify`, on raw coefficients:
    (field2, raw root, embedding), or (field, None, None) over Q when no
    rational root exists. Finite fields go through the cache; Q never does,
    since rational inputs reach heights of 10^400 and rarely repeat."""
    if field.order is not None:
        return _finite_root(field, coeffs)
    r = _rational_root(coeffs)
    return field, r, None if r is None else embed(field, field)


def _pf_root(w: int, n: int, p: int):
    """The least s in GF(p) with s^n = w, or None, for n prime or prime to
    p - 1. In the second case s = w^(n^-1 mod p-1). Otherwise, by
    Adleman-Manders-Miller: with p - 1 = n^M Q, n prime to Q, R =
    w^(n^-1 mod Q) leaves t = R^n / w in the Sylow n-subgroup, generated by
    c = z^Q for the least non-n-th power z; R times powers of c lowers the
    order of t to 1, and the roots are R zeta^m, zeta = z^((p-1)/n) a
    primitive n-th root of unity."""
    if w == 0:
        return 0
    if math.gcd(n, p - 1) == 1:
        return pow(w, pow(n, -1, p - 1), p)
    e = (p - 1) // n
    if pow(w, e, p) != 1:
        return None  # Euler's criterion
    q, M = e, 1
    while q % n == 0:
        q, M = q // n, M + 1
    z, zeta = next((z, y) for z in range(2, p) if (y := pow(z, e, p)) != 1)
    c, R = pow(z, q, p), pow(w, pow(n, -1, q), p)
    t = pow(R, n, p) * pow(w, -1, p) % p
    while t != 1:
        i, y = 0, t
        while y != 1:  # the order of t is n^i; `last` = t^(n^(i-1)) = zeta^k
            last, y, i = y, pow(y, n, p), i + 1
        k = next(k for k in range(1, n) if pow(zeta, k, p) == last)
        b = pow(c, (n - k) * n ** (M - 1 - i), p)  # b^(n^i) = zeta^-k
        R, t = R * b % p, t * pow(b, n, p) % p
    return min(R * pow(zeta, m, p) % p for m in range(n))


@functools.lru_cache(maxsize=_ROOT_CACHE_MAX)
def _finite_root(field: FieldCtx, coeffs: tuple):
    """`_root_raw` over a finite field, on raw coefficients: (field2, raw
    root, embedding). Fields are interned and the answer is deterministic, so
    each (field, coeffs) is solved once while it stays in the cache.

    A monic binomial y^n - u over GF(p), n >= 2, is solved by `_pf_root`: in
    GF(p) when u is an n-th power, else in the extension, whose modulus is
    then x^n - nu (see `_first_irreducible`). GF(p) holds the n-th roots of
    unity, so every root there is s x^j for the one j in 1..n-1 that makes
    w = u nu^-j an n-th power, with s^n = w; raw s x^j is s p^j, least with
    s. Any other polynomial is searched for a root in the field, then in the
    extension of its degree."""
    n, p = len(coeffs) - 1, field.char
    if field.k == 1 and n > 1 and coeffs[-1] == 1 and not any(coeffs[1:-1]):
        u = -coeffs[0] % p
        if (s := _pf_root(u, n, p)) is not None:
            return field, s, embed(field, field)
        ext, emb = extension_of(field, n)
        nu = -ext.modulus[0] % p
        for j in range(1, n):
            if (s := _pf_root(u * pow(nu, -j, p) % p, n, p)) is not None:
                return ext, p**j * s, emb
    root = _first_root_raw(field, coeffs)
    if root is not None:
        return field, root, embed(field, field)
    # no root: for degree 2 or 3 this means irreducible, so one extension of
    # the same degree splits off a root
    ext, emb = extension_of(field, len(coeffs) - 1)
    root = _first_root_raw(ext, [emb.raw(c) for c in coeffs])
    if root is None:
        raise FieldError(f"no root of {list(map(field.text, coeffs))} in {ext}; is it irreducible?")
    return ext, root, emb
