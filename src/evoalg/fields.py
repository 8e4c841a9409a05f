"""Exact arithmetic over Q, prime fields GF(p) and extension fields GF(p^k).

Field contexts are interned: `field_make` returns the same object for the
same descriptor, so identity checks between contexts are cheap and pickled
contexts re-intern on load. Elements are `Fel` values holding a canonical
raw encoding: a normalized Fraction over Q, and over GF(p^k) the base-p
integer index of the coefficient vector, which GF(p) shares as its k = 1
case (the residue in [0, p)). Element equality is equality of that encoding.
There is no floating point anywhere.

Extension fields are always single quotients GF(p)[x]/(m) with a monic
irreducible modulus; towers are flattened into one extension of the prime
field. Small fields (order <= 128) switch to full lookup tables on first
use, which matters for the brute-force oracle's inner loops. An embedding
keeps one root, the image of the source's generator, and carries a value by
evaluating its coefficients there: no work proportional to the source order.

Roots over a finite field are the least root in canonical order. A field with
tables is scanned element by element; in a larger one, the roots come from
gcd(f, y^q - y) and Cantor-Zassenhaus equal-degree splitting, all of them,
and the least is taken, so both give the same root. Moduli are proved
irreducible by Ben-Or's test, which stops at the first nontrivial gcd, over
GF(2) on polynomials packed into ints, and the default modulus is still the
first irreducible in base-p scan order. Primality is deterministic
Miller-Rabin with the prime bases up to 41, exact below 3.317e24; a p at or
above that bound that no base proves composite is refused with FieldError.
`field_make` checks each descriptor once, before its field is interned: p, k
and the modulus coefficients must be ints, and k * ceil(log2 p) must stay
within `_SIZE_BUDGET`, so building any field accepted takes bounded work.

Root problems over finite fields and default moduli are solved once per
process: `find_root` keeps a bounded cache keyed on (field, coefficients),
never used over Q, and a default-modulus field is also interned without its
modulus, so neither `find_root` nor `GF(p, k)` repeats its search.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterator

_TABLE_MAX = 128  # largest field order that gets full add/mul lookup tables
_ROOT_CACHE_MAX = 2048  # finite-field root problems `find_root` remembers
# largest k * ceil(log2 p) of a GF(p^k) descriptor; for p = 2 and 3 the slowest
# default modulus it admits, GF(3^116), takes about 2 s on 2 cores (the README
# has the figures for other p)
_SIZE_BUDGET = 256


class FieldError(ValueError):
    """Base for field construction and arithmetic failures."""


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
        super().__init__(f"needs an extension containing a root of {poly}")
        self.poly = poly


# Miller-Rabin with the prime bases up to 41 decides every n below this bound
# (Sorenson and Webster 2015); the bound itself is a strong pseudoprime to them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. A base that witnesses compositeness proves
    it at any size; an n >= _MR_BOUND that no base witnesses is left
    undecided and raises FieldError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise FieldError(
            f"cannot decide whether {n} is prime: the primality test is exact "
            f"only below {_MR_BOUND}"
        )
    return True


# ---------------------------------------------------------------------------
# polynomials over a finite field as trimmed tuples of raw coefficients, low
# degree first; the field context `f` does the coefficient arithmetic. One
# toolkit serves Ben-Or's test over GF(p), p odd, inversion in GF(p^k) and
# root finding over any finite field.
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
    return _poly_trim(out)


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


def _poly_powmod(a, n: int, m, f) -> tuple:
    """a^n modulo the monic m, by square-and-multiply."""
    acc, a = (f.one,), _poly_rem(a, m, f)
    while n:
        if n & 1:
            acc = _poly_rem(_poly_mul(acc, a, f), m, f)
        n >>= 1
        if n:
            a = _poly_rem(_poly_mul(a, a, f), m, f)
    return acc


def _poly_inverse(a, m, f) -> tuple:
    """Inverse of a modulo m, via the extended Euclidean algorithm."""
    r0, r1 = _poly_trim(m), _poly_rem(a, m, f)
    if not r1:
        raise ZeroDivisionError("inverting zero polynomial class")
    t0, t1 = (), (f.one,)
    while r1:
        q, r = _poly_divmod(r0, r1, f)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, f), f)
    # r0 is the gcd, a nonzero constant since m is irreducible
    s = f.inv(r0[0])
    return tuple(f.mul(c, s) for c in t0)


def _gf2_rem(a: int, b: int) -> int:
    """a mod b != 0 in GF(2)[x], polynomials packed into ints (bit i is the
    coefficient of x^i)."""
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def _gf2_is_irreducible(m: int) -> bool:
    """Ben-Or's test for the packed m = x^k + ... over GF(2) with a constant
    term: squaring h spreads its bits apart."""
    h = 0b10  # x
    for _ in range((m.bit_length() - 1) // 2):
        h = _gf2_rem(int("0".join(format(h, "b")), 2), m)
        a, b = m, h ^ 0b10
        while b:
            a, b = b, _gf2_rem(a, b)
        if a != 1:
            return False
    return True


def _pf_is_irreducible(m, f) -> bool:
    """Ben-Or's test for a monic m of degree k over the prime field f = GF(p):
    m is irreducible iff gcd(x^(p^i) - x, m) = 1 for i = 1 .. k/2, since a
    reducible m has an irreducible factor of degree i <= k/2, and that factor
    divides x^(p^i) - x. The powers come one Frobenius step at a time, and the
    test stops at the first nontrivial gcd, which a random reducible m
    reaches at a small i. Over GF(2) it runs on packed ints."""
    k = len(m) - 1
    if k < 1:
        return False
    if k > 1 and m[0] == 0:
        return False  # x divides m
    if f.p == 2:
        return _gf2_is_irreducible(int("".join(map(str, reversed(m))), 2))
    x = h = (0, 1)
    for _ in range(k // 2):
        h = _poly_powmod(h, f.p, m, f)
        if len(_poly_gcd(m, _poly_sub(h, x, f), f)) > 1:
            return False
    return True


def _first_irreducible(p: int, k: int) -> tuple:
    """First monic irreducible of degree k over GF(p), scanning constant parts
    in base-p counting order. Deterministic across runs.

    The first p candidates are the binomials x^k + c0. Some c0 makes one
    irreducible iff every prime factor of k divides p - 1, and 4 | p - 1 when
    4 | k (Lidl and Niederreiter, Finite Fields, Theorem 3.75); otherwise the
    scan starts past them, which spares up to p tests and changes no result.
    """
    f = GF(p)
    rest = k
    while (d := math.gcd(rest, p - 1)) > 1:
        rest //= d
    start = 0 if rest == 1 and (k % 4 or p % 4 == 1) else p
    for idx in range(start, p**k):
        lows, i = [], idx
        for _ in range(k):
            i, r = divmod(i, p)
            lows.append(r)
        m = (*lows, 1)
        if _pf_is_irreducible(m, f):
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
    except (ValueError, ZeroDivisionError) as e:
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
        self._pows = tuple(p**i for i in range(k))

    def _coeffs(self, i: int) -> list:
        p = self.p
        return [i // pw % p for pw in self._pows]

    def _index(self, cs) -> int:
        return sum(map(operator.mul, cs, self._pows))

    def _residue(self, x) -> int:
        """The image in GF(p) of an integer, a rational or its string."""
        if _is_int(x):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"{x} has no image in {self}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
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
            return self._index([self._residue(c) for c in x])
        return self._residue(x)  # constants embed as degree-0 vectors

    def elements(self):
        return (Fel(self, i) for i in range(self.order))

    def text(self, raw) -> list:
        return self._coeffs(raw)

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
        return pow(a, self.p - 2, self.p)

    def descriptor(self):
        return {"kind": "GF", "p": self.p, "k": 1}

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(_FiniteField):
    """GF(p^k) = GF(p)[x]/(modulus), k >= 2. `field_make` checks the modulus
    (monic, irreducible, over the prime field `base`) before it gets here."""

    def __init__(self, base: PrimeField, modulus: tuple):
        super().__init__(base.p, len(modulus) - 1)
        self._base = base
        self.modulus = modulus
        self._key = ("GF", self.p, self.k, modulus)
        self._add_t = self._mul_t = self._neg_t = self._inv_t = None

    # -- table management

    def _build_tables(self):
        q = self.order
        self._add_t = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
        self._mul_t = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        self._neg_t = [self._neg_slow(a) for a in range(q)]
        self._inv_t = [None] + [self._inv_slow(a) for a in range(1, q)]

    def _add_slow(self, a, b):
        p = self.p
        ca, cb = self._coeffs(a), self._coeffs(b)
        return self._index([(x + y) % p for x, y in zip(ca, cb)])

    def _mul_slow(self, a, b):
        p, k, m = self.p, self.k, self.modulus
        ca, cb = self._coeffs(a), self._coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * m[j]
        return self._index([c % p for c in prod[:k]])

    def _neg_slow(self, a):
        p = self.p
        return self._index([-c % p for c in self._coeffs(a)])

    def _inv_slow(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        inv = _poly_inverse(_poly_trim(self._coeffs(a)), self.modulus, self._base)
        return self._index(list(inv) + [0] * (self.k - len(inv)))

    # -- raw ops

    def add(self, a, b):
        t = self._add_t
        if t is None:
            if self.order <= _TABLE_MAX:
                self._build_tables()
                t = self._add_t
            else:
                return self._add_slow(a, b)
        return t[a][b]

    def sub(self, a, b):
        if self._add_t is None and self.order > _TABLE_MAX:
            p = self.p
            return self._index([(x - y) % p for x, y in zip(self._coeffs(a), self._coeffs(b))])
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        t = self._mul_t
        if t is None:
            if self.order <= _TABLE_MAX:
                self._build_tables()
                t = self._mul_t
            else:
                return self._mul_slow(a, b)
        return t[a][b]

    def neg(self, a):
        t = self._neg_t
        return self._neg_slow(a) if t is None else t[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        t = self._inv_t
        return self._inv_slow(a) if t is None else t[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
            raise FieldError(
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
    """Field homomorphism src -> dst. `root` is the raw image of the generator
    of src, at which `raw` evaluates an element's coefficients, or None when
    the raw encodings coincide (identity, or prime subfield into an extension)."""

    __slots__ = ("src", "dst", "root")

    def __init__(self, src: FieldCtx, dst: FieldCtx, root=None):
        self.src = src
        self.dst = dst
        self.root = root

    def raw(self, a):
        r = self.root
        return a if r is None else _horner(self.dst, self.src._coeffs(a), r)

    def image_raw_map(self) -> dict:
        """dst raw -> src raw for the image of the embedding (finite src only)."""
        if self.src.order is None:
            raise InfiniteField("image map needs a finite source")
        return {self.raw(a): a for a in range(self.src.order)}

    def __repr__(self):
        return f"Embedding({self.src} -> {self.dst})"


# fixed seed of the shifts that split a product of linear factors; the roots
# found do not depend on it, only the number of tries does
_SPLIT_SEED = 20170101


def _split_poly(g, a, f) -> tuple:
    """A polynomial whose gcd with g, a monic product of distinct linear
    factors y - r, keeps the r where it vanishes: (y + a)^((q-1)/2) - 1 for
    odd q (r + a a nonzero square), the trace sum of (a y)^(2^i), i < n, for
    q = 2^n (trace of a r zero)."""
    if f.char != 2:
        return _poly_sub(_poly_powmod((a, f.one), (f.order - 1) // 2, g, f), (f.one,), f)
    t = acc = _poly_rem(_poly_trim((0, a)), g, f)
    for _ in range(f.k - 1):
        t = _poly_rem(_poly_mul(t, t, f), g, f)
        acc = _poly_sub(acc, t, f)  # in characteristic 2 subtracting is adding
    return acc


def _roots_raw(f: FieldCtx, coeffs) -> list:
    """Every distinct root, in the finite field f, of the polynomial with raw
    coefficients `coeffs` (low degree first, not constant).

    The gcd g with y^q - y is the product of the distinct linear factors.
    Cantor-Zassenhaus equal-degree splitting, with shifts drawn from a
    fixed-seed sequence over the whole field, cuts g until a linear factor
    y - r shows. If the coefficients lie in the subfield of order q0, the map
    r -> r^q0 permutes the roots, so r brings its whole orbit; g loses those
    factors and the search goes on with what is left.
    """
    g = _poly_monic(_poly_trim(coeffs), f)
    p, k = f.char, f.k
    q0 = next(
        p**s for s in range(1, k + 1)
        if k % s == 0 and all(f.pow_raw(c, p**s) == c for c in g)
    )
    y = _poly_rem((0, f.one), g, f)
    g = _poly_gcd(g, _poly_sub(_poly_powmod(y, f.order, g, f), y, f), f)
    rng = random.Random(_SPLIT_SEED)
    roots = []
    while len(g) > 1:
        h = g
        while len(h) > 2:
            d = _poly_gcd(h, _split_poly(h, rng.randrange(f.order), f), f)
            if 1 < len(d) < len(h):
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
    """The canonical embedding src -> dst (first-root convention), found once
    per pair of fields."""
    if src is dst:
        return Embedding(src, dst)
    if src.kind != "GF" or dst.kind != "GF" or src.char != dst.char:
        raise FieldError(f"no embedding {src} -> {dst}")
    if dst.k % src.k:
        raise FieldError(f"{src} does not embed in {dst}: {src.k} does not divide {dst.k}")
    root = None  # for src.k == 1: residues are the constant indices of dst
    if src.k > 1:
        # send the generator of src to the first root of src's modulus in dst;
        # an element's coefficients are residues, which dst encodes as they are
        root = _first_root_raw(dst, src.modulus)
        if root is None:
            raise FieldError(f"modulus of {src} has no root in {dst}")
    return Embedding(src, dst, root)


def extension_of(field: FieldCtx, degree: int) -> tuple[FieldCtx, Embedding]:
    """Degree-`degree` extension of a finite field, flattened over the prime
    field, together with the embedding."""
    if field.order is None:
        raise InfiniteField("Q is never extended")
    if degree == 1:
        return field, embed(field, field)
    ext = GF(field.char, field.k * degree)
    return ext, embed(field, ext)


def _int_nthroot(x: int, n: int):
    """Exact integer n-th root of x >= 0, or None."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1):
        return x
    if n == 2:
        r = math.isqrt(x)
    else:
        # integer Newton from an upper bound; the iterates fall to floor(x^(1/n))
        r = 1 << -(-x.bit_length() // n)
        while True:
            s = ((n - 1) * r + x // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == x else None


def _divisors(n: int) -> list[int]:
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
        neg = u < 0
        if neg and deg % 2 == 0:
            return None
        nu, du = abs(u.numerator), u.denominator
        rn, rd = _int_nthroot(nu, deg), _int_nthroot(du, deg)
        if rn is None or rd is None:
            return None
        r = Fraction(rn, rd)
        return -r if neg else r
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    cands = set()
    for dn in _divisors(ints[0]):
        for dd in _divisors(ints[-1]):
            cands.add(Fraction(dn, dd))
            cands.add(Fraction(-dn, dd))
    for cand in sorted(cands, key=lambda r: (abs(r), r < 0)):
        if _horner(QQ, coeffs, cand) == 0:
            return cand
    return None


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
    if field.order is None:
        # never cached: rational inputs reach heights of 10^400 and rarely repeat
        r = _rational_root(poly.coeffs)
        if r is None:
            raise NeedsExtension(poly)
        return field, Fel(field, r), Embedding(field, field)
    ext, root, emb = _finite_root(field, poly.coeffs)
    return ext, Fel(ext, root), emb


@functools.lru_cache(maxsize=_ROOT_CACHE_MAX)
def _finite_root(field: FieldCtx, coeffs: tuple):
    """`find_root` over a finite field, on raw coefficients: (field2, raw
    root, embedding). Fields are interned and the answer is deterministic, so
    each (field, coeffs) is solved once while it stays in the cache."""
    root = _first_root_raw(field, coeffs)
    if root is not None:
        return field, root, Embedding(field, field)
    # no root: for degree 2 or 3 this means irreducible, so one extension of
    # the same degree splits off a root
    ext, emb = extension_of(field, len(coeffs) - 1)
    root = _first_root_raw(ext, [emb.raw(c) for c in coeffs])
    if root is None:
        raise FieldError(f"no root of {list(map(field.text, coeffs))} in {ext}; is it irreducible?")
    return ext, root, emb
