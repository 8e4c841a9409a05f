"""Exact arithmetic over Q, prime fields GF(p) and extension fields GF(p^k).

Field contexts are interned: `field_make` returns the same object for the
same descriptor, so identity checks between contexts are cheap and pickled
contexts re-intern on load. Elements are `Fel` values holding a canonical
raw encoding (a normalized Fraction over Q, a residue in [0, p) over GF(p),
the base-p integer index of the coefficient vector over GF(p^k)); element
equality is equality of that encoding. There is no floating point anywhere.

Extension fields are always single quotients GF(p)[x]/(m) with a monic
irreducible modulus; towers are flattened into one extension of the prime
field. Small fields (order <= 128) switch to full lookup tables on first
use, which matters for the brute-force oracle's inner loops.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator

_TABLE_MAX = 128  # largest field order that gets full add/mul lookup tables


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p) as trimmed coefficient tuples, low degree first
# ---------------------------------------------------------------------------

def _pf_trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pf_mul(a, b, p) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pf_trim(out)


def _pf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return (), _pf_trim(a)
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * (da - db + 1)
    for shift in range(da - db, -1, -1):
        c = a[shift + db] * inv_lead % p
        if c:
            quot[shift] = c
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
    return _pf_trim(quot), _pf_trim(a[:db])


def _pf_mod(a, b, p) -> tuple:
    return _pf_divmod(a, b, p)[1]


def _pf_inverse(a, m, p) -> tuple:
    """Inverse of a modulo m over GF(p), via the extended Euclidean algorithm."""
    r0, r1 = _pf_trim(m), _pf_mod(a, m, p)
    if not r1:
        raise ZeroDivisionError("inverting zero polynomial class")
    t0, t1 = (), (1,)
    while r1:
        q, r = _pf_divmod(r0, r1, p)
        r0, r1 = r1, r
        qt = _pf_mul(q, t1, p)
        nt = [0] * max(len(t0), len(qt))
        for i, c in enumerate(t0):
            nt[i] = c
        for i, c in enumerate(qt):
            nt[i] = (nt[i] - c) % p
        t0, t1 = t1, _pf_trim(nt)
    # r0 is the gcd, a nonzero constant since m is irreducible
    scale = pow(r0[0], p - 2, p)
    return _pf_trim([c * scale % p for c in t0])


def _pf_is_irreducible(m, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    k = len(m) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            g, i = [], idx
            for _ in range(d):
                i, r = divmod(i, p)
                g.append(r)
            g.append(1)
            if not _pf_mod(m, tuple(g), p):
                return False
    return True


def _first_irreducible(p: int, k: int) -> tuple:
    """First monic irreducible of degree k over GF(p), scanning constant parts
    in base-p counting order. Deterministic across runs."""
    for idx in range(p**k):
        lows, i = [], idx
        for _ in range(k):
            i, r = divmod(i, p)
            lows.append(r)
        m = (*lows, 1)
        if _pf_is_irreducible(m, p):
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


class PrimeField(FieldCtx):
    kind = "GF"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.k = 1
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1
        self._key = ("GF", p)

    def coerce(self, x) -> int:
        if isinstance(x, Fel):
            if x.field is not self:
                raise MixedFields(f"{x.field} element used in {self}")
            return x.raw
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"{x} has no image in {self}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(_parse_fraction(x))
        if isinstance(x, (list, tuple)) and len(x) == 1:
            return self.coerce(x[0])
        raise FieldError(f"cannot coerce {x!r} into {self}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self}")
        return a * pow(b, self.p - 2, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return (Fel(self, i) for i in range(self.p))

    def text(self, raw) -> list:
        return [raw]

    def parse(self, obj) -> int:
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return self.coerce(obj)
        if isinstance(obj, list) and len(obj) == 1 and isinstance(obj[0], int):
            return self.coerce(obj[0])
        raise FieldError(f"bad element encoding {obj!r} for {self}")

    def sort_key(self, raw):
        return raw

    def descriptor(self):
        return {"kind": "GF", "p": self.p, "k": 1}

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(FieldCtx):
    """GF(p^k) = GF(p)[x]/(modulus), elements indexed by the base-p value of
    their coefficient vector (c0 least significant)."""

    kind = "GF"

    def __init__(self, p: int, k: int, modulus):
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if k < 2:
            raise DegreeMismatch("extension degree must be >= 2")
        m = tuple(int(c) % p for c in modulus)
        if len(m) != k + 1 or m[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {k}, got {list(modulus)}"
            )
        if not _pf_is_irreducible(m, p):
            raise ReducibleModulus(f"{list(m)} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.modulus = m
        self.char = p
        self.order = p**k
        self.zero = 0
        self.one = 1
        self._key = ("GF", p, k, m)
        self._add_t = self._mul_t = self._neg_t = self._inv_t = None

    # -- coefficient/index conversions

    def _coeffs(self, i: int) -> list:
        p, out = self.p, []
        for _ in range(self.k):
            i, r = divmod(i, p)
            out.append(r)
        return out

    def _index(self, cs) -> int:
        acc = 0
        for c in reversed(cs):
            acc = acc * self.p + c
        return acc

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
        p, k = self.p, self.k
        ca, cb = self._coeffs(a), self._coeffs(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * m[j]) % p
        return self._index(prod[:k])

    def _neg_slow(self, a):
        p = self.p
        return self._index([-c % p for c in self._coeffs(a)])

    def _inv_slow(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverting zero in {self}")
        inv = _pf_inverse(_pf_trim(self._coeffs(a)), self.modulus, self.p)
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

    def coerce(self, x) -> int:
        if isinstance(x, Fel):
            if x.field is not self:
                raise MixedFields(f"{x.field} element used in {self}")
            return x.raw
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p  # constants embed as degree-0 vectors
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"{x} has no image in {self}")
            return (
                x.numerator
                * pow(x.denominator, self.p - 2, self.p)
                % self.p
            )
        if isinstance(x, str):
            return self.coerce(_parse_fraction(x))
        if isinstance(x, (list, tuple)):
            if len(x) > self.k:
                raise FieldError(f"coefficient vector {x!r} too long for {self}")
            cs = [int(c) % self.p for c in x] + [0] * (self.k - len(x))
            return self._index(cs)
        raise FieldError(f"cannot coerce {x!r} into {self}")

    def elements(self):
        return (Fel(self, i) for i in range(self.order))

    def text(self, raw) -> list:
        return self._coeffs(raw)

    def parse(self, obj) -> int:
        if isinstance(obj, list):
            if len(obj) != self.k or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in obj
            ):
                raise FieldError(f"bad element encoding {obj!r} for {self}")
            return self.coerce(obj)
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return self.coerce(obj)
        raise FieldError(f"bad element encoding {obj!r} for {self}")

    def sort_key(self, raw):
        return raw

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
    deterministic across runs.
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
        try:
            p = int(desc["p"])
        except (KeyError, TypeError, ValueError):
            raise FieldError(f"bad field descriptor {desc!r}") from None
        k = int(desc.get("k", 1))
        if k < 1:
            raise DegreeMismatch("k must be >= 1")
        if k == 1:
            if "modulus" in desc:
                raise DegreeMismatch("GF(p) takes no modulus")
            key = ("GF", p)
            if key not in _FIELDS:
                _FIELDS[key] = PrimeField(p)
            return _FIELDS[key]
        modulus = desc.get("modulus")
        if modulus is None:
            if not _is_prime(p):
                raise NonPrimeModulus(f"{p} is not prime")
            modulus = _first_irreducible(p, k)
        m = tuple(int(c) % p for c in modulus)
        key = ("GF", p, k, m)
        if key not in _FIELDS:
            _FIELDS[key] = ExtensionField(p, k, m)
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
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, xr), c)
        return Fel(f, acc)

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
    """Field homomorphism src -> dst. `table` is None when the raw encodings
    coincide (identity, or prime subfield into an extension)."""

    __slots__ = ("src", "dst", "table")

    def __init__(self, src: FieldCtx, dst: FieldCtx, table=None):
        self.src = src
        self.dst = dst
        self.table = table

    def raw(self, a):
        t = self.table
        return a if t is None else t[a]

    def __call__(self, x: Fel) -> Fel:
        if x.field is not self.src:
            raise MixedFields(f"embedding expects {self.src} elements")
        return Fel(self.dst, self.raw(x.raw))

    def image_raw_map(self) -> dict:
        """dst raw -> src raw for the image of the embedding (finite src only)."""
        if self.src.order is None:
            raise InfiniteField("image map needs a finite source")
        return {self.raw(a): a for a in range(self.src.order)}

    def __repr__(self):
        return f"Embedding({self.src} -> {self.dst})"


_EMBEDDINGS: dict[tuple, Embedding] = {}


def _first_root_raw(f: FieldCtx, coeffs):
    """First raw element of the finite field f, in canonical order, at which
    the polynomial with raw coefficients `coeffs` (low degree first)
    vanishes, or None."""
    add, mul, z = f.add, f.mul, f.zero
    rev = tuple(reversed(coeffs))
    for cand in range(f.order):
        acc = z
        for c in rev:
            acc = add(mul(acc, cand), c)
        if acc == z:
            return cand
    return None


def embed(src: FieldCtx, dst: FieldCtx) -> Embedding:
    """The canonical embedding src -> dst (first-root convention)."""
    if src is dst:
        return Embedding(src, dst)
    key = (src._key, dst._key)
    hit = _EMBEDDINGS.get(key)
    if hit is not None:
        return hit
    if src.kind != "GF" or dst.kind != "GF" or src.char != dst.char:
        raise FieldError(f"no embedding {src} -> {dst}")
    if dst.k % src.k:
        raise FieldError(f"{src} does not embed in {dst}: {src.k} does not divide {dst.k}")
    if src.k == 1:
        emb = Embedding(src, dst)  # residues are the constant indices of dst
    else:
        # send the generator of src to the first root of src's modulus in dst
        root = _first_root_raw(dst, src.modulus)
        if root is None:
            raise FieldError(f"modulus of {src} has no root in {dst}")
        pows = [dst.one]
        for _ in range(src.k - 1):
            pows.append(dst.mul(pows[-1], root))
        table = []
        for a in range(src.order):
            acc = dst.zero
            for c, pw in zip(src._coeffs(a), pows):
                if c:
                    acc = dst.add(acc, dst.mul(c, pw))
            table.append(acc)
        emb = Embedding(src, dst, table)
    _EMBEDDINGS[key] = emb
    return emb


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
    poly = Poly(QQ, coeffs)
    for cand in sorted(cands, key=lambda r: (abs(r), r < 0)):
        if poly.eval(cand).is_zero:
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
        r = _rational_root(poly.coeffs)
        if r is None:
            raise NeedsExtension(poly)
        return field, Fel(field, r), Embedding(field, field)
    root = _first_root_raw(field, poly.coeffs)
    if root is not None:
        return field, Fel(field, root), Embedding(field, field)
    # no root: for degree 2 or 3 this means irreducible, so one extension of
    # the same degree splits off a root
    ext, emb = extension_of(field, deg)
    root = _first_root_raw(ext, [emb.raw(c) for c in poly.coeffs])
    if root is None:
        raise FieldError(f"no root of {poly} in {ext}; is it irreducible?")
    return ext, Fel(ext, root), emb
