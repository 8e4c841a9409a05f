import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    GF,
    QQ,
    BasisChange,
    CanonicalKey,
    EvolutionMsc,
    Fel,
    Mat2,
    MixedFields,
    Msc,
    UnsupportedKey,
    aut_closed_form,
    aut_instantiate,
    canonical_msc,
    classify,
    der_check,
    der_closed_form,
    der_solve,
    lie_bracket,
    transform,
)
from evoalg.derivations import (
    _MOD_P,
    _basis_from_vectors,
    _der_residual_raw,
    _nullspace,
    _rref,
    _unit_residuals,
)
from evoalg.fields import FieldError
from evoalg.oracle import brute_der
from evoalg.serialize import der_to_json, dumps

from conftest import F2, F3, F4, F5, F7, F9, big_fraction_st, big_q_evolution_st
from test_autgroup import all_keys


def span_raws(field, basis):
    vecs = basis.vectors()
    out = set()
    for coeffs in itertools.product(range(field.order), repeat=len(vecs)):
        acc = [field.zero] * 4
        for c, v in zip(coeffs, vecs):
            for i in range(4):
                acc[i] = field.add(acc[i], field.mul(c, v[i]))
        out.add(tuple(acc))
    return out


class TestDerCheck:
    def test_e6_diag_2_1(self):
        E = canonical_msc(CanonicalKey(QQ, "E6"))
        assert der_check(E, Mat2.of(QQ, ((2, 0), (0, 1))))

    def test_e1_has_no_nonzero_derivation(self):
        E = canonical_msc(CanonicalKey(F5, "E1", (2, 4)))
        for D in brute_der(E, F5):
            assert D == Mat2.of(F5, ((0, 0), (0, 0)))

    def test_zero_matrix_always(self):
        for E in [
            canonical_msc(CanonicalKey(QQ, "E3")),
            canonical_msc(CanonicalKey(F7, "E6")),
            Msc.of(QQ, ((1, 2, 3, 4), (5, 6, 7, 8))),
        ]:
            z = Mat2.of(E.field, ((0, 0), (0, 0)))
            assert der_check(E, z)

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            der_check(canonical_msc(CanonicalKey(F5, "E6")), Mat2.identity(F7))


class TestDerSolve:
    def test_e6_over_q(self):
        b = der_solve(canonical_msc(CanonicalKey(QQ, "E6")))
        assert b.dim == 2
        # echelon basis spans the family [[2t, s], [0, t]]
        assert b.vectors() == (
            (1, 0, 0, QQ.coerce("1/2")),
            (0, 1, 0, 0),
        )
        gen = Mat2.of(QQ, ((2, 0), (0, 1)))
        assert der_check(canonical_msc(CanonicalKey(QQ, "E6")), gen)

    def test_e4_char2(self):
        b = der_solve(canonical_msc(CanonicalKey(F4, "E4")))
        assert b.dim == 1
        assert b.basis[0] == Mat2.of(F4, ((0, 0), (0, 1)))

    def test_e3_char3(self):
        E = canonical_msc(CanonicalKey(F9, "E3"))
        b = der_solve(E)
        assert b.dim == 1
        # normalized form of the line through the generator [[2, 0], [0, 1]]
        assert b.basis[0] == Mat2.of(F9, ((1, 0), (0, 2)))
        assert der_check(E, Mat2.of(F9, ((2, 0), (0, 1))))

    def test_e3_over_q_trivial(self):
        assert der_solve(canonical_msc(CanonicalKey(QQ, "E3"))).dim == 0

    def test_non_evolution_input(self):
        A = Msc.of(F5, ((1, 2, 3, 4), (0, 1, 0, 2)))
        b = der_solve(A)
        for D in b.basis:
            assert der_check(A, D)
        assert span_raws(F5, b) == {
            tuple(v for row in D.e for v in row) for D in brute_der(A, F5)
        }


class TestClosedForm:
    def test_e5_q(self):
        b = der_closed_form(CanonicalKey(QQ, "E5"), QQ)
        assert b.dim == 1
        assert b.vectors() == ((1, -1, -1, 1),)
        # the stated generator [[-1, 1], [1, -1]] lies on the same line
        assert der_check(
            canonical_msc(CanonicalKey(QQ, "E5")), Mat2.of(QQ, ((-1, 1), (1, -1)))
        )

    def test_e2_zero_gf3(self):
        b = der_closed_form(CanonicalKey(F3, "E2", (0,)), F3)
        assert b.dim == 1
        assert b.basis[0] == Mat2.of(F3, ((0, 0), (1, -1)))

    @pytest.mark.parametrize("field", [QQ, F4, F9, F5])
    def test_e2_nonzero_always_trivial(self, field):
        b = der_closed_form(CanonicalKey(field, "E2", (Fel(field, field.one),)), field)
        assert b.dim == 0

    def test_e0_unsupported(self):
        with pytest.raises(UnsupportedKey):
            der_closed_form(CanonicalKey(QQ, "E0"), QQ)

    @pytest.mark.parametrize("field", [QQ, F4, F9, F5, F7])
    def test_solver_matches_closed_form_for_every_key(self, field):
        if field.order is None:
            keys = [
                CanonicalKey(field, "E1", (2, 3)),
                CanonicalKey(field, "E2", (0,)),
                CanonicalKey(field, "E2", (5,)),
                CanonicalKey(field, "E3"),
                CanonicalKey(field, "E4"),
                CanonicalKey(field, "E5"),
                CanonicalKey(field, "E6"),
            ]
        else:
            keys = all_keys(field)
        for k in keys:
            assert der_closed_form(k, field) == der_solve(canonical_msc(k)), k


# der_closed_form bases, label by label, in the coordinates (x, y, z, t) of
# D = [[x, y], [z, t]]; raw values of the field. Characteristic 2 and 3 differ
# from the generic answer only by evaluating the same generators there, except
# E4 in characteristic 2 and E3 in characteristic 3.
_CHAR2 = {
    "E20": ((0, 0, 1, 1),),
    "E4": ((0, 0, 0, 1),),
    "E5": ((1, 1, 1, 1),),
    "E6": ((0, 1, 0, 0), (0, 0, 0, 1)),
}
_CHAR3 = {
    "E20": ((0, 0, 1, 2),),
    "E3": ((1, 0, 0, 2),),
    "E5": ((1, 2, 2, 1),),
    "E6": ((1, 0, 0, 2), (0, 1, 0, 0)),
}
CLOSED_FORM_VECTORS = [
    (QQ, {
        "E20": ((0, 0, 1, -1),),
        "E5": ((1, -1, -1, 1),),
        "E6": ((1, 0, 0, Fraction(1, 2)), (0, 1, 0, 0)),
    }),
    (F2, _CHAR2),
    (F4, _CHAR2),
    (GF(2, 3), _CHAR2),
    (F3, _CHAR3),
    (F9, _CHAR3),
    (F5, {"E20": ((0, 0, 1, 4),), "E5": ((1, 4, 4, 1),), "E6": ((1, 0, 0, 3), (0, 1, 0, 0))}),
    (F7, {"E20": ((0, 0, 1, 6),), "E5": ((1, 6, 6, 1),), "E6": ((1, 0, 0, 4), (0, 1, 0, 0))}),
]


class TestClosedFormVectors:
    @pytest.mark.parametrize(
        "field, want", CLOSED_FORM_VECTORS, ids=[str(f) for f, _ in CLOSED_FORM_VECTORS]
    )
    def test_every_label(self, field, want):
        pair = (2, 4) if field is F5 else (2, 3)
        keys = {
            "E1": CanonicalKey(field, "E1", pair),
            "E20": CanonicalKey(field, "E2", (0,)),
            "E2b": CanonicalKey(field, "E2", (1,)),
            "E3": CanonicalKey(field, "E3"),
            "E4": CanonicalKey(field, "E4"),
            "E5": CanonicalKey(field, "E5"),
            "E6": CanonicalKey(field, "E6"),
        }
        for name, k in keys.items():
            assert der_closed_form(k, field).vectors() == want.get(name, ()), name


class TestDimensionTable:
    @pytest.mark.parametrize("field", [QQ, F5])
    def test_generic_characteristic(self, field):
        pair = (2, 4) if field is F5 else (2, 3)
        dims = [
            der_solve(canonical_msc(CanonicalKey(field, "E1", pair))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E2", (3,)))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E2", (0,)))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E3"))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E4"))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E5"))).dim,
            der_solve(canonical_msc(CanonicalKey(field, "E6"))).dim,
        ]
        assert dims == [0, 0, 1, 0, 0, 1, 2]

    def test_char2_e4_and_e6_pattern(self):
        assert der_solve(canonical_msc(CanonicalKey(F4, "E4"))).dim == 1
        b6 = der_solve(canonical_msc(CanonicalKey(F4, "E6")))
        assert b6.dim == 2
        for D in b6.basis:
            assert D.e[0][0] == F4.zero  # zero upper-left entry in char 2

    def test_char3_e3(self):
        assert der_solve(canonical_msc(CanonicalKey(F9, "E3"))).dim == 1
        assert der_solve(canonical_msc(CanonicalKey(F3, "E3"))).dim == 1


class TestLieBracket:
    def test_self_bracket_zero(self):
        D = Mat2.of(QQ, ((1, 2), (3, 4)))
        assert lie_bracket(D, D) == Mat2.of(QQ, ((0, 0), (0, 0)))

    def test_worked_example(self):
        D1 = Mat2.of(QQ, ((2, 0), (0, 1)))
        D2 = Mat2.of(QQ, ((0, 1), (0, 0)))
        assert lie_bracket(D1, D2) == Mat2.of(QQ, ((0, 1), (0, 0)))

    def test_identity_central(self):
        D = Mat2.of(F7, ((3, 1), (2, 5)))
        assert lie_bracket(Mat2.identity(F7), D) == Mat2.of(F7, ((0, 0), (0, 0)))

    @pytest.mark.parametrize("field", [QQ, F4, F5, F9])
    def test_der_is_a_lie_algebra(self, field):
        # Der(E) is the full nullspace, so closure under the bracket is
        # exactly der_check on brackets of basis members
        keys = [
            CanonicalKey(field, "E2", (0,)),
            CanonicalKey(field, "E5"),
            CanonicalKey(field, "E6"),
        ]
        if field.char == 2:
            keys.append(CanonicalKey(field, "E4"))
        if field.char == 3:
            keys.append(CanonicalKey(field, "E3"))
        for k in keys:
            E = canonical_msc(k)
            basis = der_solve(E).basis
            for D1, D2 in itertools.product(basis, repeat=2):
                assert der_check(E, lie_bracket(D1, D2))


class TestConjugationCovariance:
    def test_aut_conjugation_preserves_der_gf7(self):
        rng = random.Random(11)
        for label, params in [("E2", (0,)), ("E5", ()), ("E6", ())]:
            k = CanonicalKey(F7, label, params)
            E = canonical_msc(k)
            auts = aut_instantiate(aut_closed_form(k, F7), F7)
            ders = der_solve(E).basis
            for _ in range(40):
                g = rng.choice(auts)
                D = rng.choice(ders)
                conj = g.mul(D).mul(g.inverse())
                assert der_check(E, conj)


class TestBruteOracle:
    @pytest.mark.parametrize("field", [F3, F4])
    def test_brute_der_equals_solver_span(self, field):
        for k in all_keys(field) + [CanonicalKey(field, "E0")]:
            E = canonical_msc(k)
            got = {tuple(v for row in D.e for v in row) for D in brute_der(E, field)}
            assert got == span_raws(field, der_solve(E)), k

    @pytest.mark.parametrize("field", [F2, F3, F4])
    def test_brute_der_equals_solver_span_off_evolution_form(self, field):
        # full 2x4 structure constants, as `evoalg der` accepts them; every
        # fourth has a zero row
        rng = random.Random(20170102 + field.order)
        for i in range(100):
            rows = [tuple(rng.randrange(field.order) for _ in range(4)) for _ in range(2)]
            if i % 4 == 0:
                rows[i % 8 // 4] = (0, 0, 0, 0)
            E = Msc(field, tuple(rows))
            solved = der_solve(E)
            got = {tuple(v for row in D.e for v in row) for D in brute_der(E, field)}
            assert got == span_raws(field, solved), rows
            assert all(der_check(E, D) for D in solved.basis), rows


def sparse_msc_st(field):
    """General (non-evolution) 2x4 structure constants, about a third of the
    entries zero so that some derivation algebras are not trivial; over Q the
    heights reach 10^400."""
    if field.order is None:
        entry = big_fraction_st()
    else:
        entry = st.integers(0, field.order - 1)
    entry = st.one_of(st.just(field.zero), entry, entry)
    return st.tuples(*[entry] * 8).map(lambda t: Msc(field, (t[:4], t[4:])))


class TestUnitResidualsClosedForm:
    """The closed-form unit residuals against `_der_residual_raw`, the
    definition that `der_check` evaluates."""

    UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    @pytest.mark.parametrize("field", [QQ, F7, F9])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equal_the_definition_at_each_unit(self, field, data):
        E = data.draw(sparse_msc_st(field))
        want = tuple(
            tuple(v for row in _der_residual_raw(E, Mat2.of(field, (u[:2], u[2:])).e) for v in row)
            for u in self.UNITS
        )
        assert _unit_residuals(E) == want

    @pytest.mark.parametrize("field", [QQ, F7, F9])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_combination_vanishes_exactly_for_derivations(self, field, data):
        # D is either arbitrary or drawn from the solved algebra, so both
        # outcomes occur
        E = data.draw(sparse_msc_st(field))
        coeff = big_fraction_st() if field.order is None else st.integers(0, field.order - 1)
        solved = der_solve(E)
        if solved.dim and data.draw(st.booleans()):
            cs = [field.coerce(data.draw(coeff)) for _ in solved.basis]
            D = tuple(field.zero for _ in range(4))
            for c, v in zip(cs, solved.vectors()):
                D = tuple(field.add(d, field.mul(c, w)) for d, w in zip(D, v))
        else:
            D = tuple(field.coerce(data.draw(coeff)) for _ in range(4))
        f = field
        combo = [f.zero] * 8
        for c, R in zip(D, _unit_residuals(E)):
            combo = [f.add(acc, f.mul(c, r)) for acc, r in zip(combo, R)]
        vanishes = all(v == f.zero for v in combo)
        assert vanishes == der_check(E, Mat2(f, (D[:2], D[2:])))


def exact_der(E):
    """The exact elimination of the derivation system, the reference for the
    certificate modulo P."""
    return _basis_from_vectors(E.field, _nullspace(list(zip(*_unit_residuals(E))), E.field))


def rank_mod_p(E):
    return len(_rref(zip(*_unit_residuals(Msc.of(_MOD_P, E.rows))), _MOD_P)[1])


class TestRankCertificate:
    """Over Q, der_solve answers Der(E) = 0 from the rank of the system
    modulo the fixed prime P and otherwise falls back to the exact path."""

    P = _MOD_P.p

    def test_denominator_divisible_by_p_takes_the_exact_path(self):
        P = self.P
        cases = [
            (EvolutionMsc.of(QQ, (0, Fraction(1, P), 3, 0)), 0),  # E3
            (EvolutionMsc.of(QQ, (Fraction(2, 3 * P), 0, 0, 0)), 1),  # E2(0)
            (Msc.of(QQ, ((1, Fraction(5, 2 * P), 0, 7), (0, 0, 0, Fraction(-1, P)))), None),
        ]
        for E, dim in cases:
            with pytest.raises(FieldError):
                Msc.of(_MOD_P, E.rows)
            got = der_solve(E)
            assert got == exact_der(E)
            assert dim is None or got.dim == dim

    def test_p_as_the_e2_parameter(self):
        # E2(P): Der = 0 over Q, but modulo P it is E2(0) of rank 3
        E = EvolutionMsc.of(QQ, (1, self.P, 1, 0))
        assert rank_mod_p(E) == 3
        assert der_solve(E).dim == 0
        assert der_solve(E) == exact_der(E)

    @settings(max_examples=200, deadline=None)
    @given(E=st.one_of(sparse_msc_st(QQ), big_q_evolution_st()))
    def test_equals_the_exact_elimination(self, E):
        assert der_solve(E) == exact_der(E)


class TestSolveDigest:
    """`der_to_json(der_solve(E))` over a seeded set, pinned by one sha256:
    evolution algebras over Q with heights to 10^400 on every trace tag and
    the zero algebra; the E5, E6 and E2(0) families, whose derivation
    algebras are not trivial, carried by basis changes; non-evolution
    structure constants over Q; and algebras over GF(2), GF(7) and GF(3^2)."""

    FINITE = (F2, F7, F9)
    FAMILIES = (("E5", ()), ("E6", ()), ("E2", (0,)))
    # recorded with the exact elimination over Q for every system
    DIGEST = "b47107122dce44fc937e2e417d4f8479dba1f1345828e366ed90f34b52c97ada"

    def algebras(self):
        rng = random.Random(17)

        def big(digits=400):
            num = rng.randrange(1, 10 ** rng.randint(1, digits))
            return Fraction(rng.choice((1, -1)) * num, rng.randrange(1, 10 ** rng.randint(1, digits)))

        def some():
            return Fraction(0) if rng.random() < 0.3 else big()

        def q_tag(j):
            a, b, c, d, lam = big(), big(), big(), big(), big()
            z = Fraction(0)
            shapes = (
                (z, z, z, z),  # zero
                (a, some(), some(), d),  # 1.1
                (a, b, c, z),  # 1.2
                (z, b, c, d),  # 1.3
                (z, b, c, z),  # 1.4
                (a, b, lam * a, lam * b),  # 2.1.1 -> E4
                (a, z, lam * a, z),  # 2.1.1 -> E2(0)
                (z, b, z, lam * b),  # 2.1.1 -> E2(0)
                (a, -a / (lam * lam), lam * a, -a / lam),  # 2.1.2
                (a, b, z, z),  # 2.2.1 -> E4
                (a, z, z, z),  # 2.2.1 -> E2(0)
                (z, b, z, z),  # 2.2.2
                (z, z, c, d),  # 2.3
            )
            return EvolutionMsc(QQ, shapes[j % len(shapes)])

        def change(f, el):
            while True:
                m = Mat2(f, ((el(), el()), (el(), el())))
                if not m.det().is_zero:
                    return BasisChange(m)

        def q_family(j):
            label, params = self.FAMILIES[j % 3]
            E = canonical_msc(CanonicalKey(QQ, label, params))
            el = lambda: big(60)
            if j % 2:  # a monomial change keeps the evolution form
                x, y = el(), el()
                ginv = ((x, 0), (0, y)) if j % 4 == 1 else ((0, x), (y, 0))
                return transform(E, BasisChange.of(QQ, ginv)).to_evolution()
            return transform(E, change(QQ, el))

        def q_general(j):
            return Msc(QQ, tuple(tuple(some() for _ in range(4)) for _ in range(2)))

        def finite(j):
            f = self.FINITE[j % 3]
            el = lambda: 0 if rng.random() < 0.4 else rng.randrange(f.order)
            if j % 4 == 0:
                label, params = self.FAMILIES[j // 4 % 3]
                return transform(canonical_msc(CanonicalKey(f, label, params)), change(f, el))
            if j % 2:
                return EvolutionMsc(f, tuple(el() for _ in range(4)))
            return Msc(f, tuple(tuple(el() for _ in range(4)) for _ in range(2)))

        makers = (q_tag, q_tag, q_family, q_general, finite, finite)
        for i in range(2400):
            yield makers[i % 6](i // 6)

    def test_pinned_digest(self):
        digest, tags, dims = hashlib.sha256(), set(), set()
        for E in self.algebras():
            b = der_solve(E)
            digest.update(dumps(der_to_json(b)).encode())
            dims.add((E.field.order, b.dim))
            if isinstance(E, EvolutionMsc) and E.field is QQ:
                tags.update(classify(E).trace)
        assert tags == {"zero", "1.1", "1.2", "1.3", "1.4", "2.1.1", "2.1.2", "2.2.1", "2.2.2", "2.3"}
        assert {d for o, d in dims if o is None} == {0, 1, 2, 4}
        assert {o for o, d in dims if d} == {None, 2, 7, 9}
        assert digest.hexdigest() == self.DIGEST
