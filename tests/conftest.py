from fractions import Fraction

from hypothesis import strategies as st

from evoalg import GF, QQ, BasisChange, EvolutionMsc, Fel, Mat2, Msc

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2, [1, 1, 1])
F5 = GF(5)
F7 = GF(7)
F9 = GF(3, 2)

SMALL_FINITE = [F2, F3, F4, F5, F7, F9]


def fel_st(field, nonzero=False):
    if field.order is None:
        s = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        if nonzero:
            s = s.filter(lambda x: x != 0)
        return s.map(lambda x: Fel(field, Fraction(x)))
    lo = 1 if nonzero else 0
    return st.integers(lo, field.order - 1).map(lambda i: Fel(field, i))


def big_fraction_st(nonzero=False):
    """Rationals whose numerators and denominators reach 10^400, the heights
    the schema accepts."""
    num = st.integers(-(10**400), 10**400)
    if nonzero:
        num = num.filter(bool)
    return st.builds(Fraction, num, st.integers(1, 10**400))


def big_q_evolution_st():
    """Evolution algebras over Q with entries up to 10^400, mixing arbitrary
    entries with the shapes whose witness needs a root: 1.4 (a cube root),
    2.2.1 and 2.1.1 (square roots), each also built so the root is rational."""
    big, nz = big_fraction_st(), big_fraction_st(nonzero=True)
    shapes = st.one_of(
        st.tuples(big, big, big, big),
        st.builds(lambda b, c: (0, b, c, 0), nz, nz),
        st.builds(lambda c, r: (0, 1 / (c * c * r**3), c, 0), nz, nz),
        st.builds(lambda a, b: (a, b, 0, 0), nz, nz),
        st.builds(lambda a, r: (a, 1 / (a * r * r), 0, 0), nz, nz),
        st.builds(lambda a, b, lam: (a, b, lam * a, lam * b), nz, nz, nz),
    )
    return shapes.map(lambda t: EvolutionMsc(QQ, tuple(map(Fraction, t))))


def evolution_st(field):
    return st.tuples(*(fel_st(field) for _ in range(4))).map(
        lambda t: EvolutionMsc(field, tuple(x.raw for x in t))
    )


def msc_st(field):
    return st.tuples(*(fel_st(field) for _ in range(8))).map(
        lambda t: Msc(
            field,
            (
                tuple(x.raw for x in t[:4]),
                tuple(x.raw for x in t[4:]),
            ),
        )
    )


def mat2_st(field):
    return st.tuples(*(fel_st(field) for _ in range(4))).map(
        lambda t: Mat2(
            field, ((t[0].raw, t[1].raw), (t[2].raw, t[3].raw))
        )
    )


def invertible_mat2_st(field):
    return mat2_st(field).filter(lambda m: not m.det().is_zero)


def basis_change_st(field):
    return invertible_mat2_st(field).map(BasisChange)
