"""Exact classification of 2-dimensional evolution algebras.

Structure constants live in an exact field (Q, GF(p) or GF(p^k)); algebras
are classified into the canonical forms E0..E6 with explicit basis-change
witnesses, automorphism groups and derivation algebras are computed in
closed form and by exact linear algebra, and everything is cross-checked by
a brute-force oracle over small finite fields.
"""

from .fields import (
    QQ,
    GF,
    ConstantPolynomial,
    DegreeMismatch,
    Embedding,
    Fel,
    FieldCtx,
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
from .msc import (
    BasisChange,
    EvolutionMsc,
    Mat2,
    Msc,
    SingularChange,
    TransformedEntries,
    det2x2,
    is_evolution,
    kron_square,
    transform,
    transform_evolution,
)
from .classify import (
    CanonicalKey,
    ClassificationResult,
    InvalidParams,
    UnsupportedKey,
    canonical_msc,
    classify,
    iso_test,
    same_key,
    t2_to_t1,
)
from .autgroup import (
    AutDescription,
    ParamFamily,
    aut_check,
    aut_closed_form,
    aut_instantiate,
    aut_order,
)
from .derivations import (
    DerBasis,
    der_check,
    der_closed_form,
    der_solve,
    lie_bracket,
)
from .oracle import (
    BudgetExceeded,
    CensusRecord,
    CensusReport,
    brute_aut,
    brute_der,
    brute_iso,
    census,
    gl2_enumerate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
