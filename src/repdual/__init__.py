"""repdual: exact representation-based duality for codes over finite groups.

A code is a subgroup H of Gamma^n for a finite (possibly nonabelian) group
Gamma.  Its dual R(H) is the multiset of irreducible representations whose
direct sum is the permutation representation of Gamma^n on the cosets of H.
This package computes R(H) exactly (integer arrays over Z[C_m], no floats
on the primary paths), the weight and complete weight enumerators of both
sides, the projection-cardinality polymatroid with its Tutte evaluation, and
verifies Greene's theorem and both MacWilliams identities exactly, as
equalities of integer count vectors.
"""

from .chartable import CharacterTable, character_table
from .codes import (
    GroupCode,
    RankProfile,
    code_from_generators,
    code_from_words,
    complete_weight_enumerator,
    diagonal_code,
    full_code,
    rank_profile,
    trivial_code,
    tutte_evaluate,
    weight_enumerator,
)
from .cyclotomic import cyclotomic_polynomial
from .duality import (
    DualMultiset,
    decompose_permutation_character,
    dual_cwe,
    dual_multiset,
    dual_weight_enumerator,
    extension_lemma_checks,
    permutation_character,
)
from .groups import (
    ClassData,
    FiniteGroup,
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    group_from_generators,
    group_from_table,
    product_group,
    quaternion_group,
    symmetric_group,
)
from .identities import (
    CheckResult,
    CodeAnalysis,
    greene_subset_form_H,
    greene_subset_form_dual,
    verify_abelian_specialization,
    verify_all,
    verify_extension_lemma,
    verify_greene,
    verify_macwilliams1,
    verify_macwilliams2,
)
from .polynomials import MultiPoly, UniPoly
from .specfiles import load_code_spec, load_group_spec

__version__ = "0.1.0"
