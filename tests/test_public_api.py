"""The public surface of repdual, pinned: a name added to or removed from the
package's exports edits this list and a README decision together."""

import types

import repdual
from repdual.chartable import CharacterTable

PUBLIC_NAMES = [
    "CharacterTable",
    "CheckResult",
    "ClassData",
    "CodeAnalysis",
    "DualMultiset",
    "FiniteGroup",
    "GroupCode",
    "MultiPoly",
    "RankProfile",
    "UniPoly",
    "builtin_group",
    "character_table",
    "code_from_generators",
    "code_from_words",
    "complete_weight_enumerator",
    "conjugacy_classes",
    "cyclic_group",
    "cyclotomic_polynomial",
    "decompose_permutation_character",
    "diagonal_code",
    "dihedral_group",
    "dual_cwe",
    "dual_multiset",
    "dual_weight_enumerator",
    "extension_lemma_checks",
    "full_code",
    "greene_subset_form_H",
    "greene_subset_form_dual",
    "group_from_generators",
    "group_from_table",
    "load_code_spec",
    "load_group_spec",
    "permutation_character",
    "product_group",
    "quaternion_group",
    "rank_profile",
    "symmetric_group",
    "trivial_code",
    "tutte_evaluate",
    "verify_abelian_specialization",
    "verify_all",
    "verify_extension_lemma",
    "verify_greene",
    "verify_macwilliams1",
    "verify_macwilliams2",
    "weight_enumerator",
]


def test_public_names_are_the_recorded_list():
    names = sorted(
        name
        for name, value in vars(repdual).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_a_character_table_has_no_value_objects():
    # a table's values are its integer array, ct.zvalues
    assert not hasattr(CharacterTable, "values")
    assert not hasattr(CharacterTable, "value")
