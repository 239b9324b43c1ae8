import importlib

import pytest

import refined_chord

PUBLIC = {
    "refined_invariant", "oracle_invariant", "make_degree", "cp2_degree",
    "canonical_key", "RefinedPolynomial", "Degree", "Vec",
    "DegreeError", "NonZeroSum", "ZeroVector", "TooSmall", "BadPartition",
    "VectorNotInDegree", "TooLarge", "GenericityFailure",
}

REMOVED = [
    "BadArity", "ChordDecomposition", "DegenerateBlock", "ORACLE_END_GUARD",
    "canonical_representative", "enumerate_decompositions",
    "mikhalkin_normalization", "omega", "q_analog", "sample_generic_moments",
    "sub_degree",
]


def test_all_is_exactly_the_public_api():
    assert len(refined_chord.__all__) == len(PUBLIC) == 16
    assert set(refined_chord.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from refined_chord import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(refined_chord, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_cannot_be_imported(name):
    with pytest.raises(ImportError):
        exec(f"from refined_chord import {name}", {})


def test_engine_modules_are_package_attributes():
    # the benchmark's tracer wraps functions on these module objects
    for module in ("chord_recursion", "direct_enumerator"):
        assert getattr(refined_chord, module) is importlib.import_module(
            f"refined_chord.{module}"
        )
