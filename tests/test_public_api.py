import importlib
import operator

import pytest

import refined_chord
from refined_chord.refined_poly import _Deferred, _dense

PUBLIC = {
    "refined_invariant", "oracle_invariant", "make_degree", "cp2_degree",
    "canonical_key", "RefinedPolynomial", "Degree", "Vec",
    "DegreeError", "VectorNotInDegree", "TooLarge", "GenericityFailure",
}

REMOVED = [
    "BadArity", "BadPartition", "ChordDecomposition", "DegenerateBlock",
    "NonZeroSum", "ORACLE_END_GUARD", "TooSmall", "ZeroVector",
    "canonical_representative", "enumerate_decompositions",
    "mikhalkin_normalization", "omega", "q_analog", "sample_generic_moments",
    "sub_degree",
]


def test_all_is_exactly_the_public_api():
    assert len(refined_chord.__all__) == len(PUBLIC) == 12
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


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_polynomial_has_no_arithmetic(op):
    # a value type: the engines compute on packed ints, the tests in tests/ring.py
    p = refined_chord.RefinedPolynomial({1: 1, -1: 1})
    for a, b in [(p, p), (p, 2), (2, p)]:
        with pytest.raises(TypeError):
            op(a, b)
    with pytest.raises(TypeError):
        -p


def test_refined_poly_module_has_no_q_analog():
    assert not hasattr(importlib.import_module("refined_chord.refined_poly"), "q_analog")


def test_polynomial_equality_agrees_with_hashing():
    P = refined_chord.RefinedPolynomial
    assert P.one() != 1
    eager = P({3: 1, 1: 5, -1: 5, -3: 1})
    twin = _Deferred(*_dense("k", eager))
    assert twin == eager and eager == twin and hash(twin) == hash(eager)
    assert {twin: "x"}[eager] == "x"


def test_polynomial_public_surface():
    # zero is `not p`; palindrome, length and signs are _check_cached's, parity _dense's
    public = {name for name in dir(refined_chord.RefinedPolynomial) if not name.startswith("_")}
    assert public == {"one", "items", "support", "evaluate_at_one", "to_text", "to_json_dict"}


def test_degree_is_not_iterable():
    d = refined_chord.make_degree([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(TypeError):
        iter(d)
    assert d.vectors == ((-1, -1), (0, 1), (1, 0)) and d.m == 3
