"""The public API, pinned name by name.

``evenlat.__all__`` is compared with a frozen set, so adding, removing or
renaming a public name shows up as a one-line diff here. The rational linear
algebra the library retired (a Gauss-Jordan ``inverse``, the ``Fraction``
congruence ``signature``), the ``has_single_cusp`` alias of
``is_maximal_even`` and the per-entry ``Fraction`` path of ``Matrix``
(``_norm``, ``_dot``, ``denominator_lcm``, ``Matrix._from_ints``) must not
come back; the tests keep the first two in ``helpers`` as oracles.
"""

import evenlat

PUBLIC = frozenset({
    "Matrix", "det", "is_positive_definite", "smith_normal_form",
    "MAX_GLUE_ORDER", "MAX_ORDER", "CapExceeded", "FiniteQuadraticModule",
    "GlueGroup", "is_maximal_even",
    "EvenLattice", "LatticeEmbedding", "direct_sum", "overlattice_from_glue",
    "a_generator_class", "maximality_formula", "parse_name", "root_lattice",
    "squarefree",
    "ExtendedForm", "GroupElement", "Membership",
    "HatEmbedding", "HypothesisViolation", "ScaledOrthogonal", "make_scaled",
    "max_extension_member", "normalizer_certificate", "reduce_double_coset",
    "reduce_right_coset",
    "__version__",
})


def test_all_is_pinned_and_resolves():
    assert len(evenlat.__all__) == len(set(evenlat.__all__))
    assert set(evenlat.__all__) == PUBLIC
    for name in evenlat.__all__:
        assert getattr(evenlat, name, None) is not None, name


def test_retired_names_stay_gone():
    for name in ("inverse", "signature", "SingularMatrixError"):
        assert not hasattr(evenlat.matrices, name), name
        assert not hasattr(evenlat, name), name
    assert not hasattr(evenlat.ogroup, "has_single_cusp")
    assert not hasattr(evenlat, "has_single_cusp")
    # the per-entry Fraction path of Matrix: every matrix is num over one den
    for name in ("_norm", "_dot", "denominator_lcm"):
        assert not hasattr(evenlat.matrices, name), name
    assert not hasattr(evenlat.Matrix, "_from_ints")
    # the tuple closure of the glue search: spans are closed on integer codes
    assert not hasattr(evenlat.FiniteQuadraticModule, "_closure_with")
