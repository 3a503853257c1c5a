"""Exact arithmetic for even lattices and their integral orthogonal groups.

The package provides, with no floating point anywhere:

* even lattices and their discriminant forms (``EvenLattice``,
  ``FiniteQuadraticModule``), maximality via anisotropy, and enumeration of
  maximal even overlattices through isotropic glue groups;
* ADE root lattices and the closed-form maximality test;
* the extended hyperbolic form of signature (2, n+2) over a base lattice,
  with membership classification, standard generators, and completion of a
  primitive isotropic vector to a group element;
* reduction of scaled-orthogonal matrices to right- and double-coset normal
  forms, embeddings into the form of a larger base lattice, and normalizer
  certificates for the rational normalizer question.
"""

from .matrices import (
    Matrix,
    det,
    is_positive_definite,
    smith_normal_form,
)
from .quadmod import (
    MAX_GLUE_ORDER,
    MAX_ORDER,
    CapExceeded,
    FiniteQuadraticModule,
    GlueGroup,
    is_maximal_even,
)
from .lattices import (
    EvenLattice,
    LatticeEmbedding,
    direct_sum,
    overlattice_from_glue,
)
from .roots import (
    a_generator_class,
    maximality_formula,
    parse_name,
    root_lattice,
    squarefree,
)
from .ogroup import (
    ExtendedForm,
    GroupElement,
    Membership,
)
from .cosets import (
    HatEmbedding,
    HypothesisViolation,
    ScaledOrthogonal,
    make_scaled,
    max_extension_member,
    normalizer_certificate,
    reduce_double_coset,
    reduce_right_coset,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "det",
    "is_positive_definite",
    "smith_normal_form",
    "MAX_GLUE_ORDER",
    "MAX_ORDER",
    "CapExceeded",
    "FiniteQuadraticModule",
    "GlueGroup",
    "is_maximal_even",
    "EvenLattice",
    "LatticeEmbedding",
    "direct_sum",
    "overlattice_from_glue",
    "a_generator_class",
    "maximality_formula",
    "parse_name",
    "root_lattice",
    "squarefree",
    "ExtendedForm",
    "GroupElement",
    "Membership",
    "HatEmbedding",
    "HypothesisViolation",
    "ScaledOrthogonal",
    "make_scaled",
    "max_extension_member",
    "normalizer_certificate",
    "reduce_double_coset",
    "reduce_right_coset",
    "__version__",
]
