"""Even lattices, their discriminant forms, embeddings, and glue overlattices.

An even lattice is Z^n with a nondegenerate integral symmetric Gram matrix
whose diagonal is even. Everything downstream is exact:

* one Smith elimination of the Gram matrix, the record ``_smith``, gives the
  determinant (the divisors' product with the tracked sign of det U * det V)
  and the discriminant form on dual/lattice in integers; definiteness is one
  Bareiss pass on first use, derived for direct sums and glue overlattices;
* an overlattice is rebuilt from a totally isotropic glue group H, with no
  Smith elimination: its basis is the Hermite normal form of the rows
  [d I; d lifts], d = exponent, computed modulo d (``matrices._hnf_mod``),
  so it depends on H alone; its determinant det L / |H|^2 is checked by the
  index identity d^n = prod h_ii * |H|;
* embeddings carry the change of basis and verify Gram transport;
* the lift Gram, the overlattice Gram H S H^t / d^2 and the transport
  M^t S' M = S are one congruence, ``matrices._congruent``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from operator import mul
from typing import NamedTuple

from .matrices import (
    Matrix, _bareiss, _congruent, _dense, _hnf_mod, _nonzeros, _scaled_inverse,
    smith_normal_form,
)
from .quadmod import FiniteQuadraticModule, GlueGroup


class _Smith(NamedTuple):
    """The Smith elimination U S V = D of a Gram matrix S.

    det S = det U * det V * prod d_i; the divisors d_i > 1 are the last k of
    the chain, and the generator of Z/d_i lifts to column i of
    S^{-1} U^{-1} = V D^{-1}, V[:, i]/d_i, kept as w_i/d_i with the integer
    w_i = V[:, i] mod d_i.
    """

    u: Matrix
    v: Matrix
    full: tuple  # every diagonal entry of D
    divs: tuple  # the kept divisors d_i > 1
    w: tuple  # the numerators w_i, one per kept divisor
    det: int


class EvenLattice:
    """Z^n with an exact, nondegenerate, even Gram matrix."""

    def __init__(self, gram: Matrix, name: str = "", *, _known=None):
        # _known: (determinant, summands or glue parent), from its builder
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        if not gram.is_square:
            raise ValueError("Gram matrix must be square")
        if not gram.is_integral:
            raise ValueError("Gram matrix must be integral")
        if not gram.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")
        if any(gram[i, i] % 2 for i in range(gram.nrows)):
            raise ValueError("Gram diagonal must be even")
        self.gram = gram
        self.name = name
        self._lifts = {}  # lift numerators by class, filled by _lift_numerators
        self.determinant, self._sources = _known or (None, ())
        if _known is None:
            self.determinant = self._smith.det

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def inner(self, u, v) -> int:
        # u is read as a product reads v: int or Fraction entries, n of them
        return (Matrix([u]) @ self.gram @ tuple(v))[0]

    def norm(self, u) -> int:
        return self.inner(u, u)

    @cached_property
    def _smith(self) -> _Smith:
        """The one Smith record: read by the constructor of a lattice given its
        Gram; first read later for one given its determinant, which it checks."""
        u, d, v, sign = smith_normal_form(self.gram, _signed=True)
        full = tuple(d.num[i][i] for i in range(d.nrows))
        if not all(full):
            raise ValueError("Gram matrix must be nondegenerate")
        k = sum(di > 1 for di in full)
        divs = full[len(full) - k:]
        w = tuple(tuple(x % di for x in v.col(i))
                  for i, di in enumerate(divs, len(full) - k))
        record = _Smith(u, v, full, divs, w, sign * prod(full))
        if self.determinant not in (None, record.det):
            raise AssertionError("Smith form inconsistent with determinant")
        return record

    @cached_property
    def is_positive_definite(self) -> bool:
        """Sylvester's test, one Bareiss pass on first use. Derived for a
        direct sum from its summands, and for a glue overlattice from its
        parent: it spans the parent's rational space, so shares its signature."""
        if self._sources:
            return all(lat.is_positive_definite for lat in self._sources)
        return _bareiss(self.gram.num)[1]

    @cached_property
    def adjugate(self) -> Matrix:
        """|det S| S^{-1} as an integer matrix: V diag(|det S|/d_i) U."""
        s = self._smith
        dabs = abs(self.determinant)
        scale = [dabs // di for di in s.full]
        return Matrix._over(tuple(tuple(map(mul, row, scale))
                                  for row in s.v.num)) @ s.u

    @cached_property
    def _discriminant_group(self) -> FiniteQuadraticModule:
        s = self._smith
        # lift_gram[a][b] = (w_a^t S w_b) / (d_a d_b): the congruence of
        # the rows (d_k/d_a) w_a, over d_k^2
        dk = s.divs[-1] if s.divs else 1
        rows = ([dk // da * x for x in wa] for wa, da in zip(s.w, s.divs))
        lg = _congruent(_nonzeros(rows), _nonzeros(self.gram.num))
        return FiniteQuadraticModule(s.divs, Matrix._over(lg, dk * dk))

    def discriminant_group(self) -> FiniteQuadraticModule:
        """The finite quadratic module on dual/lattice, built once and cached."""
        return self._discriminant_group

    def _lift_numerators(self, x: tuple) -> tuple:
        """(d, a): x lifts to a/d, d = d_k, a = sum_i x_i (d/d_i) w_i mod d. Kept
        per class, since the glue groups of one lattice share generators."""
        if x not in self._lifts:
            s = self._smith
            d = s.divs[-1] if s.divs else 1
            acc = [0] * self.rank
            for c, di, wi in zip(x, s.divs, s.w):
                f = c * (d // di)
                acc = [a + f * b for a, b in zip(acc, wi)]
            self._lifts[x] = d, tuple(a % d for a in acc)
        return self._lifts[x]

    def lift(self, x) -> tuple:
        """A rational dual vector representing the class x, entries in [0, 1)."""
        divs = self._smith.divs
        if len(x) != len(divs) or not all(
                type(c) is int and 0 <= c < di for c, di in zip(x, divs)):
            raise ValueError(f"{x!r} is not a reduced element of dual/lattice")
        d, num = self._lift_numerators(tuple(x))
        return tuple(Fraction(a, d) for a in num)

    def element_from_dual(self, v) -> tuple:
        """Class in the discriminant group of a rational vector in the dual.

        The vector is given in Gram-matrix coordinates (so membership in the
        dual means the Gram matrix times it is integral).
        """
        s = self._smith
        v = tuple(v)
        w = self.gram @ v
        if any(x.denominator != 1 for x in map(Fraction, w)):
            raise ValueError("vector is not in the dual lattice")
        xfull = s.u @ tuple(int(x) for x in w)
        cls = tuple(x % d for x, d in zip(xfull[len(xfull) - len(s.divs):], s.divs))
        # consistency: the class lift must agree with v modulo the lattice
        diff = [a - b for a, b in zip(self.lift(cls), v)]
        if any(x.denominator != 1 for x in diff):
            raise AssertionError("dual-class lift mismatch")
        return cls

    def __repr__(self):
        tag = self.name or f"rank {self.rank}"
        return f"EvenLattice({tag}, det={self.determinant})"


class LatticeEmbedding:
    """A finite-index embedding sub -> sup recorded by a basis matrix.

    Column j of the matrix gives the image of the j-th basis vector of the
    sublattice in the basis of the overlattice; Gram transport is verified.
    """

    def __init__(self, sub: EvenLattice, sup: EvenLattice, matrix: Matrix):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        if matrix.shape != (sup.rank, sub.rank):
            raise ValueError("embedding matrix has the wrong shape")
        if not matrix.is_integral:
            raise ValueError("embedding matrix must be integral")
        cols = _nonzeros(zip(*matrix.num))
        if _congruent(cols, _nonzeros(sup.gram.num)) != sub.gram.num:
            raise ValueError("embedding does not transport the Gram matrix")
        self.sub = sub
        self.sup = sup
        self.matrix = matrix

    @cached_property
    def index(self) -> int:
        """[sup : sub], from the determinants: the verified transport
        MᵀS'M = S gives det S = det(M)² det S'."""
        if self.sub.rank != self.sup.rank:
            raise ValueError("the index needs a finite-index embedding")
        return isqrt(self.sub.determinant // self.sup.determinant)

    def __repr__(self):
        return f"LatticeEmbedding(index={self.index})"


def direct_sum(*lattices: EvenLattice) -> EvenLattice:
    """Orthogonal direct sum, block-diagonal Gram matrix."""
    if not lattices:
        raise ValueError("need at least one summand")
    n = sum(lat.rank for lat in lattices)
    rows = []
    for lat in lattices:
        off = len(rows)
        rows += [(0,) * off + row + (0,) * (n - off - lat.rank) for row in lat.gram.num]
    name = " + ".join(lat.name for lat in lattices) if all(
        lat.name for lat in lattices) else ""
    return EvenLattice(
        Matrix._over(tuple(rows)), name=name,
        _known=(prod(lat.determinant for lat in lattices), lattices))


def overlattice_from_glue(lat: EvenLattice, glue: GlueGroup):
    """Even overlattice determined by a totally isotropic glue group.

    Returns (overlattice, embedding of lat into it). The overlattice M is the
    preimage of the glue group in the dual. With d = d_k, the integer rows
    [d I; d lifts] span d M, and their Hermite normal form H (``_hnf_mod``,
    modulo d) is M's basis, times d: canonical, since it depends on the glue
    group alone. The Gram is H S H^t / d^2 and the embedding (d H^-1)^t, the
    inverse of the basis, transposed; both divisions are checked exact.
    """
    disc = lat.discriminant_group()
    mod = glue.parent
    if mod.divisors != disc.divisors or mod.lift_gram != disc.lift_gram:
        raise ValueError("glue group does not belong to this lattice")
    n = lat.rank
    d = disc.divisors[-1] if disc.divisors else 1
    h = _hnf_mod((lat._lift_numerators(g)[1] for g in glue.generators), d, n)
    gram = _congruent(h, _nonzeros(lat.gram.num), d * d)
    if gram is None:
        raise ValueError("glue group is not isotropic for the bilinear form")
    # the rows span d M, of index prod(h_ii) = d^n / [M : Z^n] in Z^n
    if d**n != prod(row[0][1] for row in h) * glue.order:
        raise AssertionError("overlattice index does not match glue order")
    over = EvenLattice(Matrix._over(gram),
                       _known=(lat.determinant // glue.order**2, (lat,)))
    x = _scaled_inverse(h, d)
    if x is None:
        raise ValueError("embedding matrix must be integral")
    return over, LatticeEmbedding(lat, over, Matrix._over(tuple(zip(*_dense(x, n)))))
