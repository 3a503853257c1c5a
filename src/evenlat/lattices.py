"""Even lattices, their discriminant forms, embeddings, and glue overlattices.

An even lattice is Z^n with a nondegenerate integral symmetric Gram matrix
whose diagonal is even. Everything downstream is exact:

* the discriminant form lives on dual/lattice and is computed from a Smith
  normal form of the Gram matrix;
* an overlattice is rebuilt from a totally isotropic glue group by saturating
  the row lattice spanned by Z^n and rational lifts of the glue generators;
* embeddings carry the change of basis and verify Gram transport.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

from .matrices import (
    Matrix,
    denominator_lcm,
    det,
    is_positive_definite,
    smith_normal_form,
)
from .quadmod import FiniteQuadraticModule, GlueGroup


class EvenLattice:
    """Z^n with an exact, nondegenerate, even Gram matrix."""

    def __init__(self, gram: Matrix, name: str = "", *, _determinant=None):
        # _determinant: det(gram) when the caller knows it, as direct_sum does
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
        d = det(gram) if _determinant is None else _determinant
        if d == 0:
            raise ValueError("Gram matrix must be nondegenerate")
        self.gram = gram
        self.name = name
        self.determinant = d
        self._disc = None

    @property
    def rank(self) -> int:
        return self.gram.nrows

    @property
    def is_positive_definite(self) -> bool:
        return is_positive_definite(self.gram)

    def inner(self, u, v) -> int:
        return sum(a * b for a, b in zip(self.gram @ tuple(v), u))

    def norm(self, u) -> int:
        return self.inner(u, u)

    def discriminant_group(self) -> FiniteQuadraticModule:
        """The finite quadratic module on dual/lattice, built once and cached."""
        if self._disc is None:
            self._disc = self._build_disc()
        return self._disc

    def _build_disc(self) -> FiniteQuadraticModule:
        s = self.gram
        u, d, v = smith_normal_form(s)
        full = tuple(d[i, i] for i in range(d.nrows))
        kept = [i for i, di in enumerate(full) if di > 1]
        if prod(full) != abs(self.determinant):
            raise AssertionError("Smith form inconsistent with determinant")
        # generator lifts: column i of S^{-1} U^{-1} = V D^{-1} is V[:,i]/d_i,
        # reduced into [0, 1) as w_i/d_i with the integer w_i = V[:,i] mod d_i
        divs = [full[i] for i in kept]
        w = [[x % d for x in v.col(i)] for i, d in zip(kept, divs)]
        lifts = [tuple(Fraction(x, d) for x in wi) for wi, d in zip(w, divs)]
        # lift_gram[a][b] = (w_a^t S w_b) / (d_a d_b), from one integer product
        sw = [[sum(map(mul, row, wi)) for row in s.rows] for wi in w]
        lg = Matrix([
            [Fraction(sum(map(mul, wa, swb)), da * db)
             for swb, db in zip(sw, divs)]
            for wa, da in zip(w, divs)
        ]) if w else Matrix.zeros(0, 0)
        return FiniteQuadraticModule(
            tuple(divs), lifts, lg,
            source_gram=s, snf_row_transform=u, full_divisors=full,
        )

    def element_from_dual(self, v) -> tuple:
        """Class in the discriminant group of a rational vector in the dual.

        The vector is given in Gram-matrix coordinates (so membership in the
        dual means the Gram matrix times it is integral).
        """
        disc = self.discriminant_group()
        w = self.gram @ tuple(Fraction(x) for x in v)
        if any(x.denominator != 1 for x in map(Fraction, w)):
            raise ValueError("vector is not in the dual lattice")
        w = tuple(int(x) for x in w)
        xfull = disc._snf_u @ w
        full = disc._full_divisors
        kept = [i for i, di in enumerate(full) if di > 1]
        cls = tuple(int(xfull[i]) % full[i] for i in kept)
        # consistency: the class lift must agree with v modulo the lattice
        diff = [Fraction(a) - b for a, b in zip(disc.lift(cls), v)]
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
        if matrix.T @ sup.gram @ matrix != sub.gram:
            raise ValueError("embedding does not transport the Gram matrix")
        self.sub = sub
        self.sup = sup
        self.matrix = matrix

    @property
    def index(self) -> int:
        return abs(det(self.matrix))

    def __repr__(self):
        return f"LatticeEmbedding(index={self.index})"


def direct_sum(*lattices: EvenLattice) -> EvenLattice:
    """Orthogonal direct sum, block-diagonal Gram matrix."""
    if not lattices:
        raise ValueError("need at least one summand")
    n = sum(lat.rank for lat in lattices)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for lat in lattices:
        r = lat.rank
        for i in range(r):
            for j in range(r):
                rows[off + i][off + j] = lat.gram[i, j]
        off += r
    name = " + ".join(lat.name for lat in lattices) if all(
        lat.name for lat in lattices) else ""
    return EvenLattice(Matrix(rows), name=name,
                       _determinant=prod(lat.determinant for lat in lattices))


def _saturate(rows):
    """Integer data of the lattice the given rational rows generate.

    With den the common denominator and U (den rows) V = D the Smith form,
    the row lattice of den rows is that of D V^{-1}, so its first n rows
    B = diag(d) V^{-1} over den are a basis. Returns (den, d, V, B), all
    integral; V^{-1} comes from the Smith form itself, not from an inverse.
    """
    m = len(rows)
    n = len(rows[0])
    den = denominator_lcm(x for row in rows for x in row)
    a = Matrix([[int(Fraction(x) * den) for x in row] for row in rows])
    _, d, v, vinv = smith_normal_form(a, with_v_inverse=True)
    if any(d[i, i] == 0 for i in range(min(m, n))) or m < n:
        raise ValueError("rows do not span full rank")
    divs = [d[i, i] for i in range(n)]
    b = Matrix([[di * x for x in vinv.row(i)] for i, di in enumerate(divs)])
    return den, divs, v, b


def _saturated_row_basis(rows) -> Matrix:
    """Basis (as rows) of the lattice the given rational rows generate.

    Clears denominators, reads off a triangular generating set from the Smith
    decomposition, and rescales back.
    """
    den, _, _, b = _saturate(rows)
    return Matrix([[Fraction(x, den) for x in row] for row in b.rows])


def overlattice_from_glue(lat: EvenLattice, glue: GlueGroup):
    """Even overlattice determined by a totally isotropic glue group.

    Returns (overlattice, embedding of lat into it). The overlattice is the
    preimage of the glue group in the dual; its Gram matrix is rebuilt in a
    new basis, and the embedding has index equal to the glue order.
    """
    disc = lat.discriminant_group()
    if glue.parent._source_gram != lat.gram:
        raise ValueError("glue group does not belong to this lattice")
    n = lat.rank
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for g in glue.generators:
        rows.append(disc.lift(g))
    den, divs, v, b = _saturate(rows)
    # new basis B/den: Gram (B S B^t)/den^2 and embedding (den V diag(d)^-1)^t,
    # the inverse of the basis, transposed; both must divide exactly
    sq = den * den
    num = b @ lat.gram @ b.T
    if any(x % sq for row in num.rows for x in row):
        raise ValueError("glue group is not isotropic for the bilinear form")
    over = EvenLattice(Matrix([[x // sq for x in row] for row in num.rows]))
    h = [[den * x for x in v.col(j)] for j in range(n)]
    if any(x % dj for row, dj in zip(h, divs) for x in row):
        raise ValueError("embedding matrix must be integral")
    emb = LatticeEmbedding(
        lat, over, Matrix([[x // dj for x in row] for row, dj in zip(h, divs)]))
    if emb.index != glue.order:
        raise AssertionError("embedding index does not match glue order")
    if over.determinant * glue.order**2 != lat.determinant:
        raise AssertionError("determinant drop does not match glue order")
    return over, emb
