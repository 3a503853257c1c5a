"""Even lattices, their discriminant forms, embeddings, and glue overlattices.

An even lattice is Z^n with a nondegenerate integral symmetric Gram matrix
whose diagonal is even. Everything downstream is exact:

* the constructor runs one Smith elimination of the Gram matrix and keeps
  it: the determinant is the product of its divisors with the tracked sign
  of det U * det V, and the discriminant form on dual/lattice is read off it
  in integers; definiteness is one Bareiss pass, run when first asked for;
* an overlattice is rebuilt from a totally isotropic glue group by saturating
  the integer rows d Z^n + d (lifts of the glue generators), d = exponent;
* embeddings carry the change of basis and verify Gram transport;
* both congruences, the overlattice Gram B S B^t / d^2 and the transport
  M^t S' M = S, are formed through the nonzeros, upper triangle only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from operator import mul

from .matrices import Matrix, _bareiss, smith_normal_form
from .quadmod import FiniteQuadraticModule, GlueGroup


class EvenLattice:
    """Z^n with an exact, nondegenerate, even Gram matrix."""

    def __init__(self, gram: Matrix, name: str = "", *, _known=None):
        # _known: (determinant, summands), as direct_sum has them
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
        self._disc = None
        if _known is None:
            self._smith, self.determinant = self._eliminate()
            self._summands = ()
        else:
            self.determinant, self._summands = _known

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def inner(self, u, v) -> int:
        return sum(a * b for a, b in zip(self.gram @ tuple(v), u))

    def norm(self, u) -> int:
        return self.inner(u, u)

    def _eliminate(self) -> tuple:
        """(Smith record, determinant) from the one Smith elimination of S.

        The record is (U, V, full divisors, kept divisors d_i > 1, numerators
        w_i). From U S V = D: det S = det U * det V * prod d_i, the divisors
        d_i > 1 are the last k of the chain, and the generator of Z/d_i lifts
        to column i of S^{-1} U^{-1} = V D^{-1}, V[:, i]/d_i, kept as w_i/d_i
        with the integer w_i = V[:, i] mod d_i.
        """
        u, d, v, sign = smith_normal_form(self.gram, _signed=True)
        full = tuple(d.num[i][i] for i in range(d.nrows))
        if not all(full):
            raise ValueError("Gram matrix must be nondegenerate")
        k = sum(di > 1 for di in full)
        divs = full[len(full) - k:]
        w = tuple(tuple(x % di for x in v.col(i))
                  for i, di in enumerate(divs, len(full) - k))
        return (u, v, full, divs, w), sign * prod(full)

    @cached_property
    def _smith(self) -> tuple:
        """The Smith record, set by the constructor; a direct sum, which
        took its determinant from its summands, eliminates on first use."""
        record, d = self._eliminate()
        if d != self.determinant:
            raise AssertionError("Smith form inconsistent with determinant")
        return record

    @cached_property
    def is_positive_definite(self) -> bool:
        """Sylvester's test, one Bareiss pass on first use; a direct sum asks
        its summands."""
        if self._summands:
            return all(lat.is_positive_definite for lat in self._summands)
        return _bareiss(self.gram.num)[1]

    @cached_property
    def adjugate(self) -> Matrix:
        """|det S| S^{-1} as an integer matrix: V diag(|det S|/d_i) U."""
        u, v, full, _, _ = self._smith
        dabs = abs(self.determinant)
        scale = [dabs // di for di in full]
        return Matrix._over(tuple(tuple(map(mul, row, scale))
                                  for row in v.num)) @ u

    def discriminant_group(self) -> FiniteQuadraticModule:
        """The finite quadratic module on dual/lattice, built once and cached."""
        if self._disc is None:
            _, _, _, divs, w = self._smith
            # lift_gram[a][b] = (w_a^t S w_b) / (d_a d_b), in integers over
            # d_k^2; the products run over the nonzero entries of each w_i only
            dk = divs[-1] if divs else 1
            nz = [[(j, x) for j, x in enumerate(wi) if x] for wi in w]
            sw = [[sum(x * row[j] for j, x in nzb) for row in self.gram.num]
                  for nzb in nz]
            lg = tuple(tuple(sum(x * swb[j] for j, x in nza) * (dk // da) * (dk // db)
                             for swb, db in zip(sw, divs))
                       for nza, da in zip(nz, divs))
            self._disc = FiniteQuadraticModule(divs, Matrix._over(lg, dk * dk))
        return self._disc

    def _lift_numerators(self, x) -> tuple:
        # with d = d_k, the class x lifts to (sum_i x_i (d/d_i) w_i mod d) / d
        _, _, _, divs, w = self._smith
        d = divs[-1] if divs else 1
        acc = [0] * self.rank
        for c, di, wi in zip(x, divs, w):
            f = c * (d // di)
            acc = [a + f * b for a, b in zip(acc, wi)]
        return d, tuple(a % d for a in acc)

    def lift(self, x) -> tuple:
        """A rational dual vector representing the class x, entries in [0, 1)."""
        divs = self._smith[3]
        if len(x) != len(divs) or not all(
                type(c) is int and 0 <= c < di for c, di in zip(x, divs)):
            raise ValueError(f"{x!r} is not a reduced element of dual/lattice")
        d, num = self._lift_numerators(x)
        return tuple(Fraction(a, d) for a in num)

    def element_from_dual(self, v) -> tuple:
        """Class in the discriminant group of a rational vector in the dual.

        The vector is given in Gram-matrix coordinates (so membership in the
        dual means the Gram matrix times it is integral).
        """
        u, _, _, divs, _ = self._smith
        w = self.gram @ tuple(Fraction(x) for x in v)
        if any(x.denominator != 1 for x in map(Fraction, w)):
            raise ValueError("vector is not in the dual lattice")
        xfull = u @ tuple(int(x) for x in w)
        cls = tuple(x % d for x, d in zip(xfull[len(xfull) - len(divs):], divs))
        # consistency: the class lift must agree with v modulo the lattice
        diff = [a - Fraction(b) for a, b in zip(self.lift(cls), v)]
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
        cols = [[(i, x) for i, x in enumerate(c) if x] for c in zip(*matrix.num)]
        if _congruent(cols, sup.gram.num) != sub.gram.num:
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


def _congruent(b, s, den=1):
    """B S B^t / den as integer rows, or None where den does not divide it.

    B is given by the nonzeros of its rows, (column, value) pairs, and S is
    symmetric, so only the upper triangle is formed: row i of B S combines
    the nonzeros of the rows of S that the nonzeros of row i of B pick, and
    entry (i, l) reads that row at the nonzeros of row l of B.
    """
    s_nz = [[(k, y) for k, y in enumerate(r) if y] for r in s]
    out = [[0] * len(b) for _ in b]
    for i, bi in enumerate(b):
        acc = [0] * len(s)
        for j, x in bi:
            for k, y in s_nz[j]:
                acc[k] += x * y
        for l in range(i, len(b)):
            t = sum(acc[k] * z for k, z in b[l])
            if t % den:
                return None
            out[i][l] = out[l][i] = t // den
    return tuple(map(tuple, out))


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

    Returns (overlattice, embedding of lat into it). The overlattice is the
    preimage of the glue group in the dual; its Gram matrix is rebuilt in a
    new basis, and the embedding has index equal to the glue order. With
    U A V = D the Smith form of the integer rows A = [d I; d lifts], d = d_k,
    the rows B = diag(d_i) V^{-1} are a basis of d times the overlattice.
    """
    disc = lat.discriminant_group()
    mod = glue.parent
    if mod.divisors != disc.divisors or mod.lift_gram != disc.lift_gram:
        raise ValueError("glue group does not belong to this lattice")
    n = lat.rank
    d = disc.divisors[-1] if disc.divisors else 1
    rows = tuple((0,) * i + (d,) + (0,) * (n - 1 - i) for i in range(n))
    rows += tuple(lat._lift_numerators(g)[1] for g in glue.generators)
    _, dm, v, vinv = smith_normal_form(Matrix._over(rows), with_v_inverse=True)
    divs = [dm.num[i][i] for i in range(n)]
    # new basis B/d, B = diag(d_i) V^{-1}: Gram (B S B^t)/d^2 and embedding
    # (d V diag(d_i)^-1)^t, the inverse of the basis, transposed; both must
    # divide exactly
    b = [[(j, di * x) for j, x in enumerate(r) if x] for r, di in zip(vinv.num, divs)]
    gram = _congruent(b, lat.gram.num, d * d)
    if gram is None:
        raise ValueError("glue group is not isotropic for the bilinear form")
    over = EvenLattice(Matrix._over(gram))
    h = [[d * x for x in v.col(j)] for j in range(n)]
    if any(x % dj for row, dj in zip(h, divs) for x in row):
        raise ValueError("embedding matrix must be integral")
    emb = LatticeEmbedding(lat, over, Matrix._over(
        tuple(tuple(x // dj for x in row) for row, dj in zip(h, divs))))
    if over.determinant * glue.order**2 != lat.determinant:
        raise AssertionError("determinant drop does not match glue order")
    return over, emb
