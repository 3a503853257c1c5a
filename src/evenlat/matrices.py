"""Exact dense linear algebra over the integers and rationals.

Everything here is pure Python on int and fractions.Fraction, so results are
exact by construction. Matrices are immutable; all mutating algorithms work on
private list-of-list copies. Integer input stays on integer paths: products,
sums, negation, transposes and integer scalings of integral matrices are
computed on plain ints and skip the per-entry normalisation. The determinant
and the definiteness test share one fraction-free Bareiss pass, which keeps
intermediate entries polynomial in size, and the Smith normal form can return
the inverse of its column transform as an integer matrix. Nothing here inverts
over the rationals: callers invert through an integral adjugate and one exact
division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, neg
from typing import Iterable, Sequence, Union

Entry = Union[int, Fraction]


def _norm(x) -> Entry:
    # canonical entry: plain int whenever the value is integral; bool is an
    # int subclass, but a truth value is no matrix entry
    if isinstance(x, bool):
        raise TypeError("matrix entries must be int or Fraction, got bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable rectangular matrix with int or Fraction entries.

    Integral values are stored as int; ``is_integral`` is set at construction.
    """

    __slots__ = ("rows", "nrows", "ncols", "is_integral")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        rws = tuple(tuple(_norm(x) for x in row) for row in rows)
        if rws and any(len(r) != len(rws[0]) for r in rws):
            raise ValueError("ragged rows")
        _fill(self, rws, all(isinstance(x, int) for r in rws for x in r))

    @classmethod
    def _from_ints(cls, rows: tuple) -> "Matrix":
        # rows are equal-length tuples of ints, as the integer paths make them
        out = object.__new__(cls)
        _fill(out, rows, True)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_ints(tuple(tuple(int(i == j) for j in range(n))
                                    for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def diagonal(cls, entries: Sequence[Entry]) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix([[self.rows[i][j] for j in cols] for i in rows])

    @property
    def T(self) -> "Matrix":
        if self.is_integral:
            return Matrix._from_ints(tuple(zip(*self.rows)))
        return Matrix(zip(*self.rows))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self) -> "Matrix":
        if self.is_integral:
            return Matrix._from_ints(tuple(tuple(map(neg, r)) for r in self.rows))
        return Matrix([[-x for x in r] for r in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        pairs = zip(self.rows, other.rows)
        if self.is_integral and other.is_integral:
            return Matrix._from_ints(tuple(tuple(map(add, r, s)) for r, s in pairs))
        return Matrix([[x + y for x, y in zip(r, s)] for r, s in pairs])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, scalar: Entry) -> "Matrix":
        if self.is_integral and type(scalar) is int:
            return Matrix._from_ints(tuple(tuple(x * scalar for x in r)
                                           for r in self.rows))
        return Matrix([[x * scalar for x in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = tuple(zip(*other.rows))
            if self.is_integral and other.is_integral:
                return Matrix._from_ints(tuple(
                    tuple(sum(map(mul, r, c)) for c in cols) for r in self.rows
                ))
            return Matrix(
                [[_dot(r, c) for c in cols] for r in self.rows]
            )
        # matrix @ vector
        v = tuple(other)
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        # plain ints only: bool and Fraction entries take the normalising path
        if self.is_integral and all(type(x) is int for x in v):
            return tuple(sum(map(mul, r, v)) for r in self.rows)
        return tuple(_norm(_dot(r, v)) for r in self.rows)

    def __rmatmul__(self, other):
        # vector @ matrix
        v = tuple(other)
        if self.nrows != len(v):
            raise ValueError("shape mismatch")
        return tuple(_norm(_dot(v, c)) for c in zip(*self.rows))

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square or k < 0:
            raise ValueError("power needs a square matrix and k >= 0")
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def __repr__(self):
        return "Matrix(%s)" % (list(map(list, self.rows)),)


def _fill(m: Matrix, rows: tuple, integral: bool) -> None:
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", len(rows[0]) if rows else 0)
    object.__setattr__(m, "is_integral", integral)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_gcd(v: Iterable[int]) -> int:
    """gcd of the absolute values; 0 for an all-zero (or empty) vector."""
    g = 0
    for x in v:
        if not isinstance(x, int):
            raise ValueError("gcd needs integer entries")
        g = gcd(g, abs(x))
    return g


def denominator_lcm(entries: Iterable[Entry]) -> int:
    out = 1
    for x in entries:
        if isinstance(x, Fraction):
            d = x.denominator
            out = out * d // gcd(out, d)
    return out


def _bareiss(rows) -> tuple:
    """(determinant, positive definite) of a square integer matrix, in one pass.

    Fraction-free elimination: every division is exact and entries stay
    integers of bit size linear in n. Until the first row swap the pivot at
    step k is the leading principal minor of order k+1, so a non-positive
    pivot or a swap (a zero minor) means "not positive definite"; that answer
    is Sylvester's test when the matrix is symmetric.
    """
    n = len(rows)
    if n == 0:
        return 1, True
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    pd = True
    for k in range(n - 1):
        if m[k][k] <= 0:
            pd = False
            if m[k][k] == 0:
                i = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if i is None:
                    return 0, False
                m[k], m[i] = m[i], m[k]
                sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    d = sign * m[n - 1][n - 1]
    return d, pd and d > 0


def det(a: Matrix):
    """Exact determinant of a square matrix, by Bareiss elimination.

    Rational input is scaled to integers first; the result is an int
    whenever it is integral.
    """
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    if a.is_integral:
        return _bareiss(a.rows)[0]
    den = denominator_lcm(x for row in a.rows for x in row)
    out = Fraction(_bareiss([[int(x * den) for x in row] for row in a.rows])[0],
                   den**a.nrows)
    return int(out) if out.denominator == 1 else out


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester test for a symmetric integral matrix: all leading minors > 0."""
    if not a.is_symmetric:
        raise ValueError("definiteness test needs a symmetric matrix")
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    return _bareiss(a.rows)[1]


def smith_normal_form(a: Matrix, *, with_v_inverse: bool = False):
    """Smith normal form with transforms.

    Returns (U, D, V) with U @ a @ V == D, U and V unimodular, and D diagonal
    with non-negative entries d_1 | d_2 | ... (zeros last). Works for any
    rectangular integral matrix.

    With ``with_v_inverse=True`` it returns (U, D, V, W) with W @ V == I.
    W is tracked alongside V, not inverted afterwards: V starts as I and only
    changes by column operations, V <- V E, so W <- E^{-1} W is the matching
    row operation on W (col i += q col j on V is row j -= q row i on W, and a
    column swap on V is the same row swap on W).
    """
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [list(r) for r in a.rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    W = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(i, j, q):  # row i += q * row j
        A[i] = [x + q * y for x, y in zip(A[i], A[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, q):  # col i += q * col j
        for r in A:
            r[i] += q * r[j]
        for r in V:
            r[i] += q * r[j]
        W[j] = [y - q * x for x, y in zip(W[i], W[j])]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        W[i], W[j] = W[j], W[i]

    for t in range(min(m, n)):
        while True:
            # smallest nonzero entry of the working submatrix as pivot
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = A[i][j]
                    if x != 0 and (best is None or abs(x) < abs(best[2])):
                        best = (i, j, x)
            if best is None:
                break
            bi, bj, _ = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // p))
                    if A[i][t] != 0:
                        dirty = True  # remainder becomes a smaller pivot
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // p))
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain d_i | d_{i+1}
            witness = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if A[i][j] % p != 0
                ),
                None,
            )
            if witness is None:
                break
            add_row(t, witness[0], 1)
        if t < m and t < n and A[t][t] == 0:
            break  # submatrix exhausted, zeros from here on

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    if with_v_inverse:
        return Matrix(U), Matrix(A), Matrix(V), Matrix(W)
    return Matrix(U), Matrix(A), Matrix(V)
