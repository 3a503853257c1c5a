"""Exact dense linear algebra over the integers and rationals.

Everything here is pure Python on int and fractions.Fraction, so results are
exact by construction. A matrix is an immutable integer matrix ``num`` over
one positive denominator ``den``, reduced so that den and the entries of num
have no common factor; an integral matrix is the case den == 1. Every
operation computes on num, multiplies the denominators and reduces once by a
gcd, so there is one integer path whatever the entries are. The determinant
and the definiteness test share one fraction-free Bareiss pass, which keeps
intermediate entries polynomial in size; a determinant already known up to
sign is read modulo a small prime instead (``_det_mod``). The Smith normal
form picks the least pivot in row-major order, stops its scan at the first
unit, seeks no divisibility witness after a unit pivot, and can return the
inverse of its column transform as an integer matrix and the sign of
det U * det V, from which a lattice reads its determinant. Nothing here
inverts over the rationals: callers invert through an integral adjugate and
one exact division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul, neg
from typing import Iterable, Sequence, Union

Entry = Union[int, Fraction]


class Matrix:
    """Immutable rectangular matrix with exact rational entries.

    Held as the integer matrix ``num`` (a tuple of row tuples) over the
    positive int ``den``, with gcd(den, entries of num) == 1. ``rows`` gives
    the entries themselves: int where integral, Fraction otherwise.
    """

    __slots__ = ("num", "den", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        rws = tuple(map(tuple, rows))
        if rws and any(len(r) != len(rws[0]) for r in rws):
            raise ValueError("ragged rows")
        # bool is an int subclass, but a truth value is no matrix entry
        if any(type(x) is bool for r in rws for x in r):
            raise TypeError("matrix entries must be int or Fraction, got bool")
        split = [_split(r) for r in rws]
        den = lcm(*(d for _, d in split))
        _fill(self, tuple(r if d == den else tuple(x * (den // d) for x in r)
                          for r, d in split), den)

    @classmethod
    def _over(cls, num: tuple, den: int = 1) -> "Matrix":
        """num / den from equal-length tuples of ints and a positive den."""
        g = gcd(den, *chain.from_iterable(num)) if den != 1 else 1
        if g != 1:
            num = tuple(tuple(x // g for x in r) for r in num)
            den //= g
        out = object.__new__(cls)
        _fill(out, num, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._over(tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls._over(tuple((0,) * n for _ in range(m)))

    @classmethod
    def diagonal(cls, entries: Sequence[Entry]) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    @property
    def rows(self) -> tuple:
        return tuple(_values(r, self.den) for r in self.num)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return _entry(self.num[i][j], self.den)

    def row(self, i: int) -> tuple:
        return _values(self.num[i], self.den)

    def col(self, j: int) -> tuple:
        return _values((r[j] for r in self.num), self.den)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix._over(tuple(tuple(self.num[i][j] for j in cols) for i in rows),
                            self.den)

    @property
    def T(self) -> "Matrix":
        return Matrix._over(tuple(zip(*self.num)), self.den)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        num = self.num
        return self.is_square and all(
            num[i][j] == num[j][i] for i in range(self.nrows) for j in range(i))

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self) -> "Matrix":
        return Matrix._over(tuple(tuple(map(neg, r)) for r in self.num), self.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        a, b = self.den, other.den
        return Matrix._over(tuple(tuple(x * b + y * a for x, y in zip(r, s))
                                  for r, s in zip(self.num, other.num)), a * b)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, scalar: Entry) -> "Matrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p = scalar.numerator
        return Matrix._over(tuple(tuple(x * p for x in r) for r in self.num),
                            self.den * scalar.denominator)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = tuple(zip(*other.num))
            return Matrix._over(tuple(tuple(sum(map(mul, r, c)) for c in cols)
                                      for r in self.num), self.den * other.den)
        # matrix @ vector
        v, den = _split(tuple(other))
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return _values((sum(map(mul, r, v)) for r in self.num), self.den * den)

    def __rmatmul__(self, other):
        # vector @ matrix
        v, den = _split(tuple(other))
        if self.nrows != len(v):
            raise ValueError("shape mismatch")
        return _values((sum(map(mul, v, c)) for c in zip(*self.num)), self.den * den)

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


def _fill(m: Matrix, num: tuple, den: int) -> None:
    object.__setattr__(m, "num", num)
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "nrows", len(num))
    object.__setattr__(m, "ncols", len(num[0]) if num else 0)


def _split(xs: tuple) -> tuple:
    """(integer numerators, their one positive denominator) of int/Fraction values."""
    if all(type(x) is int for x in xs):
        return xs, 1
    for x in xs:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"matrix entries must be int or Fraction, got {type(x).__name__}")
    den = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


def _entry(x: int, den: int) -> Entry:
    # the value x / den: an int when integral, a Fraction otherwise
    return x // den if x % den == 0 else Fraction(x, den)


def _values(xs: Iterable[int], den: int) -> tuple:
    if den == 1:
        return tuple(xs)
    return tuple(_entry(x, den) for x in xs)


def vec_gcd(v: Iterable[int]) -> int:
    """gcd of the absolute values; 0 for an all-zero (or empty) vector."""
    g = 0
    for x in v:
        if not isinstance(x, int):
            raise ValueError("gcd needs integer entries")
        g = gcd(g, abs(x))
    return g


def _int_vec(v) -> tuple:
    """v as ints; a bool, float or non-integral entry raises ValueError."""
    out = []
    for x in v:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"vector entries must be integers, got {x!r}")
        out.append(int(x))
    return tuple(out)


def _bareiss(rows) -> tuple:
    """(determinant, positive definite) of a square integer matrix, in one pass.

    Fraction-free elimination: every division is exact and entries stay
    integers of bit size linear in n. Until the first row swap the pivot at
    step k is the leading principal minor of order k+1, so a non-positive
    pivot or a swap (a zero minor) means "not positive definite"; that answer
    is Sylvester's test when the matrix is symmetric.
    """
    if not rows:
        return 1, True
    # m is the active block: the rows and columns after the pivots so far
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    pd = True
    while len(m) > 1:
        if m[0][0] <= 0:
            pd = False
            if m[0][0] == 0:
                i = next((i for i, r in enumerate(m) if r[0]), None)
                if i is None:
                    return 0, False
                m[0], m[i] = m[i], m[0]
                sign = -sign
        piv = m[0][0]
        tail = m[0][1:]
        m = [[(x * piv - r[0] * y) // prev for x, y in zip(r[1:], tail)] if r[0]
             else [x * piv // prev for x in r[1:]] for r in m[1:]]
        prev = piv
    d = sign * m[0][0]
    return d, pd and d > 0


def _det_mod(rows, p: int) -> int:
    """Determinant of a square integer matrix modulo a prime p, in [0, p).

    Gaussian elimination over F_p on the shrinking active block: entries stay
    below p, not the growing integers of an exact pass.
    """
    m = [[x % p for x in r] for r in rows]
    out = 1
    while m:
        i = next((i for i, r in enumerate(m) if r[0]), None)
        if i is None:
            return 0
        if i:
            m[0], m[i] = m[i], m[0]
            out = -out
        piv = m[0]
        out = out * piv[0] % p
        inv = pow(piv[0], -1, p)
        tail = piv[1:]
        rest = []
        for r in m[1:]:
            f = r[0] * inv % p
            rest.append([(x - f * y) % p for x, y in zip(r[1:], tail)] if f else r[1:])
        m = rest
    return out % p


def _odd_prime_not_dividing(n: int) -> int:
    """The least odd prime not dividing n."""
    p = 3
    while n % p == 0 or any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
        p += 2
    return p


def det(a: Matrix):
    """Exact determinant of a square matrix, by Bareiss elimination on num.

    det(num / den) = det(num) / den^n; the result is an int whenever it is
    integral.
    """
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    return _entry(_bareiss(a.num)[0], a.den ** a.nrows)


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester test for a symmetric integral matrix: all leading minors > 0."""
    if not a.is_symmetric:
        raise ValueError("definiteness test needs a symmetric matrix")
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    return _bareiss(a.num)[1]


def _eye(n: int) -> list:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def smith_normal_form(a: Matrix, *, with_v_inverse: bool = False, _signed: bool = False):
    """Smith normal form with transforms.

    Returns (U, D, V) with U @ a @ V == D, U and V unimodular, and D diagonal
    with non-negative entries d_1 | d_2 | ... (zeros last). Works for any
    rectangular integral matrix.

    Step t moves a pivot to (t, t): the entry of least |x| in the block of
    rows and columns >= t, the first in row-major order. Each row gives its
    least nonzero |x| in one pass, and the scan stops at the first row that
    holds a unit, since no entry beats it. The pivot clears its column and
    then its row by integer division; a nonzero remainder is a smaller pivot
    and the step repeats. Once both are clear, a pivot p that does not divide
    the whole remaining block gets the first row holding such an entry added
    to row t, and the step repeats; a unit divides everything, so after a
    unit pivot no such row is sought.

    With ``with_v_inverse=True`` it returns (U, D, V, W) with W @ V == I.
    W is tracked alongside V, not inverted afterwards: V starts as I and only
    changes by column operations, V <- V E, so W <- E^{-1} W is the matching
    row operation on W (col i += q col j on V is row j -= q row i on W, and a
    column swap on V is the same row swap on W).

    The private ``_signed=True`` appends det U * det V (1 or -1) to the
    result: adding a multiple of one row or column to another keeps both
    determinants, and each swap and each final row negation flips the sign.
    """
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [list(r) for r in a.num]
    U, V = _eye(m), _eye(n)
    W = _eye(n) if with_v_inverse else None
    sign = 1

    for t in range(min(m, n)):
        while True:
            best, bi = 0, t
            for i in range(t, m):
                x = min(filter(None, map(abs, A[i][t:])), default=0)
                if x and (not best or x < best):
                    best, bi = x, i
                    if x == 1:
                        break
            if not best:
                break
            row = A[bi]
            bj = next(j for j in range(t, n) if row[j] in (best, -best))
            if bi != t:
                A[t], A[bi] = A[bi], A[t]
                U[t], U[bi] = U[bi], U[t]
                sign = -sign
            if bj != t:
                # the rows above t are zero off the diagonal
                for r in A[t:]:
                    r[t], r[bj] = r[bj], r[t]
                for r in V:
                    r[t], r[bj] = r[bj], r[t]
                if W is not None:
                    W[t], W[bj] = W[bj], W[t]
                sign = -sign
            pa, pu = A[t], U[t]
            p = pa[t]
            # row t's nonzeros: a row operation touches only these entries
            nza = [(j, x) for j, x in enumerate(pa) if x]
            nzu = [(j, x) for j, x in enumerate(pu) if x]
            dirty = False
            for i in range(t + 1, m):
                ri = A[i]
                if ri[t]:
                    q = -(ri[t] // p)
                    for j, x in nza:
                        ri[j] += q * x
                    ui = U[i]
                    for j, x in nzu:
                        ui[j] += q * x
                    if ri[t]:
                        dirty = True  # remainder becomes a smaller pivot
            cols = [j for j, _ in nza if j > t]
            if cols:
                # column t stays fixed while later columns change, so only
                # the rows where it is nonzero take part
                ra = [r for r in A[t:] if r[t]]
                rv = [r for r in V if r[t]]
                for j in cols:
                    q = -(pa[j] // p)
                    for r in ra:
                        r[j] += q * r[t]
                    for r in rv:
                        r[j] += q * r[t]
                    if W is not None:
                        W[t] = [y - q * x for x, y in zip(W[j], W[t])]
                    if pa[j]:
                        dirty = True
            if dirty:
                continue
            if best == 1:
                break
            # pivot must divide the whole remaining block for the chain d_i | d_{i+1}
            wi = next((i for i in range(t + 1, m) if any(map(p.__rmod__, A[i][t + 1:]))),
                      None)
            if wi is None:
                break
            A[t] = [x + y for x, y in zip(pa, A[wi])]
            U[t] = [x + y for x, y in zip(pu, U[wi])]
        if A[t][t] == 0:
            break  # submatrix exhausted, zeros from here on

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
            sign = -sign
    out = tuple(Matrix._over(tuple(map(tuple, x)))
                for x in ((U, A, V, W) if with_v_inverse else (U, A, V)))
    return out + (sign,) if _signed else out
