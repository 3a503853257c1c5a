"""Exact linear algebra over the integers and rationals.

Everything here is pure Python on int and fractions.Fraction, so results are
exact by construction. A matrix is an immutable integer matrix ``num`` over
one positive denominator ``den``, reduced so that den and the entries of num
have no common factor; an integral matrix is the case den == 1. Every
operation computes on num, multiplies the denominators and reduces once by a
gcd, so there is one integer path whatever the entries are. The determinant
and the definiteness test share one fraction-free Bareiss pass on dense
rows, which keeps intermediate entries polynomial in size; a determinant
already known up to sign is read modulo a small prime instead
(``_det_mod``). The Smith normal form eliminates on sparse rows, the
nonzeros of each row held in a dict: it picks the least pivot in row-major
order, stops its scan at the first unit, seeks no divisibility witness after
a unit pivot, and can return the sign of det U * det V, from which a lattice
reads its determinant. The Hermite normal form of a lattice that contains
d Z^n is computed modulo d on sparse rows (``_hnf_mod``), and d times its
inverse by a triangular solve with exact divisions (``_scaled_inverse``).
Every congruence B S B^t of the library is one sparse kernel,
``_congruent``.
Nothing here inverts over the rationals: callers invert through an integral
adjugate and one exact division.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
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
        # bool is an int subclass, but a truth value is no entry
        if type(x) is bool or not isinstance(x, (int, Fraction)):
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
    try:
        return gcd(*v)
    except TypeError:
        raise ValueError("gcd needs integer entries") from None


def _int_vec(v, what: str = "vector entries") -> tuple:
    """v as ints; a bool, float or non-integral entry raises ValueError,
    whose message names what v is."""
    out = []
    for x in v:
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{what} must be integral, got {x!r}")
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


def _axpy(r: dict, q: int, nz) -> None:
    """r += q * (the (column, value) pairs nz), on a row of nonzeros; q != 0."""
    for j, x in nz:
        y = r.get(j, 0) + q * x
        if y:
            r[j] = y
        else:
            del r[j]


def _dense(rows, n: int) -> tuple:
    """Rows of nonzeros as a tuple of n-tuples."""
    out = []
    for r in rows:
        row = [0] * n
        for j, x in r.items():
            row[j] = x
        out.append(tuple(row))
    return tuple(out)


def smith_normal_form(a: Matrix, *, _signed: bool = False):
    """Smith normal form with transforms.

    Returns (U, D, V) with U @ a @ V == D, U and V unimodular, and D diagonal
    with non-negative entries d_1 | d_2 | ... (zeros last). Works for any
    rectangular integral matrix.

    The elimination holds the nonzeros only: each row of A and of U is a
    {column: value} dict, and V is held by its columns, each a {row: value}
    dict. Step t keeps the invariant that rows >= t hold no entry in a
    column < t, so the block of rows and columns >= t is the rows A[t:] and
    a row's least |x| in the block is the least of its values.

    Step t moves a pivot to (t, t): the entry of least |x| in the block, the
    first in row-major order. The scan stops at the first row that holds a
    unit, since no entry beats it. The pivot clears its column and then its
    row by integer division; a nonzero remainder is a smaller pivot and the
    step repeats. Once both are clear, a pivot p that does not divide the
    whole remaining block gets the first row holding such an entry added to
    row t, and the step repeats; a unit divides everything, so after a unit
    pivot no such row is sought. The pivot search, the row and column
    operations, the column swaps and this witness scan read only nonzeros.

    The private ``_signed=True`` appends det U * det V (1 or -1) to the
    result: adding a multiple of one row or column to another keeps both
    determinants, and each swap and each final row negation flips the sign.
    """
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [{j: x for j, x in enumerate(r) if x} for r in a.num]
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]
    sign = 1

    for t in range(min(m, n)):
        while True:
            best, bi = 0, t
            for i in range(t, m):
                x = min(map(abs, A[i].values()), default=0)
                if x and (not best or x < best):
                    best, bi = x, i
                    if x == 1:
                        break
            if not best:
                break
            bj = min(j for j, x in A[bi].items() if x in (best, -best))
            if bi != t:
                A[t], A[bi] = A[bi], A[t]
                U[t], U[bi] = U[bi], U[t]
                sign = -sign
            if bj != t:
                # the rows above t are zero in both columns
                for r in A[t:]:
                    x, y = r.pop(t, 0), r.pop(bj, 0)
                    if y:
                        r[t] = y
                    if x:
                        r[bj] = x
                V[t], V[bj] = V[bj], V[t]
                sign = -sign
            pa = A[t]
            p = pa[t]
            # |p| is least in the block, so every quotient below is nonzero
            nza, nzu = list(pa.items()), list(U[t].items())
            ra = [pa]  # the rows still nonzero in column t once it is cleared
            for i in range(t + 1, m):
                ri = A[i]
                x = ri.get(t)
                if x:
                    q = -(x // p)
                    _axpy(ri, q, nza)
                    _axpy(U[i], q, nzu)
                    if t in ri:
                        ra.append(ri)  # remainder becomes a smaller pivot
            dirty = len(ra) > 1
            vt = list(V[t].items())
            for j, x in nza:
                if j != t:
                    # column t stays fixed while column j changes, so only
                    # the rows in ra take part
                    q = -(x // p)
                    for r in ra:
                        y = r.get(j, 0) + q * r[t]
                        if y:
                            r[j] = y
                        else:
                            del r[j]
                    _axpy(V[j], q, vt)
                    if j in pa:
                        dirty = True
            if dirty:
                continue
            if best == 1:
                break
            # pivot must divide the whole remaining block for the chain d_i | d_{i+1}
            wi = next((i for i in range(t + 1, m) if any(map(p.__rmod__, A[i].values()))),
                      None)
            if wi is None:
                break
            _axpy(pa, 1, A[wi].items())
            _axpy(U[t], 1, U[wi].items())
        if t not in A[t]:
            break  # submatrix exhausted, zeros from here on

    for i in range(min(m, n)):
        if A[i].get(i, 0) < 0:
            A[i] = {j: -x for j, x in A[i].items()}
            U[i] = {j: -x for j, x in U[i].items()}
            sign = -sign
    out = (Matrix._over(_dense(U, m)), Matrix._over(_dense(A, n)),
           Matrix._over(tuple(zip(*_dense(V, n)))))
    return out + (sign,) if _signed else out


def _egcd(a: int, b: int) -> tuple:
    """(g, x, y) with a x + b y = g = gcd(a, b), for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _comb(a: int, r: dict, b: int, v: dict, d: int) -> dict:
    """(a r + b v) mod d on rows of nonzeros, the zeros dropped."""
    out = {}
    for j in r.keys() | v.keys():
        x = (a * r.get(j, 0) + b * v.get(j, 0)) % d
        if x:
            out[j] = x
    return out


def _hnf_mod(rows, d: int, n: int) -> list:
    """The Hermite normal form of the lattice that the integer rows span
    together with d Z^n, as the nonzeros of its n rows, in column order.

    Row j starts at its pivot h_j > 0 in column j, h_j divides d, and every
    entry above a pivot h_j lies in [0, h_j): the rows depend on the lattice
    alone, not on the order or choice of the given rows. Since d e_j lies in
    the lattice, the work is modulo d (Cohen 1993, Alg. 2.4.8). A row never
    touched is d e_j and is not built; the others hold their nonzeros in a
    dict. Each given row is inserted by extended-gcd row steps, column by
    column. Then each row j with h_j < d folds back d e_j: (d/h_j) row j
    minus d e_j is inserted into the later columns, so d Z^n lies in the
    span. Last, each entry above a pivot is reduced by that pivot's row.
    """
    piv, off = {}, {}  # the pivot, and the entries right of it, of each touched row

    def insert(v):
        while v:
            j = min(v)
            x = v.pop(j)
            p, r = piv.get(j, d), off.get(j, {})
            if x % p == 0:
                v = _comb(1, v, -(x // p), r, d)
            else:
                # [[a, b], [-x/g, p/g]] is unimodular and clears column j
                g, a, b = _egcd(p, x)
                piv[j], off[j] = g, _comb(a, r, b, v, d)
                v = _comb(p // g, v, -(x // g), r, d)

    for row in rows:
        insert({j: x % d for j, x in enumerate(row) if x % d})
    for j in range(n):
        if j in piv:
            insert(_comb(d // piv[j], off[j], 0, {}, d))
    out = []
    for k in reversed(range(n)):
        if k not in piv:
            out.append([(k, d)])
            continue
        r = off[k]
        for j in range(k + 1, n):
            h = piv.get(j, d)
            q = r.get(j, 0) // h
            if q:
                _axpy(r, -q, [(j, h), *off.get(j, {}).items()])
        out.append([(k, piv[k])] + sorted(r.items()))
    return out[::-1]


def _scaled_inverse(h, d: int):
    """The rows of d H^-1 for the upper triangular rows h of ``_hnf_mod``,
    as {column: value} dicts of their nonzeros, or None where d H^-1 is not
    integral.

    Row i solves x H = d e_i column by column: x_i = d/h_i, and for j > i,
    x_j = -(sum over k < j of x_k H[k][j]) / h_j, read off the nonzeros of
    column j above its pivot. Only the columns that a nonzero x_k reaches
    through row k are visited.
    """
    cols = [[] for _ in h]
    for k, row in enumerate(h):
        for j, y in row[1:]:
            cols[j].append((k, y))
    out = []
    for i, row in enumerate(h):
        q, rem = divmod(d, row[0][1])
        if rem:
            return None
        x = {i: q}
        todo = [j for j, _ in row[1:]]  # ascending, so already a heap
        seen = set(todo)
        while todo:
            j = heappop(todo)
            s = sum(x[k] * y for k, y in cols[j] if k in x)
            if s:
                q, rem = divmod(-s, h[j][0][1])
                if rem:
                    return None
                x[j] = q
                for l, _ in h[j][1:]:
                    if l not in seen:
                        seen.add(l)
                        heappush(todo, l)
        out.append(x)
    return out


def _nonzeros(rows) -> list:
    """The nonzeros of each row, as (column, value) pairs."""
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def _congruent(b, s, den: int = 1):
    """B S B^t / den as integer rows, or None where den does not divide it.

    B and the symmetric S are given by the nonzeros of their rows
    (``_nonzeros``), so only the upper triangle is formed: row i of B S
    combines the rows of S that the nonzeros of row i of B pick, and entry
    (i, l) reads that row at the nonzeros of row l of B.
    """
    out = [[0] * len(b) for _ in b]
    for i, bi in enumerate(b):
        acc = [0] * len(s)
        for j, x in bi:
            for k, y in s[j]:
                acc[k] += x * y
        for l in range(i, len(b)):
            t = sum(acc[k] * z for k, z in b[l])
            if t % den:
                return None
            out[i][l] = out[l][i] = t // den
    return tuple(map(tuple, out))
