"""Exact linear algebra over the integers and rationals.

Everything here is pure Python on int and fractions.Fraction, so results are
exact by construction. A matrix is an immutable integer matrix ``num`` over
one positive denominator ``den``, reduced so that den and the entries of num
have no common factor; an integral matrix is the case den == 1. Every
operation computes on num, multiplies the denominators and reduces once by a
gcd, so there is one integer path whatever the entries are. Fraction-free
(Bareiss) elimination gives the determinant on dense rows, and definiteness
on sparse rows, fewest nonzeros first (``_positive_definite``). An isometry
num/s of a form nondegenerate mod an odd prime p has determinant (-1)^k mod
p, k = rank_p(num - s I) (Cartan-Dieudonne with Scherk's count; P. Scherk,
Proc. AMS 1 (1950) 481-491), found on sparse rows (``_rank_mod``) in
O(d^2 k). One Smith elimination (``_eliminate``) runs on sparse rows, swaps
columns by a permutation of their keys, and returns the diagonal, the
columns of V, the sign of det U * det V and, in place of U, the log of its
row operations, applied where U is read (``_apply_log``). The Hermite normal
form of a lattice that contains d Z^n is computed modulo d on sparse rows
(``_hnf_mod``), and d times its inverse by back-substitution over those rows
with exact divisions (``_scaled_inverse``). One kernel per kind of operand:
``_congruent`` forms B S B^t on the nonzeros of B and S, for the sparse
lattice-side rows (Hermite, lift, embedding, reflection), by an index of B's
rows by column; group matrices pack each row as one int (``_pack``), so that
a row operation is one big-integer operation, and ``_congruence_mismatch``
compares M^t S M with scale * E a packed row at a time, up to the first row
that differs, packing a row only when that row reads it.
Nothing here inverts over the rationals: callers invert through an integral
adjugate, or the Smith record it comes from, and one exact division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, compress, starmap
from math import gcd, lcm
from operator import mul, neg
from struct import Struct
from struct import error as StructError
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
            num = tuple([tuple([x // g for x in r]) for r in num])
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
        return self.is_square and self.num == tuple(zip(*self.num))

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
    if {int}.issuperset(map(type, xs)):
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


def _bareiss(rows) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, entries of bit size linear in n."""
    # m is the active block: the rows and columns after the pivots so far
    m = [list(r) for r in rows]
    sign = prev = 1
    while len(m) > 1:
        if m[0][0] == 0:
            i = next((i for i, r in enumerate(m) if r[0]), None)
            if i is None:
                return 0
            m[0], m[i] = m[i], m[0]
            sign = -sign
        piv = m[0][0]
        tail = m[0][1:]
        m = [[(x * piv - r[0] * y) // prev for x, y in zip(r[1:], tail)] if r[0]
             else [x * piv // prev for x in r[1:]] for r in m[1:]]
        prev = piv
    return sign * m[0][0] if m else 1


def _positive_definite(rows) -> bool:
    """Sylvester's test for a symmetric integer S, on rows of nonzeros: each
    step pivots on the row of fewest nonzeros and stops at a pivot <= 0, the
    leading minors of P^t S P for the order P of the steps. Each row becomes
    (x piv - r_c y) / prev, exactly, so entries stay minors; for r_c = 0 the
    scalings piv / prev telescope, so such a row is left as at its last update,
    at pivot e, and read as x prev / e. On a forest a step updates one row."""
    left = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(rows)}
    last, prev = dict.fromkeys(left, 1), 1  # the pivot of each row's last update
    while left:
        c = min(left, key=lambda i: len(left[i]))
        rc, e = left.pop(c), last[c]
        rc = {j: x * prev // e for j, x in rc.items()} if e != prev else rc
        piv = rc.pop(c, 0)
        if piv <= 0:
            return False
        nz = list(rc.items())
        for i, y in nz:  # y is entry c of row i, as S is symmetric
            r, e = left[i], last[i]
            del r[c]
            r = {j: x * piv for j, x in r.items()} if e == prev else \
                {j: x * prev // e * piv for j, x in r.items()}
            for j, z in nz:
                r[j] = r.get(j, 0) - y * z
            left[i], last[i] = {j: x // prev for j, x in r.items() if x}, piv
        prev = piv
    return True


def _rank_mod(rows, s: int, p: int) -> int:
    """rank_p(num - s I) for the integer rows of a square num and a prime p:
    rows s e_i are skipped, the others held by their nonzeros mod p, and a
    row of fewest nonzeros pivots until no row is left, O(d^2 k) for rank k."""
    d, left = len(rows), []
    for i, row in enumerate(rows):
        if row[i] != s or row.count(0) != d - 1:
            row = list(row)
            row[i] -= s
            r = {j: x for j, x in enumerate(map(p.__rmod__, row)) if x}
            left += [r] if r else []
    rank = 0
    while left:
        left.sort(key=len, reverse=True)
        piv = left.pop()
        c, x = piv.popitem()
        nz, inv = list(piv.items()), pow(x, -1, p)
        for r in left:
            y = r.pop(c, 0) * inv % p
            if not y:
                continue
            for j, z in nz:
                # y z is a unit mod p, so a zero result had an entry at j
                v = (r.get(j, 0) - y * z) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
        left = [r for r in left if r]
        rank += 1
    return rank


def det(a: Matrix):
    """Exact determinant of a square matrix, by Bareiss elimination on num.

    det(num / den) = det(num) / den^n; the result is an int whenever it is
    integral.
    """
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    return _entry(_bareiss(a.num), a.den ** a.nrows)


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester's test for a symmetric integral matrix (``_positive_definite``)."""
    if not a.is_symmetric:
        raise ValueError("definiteness test needs a symmetric matrix")
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    return _positive_definite(a.num)


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


def _eliminate(a: Matrix):
    """The Smith elimination U a V = D of an integral matrix, U unformed.

    Returns (diagonal, columns of V as {row: value} dicts, sign, log), with
    d_1 | d_2 | ... >= 0 (zeros last) and sign = det U * det V. The log holds
    the row operations that build U from the identity (``_apply_log``), in
    order: (i, t) swaps rows i and t, (i, q, t) adds q row t to row i, and
    (i,) negates row i.

    Each row of A is a dict of its nonzeros, keyed by the column that held
    them at the start; key and pos map a column to its key and back, so a
    column swap exchanges two keys and two columns of V, which is held by
    its columns, and touches no row. Rows from t on hold no entry in a
    column before t, so at step t a row's least |x| in the block is the
    least of its values. Step t moves a pivot to (t, t): the entry of least
    |x| in the block, the first in row-major order; the scan stops at the
    first row holding a unit. The pivot clears its column and then its row
    by integer division; a nonzero remainder is a smaller pivot and the step
    repeats. Once both are clear, a pivot p that does not divide the whole
    block gets the first row holding such an entry added to row t, and the
    step repeats; after a unit pivot no such row is sought. Adding a
    multiple of one row or column to another keeps both determinants; each
    swap and each final row negation flips the sign.
    """
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [{j: x for j, x in enumerate(r) if x} for r in a.num]
    V = [{j: 1} for j in range(n)]
    key, pos = list(range(n)), list(range(n))  # logical column <-> row key
    sign = 1
    log = []

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
            bj = min(pos[k] for k, x in A[bi].items() if x in (best, -best))
            if bi != t:
                A[t], A[bi] = A[bi], A[t]
                log.append((t, bi))
                sign = -sign
            if bj != t:
                # the rows keep their keys: only the map and V's columns move
                key[t], key[bj] = key[bj], key[t]
                pos[key[t]], pos[key[bj]] = t, bj
                V[t], V[bj] = V[bj], V[t]
                sign = -sign
            kt, pa = key[t], A[t]
            p = pa[kt]
            # |p| is least in the block, so every quotient below is nonzero
            nza = list(pa.items())
            ra = [pa]  # the rows still nonzero in column t once it is cleared
            for i in range(t + 1, m):
                ri = A[i]
                x = ri.get(kt)
                if x:
                    q = -(x // p)
                    _axpy(ri, q, nza)
                    log.append((i, q, t))
                    if kt in ri:
                        ra.append(ri)  # remainder becomes a smaller pivot
            dirty = len(ra) > 1
            vt = list(V[t].items())
            for j, x in nza:
                if j != kt:
                    # column t stays fixed while column j changes, so only
                    # the rows in ra take part
                    q = -(x // p)
                    for r in ra:
                        _axpy(r, q, ((j, r[kt]),))
                    _axpy(V[pos[j]], q, vt)
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
            log.append((t, 1, wi))
        if key[t] not in A[t]:
            break  # submatrix exhausted, zeros from here on

    # A is diagonal now: every row holds its pivot alone, or nothing
    diag = [A[i].get(key[i], 0) for i in range(min(m, n))]
    for i, x in enumerate(diag):
        if x < 0:
            diag[i] = -x
            log.append((i,))
            sign = -sign
    return tuple(diag), V, sign, log


def _apply_log(log, y: list) -> list:
    """U y, in place, for the U of an ``_eliminate`` log and a list y of
    ints or of packed rows (``_pack``): the row operations in order."""
    for i, *op in log:
        if len(op) == 2:  # (i, q, t): y_i += q y_t
            y[i] += op[0] * y[op[1]]
        elif op:  # (i, t): swap
            y[i], y[op[0]] = y[op[0]], y[i]
        else:  # (i,): negate
            y[i] = -y[i]
    return y


def smith_normal_form(a: Matrix):
    """(U, D, V) with U @ a @ V == D, U and V unimodular, and D diagonal with
    entries d_1 | d_2 | ... >= 0 (zeros last), for any rectangular integral
    matrix: ``_eliminate``'s diagonal and V, and U from one pass of its log
    over the packed rows of I (``_pack``), each row unpacked once. The slots
    hold a bound on each row of U tracked along the log: 1 for a row of I,
    b_i + |q| b_t once row i gains q row t, and swapped with the rows."""
    diag, V, _, log = _eliminate(a)
    m, n = a.nrows, a.ncols
    d = [{i: x} for i, x in enumerate(diag)] + [{}] * (m - len(diag))
    b = [1] * m
    for i, *op in log:
        if len(op) == 2:
            b[i] += abs(op[0]) * b[op[1]]
        elif op:
            b[i], b[op[0]] = b[op[0]], b[i]
    width, top = _slots(m, max(b, default=1))
    u = _apply_log(log, [1 << 8 * width * i for i in range(m)])
    return (Matrix._over(tuple(tuple(_unpack(r, m, width, top)) for r in u)),
            Matrix._over(_dense(d, n)), Matrix._over(tuple(zip(*_dense(V, n)))))


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

    Row i solves x H = d e_i by back-substitution over the rows of H: the
    residual r starts as d e_i, and while it is nonzero its least column j
    gives x_j = r_j / h_j, and r loses x_j times the rest of row j.
    """
    out = []
    for i in range(len(h)):
        r, x = {i: d}, {}
        while r:
            j = min(r)
            q, rem = divmod(r.pop(j), h[j][0][1])
            if rem:
                return None
            x[j] = q
            _axpy(r, -q, h[j][1:])
        out.append(x)
    return out


def _nonzeros(rows) -> list:
    """The nonzeros of each row, as (column, value) pairs."""
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def _product_rows(b, s):
    """The rows of B S, each a list, for B and S given by the nonzeros of
    their rows (``_nonzeros``): row i combines the rows of S that the
    nonzeros of row i of B pick. A row is formed only when it is read."""
    for bi in b:
        acc = [0] * len(s)
        for j, x in bi:
            for k, y in s[j]:
                acc[k] += x * y
        yield acc


def _congruent(b, s, den: int = 1):
    """B S B^t / den as integer rows, or None where den does not divide it.

    B and the symmetric S are given by the nonzeros of their rows. The rows
    of B are indexed by column, and each nonzero a at column k of row i of
    B S (``_product_rows``) adds a z to (i, l) for each l >= i whose row of
    B holds z at k: only the upper triangle, and no pair of disjoint rows.
    Its B are the sparse Hermite, lift, embedding (M^t) and reflection rows,
    for which packing (``_congruence_mismatch``) is slower.
    """
    n = len(b)
    bycol = [[] for _ in s]  # (l, z) for each z of column k, latest row first
    for l in reversed(range(n)):
        for k, z in b[l]:
            bycol[k].append((l, z))
    out, cols = [[0] * n for _ in b], range(len(s))
    for i, acc in enumerate(_product_rows(b, s)):
        row = out[i]
        for k in compress(cols, acc):
            a = acc[k]
            for l, z in bycol[k]:
                row[l] += a * z
        for k, _ in b[i]:
            bycol[k].pop()  # row i, the earliest left: later rows read l > i
        for l in range(i, n):
            t = row[l]
            if t:
                if t % den:
                    return None
                row[l] = out[l][i] = t // den
    return tuple(map(tuple, out))


def _entry_bound(rows) -> int:
    """A bound on |x| over nonempty integer rows of one length: 2^15 when a
    16-bit struct pack of each row succeeds, else the largest |x|."""
    try:
        b"".join(starmap(_struct(len(rows[0]), "h").pack, rows))
    except StructError:
        return max(max(map(max, rows)), -min(map(min, rows)))
    return 1 << 15


def _slots(n: int, bound: int) -> tuple:
    """(width, top) to pack n ints of |x| <= bound: 8 bytes a slot below
    2^62, for ``struct``'s "q", else the fewest that hold them; and the top
    bit of every slot, as one int."""
    width = 8 if bound >> 62 == 0 else bound.bit_length() // 8 + 1
    return width, int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


@cache
def _struct(n: int, code: str) -> Struct:
    """The Struct of n little-endian slots of format code, compiled once."""
    return Struct(f"<{n}{code}")


def _pack(row, width: int, top: int) -> int:
    """sum x_l 2^(8 width l) for the ints x_l of row, |x_l| < 2^(8 width - 1)
    (Kronecker substitution): by shifts in wide slots; in 8-byte ones as
    ``struct`` writes them, little-endian two's complement, each negative
    slot borrowing its top bit back from the next."""
    if width != 8:
        out = 0
        for x in reversed(row):
            out = (out << 8 * width) + x
        return out
    u = int.from_bytes(_struct(len(row), "q").pack(*row), "little")
    return u - ((u & top) << 1)


def _unpack(x: int, n: int, width: int, top: int):
    """The n slots of a packed int: adding top clears every sign with no
    carry, and flipping the top bits back leaves two's complement."""
    raw = ((x + top) ^ top).to_bytes(n * width, "little")
    if width == 8:
        return _struct(n, "q").unpack(raw)
    return [int.from_bytes(raw[k:k + width], "little", signed=True)
            for k in range(0, len(raw), width)]


def _packed_rows(s, e) -> tuple:
    """(max row sum |S|, max |E|, the rows of E packed in 8-byte slots, or
    None where they do not fit): what ``_congruence_mismatch`` reads of S,
    given by the nonzeros of its rows, and of E, for a caller to keep."""
    srow = max([sum([abs(y) for _, y in r]) for r in s], default=0)
    emax, top = max(map(abs, chain.from_iterable(e)), default=0), _slots(len(e), 0)[1]
    return srow, emax, None if emax >> 62 else [_pack(r, 8, top) for r in e]


def _congruence_mismatch(m, s, e, scale: int, packed):
    """(i, l, value) of the first entry of M^t S M, row-major in the upper
    triangle, that differs from scale * E; None when they agree. M is a group
    matrix by its integer rows, S the form's S1 by the nonzeros of its rows,
    E by its rows, and both by the form's kept ``_packed_rows(s, e)``.

    With P_k row k of M packed, Q_j = sum_k S_jk P_k is row j of S M, and
    row i of M^t S M is sum_j M_ji Q_j over the nonzeros of column i of M,
    compared with scale * E_i as one int. A Q_j is formed, and the P_k it
    reads are packed, when the first row that reads it comes, so a matrix
    that differs early packs few rows. Only the first row that differs is
    unpacked, and no later row is formed: both sides are symmetric, so
    that row first differs in the upper triangle. The slots hold
    rows * b^2 * max row sum |S| for b >= max|M| (``_entry_bound``), which
    bounds M^t S M, and what is packed.
    """
    if not m or not m[0]:
        return None
    srow, emax, packed_e = packed
    n, mmax = len(m[0]), _entry_bound(m)
    width, top = _slots(n, len(m) * mmax * mmax * srow + abs(scale) * emax + mmax + emax)
    if width != 8 or packed_e is None:
        packed_e = [_pack(r, width, top) for r in e]
    cols, p, q = range(len(s)), [None] * len(m), [None] * len(s)
    left = len(s)  # the Q_j not yet formed
    for i, col in enumerate(zip(*m)):
        for j in compress(cols, col) if left else ():
            if q[j] is None:
                for k, _ in s[j]:
                    if p[k] is None:
                        p[k] = _pack(m[k], width, top)
                q[j] = sum([y * p[k] for k, y in s[j]])
                left -= 1
        diff = sum(map(mul, compress(col, col), compress(q, col))) - scale * packed_e[i]
        if diff:
            diff = _unpack(diff, n, width, top)
            l = next(l for l, x in enumerate(diff) if x)
            return i, l, scale * e[i][l] + diff[l]
    return None
