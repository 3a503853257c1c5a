"""Shared fixtures and samplers for the test suite."""

import sys
from fractions import Fraction

import evenlat
from evenlat import ExtendedForm, Matrix
from evenlat.matrices import _axpy


def random_token(rng, n, spread=2):
    c = rng.randrange(3)
    if c == 0:
        return ("J",)
    lam = tuple(rng.randint(-spread, spread) for _ in range(n + 2))
    return ("T" if c == 1 else "T*", lam)


def random_word(rng, n, length, spread=2):
    return tuple(random_token(rng, n, spread) for _ in range(length))


def random_element(form: ExtendedForm, rng, max_len=5, spread=2):
    return form.element_from_word(
        random_word(rng, form.n, rng.randint(1, max_len), spread)
    )


def corner_scaling(dim: int, d: int) -> Matrix:
    """diag(d^2, d, ..., d, 1): scales the extended form by d^2."""
    rows = [[0] * dim for _ in range(dim)]
    rows[0][0] = d * d
    for i in range(1, dim - 1):
        rows[i][i] = d
    rows[dim - 1][dim - 1] = 1
    return Matrix(rows)


def scale_matrix(m: Matrix, s: int) -> Matrix:
    return Matrix([[s * x for x in row] for row in m.rows])


# A matrix over the 4A1 extended form that scales it by 4 but whose
# first column is not divisible by its pairing content: the reduction
# hypothesis fails for this non-maximal base. Produced by conjugating a
# scaled matrix over the glued (index-2) overlattice back down.
HYPOTHESIS_VIOLATOR_4A1 = [
    [120, 2, 26, -14, 50, 78, 42, 19],
    [-76, 0, -16, 8, -32, -48, -26, -12],
    [6, 0, 3, -1, 3, 3, 2, 1],
    [86, 2, 19, -9, 37, 57, 30, 14],
    [-2, 0, -1, 1, -1, -3, -2, -1],
    [18, 0, 3, -3, 9, 11, 6, 3],
    [-20, 0, -4, 4, -8, -12, -4, -3],
    [52, 2, 12, -4, 24, 36, 20, 9],
]


# A matrix over the 4A1 extended form that scales it by 4, found by the same
# pull-down from the glued overlattice. Its right reduction succeeds, but the
# double reduction stops with corner 2 while the core has odd entries: the
# probes read pairing contents, which bound the entries only under the
# hypothesis.
CORE_VIOLATOR_4A1 = [
    [2, 2, 0, 4, 0, 0, 0, 2],
    [0, 2, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, -1, -1, 0, 1],
    [2, 0, -1, 3, -1, -1, 0, 1],
    [0, 0, -1, 1, 1, -1, 0, 1],
    [0, 0, -1, 1, -1, 1, 0, 1],
    [-2, 0, 2, -2, 2, 2, 2, -2],
    [2, 0, -2, 2, -2, -2, 0, 2],
]


def count_calls(monkeypatch, name, owner=ExtendedForm):
    """List that grows by one per call of owner.<name>.

    The owner is a class (ExtendedForm by default, so every form is counted,
    also those the CLI builds itself) or a module whose global function the
    code under test calls by name.
    """
    calls = []
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def record_calls(monkeypatch, name, owner=evenlat.matrices):
    """List of the argument tuples of every call of <owner>.<name>; a call
    with keyword arguments ends its tuple with their dict.

    owner is an evenlat module, matrices by default, or a class. A module's
    function is re-pointed in every evenlat module that imported it by name,
    so a call from any layer is recorded; a method is re-pointed on its
    class, and its argument tuples start with self.
    """
    calls = []
    inner = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((*args, kwargs) if kwargs else args)
        return inner(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, recording)
        return calls
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "evenlat" and getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, recording)
    return calls


# -- subgroups of a finite quadratic module, on coordinate tuples -----------
# Written apart from the glue search's integer codes, as the oracle it is
# checked against.


def tuple_closure(mod, span, g):
    """span + <g> for a subgroup span of mod, on coordinate tuples."""
    out = set(span)
    step = set(span)
    for _ in range(mod.element_order(g) - 1):
        step = {mod.add(s, g) for s in step}
        out |= step
    return frozenset(out)


# -- generator tokens from their entry formulas, on plain lists --------------
# Written apart from evenlat's closed-form action, as the oracle it is
# checked against.


def list_matmul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def token_rows(form: ExtendedForm, tok):
    """Dense matrix of ("J",), ("T", lam) or ("T*", lam) as lists of ints."""
    d, n = form.dim, form.n
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    if tok[0] == "J":
        for i, j in ((0, d - 1), (1, d - 2), (d - 2, 1), (d - 1, 0)):
            m[i][i] = 0
            m[i][j] = -1
        return m
    kind, lam = tok
    s0 = [list(r) for r in form.s0.rows]
    slam = [sum(x * y for x, y in zip(r, lam)) for r in s0]
    q = sum(x * y for x, y in zip(lam, slam)) // 2
    for j in range(n + 2):
        if kind == "T":
            m[0][1 + j] = -slam[j]
            m[1 + j][d - 1] = lam[j]
        else:
            m[1 + j][0] = lam[j]
            m[d - 1][1 + j] = -slam[j]
    if kind == "T":
        m[0][d - 1] = -q
    else:
        m[d - 1][0] = -q
    return m


def word_rows(form: ExtendedForm, word, start=None):
    """start @ t_1 @ ... @ t_k by dense products (start defaults to I)."""
    d = form.dim
    m = start or [[int(i == j) for j in range(d)] for i in range(d)]
    for tok in word:
        m = list_matmul(m, token_rows(form, tok))
    return m


# -- rational linear algebra, kept as oracles for the integer paths ---------
# The determinant mod p, Gauss-Jordan inverse and symmetric congruence over
# Fraction; the library computes none of them.


def _det_mod(rows, p: int) -> int:
    """Determinant of a square integer matrix modulo a prime p, in [0, p).

    Gaussian elimination over F_p on the shrinking active block: entries stay
    below p, not the growing integers of an exact pass. The oracle of the
    membership gate's determinant sign, which the library reads off a rank.
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


def dense_rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix over F_p, by elimination on dense rows."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for j in range(len(m[0]) if m else 0):
        i = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        inv = pow(m[rank][j], -1, p)
        for r in m[rank + 1:]:
            f = r[j] * inv % p
            r[:] = [(x - f * y) % p for x, y in zip(r, m[rank])]
        rank += 1
    return rank


class SingularMatrixError(ValueError):
    """Raised when an exact inverse of a singular matrix is requested."""


def inverse(a: Matrix) -> Matrix:
    """Exact rational inverse by Gauss-Jordan elimination.

    Raises SingularMatrixError when no inverse exists.
    """
    if not a.is_square:
        raise ValueError("inverse needs a square matrix")
    n = a.nrows
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(a.rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        p = m[k][k]
        m[k] = [x / p for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return Matrix([row[n:] for row in m])


def signature(a: Matrix) -> tuple:
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Symmetric Gaussian congruence with exact rationals; Sylvester's law makes
    the count basis independent.
    """
    if not a.is_symmetric:
        raise ValueError("signature needs a symmetric matrix")
    n = a.nrows
    m = [[Fraction(x) for x in r] for r in a.rows]
    pos = neg = 0
    t = 0
    while t < n:
        piv = next((k for k in range(t, n) if m[k][k] != 0), None)
        if piv is None:
            spot = next(
                (
                    (i, j)
                    for i in range(t, n)
                    for j in range(i + 1, n)
                    if m[i][j] != 0
                ),
                None,
            )
            if spot is None:
                break  # remaining block is zero
            i, j = spot
            # symmetric op: row/col i += row/col j creates 2*m[i][j] on the diagonal
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        if piv != t:
            m[piv], m[t] = m[t], m[piv]
            for row in m:
                row[piv], row[t] = row[t], row[piv]
        p = m[t][t]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            f = m[i][t] / p
            if f:
                for k in range(n):
                    m[i][k] -= f * m[t][k]
                for k in range(n):
                    m[k][i] -= f * m[k][t]
        t += 1
    return (pos, neg, n - pos - neg)


# -- the Smith elimination on dense rows, kept as the oracle of the sparse one --
# The same pivot rule and the same row and column operations, on lists of
# every entry; smith_normal_form must agree with it in U, D, V and sign.


def _eye(n: int) -> list:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def dense_smith_normal_form(a: Matrix, *, _signed: bool = False):
    """Smith normal form with transforms, on dense rows: the oracle of
    evenlat.smith_normal_form, which must return the same U, D, V and sign.

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

    The private ``_signed=True`` appends det U * det V (1 or -1) to the
    result: adding a multiple of one row or column to another keeps both
    determinants, and each swap and each final row negation flips the sign.
    """
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [list(r) for r in a.num]
    U, V = _eye(m), _eye(n)
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
    out = tuple(Matrix._over(tuple(map(tuple, x))) for x in (U, A, V))
    return out + (sign,) if _signed else out


# -- the sparse Smith elimination with row keys moved on every column swap --


def rowkey_eliminate(a: Matrix):
    """``matrices._eliminate`` as it was with each row keyed by its logical
    column: a column swap moves the two entries of every row of the block.
    The oracle of the permuted-key elimination, which must return the same
    (diagonal, columns of V, sign, log)."""
    if not a.is_integral:
        raise ValueError("matrix has non-integer entries")
    m, n = a.nrows, a.ncols
    A = [{j: x for j, x in enumerate(r) if x} for r in a.num]
    V = [{j: 1} for j in range(n)]
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
            bj = min(j for j, x in A[bi].items() if x in (best, -best))
            if bi != t:
                A[t], A[bi] = A[bi], A[t]
                log.append((t, bi))
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
            nza = list(pa.items())
            ra = [pa]  # the rows still nonzero in column t once it is cleared
            for i in range(t + 1, m):
                ri = A[i]
                x = ri.get(t)
                if x:
                    q = -(x // p)
                    _axpy(ri, q, nza)
                    log.append((i, q, t))
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
                        _axpy(r, q, ((j, r[t]),))
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
            log.append((t, 1, wi))
        if t not in A[t]:
            break  # submatrix exhausted, zeros from here on

    # A is diagonal now: every row holds its pivot alone, or nothing
    diag = [A[i].get(i, 0) for i in range(min(m, n))]
    for i, x in enumerate(diag):
        if x < 0:
            diag[i] = -x
            log.append((i,))
            sign = -sign
    return tuple(diag), V, sign, log
