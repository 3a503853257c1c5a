"""Shared fixtures and samplers for the test suite."""

import sys
from fractions import Fraction

import evenlat
from evenlat import ExtendedForm, Matrix


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
    """List of the argument tuples of every call of <owner>.<name>.

    owner is an evenlat module, matrices by default. The function is
    re-pointed in every evenlat module that imported it by name, so a call
    from any layer is recorded.
    """
    calls = []
    inner = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

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
# Gauss-Jordan inverse and symmetric congruence over Fraction; the library
# computes neither.


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
