"""Exact integer and rational arithmetic owned by the benchmark.

Input generation and every output check use only this module and the
standard library, never ``evenlat``: the oracles must not share code with
the layers they judge. Matrices are lists of rows of ``int`` or
``Fraction``; sparse matrices are lists of ``(i, j, value)`` triples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# -- dense matrices -----------------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(c) for c in zip(*a)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, c)) for c in cols] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def to_sparse(a):
    return [(i, j, x) for i, row in enumerate(a) for j, x in enumerate(row) if x]


def matmul_sparse(a, s, ncols):
    """Dense ``a`` times a sparse matrix given by its nonzero triples."""
    out = [[0] * ncols for _ in a]
    for row, orow in zip(a, out):
        for k, j, x in s:
            if row[k]:
                orow[j] += row[k] * x
    return out


def congruent(m, s):
    """m^t s m."""
    return matmul(transpose(m), matmul(s, m))


def det(a):
    """Bareiss determinant; rational input is scaled to integers first."""
    n = len(a)
    den = 1
    for row in a:
        for x in row:
            if isinstance(x, Fraction):
                den = den * x.denominator // gcd(den, x.denominator)
    m = [[int(x * den) for x in row] for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    out = Fraction(sign * m[n - 1][n - 1], den**n) if n else Fraction(1)
    return int(out) if out.denominator == 1 else out


def inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        p = m[k][k]
        m[k] = [x / p for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [[int(x) if x.denominator == 1 else x for x in row[n:]] for row in m]


def is_positive_definite(g):
    """Sylvester: every leading principal minor is positive."""
    return all(det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def content(a):
    out = 0
    for row in a:
        for x in row:
            out = gcd(out, x)
    return out


def vec_gcd(v):
    out = 0
    for x in v:
        out = gcd(out, x)
    return out


# -- root-lattice Gram matrices ------------------------------------------------


def a_gram(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def d_gram(n):
    """D_n in the basis e1+e2, e1-e2, e2-e3, ..., e_{n-1}-e_n."""
    basis = [[1, 1] + [0] * (n - 2), [1, -1] + [0] * (n - 2)]
    for i in range(2, n):
        row = [0] * n
        row[i - 1], row[i] = 1, -1
        basis.append(row)
    return matmul(basis, transpose(basis))


def e_gram(n):
    """E6, E7, E8 Cartan matrices: chain 1-3-4-...-n with 2 hanging off 4."""
    edges = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, n)]
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return g


def d_plus_gram(n):
    """D_n^+ (8 | n) in the basis e1+e2, e1-e2, ..., e_{n-2}-e_{n-1}, s.

    s is the half-sum of the unit vectors; replacing e_{n-1}-e_n by it
    spans D_n + Z s. Entries are exact because the Gram of half-integral
    vectors with 8 | n is integral.
    """
    basis = [[Fraction(x) for x in row] for row in
             [[1, 1] + [0] * (n - 2), [1, -1] + [0] * (n - 2)]]
    for i in range(2, n - 1):
        row = [Fraction(0)] * n
        row[i - 1], row[i] = Fraction(1), Fraction(-1)
        basis.append(row)
    basis.append([Fraction(1, 2)] * n)
    return [[int(x) for x in row] for row in matmul(basis, transpose(basis))]


def block_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


def split_name(name):
    """'3D4' -> (3, 'D4'); no prefix means one copy."""
    k = len(name) - len(name.lstrip("0123456789"))
    return (int(name[:k]) if k else 1), name[k:]


def named_gram(name):
    """Gram matrix for names like A7, D16+, 3D4, 2E8."""
    mult, single = split_name(name)
    family, n = single[0], int(single[1:].rstrip("+"))
    if family == "A":
        one = a_gram(n)
    elif family == "D":
        one = d_plus_gram(n) if single.endswith("+") else d_gram(n)
    else:
        one = e_gram(n)
    return block_sum(*[one] * mult)


# -- the (2, n+2) extended form and its generators ------------------------------


def corner_form(mid):
    """[[0,0,1],[0,mid,0],[1,0,0]] with a one-by-one hyperbolic corner pair."""
    n = len(mid)
    out = [[0] * (n + 2) for _ in range(n + 2)]
    out[0][n + 1] = out[n + 1][0] = 1
    for i in range(n):
        out[1 + i][1:1 + n] = list(mid[i])
    return out


class Form:
    """Own model of the extended form S1 = corner(corner(-G)) of a base Gram G.

    ``kernel`` is the integer matrix det(G) * S1^{-1}: an integral matrix M
    acts trivially on the discriminant group iff (M - I) kernel is 0 mod det(G).
    """

    def __init__(self, gram):
        self.gram = gram
        self.n = len(gram)
        self.dim = self.n + 4
        self.s0 = corner_form([[-x for x in row] for row in gram])
        self.s1 = corner_form(self.s0)
        self.det = det(gram)
        self._kernel = None

    @property
    def kernel(self):
        if self._kernel is None:
            inv = inverse(self.s1)
            self._kernel = [[int(x * self.det) for x in row] for row in inv]
        return self._kernel

    def token(self, tok):
        """Sparse I + N for the generator token, from the entry formulas of
        the involution J, the transvection T(lam) and its mirror T*(lam)."""
        d, n = self.dim, self.n
        if tok[0] == "J":
            m = identity(d)
            for i, j in ((0, d - 1), (1, d - 2), (d - 2, 1), (d - 1, 0)):
                m[i][i] = 0
                m[i][j] = -1
            return to_sparse(m)
        kind, lam = tok
        slam = matvec(self.s0, lam)
        q = sum(x * y for x, y in zip(lam, slam)) // 2
        m = identity(d)
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
        return to_sparse(m)

    def word_matrix(self, word):
        m = identity(self.dim)
        for tok in word:
            m = matmul_sparse(m, self.token(tok), self.dim)
        return m

    def level(self, m):
        """(level, gate) of the membership chain, decided by own arithmetic.

        Levels follow the documented chain 0..5; gate names the first check
        that fails ("" for kernel members).
        """
        if congruent(m, self.s1) != self.s1:
            return 0, "form-congruence"
        if det(m) != 1:
            return 1, "determinant"
        if self.orientation(m) <= 0:
            return 2, "orientation"
        if any(isinstance(x, Fraction) for row in m for x in row):
            return 3, "integrality"
        diff = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        if any(x % self.det for row in matmul(diff, self.kernel) for x in row):
            return 4, "kernel-congruence"
        return 5, ""

    def orientation(self, m):
        """Sign-carrying determinant of the compression of m to the positive
        2-plane spanned by p1 = e0 + e_{d-1} and p2 = e1 + e_{d-2}."""
        d = self.dim
        mp1 = [row[0] + row[d - 1] for row in m]
        mp2 = [row[1] + row[d - 2] for row in m]
        # <x, p1> = x_0 + x_{d-1} and <x, p2> = x_1 + x_{d-2} under S1
        a, b = mp1[0] + mp1[d - 1], mp1[1] + mp1[d - 2]
        c, e = mp2[0] + mp2[d - 1], mp2[1] + mp2[d - 2]
        return a * e - b * c


# -- discriminant forms by residue enumeration ---------------------------------


def hermite_diagonal(g):
    """Diagonal of a lower-triangular basis H of the column lattice g Z^n.

    {y : 0 <= y_i < H_ii} is then a complete residue system of Z^n / g Z^n,
    and reducing column by column keeps it one.
    """
    n = len(g)
    cols = [list(c) for c in zip(*g)]
    basis = []
    for i in range(n):
        # gcd-combine the remaining columns on row i into one pivot column
        piv = None
        rest = []
        for c in cols:
            if piv is None:
                piv = c
                continue
            while c[i]:
                q = piv[i] // c[i]
                piv, c = c, [x - q * y for x, y in zip(piv, c)]
            rest.append(c)
        if piv[i] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        cols = rest
    return basis


def q_values(g):
    """q(x) = y^t g^{-1} y / 2 mod 1 for the classes x = g^{-1} y of
    g^{-1}Z^n / Z^n, in enumeration order; the zero class comes first."""
    h = hermite_diagonal(g)
    n = len(g)
    dt = det(g)
    adj = [[int(x * dt) for x in row] for row in inverse(g)]
    den = 2 * abs(dt)
    sgn = 1 if dt > 0 else -1
    out = []
    y = [0] * n

    def rec(i):
        if i == n:
            num = sgn * sum(y[a] * adj[a][b] * y[b] for a in range(n) for b in range(n))
            out.append(Fraction(num % den, den))
            return
        for k in range(h[i][i]):
            y[i] = k
            rec(i + 1)
        y[i] = 0

    rec(0)
    return out


def factor(m):
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def squarefree(m):
    return all(e == 1 for e in factor(m).values())


def cyclic_anisotropic(m):
    """Gram [[2m]]: D = Z/2m, q(x) = x^2 / 4m. A nonzero isotropic x exists
    iff the least x > 0 with 4m | x^2, the product of p^ceil(e/2), is < 2m."""
    r = 1
    for p, e in factor(4 * m).items():
        r *= p ** ((e + 1) // 2)
    return r >= 2 * m


def ade_maximal(family, n):
    """Closed form: A_n iff n+1 (n even) or (n+1)/2 (n odd) is squarefree;
    D_n iff 8 does not divide n; E always."""
    if family == "A":
        return squarefree(n + 1) if n % 2 == 0 else squarefree((n + 1) // 2)
    if family == "D":
        return n % 8 != 0
    return True


def sum_anisotropic(summand_q, copies):
    """Anisotropy of the orthogonal sum of copies of one discriminant form,
    given the summand's q-values with the zero class first: no nonzero tuple
    may have q-values adding up to 0 mod 1."""
    kinds = {(q, k > 0) for k, q in enumerate(summand_q)}
    states = {(Fraction(0), False)}
    for _ in range(copies):
        states = {((s + q) % 1, nz or nzq) for s, nz in states for q, nzq in kinds}
    return (Fraction(0), True) not in states
