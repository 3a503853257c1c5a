"""The integral orthogonal group of the hyperbolic extension of an even base.

Starting from an even positive-definite base lattice with Gram matrix S of
rank n, two hyperbolic planes are adjoined to produce a form of signature
(2, n+2). Coordinates are ordered so that index 0 pairs with index n+3,
index 1 pairs with index n+2, and indices 2..n+1 carry the base lattice with
its sign flipped.

The module provides:

* ``ExtendedForm``: the (n+4)-dimensional form, its Gram matrix and the
  integral adjugate of that matrix;
* ``Membership``/``classify``: where a given rational matrix sits in the
  chain orthogonal < special < special-plus < integral special-plus <
  discriminant kernel (each level includes all later ones);
* the standard generators: the corner-swapping involution and the two
  families of unipotent transvections indexed by base-extension vectors;
* ``complete_isotropic``: writes down, as an explicit word in those
  generators, a group element whose first column is a prescribed primitive
  isotropic vector.

Everything is exact integer/rational arithmetic. A matrix from outside is
classified once, when it becomes a ``GroupElement``; generators, products,
inverses and powers of members are members by construction.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from operator import add, mul

from .lattices import EvenLattice
from .matrices import (
    Matrix, _det_mod, _entry, _int_vec, _odd_prime_not_dividing, det, vec_gcd,
)

_COMPLETION_CAP = 10000


class Membership(IntEnum):
    """Increasing chain of membership levels for a rational matrix."""

    NOT_ORTHOGONAL = 0
    ORTHOGONAL = 1  # preserves the form
    SPECIAL = 2  # ... and has determinant +1
    SPECIAL_PLUS = 3  # ... and preserves the oriented positive 2-plane
    INTEGRAL_SPECIAL_PLUS = 4  # ... and is integral (the arithmetic group)
    DISCRIMINANT_KERNEL = 5  # ... and acts trivially on dual/lattice


class GroupElement:
    """An element of the integral special-plus group of an extended form.

    Optionally carries a word in the standard generators: a tuple of tokens
    ("J",), ("T", lam), ("T*", lam) whose left-to-right product equals the
    matrix. The matrix is classified on construction, unless ``_trusted``
    marks one the library built from members (generators, products, inverses).
    """

    def __init__(self, form: "ExtendedForm", matrix: Matrix, word=None, *,
                 _trusted: bool = False):
        if not _trusted:
            if not isinstance(matrix, Matrix):
                matrix = Matrix(matrix)
            if not matrix.is_integral:
                raise ValueError("group elements must be integral")
            if form.classify(matrix) < Membership.INTEGRAL_SPECIAL_PLUS:
                raise ValueError("matrix is not in the integral special-plus group")
        self.form = form
        self.matrix = matrix
        self.word = tuple(word) if word is not None else None

    def classify(self) -> Membership:
        return self.form.classify(self.matrix)

    def in_discriminant_kernel(self) -> bool:
        return self.classify() >= Membership.DISCRIMINANT_KERNEL

    def inverse(self) -> "GroupElement":
        word = None
        if self.word is not None:
            word = tuple(_token_inverse(t) for t in reversed(self.word))
        return GroupElement(
            self.form, self.form.orthogonal_inverse(self.matrix), word,
            _trusted=True,
        )

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            if self.form.s1 != other.form.s1:
                raise ValueError("elements live over different forms")
            word = None
            if self.word is not None and other.word is not None:
                word = self.word + other.word
            return GroupElement(self.form, self.matrix @ other.matrix, word,
                                _trusted=True)
        return self.matrix @ other

    def _times_word(self, word) -> "GroupElement":
        """self @ element_from_word(word), with the tokens applied in closed form."""
        word = tuple(word)
        full = self.word + word if self.word is not None else None
        return GroupElement(self.form, self.form._times_tokens(self.matrix, word),
                            full, _trusted=True)

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.form.identity()
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.form.s1 == other.form.s1
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        w = f", word of length {len(self.word)}" if self.word is not None else ""
        return f"GroupElement(dim={self.matrix.nrows}{w})"


def _token_inverse(tok):
    if tok[0] == "J":
        return tok
    kind, lam = tok
    return (kind, tuple(-x for x in lam))


def _parts_inverse(parts):
    # T(-lam) inverts T(lam), and S0(-lam) = -S0 lam while q(-lam) = q(lam)
    kind, lam, slam, q = parts
    if kind == "J":
        return parts
    return (kind, tuple(-x for x in lam), [-x for x in slam], q)


def _act(parts, v: list, row: bool) -> None:
    """Apply a token in place: v <- v @ token if row, else token @ v.

    J (symmetric) swaps and negates outer entries. T and T* add a pairing
    with the base block to one outer entry and a multiple of the other outer
    entry to the base block; which is which depends on the kind and side.
    """
    kind, lam, slam, q = parts
    last = len(v) - 1
    if kind == "J":
        v[0], v[1], v[last - 1], v[last] = -v[last], -v[last - 1], -v[1], -v[0]
        return
    # row @ T and T* @ col read entry 0 and write the last; the others mirror it
    src, dst = (0, last) if (kind == "T") == row else (last, 0)
    pair, shift, sign = (lam, slam, 1) if row else (slam, lam, -1)
    c = v[src]
    v[dst] += sign * sum(map(mul, v[1:last], pair)) - q * c
    if c:
        sc = sign * c
        v[1:last] = [x - sc * y for x, y in zip(v[1:last], shift)]


def _first_non_integral(a: Matrix) -> tuple:
    return next((i, j) for i, row in enumerate(a.num) for j, x in enumerate(row)
                if x % a.den)


class ExtendedForm:
    """Signature (2, n+2) hyperbolic extension of an even base lattice."""

    def __init__(self, base: EvenLattice):
        if not isinstance(base, EvenLattice):
            raise TypeError("base must be an EvenLattice")
        # the orientation gate reads the positive 2-plane off the hyperbolic
        # corners, which holds only when S1 has signature (2, n+2)
        if not base.is_positive_definite:
            raise ValueError("the base lattice must be positive definite")
        self.base = base
        n = base.rank
        self.n = n
        self.dim = n + 4
        self.s0 = self._nest(-base.gram, 1)
        self.s1 = self._nest(self.s0, 1)
        # |det S1| = |det S| = |D|; the corner blocks invert to themselves, so
        # s1_adj = s1_det * S1^{-1} nests the base adjugate -|D| S^{-1} in
        # corners |D|, and the kernel gate and inverse stay integral
        self.s1_det = d = abs(base.determinant)
        self.s1_adj = self._nest(self._nest(-base.adjugate, d), d)
        # the nonzeros of each row of S1, as (columns, values): one corner
        # entry, or the nonzeros of a row of the base Gram
        self._s1_nz = tuple((tuple(j for j, x in enumerate(r) if x),
                             tuple(x for x in r if x)) for r in self.s1.num)
        # L* = Z^d + sum_i Z g_i with g_i = (0, 0, w_i/d_i, 0, 0), from the
        # base's Smith record: each generator as (d_i, columns, values of w_i)
        _, _, _, divs, w = base._smith
        self._kernel_gens = tuple(
            (di, tuple(2 + j for j, x in enumerate(wi) if x), tuple(x for x in wi if x))
            for di, wi in zip(divs, w))

    @staticmethod
    def _nest(inner: Matrix, corner: int) -> Matrix:
        """inner between the corner pair: corner at (0, last) and (last, 0)."""
        size = inner.nrows + 2
        rows = [[0] * size for _ in range(size)]
        rows[0][size - 1] = rows[size - 1][0] = corner
        for i, row in enumerate(inner.num):
            rows[1 + i][1:size - 1] = row
        return Matrix._over(tuple(map(tuple, rows)))

    # -- basic form arithmetic -------------------------------------------------

    def quad(self, h) -> int:
        """Value of the extended quadratic form, h^t S1 h."""
        w = self.s1 @ tuple(h)
        return sum(a * b for a, b in zip(h, w))

    def mid_quad_half(self, lam):
        """Half the middle-form value of a base-extension vector (an integer)."""
        w = self.s0 @ tuple(lam)
        t = sum(a * b for a, b in zip(lam, w))
        if t % 2:
            raise AssertionError("middle form is even; half-value must be integral")
        return t // 2

    # -- generators ---------------------------------------------------------------
    # Tokens ("J",), ("T", lam), ("T*", lam), lam integral of length n+2, with
    # q = lam^t S0 lam / 2 and b = (0, lam, 0):
    #   J        -1 at (0, last), (1, last-1), (last-1, 1), (last, 0), I on the base;
    #   T(lam)   I + e0 (0, -S0 lam, -q)^t + b e_last^t;
    #   T*(lam)  I + b e0^t + e_last (-q, -S0 lam, 0)^t  (Eichler transvections).
    # _act applies one to a vector in O(d); no dense token matrix is built.

    def _token(self, tok) -> tuple:
        """tok with its vector as ints; a malformed token raises ValueError."""
        if tok[0] == "J":
            return tok
        kind, lam = tok
        if kind not in ("T", "T*"):
            raise ValueError(f"unknown token {tok!r}")
        lam = _int_vec(lam)
        if len(lam) != self.n + 2:
            raise ValueError("transvection vector must be integral of length n+2")
        return (kind, lam)

    def _token_parts(self, tok) -> tuple:
        """(kind, lam, S0 lam, q) of a token that _token has checked."""
        if tok[0] == "J":
            return ("J", None, None, 0)
        kind, lam = tok
        slam = [sum(map(mul, r, lam)) for r in self.s0.num]
        return (kind, lam, slam, sum(map(mul, lam, slam)) // 2)

    def _apply_token(self, tok, v) -> list:
        """tok @ v for an integral column vector, in O(d)."""
        out = list(v)
        _act(self._token_parts(self._token(tok)), out, row=False)
        return out

    def _times_tokens(self, m: Matrix, word) -> Matrix:
        """m @ t_1 @ ... @ t_k for an integral m and checked tokens, in O(k d^2)."""
        return self._times_parts(m, map(self._token_parts, word))

    @staticmethod
    def _times_parts(m: Matrix, parts) -> Matrix:
        """m @ t_1 @ ... @ t_k for an integral m, each token given by its parts."""
        rows = [list(r) for r in m.num]
        for p in parts:
            for r in rows:
                _act(p, r, row=True)
        return Matrix._over(tuple(map(tuple, rows)))

    def _s1_times(self, num) -> list:
        """S1 @ num for integer rows num: each row of the product combines
        the few rows of num that the nonzeros of that row of S1 pick."""
        out = []
        for js, xs in self._s1_nz:
            acc = list(map(xs[0].__mul__, num[js[0]]))
            for j, x in zip(js[1:], xs[1:]):
                acc = list(map(add, acc, map(x.__mul__, num[j])))
            out.append(acc)
        return out

    def _congruence_mismatch(self, num, scale: int):
        """(i, j, value) of the first entry, row-major in the upper triangle,
        where num^t (S1 num) differs from scale * S1; None when they agree.
        Both sides are symmetric, so the triangle decides."""
        x_cols = tuple(zip(*self._s1_times(num)))
        for i, (col, s1_row) in enumerate(zip(zip(*num), self.s1.num)):
            got = [sum(map(mul, col, c)) for c in x_cols[i:]]
            want = [scale * x for x in s1_row[i:]]
            if got != want:
                j = next(j for j, (a, b) in enumerate(zip(got, want), i) if a != b)
                return i, j, got[j - i]
        return None

    def identity(self) -> GroupElement:
        return GroupElement(self, Matrix.identity(self.dim), (), _trusted=True)

    def involution(self) -> GroupElement:
        """Swaps the two hyperbolic pairs (with signs); squares to the identity."""
        return self.element_from_word((("J",),))

    def transvection(self, lam) -> GroupElement:
        """Unipotent element translating the second isotropic line by lam."""
        return self.element_from_word((("T", lam),))

    def dual_transvection(self, lam) -> GroupElement:
        """Mirror unipotent element translating the first isotropic line by lam."""
        return self.element_from_word((("T*", lam),))

    def element_from_word(self, word) -> GroupElement:
        """Left-to-right product of generator tokens, each validated."""
        return self.identity()._times_word(tuple(map(self._token, word)))

    def embed_rotation(self, q) -> GroupElement:
        """Extend a special isometry of the base lattice by identity corners."""
        if not isinstance(q, Matrix):
            q = Matrix(q)
        s = self.base.gram
        if q.shape != (self.n, self.n) or not q.is_integral:
            raise ValueError("rotation must be an integral base-sized matrix")
        if q.T @ s @ q != s:
            raise ValueError("rotation must preserve the base form")
        if det(q) != 1:
            raise ValueError("rotation must have determinant one")
        # a special base isometry between identity corners is a member by
        # construction: it preserves S1, has det 1 and fixes the 2-plane
        rows = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        for i, row in enumerate(q.num):
            rows[2 + i][2:2 + self.n] = row
        return GroupElement(self, Matrix._over(tuple(map(tuple, rows))),
                            _trusted=True)

    # -- membership ----------------------------------------------------------------

    def classify(self, m) -> Membership:
        """Highest level of the membership chain a rational matrix satisfies."""
        return self.classify_witness(m)[0]

    def classify_witness(self, m) -> tuple:
        """Membership level plus the datum that blocks the next level.

        The witness dict names the first failing check: the entry where the
        form congruence fails, a determinant different from one, a
        non-positive orientation value, a non-integral entry, or the entry
        of (M - I)·S1^{-1} showing nontrivial discriminant action. Kernel
        members get an empty witness.

        Each gate is exact and uses the form's structure. The congruence
        forms S1·M from the nonzeros of S1 and compares only the upper
        triangle of Mᵀ(S1·M), which is symmetric, so its first mismatch in
        row-major order lies there. Once it holds, det M = ±1, and the sign
        is read from det(num) modulo the least odd prime p not dividing den.
        The kernel gate asks, for integral M, whether M - I maps each
        generator g_i of L*/Z^d into Z^d: k mat-vecs modulo d_i; on failure
        only the first failing row of (M - I)·S1^{-1} is formed.
        """
        if not isinstance(m, Matrix):
            m = Matrix(m)
        d = self.dim
        if m.shape != (d, d):
            raise ValueError("matrix has the wrong size for this form")
        num, den = m.num, m.den
        scale = den * den
        miss = self._congruence_mismatch(num, scale)
        if miss is not None:
            i, j, got = miss
            return Membership.NOT_ORTHOGONAL, {
                "check": "form-congruence",
                "entry": (i, j),
                "got": _entry(got, scale),
                "expected": self.s1.num[i][j],
            }
        # det M = ±1 now, and 1 != -1 modulo an odd prime
        p = _odd_prime_not_dividing(den)
        if _det_mod(num, p) * pow(den, -d, p) % p != 1:
            return Membership.ORTHOGONAL, {"check": "determinant", "value": -1}
        orient = self._orientation_value(m)
        if orient <= 0:
            return Membership.SPECIAL, {"check": "orientation", "value": orient}
        if not m.is_integral:
            i, j = _first_non_integral(m)
            return Membership.SPECIAL_PLUS, {
                "check": "integrality",
                "entry": (i, j),
                "value": m[i, j],
            }
        # row r of (M - I)·S1^{-1} is integral iff row r of M - I pairs
        # integrally with every g_i, that is v · w_i = 0 mod d_i
        for r, row in enumerate(num):
            v = list(row)
            v[r] -= 1
            if any(sum(map(mul, map(v.__getitem__, js), xs)) % di
                   for di, js, xs in self._kernel_gens):
                break
        else:
            return Membership.DISCRIMINANT_KERNEL, {}
        delta = [sum(map(mul, v, c)) for c in zip(*self.s1_adj.num)]
        j = next(j for j, x in enumerate(delta) if x % self.s1_det)
        return Membership.INTEGRAL_SPECIAL_PLUS, {
            "check": "kernel-congruence",
            "entry": (r, j),
            "value": Fraction(delta[j], self.s1_det),
        }

    def _orientation_value(self, m):
        # orientation of the positive 2-plane, read off the corner blocks
        d = self.dim
        r0, r1 = d - 2, d - 1
        # (C P + D) with P the off-diagonal 2x2 corner pairing
        a = m[r0, 1] + m[r0, r0]
        b = m[r0, 0] + m[r0, r1]
        c = m[r1, 1] + m[r1, r0]
        e = m[r1, 0] + m[r1, r1]
        return a * e - b * c

    def orthogonal_inverse(self, m) -> Matrix:
        """Inverse of an orthogonal matrix via the form: S1^{-1} m^t S1.

        m^t S1 is (S1 m)^t, formed from the nonzeros of S1. s1_adj is applied
        by its nest blocks: each corner row is s1_det times one row of m^t S1,
        and only the base block -adj(S) is dense. The result over s1_det is
        reduced once by a gcd, so integral input stays in integers throughout.
        """
        if not isinstance(m, Matrix):
            m = Matrix(m)
        d, n, sd = self.dim, self.n, self.s1_det
        if m.shape != (d, d):
            raise ValueError("matrix has the wrong size for this form")
        z = tuple(zip(*self._s1_times(m.num)))  # rows of m^t S1
        base_cols = tuple(zip(*z[2:n + 2]))
        rows = [[sd * x for x in z[d - 1]], [sd * x for x in z[d - 2]]]
        rows += [[-sum(map(mul, a, c)) for c in base_cols] for a in self.base.adjugate.num]
        rows += [[sd * x for x in z[1]], [sd * x for x in z[0]]]
        return Matrix._over(tuple(map(tuple, rows)), m.den * sd)

    # -- isotropic vectors -----------------------------------------------------------

    def is_isotropic(self, h) -> bool:
        return self.quad(h) == 0

    def is_primitive_isotropic(self, h) -> bool:
        """Isotropic, and the linear form pairing against h is onto the integers.

        The second condition is the gcd of the form-gram times h being 1; it is
        exactly what makes h completable to a first column of a group element.
        """
        h = _int_vec(h)
        if len(h) != self.dim:
            raise ValueError("need an integral vector of full dimension")
        if all(x == 0 for x in h):
            return False
        if self.quad(h) != 0:
            return False
        return vec_gcd(self.s1 @ h) == 1

    def complete_isotropic(self, h) -> GroupElement:
        """Group element with prescribed primitive isotropic first column.

        Returns an element carrying an explicit generator word. Raises
        ValueError if the vector is not primitive isotropic.
        """
        h = _int_vec(h)
        if not self.is_primitive_isotropic(h):
            raise ValueError("vector is not primitive isotropic for this form")
        n = self.n
        d = self.dim
        i2, i3 = d - 2, d - 1
        hv = list(h)
        applied = []  # parts of each token applied to hv, in order

        def do(tok):
            parts = self._token_parts(tok)
            applied.append(parts)
            _act(parts, hv, row=False)

        def mid(i, t=1):
            # middle basis vector (length n+2) scaled by t
            v = [0] * (n + 2)
            v[i] = t
            return tuple(v)

        def s_times_y():
            return self.base.gram @ tuple(hv[2:2 + n])

        # bootstrap: make the leading entry nonzero
        if hv[0] == 0:
            if hv[i3] != 0:
                do(("J",))
            elif hv[1] != 0:
                do(("T", mid(n + 1)))
            elif hv[i2] != 0:
                do(("T", mid(0)))
            else:
                sy = s_times_y()
                j = next(i for i in range(n) if sy[i] != 0)
                do(("T", mid(1 + j)))
        if hv[0] == 0:
            raise AssertionError("bootstrap failed to produce a nonzero corner")

        def euclid(idx, reduce_other, reduce_lead):
            # drive hv[idx] to zero, keeping hv[0] nonzero
            while hv[idx] != 0:
                q = hv[idx] // hv[0]
                if q:
                    reduce_other(-q)
                if hv[idx] == 0:
                    break
                q2, r2 = divmod(hv[0], hv[idx])
                if r2 == 0:
                    q2 -= 1
                if q2:
                    reduce_lead(q2)

        # moves: each changes exactly the stated entries plus harmless others
        def h1_add(t):  # hv[1] += t*hv[0]
            do(("T*", mid(0, t)))

        def h0_sub_h1(t):  # hv[0] -= t*hv[1]
            do(("T", mid(n + 1, t)))

        def h2_add(t):  # hv[i2] += t*hv[0]
            do(("T*", mid(n + 1, t)))

        def h0_sub_h2(t):  # hv[0] -= t*hv[i2]
            do(("T", mid(0, t)))

        for _ in range(_COMPLETION_CAP):
            euclid(1, h1_add, h0_sub_h1)
            euclid(i2, h2_add, h0_sub_h2)
            if hv[1] != 0:
                continue
            if hv[i3] % hv[0]:
                do(("T", mid(0)))  # feeds the last entry into position 1
                continue
            sy = s_times_y()
            bad = [i for i in range(n) if sy[i] % hv[0]]
            if bad:
                do(("T*", mid(1 + bad[0])))  # feeds the base obstruction downward
                continue
            break
        else:
            raise AssertionError("completion did not stabilize")

        if abs(hv[0]) != 1:
            raise AssertionError("corner is a unit exactly for primitive input")
        if any(hv[2:2 + n]):
            lam = [0] * (n + 2)
            for i in range(n):
                lam[1 + i] = -hv[2 + i] * hv[0]
            do(("T*", tuple(lam)))
        if hv[i3] != 0 or hv[1] != 0 or hv[i2] != 0:
            raise AssertionError("isotropy should clear the remaining entries")
        if hv[0] == -1:
            do(("T*", mid(0)))
            do(("T", mid(n + 1, 2)))
            do(("T*", mid(0)))
        if hv != [1] + [0] * (d - 1):
            raise AssertionError("completion did not reach the unit vector")

        # h = t_1^{-1} ... t_k^{-1} e_0: the tokens are built here, so they are
        # not checked again as a word from outside would be
        inverse = [_parts_inverse(p) for p in applied]
        word = tuple(p[:1] if p[0] == "J" else p[:2] for p in inverse)
        out = GroupElement(self, self._times_parts(Matrix.identity(d), inverse), word,
                           _trusted=True)
        if out.matrix.col(0) != h:
            raise AssertionError("completed element does not start with h")
        if out.classify() < Membership.DISCRIMINANT_KERNEL:
            raise AssertionError("completed element is not a kernel element")
        return out

    def orbit_transporter(self, h_from, h_to) -> GroupElement:
        """Group element mapping one primitive isotropic vector to another."""
        a = self.complete_isotropic(h_from)
        b = self.complete_isotropic(h_to)
        out = b @ a.inverse()
        if out.matrix @ tuple(h_from) != tuple(h_to):
            raise AssertionError("transporter failed to map the vectors")
        return out


def base_reflection(lat: EvenLattice, v) -> Matrix:
    """Reflection of the base lattice in a vector of norm 2 or -2."""
    v = _int_vec(v)
    norm = lat.norm(v)
    if norm not in (2, -2):
        raise ValueError("reflections are integral only for norm +-2 vectors here")
    s = lat.gram
    n = lat.rank
    sv = s @ v
    sign = 1 if norm == 2 else -1
    rows = [
        [int(i == j) - sign * v[i] * sv[j] for j in range(n)]
        for i in range(n)
    ]
    m = Matrix(rows)
    if m.T @ s @ m != s:
        raise AssertionError("reflection must preserve the form")
    return m
