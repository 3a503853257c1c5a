"""The integral orthogonal group of the hyperbolic extension of an even base.

Starting from an even positive-definite base lattice with Gram matrix S of
rank n, two hyperbolic planes are adjoined to produce a form of signature
(2, n+2). Coordinates are ordered so that index 0 pairs with index n+3,
index 1 pairs with index n+2, and indices 2..n+1 carry the base lattice with
its sign flipped.

The module provides:

* ``ExtendedForm``: the (n+4)-dimensional form and its Gram matrix S1,
  with s1_det S1^{-1} applied by one private method, ``_dual``, through
  the base's Smith record, to a vector or to packed rows;
* ``Membership``/``classify``: where a given rational matrix sits in the
  chain orthogonal < special < special-plus < integral special-plus <
  discriminant kernel (each level includes all later ones); the first three
  links are one gate, also run by ``embed_rotation`` and scaled matrices;
* the standard generators, named by tokens: the corner-swapping involution
  and two families of unipotent transvections indexed by base-extension
  vectors; a token has one form, checked by ``ExtendedForm._token``, and
  acts at the cost of its support: on a vector (``_act``), on the columns
  of m for m @ word (``_times_parts``) and on the rows of m for word @ m
  (``_parts_times``);
* ``complete_isotropic``: writes down, as an explicit word in those
  generators, a group element whose first column is a prescribed primitive
  isotropic vector.

Everything is exact integer/rational arithmetic. A matrix from outside is
classified once, when it becomes a ``GroupElement``, or must equal its word;
generators, products, inverses and powers of members are members by
construction. The form products work on packed rows (``matrices._pack``):
every group-matrix congruence is checked by ``matrices._congruence_mismatch``
on the form's packed rows of S1, which stops at the first row that
disagrees, also on the input of ``orthogonal_inverse``, and the inverse
applies ``_dual`` to the packed rows of m^t S1 at once. A base reflection's
sparse rows are checked by ``matrices._congruent``, as the lattice side is.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import isqrt, prod
from operator import mul

from .lattices import EvenLattice
from .matrices import (Matrix, _axpy, _congruence_mismatch, _congruent, _entry,
                       _entry_bound, _int_vec, _nonzeros, _pack, _packed_rows, _rank_mod,
                       _slots, _unpack, vec_gcd)

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

    Optionally carries a word in the standard generators whose left-to-right
    product equals the matrix, kept as checked tokens (``ExtendedForm._token``)
    and shown by ``word`` as ("J",), ("T", lam), ("T*", lam). A matrix from
    outside is classified, or a word from outside must multiply to it, unless
    ``_trusted`` marks one the library built from members, word and all.
    """

    def __init__(self, form: "ExtendedForm", matrix: Matrix, word=None, *,
                 _trusted: bool = False):
        if not _trusted:
            if not isinstance(matrix, Matrix):
                matrix = Matrix(matrix)
            if word is not None:
                word = tuple(map(form._token, word))
                if form._times_parts(Matrix.identity(form.dim), word) != matrix:
                    raise ValueError("the word does not multiply to the matrix")
            elif not matrix.is_integral:
                raise ValueError("group elements must be integral")
            elif form.classify(matrix) < Membership.INTEGRAL_SPECIAL_PLUS:
                raise ValueError("matrix is not in the integral special-plus group")
        self.form = form
        self.matrix = matrix
        self._tokens = tuple(word) if word is not None else None

    @property
    def word(self):
        """The word as tokens ("J",), ("T", lam), ("T*", lam), or None."""
        if self._tokens is not None:
            return tuple(p[:1] if p[0] == "J" else p[:2] for p in self._tokens)

    def classify(self) -> Membership:
        return self.form.classify(self.matrix)

    def inverse(self) -> "GroupElement":
        word = None if self._tokens is None else tuple(map(_parts_inverse,
                                                            reversed(self._tokens)))
        return GroupElement(self.form, self.form._adjoint(self.matrix, self.form), word,
                            _trusted=True)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            if self.form.s1 != other.form.s1:
                raise ValueError("elements live over different forms")
            word = None
            if self._tokens is not None and other._tokens is not None:
                word = self._tokens + other._tokens
            return GroupElement(self.form, self.matrix @ other.matrix, word,
                                _trusted=True)
        return self.matrix @ other

    def _times_word(self, word) -> "GroupElement":
        """self @ the product of checked tokens, applied in closed form."""
        word = tuple(word)
        full = self._tokens + word if self._tokens is not None else None
        return GroupElement(self.form, self.form._times_parts(self.matrix, word),
                            full, _trusted=True)

    def _word_times(self, word) -> "GroupElement":
        """The product of a tuple of checked tokens @ self, in closed form."""
        full = word + self._tokens if self._tokens is not None else None
        return GroupElement(self.form, self.form._parts_times(word, self.matrix),
                            full, _trusted=True)

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inverse() ** (-k)
        word = self._tokens * k if self._tokens is not None else (None if k else ())
        return GroupElement(self.form, self.matrix**k, word, _trusted=True)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.form.s1 == other.form.s1
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        w = f", word of length {len(self._tokens)}" if self._tokens is not None else ""
        return f"GroupElement(dim={self.matrix.nrows}{w})"


def _parts_inverse(parts):
    # T(-lam) inverts T(lam), and S0(-lam) = -S0 lam while q(-lam) = q(lam)
    kind, lam, q, lam_nz, slam_nz = parts
    if kind == "J":
        return parts
    return (kind, tuple([-x for x in lam]), q, tuple([(j, -x) for j, x in lam_nz]),
            tuple([(j, -x) for j, x in slam_nz]))


def _act(parts, v: list) -> None:
    """token @ v in place, for a column vector v of ints.

    J swaps and negates the outer entries. T and T* add the pairing of the
    base block with S0 lam, and q times the other outer entry, to one outer
    entry, and that other entry times lam to the base block.
    """
    kind, _, q, lam_nz, slam_nz = parts
    last = len(v) - 1
    if kind == "J":
        v[0], v[1], v[last - 1], v[last] = -v[last], -v[last - 1], -v[1], -v[0]
        return
    src, dst = (last, 0) if kind == "T" else (0, last)
    c = v[src]
    v[dst] -= sum([x * v[j] for j, x in slam_nz]) + q * c
    if c:
        for j, x in lam_nz:
            v[j] += c * x


def _act_lines(parts, lines: list, left: bool) -> None:
    """Apply a token in place to the lines (rows or columns, lists or tuples
    of ints) of a matrix m: its rows become those of token @ m if left, its
    columns those of m @ token otherwise.

    J swaps and negates the four outer lines. T and T* rewrite one outer
    line from itself, the other outer line (the source) and the base lines
    in the support of S0 lam (left) or lam (right), then add multiples of
    the source to the base lines in the support of the other vector. No
    other line is touched.
    """
    kind, _, q, lam_nz, slam_nz = parts
    last = len(lines) - 1
    if kind == "J":
        a, b, c, e = lines[0], lines[1], lines[last - 1], lines[last]
        lines[0], lines[1], lines[last - 1], lines[last] = (
            [-x for x in e], [-x for x in c], [-x for x in b], [-x for x in a])
        return
    # T @ m and m @ T* write line 0 from line last; the others mirror it
    src, dst = (last, 0) if (kind == "T") == left else (0, last)
    if left:
        pair = [(j, -x) for j, x in slam_nz]
        shift = [(j, -x) for j, x in lam_nz]
    else:
        pair, shift = lam_nz, slam_nz
    s = lines[src]
    acc = lines[dst]
    if q:
        acc = [a - q * b for a, b in zip(acc, s)]
    for j, x in pair:
        acc = [a + x * b for a, b in zip(acc, lines[j])]
    lines[dst] = acc
    for j, x in shift:
        lines[j] = [a - x * b for a, b in zip(lines[j], s)]


def _sign_modulus(ratio: int, s1_det: int) -> tuple:
    """(p, s) for a ratio >= 1: the least odd prime p dividing neither ratio
    nor s1_det with ratio a square mod p, and s^2 = ratio mod p, where
    s = isqrt(ratio) when the ratio is a square."""
    c = isqrt(ratio)
    for p in count(3, 2):
        if ratio * s1_det % p and all(p % t for t in range(3, isqrt(p) + 1, 2)):
            s = c if c * c == ratio else next(
                (s for s in range(1, p) if (s * s - ratio) % p == 0), None)
            if s is not None:
                return p, s


def _first_non_integral(a: Matrix) -> tuple:
    return next((i, j) for i, row in enumerate(a.num) for j, x in enumerate(row)
                if x % a.den)


def _identity_corners(inner: Matrix) -> Matrix:
    """diag(1, 1, inner, 1, 1) for an integral square inner."""
    eye = Matrix.identity(inner.nrows + 4).num
    return Matrix._over(eye[:2] + tuple((0, 0) + r + (0, 0) for r in inner.num)
                        + eye[-2:])


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
        self.s0 = self._nest(-base.gram)
        self.s1 = self._nest(self.s0)
        # |det S1| = |det S| = |D|, the scale at which _dual applies S1^{-1}
        self.s1_det = abs(base.determinant)
        # the nonzeros of each row of S1: one corner entry, or the nonzeros
        # of a row of the base Gram; and its rows packed once
        self._s1_nz = _nonzeros(self.s1.num)
        self._s1_packed = _packed_rows(self._s1_nz, self.s1.num)
        # bounds the row sums of |s1_det S1^{-1}|: adj(S) is positive definite,
        # so |adj_ij| <= max_k adj_kk <= prod S_ii / min S_ii (Hadamard)
        diag = [base.gram.num[i][i] for i in range(n)]
        self._dual_rowsum = max(self.s1_det, n * prod(diag) // min(diag, default=1))
        # L* = Z^d + sum_i Z g_i with g_i = (0, 0, w_i/d_i, 0, 0), from the
        # base's Smith record: each generator as (d_i, columns, values of w_i)
        self._kernel_gens = tuple(
            (di, tuple(2 + j for j, x in enumerate(wi) if x), tuple(x for x in wi if x))
            for di, wi in zip(base._smith.divs, base._smith.w))

    @staticmethod
    def _nest(inner: Matrix) -> Matrix:
        """inner between a hyperbolic pair: 1 at (0, last) and (last, 0)."""
        size = inner.nrows + 2
        rows = [[0] * size for _ in range(size)]
        rows[0][size - 1] = rows[size - 1][0] = 1
        for i, row in enumerate(inner.num):
            rows[1 + i][1:size - 1] = row
        return Matrix._over(tuple(map(tuple, rows)))

    # -- generators ---------------------------------------------------------------
    # Tokens ("J",), ("T", lam), ("T*", lam), lam integral of length n+2, with
    # q = lam^t S0 lam / 2 and b = (0, lam, 0):
    #   J        -1 at (0, last), (1, last-1), (last-1, 1), (last, 0), I on the base;
    #   T(lam)   I + e0 (0, -S0 lam, -q)^t + b e_last^t;
    #   T*(lam)  I + b e0^t + e_last (-q, -S0 lam, 0)^t  (Eichler transvections).
    # _act applies one to a vector, _act_lines to the rows or columns of a
    # matrix, each at the cost of the support of lam and S0 lam; no dense
    # token matrix is built.

    def _token(self, tok) -> tuple:
        """The checked form (``_parts``) of a token from outside;
        a malformed token raises ValueError."""
        kind = tok[0] if isinstance(tok, (tuple, list)) and tok else None
        if kind not in ("J", "T", "T*") or len(tok) != 1 + (kind != "J"):
            raise ValueError(f"malformed token {tok!r}")
        if kind == "J":
            return self._parts(kind)
        lam = _int_vec(tok[1]) if isinstance(tok[1], (tuple, list)) else ()
        if len(lam) != self.n + 2:
            raise ValueError("transvection vector must be integral of length n+2")
        return self._parts(kind, lam)

    def _parts(self, kind: str, lam=None) -> tuple:
        """The checked form (kind, lam, q, nonzeros of lam, nonzeros of
        S0 lam) of a token the library builds, lam a tuple of ints; the
        nonzeros are (index, value) pairs in the coordinates of S1. S0 lam
        combines the base rows of S1 (``_s1_nz``) that the nonzeros of lam
        pick, and q = lam^t S0 lam / 2 reads it there."""
        if kind == "J":
            return ("J", None, 0, (), ())
        lam_nz = tuple((1 + j, x) for j, x in enumerate(lam) if x)
        acc = {}
        for i, x in lam_nz:
            _axpy(acc, x, self._s1_nz[i])
        q = sum([x * acc.get(i, 0) for i, x in lam_nz]) // 2
        return (kind, lam, q, lam_nz, tuple(sorted(acc.items())))

    @staticmethod
    def _times_parts(m: Matrix, parts) -> Matrix:
        """m @ t_1 @ ... @ t_k for an integral m and checked tokens, as
        column operations (``_act_lines``): a token costs O(d) per nonzero
        of lam and of S0 lam, not O(d^2)."""
        cols = list(zip(*m.num))
        for p in parts:
            _act_lines(p, cols, left=False)
        return Matrix._over(tuple(zip(*cols)))

    @staticmethod
    def _parts_times(parts, m: Matrix) -> Matrix:
        """t_1 @ ... @ t_k @ m for checked tokens and an integral m, as row
        operations, the last token first."""
        rows = list(m.num)
        for p in reversed(tuple(parts)):
            _act_lines(p, rows, left=True)
        return Matrix._over(tuple(map(tuple, rows)))

    @cached_property
    def _probes(self) -> tuple:
        """(lam, first column of T*(lam)) of the transvections with which the
        double-coset reduction probes whether alpha divides core and corner:
        lam runs over the unit vectors and e_0 + e_{n+1}. The column is
        e0 + (0, lam, 0) - q(lam) e_last, kept as its nonzeros (index,
        value). Formed on first use, once per form."""
        n, last = self.n, self.dim - 1
        s0 = self.s0.num
        out = []
        for idx in [(i,) for i in range(n + 2)] + [(0, n + 1)]:
            q = sum(s0[a][b] for a in idx for b in idx) // 2
            col = [(0, 1)] + [(1 + i, 1) for i in idx] + ([(last, -q)] if q else [])
            out.append((tuple(int(j in idx) for j in range(n + 2)), tuple(col)))
        return tuple(out)

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
        """Left-to-right product of generator tokens, each checked by _token."""
        return self.identity()._times_word(map(self._token, word))

    def embed_rotation(self, q) -> GroupElement:
        """Extend a special isometry of the base lattice by identity corners."""
        if not isinstance(q, Matrix):
            q = Matrix(q)
        if q.shape != (self.n, self.n) or not q.is_integral:
            raise ValueError("rotation must be an integral base-sized matrix")
        # between identity corners, q preserves S1 iff it preserves the base
        # form, det is det q, and the 2-plane is fixed: the gate with ratio 1
        # decides membership, and its orientation check always passes
        m = _identity_corners(q)
        failed = self._gate(m, 1)
        if failed is not None:
            raise ValueError({"form-congruence": "rotation must preserve the base form",
                              "determinant": "rotation must have determinant one",
                              }[failed[1]["check"]])
        return GroupElement(self, m, _trusted=True)

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

        Each gate is exact and uses the form's structure. The first three
        are ``_gate`` with ratio den², since M = num/den preserves S1 iff num
        scales it by den². The kernel gate asks, for integral M, whether
        M - I maps each generator g_i of L*/Z^d into Z^d: k mat-vecs modulo
        d_i; on failure only the first failing row of (M - I)·S1^{-1} is
        formed.
        """
        m = self._read(m)
        failed = self._gate(m, m.den * m.den)
        if failed is not None:
            return failed
        if not m.is_integral:
            i, j = _first_non_integral(m)
            return Membership.SPECIAL_PLUS, {
                "check": "integrality",
                "entry": (i, j),
                "value": m[i, j],
            }
        # row r of (M - I)·S1^{-1} is integral iff row r of M - I pairs
        # integrally with every g_i, that is v · w_i = 0 mod d_i
        for r, row in enumerate(m.num):
            v = list(row)
            v[r] -= 1
            if any(sum(map(mul, map(v.__getitem__, js), xs)) % di
                   for di, js, xs in self._kernel_gens):
                break
        else:
            return Membership.DISCRIMINANT_KERNEL, {}
        delta = self._dual(v)
        j = next(j for j, x in enumerate(delta) if x % self.s1_det)
        return Membership.INTEGRAL_SPECIAL_PLUS, {
            "check": "kernel-congruence",
            "entry": (r, j),
            "value": Fraction(delta[j], self.s1_det),
        }

    def _read(self, m) -> Matrix:
        """A matrix from outside as a Matrix of this form's size."""
        if not isinstance(m, Matrix):
            m = Matrix(m)
        if m.shape != (self.dim, self.dim):
            raise ValueError("matrix has the wrong size for this form")
        return m

    def _gate(self, m: Matrix, ratio: int):
        """(level, witness) of the first of three checks that the integer
        rows num of m fail, or None: num scales the form by ratio, has a
        positive determinant and a positive orientation value.

        The congruence numᵀS1·num, formed on the nonzeros of S1 and num, is
        compared with ratio·S1 in the upper triangle only, row by row: both
        are symmetric, so the first mismatch in row-major order lies there,
        and the rows after it are never formed. Once it holds,
        det(num) = ±isqrt(ratio^d), which differ mod an odd prime p ∤
        ratio·det S1 (``_sign_modulus``). Then num/s, s² ≡ ratio, is an
        isometry of the nondegenerate S1 over F_p, so det(num) ≡
        s^d (-1)^rank_p(num - s·I) (Cartan–Dieudonné with Scherk's count;
        P. Scherk, Proc. AMS 1 (1950) 481–491), a rank small for a short
        word (``_rank_mod``). The orientation value is read off m itself.
        """
        num = m.num
        miss = _congruence_mismatch(num, self._s1_nz, self.s1.num, ratio, self._s1_packed)
        if miss is not None:
            i, j, got = miss
            return Membership.NOT_ORTHOGONAL, {
                "check": "form-congruence",
                "entry": (i, j),
                "got": _entry(got, ratio),
                "expected": self.s1.num[i][j],
            }
        p, s = _sign_modulus(ratio, self.s1_det)
        sign = (-1) ** _rank_mod(num, s, p)
        if sign * pow(s, self.dim, p) % p != isqrt(ratio**self.dim) % p:
            return Membership.ORTHOGONAL, {"check": "determinant", "value": -1}
        orient = self._orientation_value(m)
        if orient <= 0:
            return Membership.SPECIAL, {"check": "orientation", "value": orient}
        return None

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

    def _dual(self, z) -> list:
        """s1_det S1^{-1} z, for z a list of ints or of packed rows
        (``matrices._pack``): the corner pairs swap, scaled by s1_det, and
        the base block is -adj(S) times z's, applied through the base's Smith
        record (``EvenLattice._adjugate_times``), no adjugate formed."""
        sd = self.s1_det
        return [sd * z[-1], sd * z[-2], *self.base._adjugate_times([-x for x in z[2:-2]]),
                sd * z[1], sd * z[0]]

    def _adjoint(self, m: Matrix, other: "ExtendedForm") -> Matrix:
        """S1^{-1} m^t S, for S the S1 of other, a form of the same size:
        _dual applied to every packed row of m^t S at once (the packed rows
        of S that the nonzeros of a column of m pick), each result row
        unpacked once. The slots hold row sum |s1_det S1^{-1}| * max|m| *
        max row sum |S|, which bounds every entry."""
        num, d = m.num, self.dim
        srow, smax, packed = other._s1_packed
        width, top = _slots(d, smax + self._dual_rowsum * _entry_bound(num) * srow)
        if width != 8:
            packed = [_pack(r, width, top) for r in other.s1.num]
        rows = self._dual([sum(map(mul, compress(col, col), compress(packed, col)))
                           for col in zip(*num)])
        return Matrix._over(tuple(tuple(_unpack(r, d, width, top)) for r in rows),
                            m.den * self.s1_det)

    def orthogonal_inverse(self, m) -> Matrix:
        """Inverse of a matrix that preserves the form: S1^{-1} m^t S1.

        m = num/den must have numᵀS1·num = den²·S1, or a ValueError names
        the first entry where it does not. ``GroupElement.inverse`` inverts
        members the library built through ``_adjoint``, unchecked.
        """
        m = self._read(m)
        r = m.den * m.den
        miss = _congruence_mismatch(m.num, self._s1_nz, self.s1.num, r, self._s1_packed)
        if miss is not None:
            i, j, got = miss
            raise ValueError(f"matrix does not preserve the form: entry {(i, j)} of "
                             f"num^T S1 num is {got}, not {r * self.s1.num[i][j]}")
        return self._adjoint(m, self)

    # -- isotropic vectors -----------------------------------------------------------

    def is_primitive_isotropic(self, h) -> bool:
        """Isotropic, and the linear form pairing against h is onto the integers.

        The second condition is the gcd of the form-gram times h being 1; it is
        exactly what makes h completable to a first column of a group element.
        """
        h = _int_vec(h)
        if len(h) != self.dim:
            raise ValueError("need an integral vector of full dimension")
        # the zero vector pairs to gcd 0, so it is refused too
        w = self.s1 @ h
        return sum(map(mul, h, w)) == 0 and vec_gcd(w) == 1

    def complete_isotropic(self, h) -> GroupElement:
        """Group element with prescribed primitive isotropic first column.

        Returns an element carrying an explicit generator word. Raises
        ValueError if the vector is not primitive isotropic.
        """
        return self._complete(h)[0]

    def _complete(self, h) -> tuple:
        """(complete_isotropic(h), the checked tokens t_1..t_k it applied to
        h): the inverse's word is t_k..t_1, with no token inverted again."""
        h = _int_vec(h)
        if not self.is_primitive_isotropic(h):
            raise ValueError("vector is not primitive isotropic for this form")
        n = self.n
        d = self.dim
        i2, i3 = d - 2, d - 1
        hv = list(h)
        applied = []  # checked form of each token applied to hv, in order

        def do(kind, lam=None):
            parts = self._parts(kind, lam)
            applied.append(parts)
            _act(parts, hv)

        def mid(i, t=1):
            # middle basis vector (length n+2) scaled by t
            v = [0] * (n + 2)
            v[i] = t
            return tuple(v)

        # bootstrap: make the leading entry nonzero
        if hv[0] == 0:
            if hv[i3] != 0:
                do("J")
            elif hv[1] != 0:
                do("T", mid(n + 1))
            elif hv[i2] != 0:
                do("T", mid(0))
        # no other case: four zero corners give q(h) = -y^t S y < 0 for h != 0
        if hv[0] == 0:
            raise AssertionError("bootstrap failed to produce a nonzero corner")

        def euclid(idx, other, lead):
            # drive hv[idx] to zero, keeping hv[0] nonzero: T*(t e_other) adds
            # t hv[0] to hv[idx], T(t e_lead) takes t hv[idx] from hv[0]
            while hv[idx] != 0:
                q = hv[idx] // hv[0]
                if q:
                    do("T*", mid(other, -q))
                if hv[idx] == 0:
                    break
                q2, r2 = divmod(hv[0], hv[idx])
                if r2 == 0:
                    q2 -= 1
                if q2:
                    do("T", mid(lead, q2))

        for _ in range(_COMPLETION_CAP):
            euclid(1, 0, n + 1)
            euclid(i2, n + 1, 0)
            if hv[1] != 0:
                continue
            if hv[i3] % hv[0]:
                do("T", mid(0))  # feeds the last entry into position 1
                continue
            sy = self.base.gram @ tuple(hv[2:2 + n])
            bad = [i for i in range(n) if sy[i] % hv[0]]
            if bad:
                do("T*", mid(1 + bad[0]))  # feeds the base obstruction downward
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
            do("T*", tuple(lam))
        if hv[i3] != 0 or hv[1] != 0 or hv[i2] != 0:
            raise AssertionError("isotropy should clear the remaining entries")
        if hv[0] == -1:
            do("T*", mid(0))
            do("T", mid(n + 1, 2))
            do("T*", mid(0))
        if hv != [1] + [0] * (d - 1):
            raise AssertionError("completion did not reach the unit vector")

        # h = t_1^{-1} ... t_k^{-1} e_0: the tokens are built here, so they are
        # not checked again as a word from outside would be
        word = tuple(map(_parts_inverse, applied))
        out = GroupElement(self, self._times_parts(Matrix.identity(d), word), word,
                           _trusted=True)
        if out.matrix.col(0) != h:
            raise AssertionError("completed element does not start with h")
        if out.classify() < Membership.DISCRIMINANT_KERNEL:
            raise AssertionError("completed element is not a kernel element")
        return out, applied

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
    m = Matrix([[int(i == j) - sign * v[i] * sv[j] for j in range(n)] for i in range(n)])
    if _congruent(_nonzeros(zip(*m.num)), lat._gram_nonzeros) != s.num:
        raise AssertionError("reflection must preserve the form")
    return m
