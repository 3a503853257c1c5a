"""Reduction of scaled orthogonal matrices and normalizer certificates.

A scaled orthogonal matrix is an integral R with R^t S1 R = r S1 for a
positive integer ratio r, positively oriented; a matrix from outside passes
the gate of ``classify`` with ratio r, and each quantity of the immutable
object is computed once. Left and right multiplication by the integral
special-plus group leaves r fixed, and this module computes:

* a right-coset normal form: first column alpha * e0 and last row
  delta * e_last with alpha * delta = r, via completion of the primitive
  part of the first column;
* a double-coset normal form: block diagonal (alpha, core, delta) where
  alpha divides every entry and equals the gcd of the original matrix;
* compatibility with a finite-index change of base lattice (hat embedding);
* normalizer certificates: either the matrix is, after dividing out the
  content, an element of the integral group, or a strictly growing
  right-coset invariant on its powers, read off their first columns,
  witnesses that no rational rescaling of it normalizes the group.

Each exact division the reduction needs is guaranteed when the base lattice
is maximal even or when the ratio is coprime to the base determinant; a
failed division raises HypothesisViolation instead of guessing. The
transformers and the reduced matrix are formed by applying the words the
reduction carries, token by token (``ExtendedForm._times_parts`` on the
right, ``_parts_times`` on the left); the only dense products of d x d
matrices are those of the final check left @ input @ right. A reduced
matrix is checked by the packed ``matrices._congruence_mismatch`` on the
form's rows; the hat embedding's sparse rows, by ``matrices._congruent``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from .lattices import LatticeEmbedding
from .matrices import (Matrix, _congruence_mismatch, _congruent, _int_vec, _nonzeros,
                       _product_rows, vec_gcd)
from .ogroup import ExtendedForm, GroupElement, Membership, _identity_corners
from .quadmod import is_maximal_even

_REDUCTION_CAP = 10000


class HypothesisViolation(RuntimeError):
    """An exact division required by a coset reduction failed.

    This cannot happen when the base lattice is maximal even, or when the
    scaling ratio is coprime to the determinant of the base form.
    """


# the refusal for each check of the membership gate, ExtendedForm._gate
_GATE_MESSAGES = {
    "form-congruence": "matrix does not scale the form by the given ratio",
    "determinant": "matrix must have positive determinant",
    "orientation": "matrix must preserve the oriented positive 2-plane",
}


class ScaledOrthogonal:
    """Integral matrix scaling the extended form by a positive ratio."""

    def __init__(self, form: ExtendedForm, matrix: Matrix, ratio: int, *,
                 _trusted: bool = False):
        # _trusted: R is built from a verified scaled matrix (no checks).
        # Otherwise R passes the gate classify runs, with this ratio.
        if not _trusted:
            matrix = form._read(matrix)
            if not matrix.is_integral:
                raise ValueError("scaled orthogonal matrices must be integral")
            (ratio,) = _int_vec((ratio,), "the scaling ratio")
            if ratio <= 0:
                raise ValueError("the scaling ratio must be a positive integer")
            failed = form._gate(matrix, ratio)
            if failed is not None:
                raise ValueError(_GATE_MESSAGES[failed[1]["check"]])
        # immutable, so the cached reductions below and content cannot go stale
        vars(self).update(form=form, matrix=matrix, ratio=ratio)

    def __setattr__(self, name, value):
        raise AttributeError(f"ScaledOrthogonal is immutable; cannot set {name!r}")

    @cached_property
    def _right_coset(self) -> "RightCosetForm":
        return _right_coset_form(self)

    @cached_property
    def _double_coset(self) -> "DoubleCosetForm":
        return _double_coset_form(self)

    @cached_property
    def content(self) -> int:
        """gcd of all matrix entries."""
        return vec_gcd(chain.from_iterable(self.matrix.num))

    def is_canonical(self) -> bool:
        return self.content == 1

    def canonical(self) -> "ScaledOrthogonal":
        """Divide the matrix by its content s and the ratio by s^2.

        s^2 divides the ratio: it is the (0, last) entry of R^t S1 R, and
        S1 has a 1 there, so with R = s R' it is s^2 (R'^t S1 R')[0, last].
        """
        s = self.content
        if s == 1:
            return self
        return ScaledOrthogonal(self.form, self.matrix * Fraction(1, s),
                                self.ratio // (s * s), _trusted=True)

    def power(self, m: int) -> "ScaledOrthogonal":
        # R^m scales S1 by ratio^m, with positive determinant and orientation,
        # whenever R does: a member by construction, so it is not verified again
        if m < 1:
            raise ValueError("powers of scaled matrices are taken for m >= 1")
        return ScaledOrthogonal(self.form, self.matrix**m, self.ratio**m,
                                _trusted=True)

    def __eq__(self, other):
        return (
            isinstance(other, ScaledOrthogonal)
            and self.form.s1 == other.form.s1
            and self.matrix == other.matrix
            and self.ratio == other.ratio
        )

    def __repr__(self):
        return f"ScaledOrthogonal(ratio={self.ratio}, dim={self.matrix.nrows})"


def make_scaled(form: ExtendedForm, matrix, ratio: int | None = None,
                canonicalize: bool = True) -> ScaledOrthogonal:
    """Wrap a matrix as a scaled orthogonal element, inferring the ratio.

    With canonicalize (default) the content of the matrix, and its square
    from the ratio, is divided out first, giving the canonical
    representative of the rational ray of the matrix.
    """
    matrix = form._read(matrix)
    if ratio is None:
        # the (0, last) entry of R^t S1 R: column 0 of R against S1 R[:, last]
        ratio = sum(map(mul, matrix.col(0), form.s1 @ matrix.col(form.dim - 1)))
    out = ScaledOrthogonal(form, matrix, ratio)
    return out.canonical() if canonicalize else out


# -- right cosets ------------------------------------------------------------------


@dataclass(frozen=True)
class RightCosetForm:
    """Normal form W R of a scaled matrix under the left group action."""

    # identities reduce_right_coset guarantees: each held, or it raised
    checks = (
        "transformer is a kernel word",
        "reduced = transformer @ input",
        "first column is alpha * e0",
        "alpha * delta = ratio",
        "alpha = gcd of first-column pairings",
    )

    source: ScaledOrthogonal
    transformer: GroupElement  # W, with an explicit generator word
    reduced: Matrix  # W @ R
    alpha: int  # reduced first column = alpha * e0
    delta: int  # reduced last row = delta * e_last; alpha * delta = ratio

    @property
    def ratio(self) -> int:
        return self.source.ratio


def _primitive_part(form: ExtendedForm, g, what: str):
    """(alpha, g/alpha) with alpha the gcd of the form-gram times g."""
    g = tuple(g)
    alpha = vec_gcd(form.s1 @ g)
    if any(x % alpha for x in g):
        raise HypothesisViolation(
            f"the {what} is not divisible by its pairing content {alpha}; "
            "guaranteed only over a maximal even base or for a ratio coprime "
            "to the base determinant"
        )
    return alpha, tuple(x // alpha for x in g)


def reduce_right_coset(x: ScaledOrthogonal) -> RightCosetForm:
    """Left-multiply by a group element so the first column becomes alpha*e0.

    The last row automatically becomes (ratio/alpha) * e_last. The
    transformer inverts a classified completion and is not classified again.
    The form is computed once per object and cached on it: later calls, and
    the double-coset reduction of the same object, return it as it is.
    """
    return x._right_coset


def _right_coset_form(x: ScaledOrthogonal) -> RightCosetForm:
    form = x.form
    d = form.dim
    alpha, h = _primitive_part(form, x.matrix.col(0), "first column")
    done, applied = form._complete(h)
    # the inverse's word is the tokens the completion applied, reversed
    w = GroupElement(form, form._adjoint(done.matrix, form), tuple(reversed(applied)),
                     _trusted=True)
    t = form._parts_times(w._tokens, x.matrix)
    if t.col(0) != tuple(alpha if i == 0 else 0 for i in range(d)):
        raise AssertionError("left reduction failed to clean the first column")
    if x.ratio % alpha:
        raise AssertionError("the corner gcd must divide the ratio")
    delta = x.ratio // alpha
    if t.row(d - 1) != tuple(0 if i < d - 1 else delta for i in range(d)):
        raise AssertionError("last row did not reduce to its forced form")
    return RightCosetForm(x, w, t, alpha, delta)


# -- double cosets ------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleCosetForm:
    """Block-diagonal normal form W R V under the two-sided group action."""

    # identities reduce_double_coset guarantees: each held, or it raised
    checks = (
        "left and right are kernel words",
        "reduced = left @ input @ right",
        "reduced is diag(alpha, core, delta)",
        "core scales the middle form by the ratio",
        "alpha = gcd of all input entries",
        "alpha * delta = ratio",
    )

    source: ScaledOrthogonal
    left: GroupElement  # W
    right: GroupElement  # V
    reduced: Matrix  # W @ R @ V = diag(alpha, core, delta)
    core: Matrix  # scales the middle form by the same ratio
    alpha: int  # gcd of all entries of the source matrix
    delta: int  # alpha * delta = ratio, alpha divides delta

    @property
    def ratio(self) -> int:
        return self.source.ratio


def _pairing_gcd(c0, z) -> int:
    """gcd of the entries of sum c z_j over the (j, c) nonzeros c0."""
    (j, c), *rest = c0
    acc = [c * y for y in z[j]]
    for j, c in rest:
        acc = [a + c * y for a, y in zip(acc, z[j])]
    return vec_gcd(acc)


def reduce_double_coset(x: ScaledOrthogonal) -> DoubleCosetForm:
    """Two-sided reduction to diag(alpha, core, delta).

    At exit alpha divides every entry of the reduced matrix and equals the
    gcd of the entries of the input; the core scales the middle form of one
    hyperbolic plane less by the same ratio. Both transformers are products
    of classified completions and generators, not classified again. The
    reduction starts from the right-coset form of the same object, and both
    forms are computed once per object and cached on it.
    """
    return x._double_coset


def _double_coset_form(x: ScaledOrthogonal) -> DoubleCosetForm:
    form = x.form
    d = form.dim
    n = form.n
    r = x.ratio
    # the first left cleaning is the right-coset reduction
    rc = reduce_right_coset(x)
    t, left, alpha = rc.reduced, rc.transformer, rc.alpha
    right = form.identity()
    e0 = tuple(int(i == 0) for i in range(d))

    def left_clean():
        nonlocal t, left
        alpha, h = _primitive_part(form, t.col(0), "first column")
        if h != e0:
            word = tuple(reversed(form._complete(h)[1]))
            left, t = left._word_times(word), form._parts_times(word, t)
        return alpha

    def apply_right(word):
        nonlocal t, right
        right, t = right._times_word(word), form._times_parts(t, word)

    for _ in range(_REDUCTION_CAP):
        z = t.row(0)
        k = form._dual(z)
        if any(v % form.s1_det for v in k):
            raise HypothesisViolation(
                "the first row does not lie in the rescaled dual; guaranteed "
                "only over a maximal even base or for a ratio coprime to the "
                "base determinant"
            )
        k = tuple(v // form.s1_det for v in k)
        beta = vec_gcd(z)
        if beta == alpha and all(v % alpha == 0 for v in k):
            lam = tuple(k[1 + j] // alpha for j in range(n + 2))
            apply_right((form._parts("T", lam),))
            # t is now block diagonal; probe whether alpha divides everything,
            # each probe's pairings c0^t t^t S1 combining a few rows of t^t S1
            z = list(_product_rows(_nonzeros(zip(*t.num)), form._s1_nz))
            failing = next((lam for lam, c0 in form._probes
                            if _pairing_gcd(c0, z) != alpha), None)
            if failing is None:
                break
            apply_right((form._parts("T*", failing),))
        else:
            beta2, hp = _primitive_part(form, tuple(-v for v in k), "first row")
            if beta2 != beta:
                raise AssertionError("row content mismatch in reduction")
            apply_right(form.complete_isotropic(hp)._tokens + (form._parts("J"),))
            if t.row(0) != tuple(beta if i == 0 else 0 for i in range(d)):
                raise AssertionError("right reduction failed to clean the first row")
        alpha = left_clean()
    else:
        raise AssertionError("double-coset reduction did not stabilize")

    alpha, delta = t.num[0][0], t.num[d - 1][d - 1]
    if alpha * delta != r or delta % alpha:
        raise AssertionError("corner entries inconsistent with the ratio")
    for i, row in enumerate(t.num):
        for j, e in enumerate(row):
            inner = 1 <= i <= d - 2 and 1 <= j <= d - 2
            if not inner and (i, j) not in ((0, 0), (d - 1, d - 1)) and e:
                raise AssertionError("reduced matrix is not block diagonal")
            if e % alpha:
                # the probes read pairing contents, which bound the entry
                # content only under the hypothesis
                raise HypothesisViolation(
                    f"the reduced core is not divisible by the corner gcd {alpha}; "
                    "guaranteed only over a maximal even base or for a ratio "
                    "coprime to the base determinant"
                )
    # t = diag(alpha, core, delta) with alpha * delta = r, so tᵀS1t = r·S1
    # says exactly that coreᵀS0core = r·S0
    if _congruence_mismatch(t.num, form._s1_nz, form.s1.num, r, form._s1_packed) is not None:
        raise AssertionError("core does not scale the middle form")
    if alpha != x.content:
        raise AssertionError("corner gcd must equal the gcd of the input entries")
    if left.matrix @ x.matrix @ right.matrix != t:
        raise AssertionError("transformers do not reproduce the reduction")
    core = t.submatrix(range(1, d - 1), range(1, d - 1))
    return DoubleCosetForm(x, left, right, t, core, alpha, delta)


# -- change of base lattice -----------------------------------------------------------


class HatEmbedding:
    """Extension of a finite-index lattice embedding to the extended forms.

    The corner coordinates are carried along unchanged; only the base block
    changes basis. Conjugation by the embedding matrix maps the group of the
    small form into the rational group of the big one; integrality of the
    image is exactly the obstruction to extending an isometry.
    """

    def __init__(self, base_embedding: LatticeEmbedding):
        emb = base_embedding
        if emb.sub.rank != emb.sup.rank:
            raise ValueError("hat embedding needs a finite-index embedding")
        self.base_embedding = emb
        self.sub_form = ExtendedForm(emb.sub)
        self.sup_form = ExtendedForm(emb.sup)
        self.matrix = _identity_corners(emb.matrix)
        sub, sup = self.sub_form, self.sup_form
        if _congruent(_nonzeros(zip(*self.matrix.num)), sup._s1_nz) != sub.s1.num:
            raise AssertionError("hat embedding fails to transport the form")
        # the transport identity inverts the matrix: S1_sub^{-1} H^t S1_sup
        self._inv = sub._adjoint(self.matrix, sup)

    def push(self, m) -> Matrix:
        """Conjugate a small-form matrix into (possibly rational) big-form terms."""
        return self.matrix @ _matrix_of(m, self.sub_form, "small") @ self._inv

    def pull(self, m) -> Matrix:
        """Conjugate a big-form matrix back to small-form coordinates."""
        return self._inv @ _matrix_of(m, self.sup_form, "big") @ self.matrix


def _matrix_of(m, form: ExtendedForm, which: str) -> Matrix:
    """The matrix of m; a group element or scaled matrix must live over form."""
    if isinstance(m, (GroupElement, ScaledOrthogonal)):
        if m.form.s1 != form.s1:
            raise ValueError(f"the element does not live over the {which} form")
        return m.matrix
    return m if isinstance(m, Matrix) else Matrix(m)


def max_extension_member(hat: HatEmbedding, m) -> Membership:
    """Membership level, over the big form, of a pushed small-form matrix.

    INTEGRAL_SPECIAL_PLUS or better means the element extends to the bigger
    lattice; SPECIAL_PLUS means it is orthogonal there but not integral.
    """
    return hat.sup_form.classify(hat.push(m))


# -- normalizer certificates ------------------------------------------------------------


@dataclass(frozen=True)
class NormalizerCertificate:
    """Outcome of the rational-normalizer test for a scaled orthogonal matrix.

    Either the canonical representative is a genuine group element
    (in_normalizer True), or the right-coset invariants alpha^2/ratio of the
    powers of a witness in its two-sided coset move strictly, which no
    normalizing element allows.
    """

    source: ScaledOrthogonal
    canonical_matrix: Matrix
    canonical_ratio: int
    in_normalizer: bool
    kind: str  # "integral-member" or "scale-invariant-growth"
    exponents: tuple = field(default=())
    corner_gcds: tuple = field(default=())
    invariants: tuple = field(default=())  # Fractions alpha_m^2 / ratio^m
    witness_matrix: Matrix | None = None  # element whose powers were measured

    def describe(self) -> str:
        if self.in_normalizer:
            return (
                "canonical representative has ratio 1 and is an element of "
                "the integral special-plus group; it normalizes the group"
            )
        pairs = ", ".join(
            f"m={m}: alpha={a}, alpha^2/ratio^m={v}"
            for m, a, v in zip(self.exponents, self.corner_gcds, self.invariants)
        )
        return (
            "right-coset invariants of the witness powers are pairwise "
            f"distinct and differ from 1 ({pairs}); a normalizing element "
            "would keep them constant, so no rational rescaling normalizes "
            "the group"
        )


def normalizer_certificate(x: ScaledOrthogonal,
                           exponents=(1, 2, 3)) -> NormalizerCertificate:
    """Decide whether any rational rescaling of the matrix normalizes the group.

    Requires a maximal even base lattice when the canonical ratio exceeds 1;
    raises ValueError otherwise, since the invariant argument needs it.
    """
    exponents = tuple(sorted(set(_int_vec(exponents, "exponents"))))
    if not exponents or exponents[0] < 1:
        raise ValueError("exponents must be positive integers")
    canon = x.canonical()
    if canon.ratio == 1:
        GroupElement(canon.form, canon.matrix)  # classifies; raises if not a member
        return NormalizerCertificate(
            x, canon.matrix, 1, True, "integral-member"
        )
    if not is_maximal_even(x.form.base):
        raise ValueError(
            "normalizer certificates with ratio > 1 need a maximal even base "
            "lattice; enlarge the base via its glue groups first"
        )

    def measure(mat: Matrix):
        # the first column of mat^m, walked as col <- mat @ col over the
        # sorted exponents: the m-th power of a matrix that scales the form
        # by r scales it by r^m
        alphas = []
        invariants = []
        col, k = mat.col(0), 1
        for m in exponents:
            for _ in range(m - k):
                col = mat @ col
            k = m
            alpha = vec_gcd(x.form.s1 @ col)
            alphas.append(alpha)
            invariants.append(Fraction(alpha * alpha, canon.ratio**m))
        conclusive = len(set(invariants)) == len(invariants) and all(
            v != 1 for v in invariants
        )
        return tuple(alphas), tuple(invariants), conclusive

    # powers of the element itself often witness the growth directly
    witness = canon.matrix
    alphas, invariants, conclusive = measure(witness)
    if not conclusive:
        # fall back to the two-sided reduction diag(alpha, core, delta);
        # its powers stay diagonal, so the first-column gcd is exactly
        # alpha^m, and alpha < delta holds for every canonical ratio > 1
        witness = reduce_double_coset(canon).reduced
        alphas, invariants, conclusive = measure(witness)
        if not conclusive:
            raise AssertionError(
                "diagonal witness invariants collided; this contradicts "
                "canonicality of the input and indicates an internal error"
            )
    return NormalizerCertificate(
        x, canon.matrix, canon.ratio, False, "scale-invariant-growth",
        exponents, alphas, invariants, witness,
    )
