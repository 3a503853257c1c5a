"""Scaled orthogonal matrices: coset reduction, base change, certificates.

The main frozen fixture is the corner scaling diag(d^2, d..d, 1), which
scales the extended form by d^2; its reductions and power invariants are
derived by hand in the comments. The hypothesis-violation matrix over the
non-maximal base 4A1 is pinned from a randomized search and demonstrates
that the reductions refuse rather than divide inexactly.
"""

import random
import re
from fractions import Fraction
from functools import cache, cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evenlat
import helpers
from evenlat import (
    ExtendedForm,
    GroupElement,
    HatEmbedding,
    HypothesisViolation,
    LatticeEmbedding,
    Matrix,
    Membership,
    ScaledOrthogonal,
    is_maximal_even,
    make_scaled,
    max_extension_member,
    normalizer_certificate,
    overlattice_from_glue,
    reduce_double_coset,
    reduce_right_coset,
    root_lattice,
)
from evenlat.cosets import DoubleCosetForm, RightCosetForm
from evenlat.matrices import det, vec_gcd
from evenlat.ogroup import _act, base_reflection

A2 = ExtendedForm(root_lattice("A2"))
X = helpers.corner_scaling(6, 2)  # diag(4, 2, 2, 2, 2, 1) over the A2 form

W_WORD = (("J",), ("T", (1, 0, -1, 2)), ("T*", (0, 1, 1, 0)))


# --------------------------------------------------------- scaled orthogonals


def test_make_scaled_infers_ratio():
    x = make_scaled(A2, X)
    assert x.ratio == 4
    assert x.content == 1
    assert x.is_canonical()
    assert x.canonical() is x
    assert make_scaled(A2, Matrix.identity(6)).ratio == 1


def test_scaled_validation():
    with pytest.raises(ValueError):
        ScaledOrthogonal(A2, X, 2)  # wrong ratio
    with pytest.raises(ValueError):
        ScaledOrthogonal(A2, X, 0)
    # X scales by 4: a ratio that only int() would read as 4 is refused
    for bad in (4.9, "4", Fraction(9, 2), True):
        with pytest.raises(ValueError, match="scaling ratio must be integral"):
            ScaledOrthogonal(A2, X, bad)
        with pytest.raises(ValueError, match="scaling ratio must be integral"):
            make_scaled(A2, X, ratio=bad)
    ratio = ScaledOrthogonal(A2, X, Fraction(4)).ratio
    assert ratio == 4 and type(ratio) is int
    with pytest.raises(ValueError):
        ScaledOrthogonal(A2, Matrix.identity(5), 1)  # wrong size
    for m in (Matrix.identity(5), Matrix.identity(7), Matrix([[1] * 6] * 5)):
        with pytest.raises(ValueError, match="wrong size"):
            make_scaled(A2, m)
    with pytest.raises(ValueError):
        ScaledOrthogonal(A2, Matrix([[Fraction(1, 2)] * 6] * 6), 1)
    # det 1 but reversed orientation of the positive 2-plane
    flip = Matrix.diagonal([-1, 1, 1, 1, 1, -1])
    with pytest.raises(ValueError):
        ScaledOrthogonal(A2, flip, 1)
    # orthogonal with det -1: swap the two base coordinates of 2A1
    two = ExtendedForm(root_lattice("2A1"))
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    rows[2], rows[3] = rows[3], rows[2]
    with pytest.raises(ValueError):
        ScaledOrthogonal(two, Matrix(rows), 1)


def test_scaled_power():
    x = make_scaled(A2, X)
    p = x.power(2)
    assert p.ratio == 16
    assert p.matrix == X @ X
    with pytest.raises(ValueError):
        x.power(0)


def test_scaled_is_immutable():
    # the reductions are cached on the object, so its fields cannot change
    x = make_scaled(A2, X)
    d4 = ExtendedForm(root_lattice("D4"))
    for name, value in (("form", d4), ("matrix", X @ X), ("ratio", 16)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, value)
    assert x.form is A2 and x.matrix == X and x.ratio == 4
    p = x.power(2)
    assert (p.ratio, p.matrix) == (16, X @ X)
    raw = make_scaled(A2, helpers.scale_matrix(X, 3), canonicalize=False)
    assert raw.canonical() == x and raw.ratio == 36


def test_content_squared_divides_ratio():
    # R = c W diag(s^2, s, .., s, 1) V scales the form by c^2 s^2; its content
    # is c, so canonicalization divides by exactly c and c^2
    rng = random.Random(83)
    for _ in range(12):
        s, c = rng.randint(1, 4), rng.randint(1, 30)
        w = helpers.random_element(A2, rng, max_len=3)
        v = helpers.random_element(A2, rng, max_len=3)
        r = helpers.scale_matrix(w.matrix @ helpers.corner_scaling(6, s) @ v.matrix, c)
        raw = make_scaled(A2, r, canonicalize=False)
        assert raw.ratio % raw.content**2 == 0
        canon = raw.canonical()
        assert canon.is_canonical() and canon.content == 1
        assert canon.ratio == raw.ratio // raw.content**2
        assert helpers.scale_matrix(canon.matrix, raw.content) == raw.matrix


def test_make_scaled_huge_content_is_fast():
    # canonicalization must not need to factor the content
    import time

    w = A2.element_from_word(W_WORD)
    big = helpers.scale_matrix(w.matrix @ X, 10**40)
    start = time.perf_counter()
    x = make_scaled(A2, big)
    assert time.perf_counter() - start < 1.0
    assert (x.ratio, x.matrix) == (4, w.matrix @ X)


def test_canonicalization_divides_out_content():
    w = A2.element_from_word(W_WORD)
    doubled = helpers.scale_matrix(w.matrix, 2)
    raw = make_scaled(A2, doubled, canonicalize=False)
    assert raw.ratio == 4
    assert raw.content == 2
    assert not raw.is_canonical()
    canon = raw.canonical()
    assert canon.ratio == 1
    assert canon.matrix == w.matrix
    # the default pathway canonicalizes immediately
    assert make_scaled(A2, doubled) == canon


def test_make_scaled_verifies_once(monkeypatch):
    # the ratio is read off one entry of R^t S1 R; the congruence triangle,
    # the sign of det R by a rank modulo an odd prime and one orientation
    # check verify R, with no exact determinant; canonical() divides a
    # verified matrix by its content and checks nothing again
    exact = helpers.record_calls(monkeypatch, "_bareiss")
    signs = helpers.record_calls(monkeypatch, "_rank_mod")
    w = A2.element_from_word(W_WORD)
    x = make_scaled(A2, helpers.scale_matrix(w.matrix @ X, 6), canonicalize=True)
    assert (x.ratio, x.matrix) == (4, w.matrix @ X)
    # ratio 6^2 * 4 = 144 = 12^2 and det S1 = 3: 3 divides both, so the rank
    # of R - 12 I is read mod 5
    assert [c[1:] for c in signs] == [(12, 5)]
    # direct construction still verifies; its power is trusted. Ratio 4 is
    # prime to 3, but A2's det S1 is not
    del signs[:]
    ScaledOrthogonal(A2, x.matrix, 4).power(2)
    assert [c[1:] for c in signs] == [(2, 5)]
    assert exact == []
    with pytest.raises(ValueError, match="scale the form"):
        ScaledOrthogonal(A2, x.matrix, 2)


def _dense_verdict(form, m, ratio):
    """The message ScaledOrthogonal should raise, or None, by dense products
    and the exact Bareiss determinant."""
    if m.T @ form.s1 @ m != form.s1 * ratio:
        return "scale the form"
    if det(m) <= 0:
        return "positive determinant"
    if form._orientation_value(m) <= 0:
        return "oriented positive 2-plane"
    return None


@pytest.mark.parametrize("name", ["A2", "A1", "2A1", "D4"])
def test_scaled_checks_match_dense_oracle(name):
    # random W diag(s^2, s, .., s, 1) V, times an orientation or determinant
    # flip or given a wrong ratio, against MᵀS1M, det M and the orientation
    form = ExtendedForm(root_lattice(name))
    d = form.dim
    rng = random.Random(17)
    # swap a corner pair (det -1, orientation kept); negate-swap one
    # (det -1, orientation reversed); the two together (det 1, reversed)
    swap = [[int(i == j) for j in range(d)] for i in range(d)]
    swap[1][1] = swap[d - 2][d - 2] = 0
    swap[1][d - 2] = swap[d - 2][1] = 1
    neg = [[int(i == j) for j in range(d)] for i in range(d)]
    neg[0][0] = neg[d - 1][d - 1] = 0
    neg[0][d - 1] = neg[d - 1][0] = -1
    flips = [Matrix.identity(d), Matrix(swap), Matrix(neg), Matrix(swap) @ Matrix(neg)]
    seen = set()
    for trial in range(24):
        s = rng.randint(1, 4)
        w = helpers.random_element(form, rng, max_len=3)
        v = helpers.random_element(form, rng, max_len=3)
        flip = flips[trial % 4]
        m = w.matrix @ helpers.corner_scaling(d, s) @ flip @ v.matrix
        ratio = s * s if trial % 3 else s * s + rng.choice([-1, 1, 3])
        expect = _dense_verdict(form, m, ratio) if ratio > 0 else "positive integer"
        seen.add(expect)
        if expect is None:
            assert ScaledOrthogonal(form, m, ratio).ratio == ratio
            assert make_scaled(form, m, canonicalize=False).ratio == ratio
        else:
            with pytest.raises(ValueError, match=expect):
                ScaledOrthogonal(form, m, ratio)
    assert {None, "scale the form", "positive determinant",
            "oriented positive 2-plane"} <= seen


# ----------------------------------------------------------------- right cosets


def test_right_coset_frozen_corner_scaling():
    # first column 4 e0 is already clean: alpha = 4, delta = 1, W = identity
    rc = reduce_right_coset(make_scaled(A2, X))
    assert (rc.alpha, rc.delta, rc.ratio) == (4, 1, 4)
    assert rc.transformer.word == ()
    assert rc.reduced == X
    assert rc.source.matrix == X


def test_right_coset_left_invariance_sweep():
    # alpha and delta are invariants of the left coset: W R reduces like R
    rng = random.Random(61)
    for _ in range(15):
        w = helpers.random_element(A2, rng, max_len=4)
        x = make_scaled(A2, w.matrix @ X, canonicalize=False)
        rc = reduce_right_coset(x)
        assert (rc.alpha, rc.delta) == (4, 1)
        assert rc.reduced == rc.transformer.matrix @ x.matrix
        assert rc.reduced.col(0) == (4, 0, 0, 0, 0, 0)
        assert rc.reduced.row(5) == (0, 0, 0, 0, 0, 1)
        # the transformer is a genuine group element with a word
        assert A2.element_from_word(rc.transformer.word) == rc.transformer


def test_right_coset_alpha_delta_divide_ratio():
    rng = random.Random(67)
    for _ in range(15):
        v = helpers.random_element(A2, rng, max_len=4)
        rc = reduce_right_coset(make_scaled(A2, X @ v.matrix,
                                            canonicalize=False))
        assert rc.alpha * rc.delta == 4
        assert rc.alpha in (1, 2, 4)


def test_right_coset_ratio_one_reduces_to_identity_column():
    rng = random.Random(71)
    g = helpers.random_element(A2, rng, max_len=5)
    rc = reduce_right_coset(make_scaled(A2, g.matrix))
    assert (rc.alpha, rc.delta) == (1, 1)


# ---------------------------------------------------------------- double cosets


def test_double_coset_frozen_corner_scaling():
    dc = reduce_double_coset(make_scaled(A2, X))
    # the entry gcd of X is 1, so the reduction must descend from 4 to 1
    assert (dc.alpha, dc.delta, dc.ratio) == (1, 4, 4)
    assert dc.reduced[0, 0] == 1
    assert dc.reduced[5, 5] == 4
    assert dc.core.T @ A2.s0 @ dc.core == 4 * A2.s0
    assert dc.left.matrix @ X @ dc.right.matrix == dc.reduced


def test_double_coset_content_two():
    w = A2.element_from_word(W_WORD)
    doubled = make_scaled(A2, helpers.scale_matrix(w.matrix, 2),
                          canonicalize=False)
    dc = reduce_double_coset(doubled)
    assert (dc.alpha, dc.delta) == (2, 2)
    assert dc.reduced == helpers.scale_matrix(
        dc.left.matrix @ w.matrix @ dc.right.matrix, 2
    )


def test_double_coset_two_sided_invariance_sweep():
    rng = random.Random(73)
    for _ in range(12):
        w = helpers.random_element(A2, rng, max_len=3)
        v = helpers.random_element(A2, rng, max_len=3)
        x = make_scaled(A2, w.matrix @ X @ v.matrix, canonicalize=False)
        dc = reduce_double_coset(x)
        assert (dc.alpha, dc.delta) == (1, 4)
        assert dc.left.word is not None and dc.right.word is not None
        assert dc.left.matrix @ x.matrix @ dc.right.matrix == dc.reduced


def test_double_coset_alpha_equals_entry_gcd():
    rng = random.Random(79)
    d4 = ExtendedForm(root_lattice("D4"))
    y = helpers.corner_scaling(d4.dim, 3)  # ratio 9
    for _ in range(6):
        w = helpers.random_element(d4, rng, max_len=3)
        v = helpers.random_element(d4, rng, max_len=3)
        x = make_scaled(d4, w.matrix @ y @ v.matrix, canonicalize=False)
        dc = reduce_double_coset(x)
        src_gcd = vec_gcd(e for row in x.matrix.rows for e in row)
        assert dc.alpha == src_gcd
        assert dc.alpha * dc.delta == 9
        assert dc.delta % dc.alpha == 0
        assert dc.core.T @ d4.s0 @ dc.core == 9 * d4.s0


def test_probe_columns_match_token_action():
    # each probe column is T*(lam) e0 in closed form, e0 + (0, lam, 0) -
    # q(lam) e_last, against the token applied to e0
    for name in ("A2", "D4", "E8", "4A1"):
        form = ExtendedForm(root_lattice(name))
        d, n = form.dim, form.n
        probes = form._probes
        units = [tuple(int(i == j) for j in range(n + 2)) for i in range(n + 2)]
        assert [lam for lam, _ in probes] == units + [(1,) + (0,) * n + (1,)]
        for lam, col in probes:
            dense = [0] * d
            for j, c in col:
                dense[j] += c
            e0 = [int(i == 0) for i in range(d)]
            _act(form._parts("T*", lam), e0)
            assert dense == e0, (name, lam)


def test_double_coset_forms_dense_products_only_in_its_final_check(monkeypatch):
    # the transformers and t are formed by token actions on the words the
    # reduction carries; the only d x d products are those of the final
    # check left @ x @ right == t, and every check still runs: one
    # classify_witness, so one gate, per completion, and one packed
    # congruence per gate plus the core's
    d4 = ExtendedForm(root_lattice("D4"))
    rng = random.Random(10)
    w = helpers.random_element(d4, rng, max_len=3)
    v = helpers.random_element(d4, rng, max_len=3)
    x = make_scaled(d4, w.matrix @ helpers.corner_scaling(d4.dim, 3) @ v.matrix,
                    canonicalize=False)
    products = helpers.record_calls(monkeypatch, "__matmul__", owner=Matrix)
    done = helpers.record_calls(monkeypatch, "_complete", owner=ExtendedForm)
    witnesses = helpers.record_calls(monkeypatch, "classify_witness", owner=ExtendedForm)
    gates = helpers.record_calls(monkeypatch, "_gate", owner=ExtendedForm)
    congruences = helpers.record_calls(monkeypatch, "_congruence_mismatch")
    dc = reduce_double_coset(x)
    dense = [(a, b) for a, b in products if isinstance(b, Matrix)]
    assert len(dense) == 2
    assert dense[0] == (dc.left.matrix, x.matrix)
    assert dense[1][1] == dc.right.matrix
    # the right-coset completion, and one more on each side
    assert len(done) >= 3
    assert len(dc.left.word) > len(reduce_right_coset(x).transformer.word)
    assert ("J",) in dc.right.word
    assert len(witnesses) == len(gates) == len(done)
    assert len(congruences) == len(gates) + 1
    assert dc.left.matrix @ x.matrix @ dc.right.matrix == dc.reduced


def test_double_coset_ratio_one():
    rng = random.Random(83)
    g = helpers.random_element(A2, rng, max_len=5)
    dc = reduce_double_coset(make_scaled(A2, g.matrix))
    assert (dc.alpha, dc.delta) == (1, 1)
    assert dc.core.T @ A2.s0 @ dc.core == A2.s0


# ------------------------------------------------ verification oracles


D4 = ExtendedForm(root_lattice("D4"))


def random_scaled(form, rng):
    """c W diag(s^2, s, .., s, 1) V, kept as given (not canonicalized)."""
    s, c = rng.randint(1, 3), rng.randint(1, 2)
    w = helpers.random_element(form, rng, max_len=4)
    v = helpers.random_element(form, rng, max_len=4)
    r = w.matrix @ helpers.corner_scaling(form.dim, s) @ v.matrix
    return make_scaled(form, helpers.scale_matrix(r, c), canonicalize=False)


@pytest.mark.parametrize("form,seed", [(A2, 149), (D4, 151)])
def test_coset_reductions_invert_each_completion_token_once(form, seed, monkeypatch):
    # a completion inverts each token it applies once, for its own word; the
    # right-coset transformer and the double coset's left cleanings take the
    # applied tokens reversed and invert none again
    rng = random.Random(seed)
    inverted = helpers.record_calls(monkeypatch, "_parts_inverse", owner=evenlat.ogroup)
    applied = []
    complete = ExtendedForm._complete

    def recording(self, h):
        out = complete(self, h)
        applied.extend(out[1])
        return out

    monkeypatch.setattr(ExtendedForm, "_complete", recording)
    for _ in range(3):
        x = random_scaled(form, rng)
        del inverted[:], applied[:]
        reduce_double_coset(x)  # starts from the right-coset form
        assert len(inverted) == len(applied) > 0
        # the right-coset transformer is the completion's inverse, word and all
        rc = reduce_right_coset(x)
        h = tuple(v // rc.alpha for v in x.matrix.col(0))
        assert rc.transformer.word == form.complete_isotropic(h).inverse().word


@pytest.mark.parametrize("form,seed", [(A2, 131), (D4, 137)])
def test_power_is_trusted_and_matches_verified(form, seed, monkeypatch):
    # R^m scales S1 by r^m by construction: power runs no determinant, and
    # the same matrix and ratio pass the full verification
    rng = random.Random(seed)
    for _ in range(3):
        x = random_scaled(form, rng)
        for m in (1, 2, 3):
            dets = helpers.record_calls(monkeypatch, "det")
            p = x.power(m)
            assert dets == []
            monkeypatch.undo()
            assert p == ScaledOrthogonal(form, x.matrix**m, x.ratio**m)


def is_kernel_word(form, g):
    # recomputed from scratch: the word rebuilds the matrix, which is
    # classified as a whole
    return (form.element_from_word(g.word).matrix == g.matrix
            and form.classify(g.matrix) == Membership.DISCRIMINANT_KERNEL)


def right_oracle(form, x, red):
    d = form.dim
    return {
        "transformer is a kernel word": is_kernel_word(form, red.transformer),
        "reduced = transformer @ input":
            red.reduced == red.transformer.matrix @ x.matrix,
        "first column is alpha * e0":
            red.reduced.col(0) == tuple(red.alpha * (i == 0) for i in range(d)),
        "alpha * delta = ratio": red.alpha * red.delta == x.ratio,
        "alpha = gcd of first-column pairings":
            red.alpha == vec_gcd(form.s1 @ x.matrix.col(0)),
    }


def double_oracle(form, x, red):
    d = form.dim
    return {
        "left and right are kernel words":
            is_kernel_word(form, red.left) and is_kernel_word(form, red.right),
        "reduced = left @ input @ right":
            red.reduced == red.left.matrix @ x.matrix @ red.right.matrix,
        "reduced is diag(alpha, core, delta)":
            red.reduced.col(0) == tuple(red.alpha * (i == 0) for i in range(d))
            and red.reduced.row(d - 1)
            == tuple(red.delta * (i == d - 1) for i in range(d))
            and red.reduced.submatrix(range(1, d - 1), range(1, d - 1)) == red.core
            and all(red.reduced[0, j] == red.reduced[j, 0] == 0
                    for j in range(1, d))
            and all(red.reduced[d - 1, j] == red.reduced[j, d - 1] == 0
                    for j in range(d - 1)),
        "core scales the middle form by the ratio":
            red.core.T @ form.s0 @ red.core == x.ratio * form.s0,
        "alpha = gcd of all input entries":
            red.alpha == vec_gcd(e for row in x.matrix.rows for e in row),
        "alpha * delta = ratio": red.alpha * red.delta == x.ratio,
    }


@pytest.mark.parametrize("form,seed", [(A2, 101), (D4, 103)])
def test_reduction_checks_hold_by_oracle(form, seed):
    # every identity a reduction reports as checked is recomputed here,
    # including classify of the transformers the library does not classify
    rng = random.Random(seed)
    for _ in range(8):
        x = random_scaled(form, rng)
        right = right_oracle(form, x, reduce_right_coset(x))
        assert tuple(right) == RightCosetForm.checks
        assert all(right.values()), right
        double = double_oracle(form, x, reduce_double_coset(x))
        assert tuple(double) == DoubleCosetForm.checks
        assert all(double.values()), double


def test_reductions_are_cached_and_reused(monkeypatch):
    # right -> double -> certificate on one canonical object: the double
    # starts from the cached right-coset form, one completion fewer than a
    # double on a freshly built equal object, and the certificate reads the
    # cached double; each form is computed once and passes the oracles
    completed = helpers.count_calls(monkeypatch, "_complete")
    rng = random.Random(139)
    # the first raw-power invariants collide, so its certificate falls back
    # to the double coset (test_certificate_diagonal_fallback)
    inputs = [make_scaled(A2, A2.involution().matrix @ X
                          @ A2.transvection((1, 0, 0, 0)).matrix)]
    for form in (A2, D4):
        for _ in range(3):
            w = helpers.random_element(form, rng, max_len=3)
            v = helpers.random_element(form, rng, max_len=3)
            s = rng.randint(2, 3)
            inputs.append(make_scaled(
                form, w.matrix @ helpers.corner_scaling(form.dim, s) @ v.matrix))
    fallbacks = 0
    for x in inputs:
        form = x.form
        fresh = ScaledOrthogonal(form, x.matrix, x.ratio)
        assert fresh == x and fresh is not x
        del completed[:]
        fresh_dc = reduce_double_coset(fresh)
        fresh_count = len(completed)
        del completed[:]
        rc = reduce_right_coset(x)
        assert len(completed) == 1
        del completed[:]
        dc = reduce_double_coset(x)
        assert len(completed) == fresh_count - 1
        del completed[:]
        cert = normalizer_certificate(x)
        assert completed == []
        assert reduce_right_coset(x) is rc and reduce_double_coset(x) is dc
        if cert.witness_matrix is not x.matrix:
            fallbacks += 1
            assert cert.witness_matrix is dc.reduced
        assert all(right_oracle(form, x, rc).values())
        assert all(double_oracle(form, x, dc).values())
        fresh_rc = reduce_right_coset(fresh)
        assert rc == fresh_rc and rc.transformer.word == fresh_rc.transformer.word
        assert dc == fresh_dc
        assert (dc.left.word, dc.right.word) == (fresh_dc.left.word, fresh_dc.right.word)
    assert fallbacks >= 1


@pytest.mark.parametrize("form,seed", [(A2, 107), (D4, 109)])
def test_certificate_invariants_match_verified_powers(form, seed):
    # the running product in the certificate against powers verified from
    # scratch as scaled matrices
    rng = random.Random(seed)
    for _ in range(4):
        cert = normalizer_certificate(random_scaled(form, rng), exponents=(1, 2, 4))
        if cert.in_normalizer:
            continue
        witness = ScaledOrthogonal(form, cert.witness_matrix, cert.canonical_ratio)
        for m, alpha, inv in zip(cert.exponents, cert.corner_gcds, cert.invariants):
            p = ScaledOrthogonal(form, witness.matrix**m, witness.ratio**m)
            assert alpha == vec_gcd(form.s1 @ p.matrix.col(0))
            assert inv == Fraction(alpha * alpha, p.ratio)


@pytest.mark.parametrize("form,seed", [(A2, 113), (D4, 127)])
def test_reductions_classify_once_per_completion(form, seed, monkeypatch):
    classified = helpers.count_calls(monkeypatch, "classify_witness")
    completed = helpers.count_calls(monkeypatch, "_complete")
    rng = random.Random(seed)
    for _ in range(6):
        x = random_scaled(form, rng)
        assert classified == completed == []  # building inputs classifies nothing
        reduce_right_coset(x)
        assert len(classified) == len(completed) == 1
        del classified[:], completed[:]
        reduce_double_coset(x)
        assert len(classified) == len(completed)
        del classified[:], completed[:]


def test_double_coset_memory_stays_bounded():
    # no per-token state on the form: 300 reductions leave it as it was
    import sys

    def footprint():
        return {k: sys.getsizeof(v) for k, v in vars(D4).items()}

    before = footprint()
    rng = random.Random(131)
    for _ in range(300):
        reduce_double_coset(random_scaled(D4, rng))
    assert footprint() == before


# --------------------------------------------------- hypothesis violations


def test_hypothesis_violation_frozen_matrix():
    form = ExtendedForm(root_lattice("4A1"))
    x = make_scaled(form, Matrix(helpers.HYPOTHESIS_VIOLATOR_4A1))
    assert x.ratio == 4
    with pytest.raises(HypothesisViolation):
        reduce_right_coset(x)
    with pytest.raises(HypothesisViolation):
        reduce_double_coset(x)


def test_violation_message_names_the_guarantee():
    form = ExtendedForm(root_lattice("4A1"))
    x = make_scaled(form, Matrix(helpers.HYPOTHESIS_VIOLATOR_4A1))
    with pytest.raises(HypothesisViolation, match="maximal even"):
        reduce_right_coset(x)


def test_core_violation_frozen_matrix():
    # the right reduction succeeds; the double ends with corner 2 over a core
    # with odd entries and refuses instead of failing an internal assertion
    form = ExtendedForm(root_lattice("4A1"))
    x = make_scaled(form, Matrix(helpers.CORE_VIOLATOR_4A1))
    assert (x.ratio, x.content) == (4, 1)
    assert all(right_oracle(form, x, reduce_right_coset(x)).values())
    with pytest.raises(HypothesisViolation, match="core is not divisible"):
        reduce_double_coset(x)


@cache
def glued_4a1():
    lat = root_lattice("4A1")
    (glue,) = lat.discriminant_group().maximal_isotropic_subgroups()
    return HatEmbedding(overlattice_from_glue(lat, glue)[1])


PROPERTY_FORMS = {name: ExtendedForm(root_lattice(name)) for name in ("A2", "D4", "E6")}


def tokens(n):
    lam = st.tuples(*[st.integers(-2, 2)] * (n + 2))
    return st.one_of(st.just(("J",)), st.tuples(st.sampled_from(["T", "T*"]), lam))


@st.composite
def scaled_matrices(draw):
    """(form, c W diag(s^2, s, .., s, 1) V) over A2, D4, E6 or 4A1. Over 4A1
    the product is also drawn over the glued overlattice D4, pulled down and
    cleared of its denominator, which can break the reduction hypothesis."""
    name = draw(st.sampled_from(["A2", "D4", "E6", "4A1"]))
    pulled = name == "4A1" and draw(st.booleans())
    form = glued_4a1().sub_form if name == "4A1" else PROPERTY_FORMS[name]
    over = glued_4a1().sup_form if pulled else form
    w, v = (over.element_from_word(draw(st.lists(tokens(over.n), min_size=1, max_size=3)))
            for _ in range(2))
    s, c = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = w.matrix @ helpers.corner_scaling(over.dim, s) @ v.matrix
    if pulled:
        m = glued_4a1().pull(m)
        m = m * m.den
    return form, helpers.scale_matrix(m, c)


@settings(max_examples=60, deadline=None)
@given(scaled_matrices())
def test_reductions_pass_oracles_or_violate_hypothesis(case):
    # each reduction passes its oracle or raises HypothesisViolation; the
    # double starts from the right coset, so it never passes where the right
    # refused; over the maximal bases A2, D4 and E6 both always pass
    form, m = case
    x = make_scaled(form, m, canonicalize=False)
    passed = []
    for reduce, oracle in ((reduce_right_coset, right_oracle),
                           (reduce_double_coset, double_oracle)):
        try:
            red = reduce(x)
        except HypothesisViolation:
            passed.append(False)
            continue
        checks = oracle(form, x, red)
        assert all(checks.values()), checks
        passed.append(True)
    right_ok, double_ok = passed
    assert right_ok or not double_ok
    if is_maximal_even(form.base):
        assert right_ok and double_ok


def test_reductions_fine_over_non_maximal_base_when_divisible():
    # non-maximal bases are fine as long as every division is exact:
    # the corner scaling over 4A1 reduces without complaint
    form = ExtendedForm(root_lattice("4A1"))
    x = make_scaled(form, helpers.corner_scaling(form.dim, 2))
    rc = reduce_right_coset(x)
    assert rc.alpha * rc.delta == 4
    dc = reduce_double_coset(x)
    assert dc.alpha * dc.delta == 4


# ------------------------------------------------------------- hat embeddings


@pytest.fixture(scope="module")
def glued():
    return glued_4a1()


def test_hat_embedding_frozen_matrix(glued):
    # base change rows: glue vector doubles, others subtract it
    assert glued.base_embedding.matrix == Matrix(
        [[2, 0, 0, 0], [-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]]
    )
    assert glued.base_embedding.index == 2
    d = glued.sub_form.dim
    assert glued.matrix.submatrix([0, 1, d - 2, d - 1],
                                  [0, 1, d - 2, d - 1]) == Matrix.identity(4)


def test_hat_push_carries_generators(glued):
    sub, sup = glued.sub_form, glued.sup_form
    assert glued.push(sub.involution()) == sup.involution().matrix
    lam = (1, 2, -1, 0, 1, 3)
    mhat = [
        [int(i == j) for j in range(6)] for i in range(6)
    ]
    for i in range(4):
        for j in range(4):
            mhat[1 + i][1 + j] = glued.base_embedding.matrix[i, j]
    mlam = Matrix(mhat) @ lam
    assert glued.push(sub.transvection(lam)) == sup.transvection(mlam).matrix
    assert glued.pull(glued.push(sub.dual_transvection(lam))) == \
        sub.dual_transvection(lam).matrix


def test_hat_pull_detects_non_extension(glued):
    sup, sub = glued.sup_form, glued.sub_form
    # the transvection along the glue vector does not come from downstairs
    pulled = glued.pull(sup.transvection((0, 1, 0, 0, 0, 0)))
    assert not pulled.is_integral
    assert sub.classify(pulled) == Membership.SPECIAL_PLUS
    # transvections along the unglued base directions do
    for i in (0, 2, 3, 4, 5):
        lam = tuple(int(j == i) for j in range(6))
        back = glued.pull(sup.transvection(lam))
        assert back.is_integral
        assert sub.classify(back) == Membership.DISCRIMINANT_KERNEL


def test_max_extension_member_levels(glued):
    sub = glued.sub_form
    rng = random.Random(89)
    # kernel words act trivially on every discriminant form: they extend
    for _ in range(8):
        g = helpers.random_element(sub, rng, max_len=3)
        assert max_extension_member(glued, g) == Membership.DISCRIMINANT_KERNEL
    # coordinate swap (12)(34): extends and lands in the upstairs kernel
    perm = sub.embed_rotation(
        Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    )
    assert perm.classify() == Membership.INTEGRAL_SPECIAL_PLUS
    assert max_extension_member(glued, perm) == Membership.DISCRIMINANT_KERNEL
    # 3-cycle: extends integrally but acts on the upstairs discriminant
    cyc = sub.embed_rotation(
        Matrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    )
    assert max_extension_member(glued, cyc) == Membership.INTEGRAL_SPECIAL_PLUS


@pytest.fixture(scope="module")
def d8_plus():
    lat = root_lattice("D8")
    glue = lat.discriminant_group().maximal_isotropic_subgroups()[0]
    _, emb = overlattice_from_glue(lat, glue)
    return HatEmbedding(emb)


def _hat_samples(form, rng):
    """A random kernel word and a product of two or four root reflections."""
    lat = form.base
    n = lat.rank
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots = [v for v in units + [tuple(a + s * b for a, b in zip(u, w))
                                 for u in units for w in units if u < w
                                 for s in (1, -1)]
             if lat.norm(v) == 2]
    q = Matrix.identity(n)
    for _ in range(2 * rng.randint(1, 2)):
        q = q @ base_reflection(lat, rng.choice(roots))
    return helpers.random_element(form, rng, max_len=4), form.embed_rotation(q)


def test_hat_inverse_matches_gauss_jordan(glued, d8_plus):
    # push and pull against the Gauss-Jordan inverse of the hat matrix
    rng = random.Random(97)
    for hat in (glued, d8_plus):
        h, inv = hat.matrix, helpers.inverse(hat.matrix)
        for _ in range(6):
            for g in _hat_samples(hat.sub_form, rng):
                assert hat.push(g) == h @ g.matrix @ inv
            for g in _hat_samples(hat.sup_form, rng):
                assert hat.pull(g) == inv @ g.matrix @ h


def test_hat_identity_embedding():
    lat = root_lattice("A2")
    hat = HatEmbedding(LatticeEmbedding(lat, lat, Matrix.identity(2)))
    g = hat.sub_form.involution()
    assert hat.push(g) == g.matrix
    assert max_extension_member(hat, g) == Membership.DISCRIMINANT_KERNEL


def test_hat_refuses_an_element_of_the_other_form(d8_plus):
    # D8 and D8+ both give forms of size 12, so no shape check tells them
    # apart: push takes elements of the small form only, pull of the big one
    hat = d8_plus
    e0 = (1,) + (0,) * 9
    for form, ok, other in ((hat.sub_form, hat.push, hat.pull),
                            (hat.sup_form, hat.pull, hat.push)):
        g = form.transvection(e0)
        for elem in (g, ScaledOrthogonal(form, g.matrix, 1)):
            with pytest.raises(ValueError, match="does not live over"):
                other(elem)
            assert ok(elem) == ok(g.matrix)
        # a plain matrix is taken as given
        assert other(g.matrix).shape == (12, 12)


def test_transport_checks_run_the_congruence_kernel(monkeypatch):
    # the hat embedding's transport HᵀS1'H = S1 and a base reflection's
    # mᵀSm = S are on sparse lattice-side rows: each is one call of the
    # sparse kernel _congruent, and none of the packed group-matrix reader
    lat = root_lattice("D8")
    glue = lat.discriminant_group().maximal_isotropic_subgroups()[0]
    _, emb = overlattice_from_glue(lat, glue)
    calls = helpers.record_calls(monkeypatch, "_congruent")
    packed = helpers.record_calls(monkeypatch, "_congruence_mismatch")
    hat = HatEmbedding(emb)
    assert len(calls) == 1
    h = hat.matrix
    assert h.T @ hat.sup_form.s1 @ h == hat.sub_form.s1
    r = base_reflection(lat, (0, 1, 0, 0, 0, 0, 0, 0))
    assert len(calls) == 2
    assert r.T @ lat.gram @ r == lat.gram
    assert packed == []


def test_hat_rejects_rank_change():
    a1, d4 = root_lattice("A1"), root_lattice("D4")
    emb = LatticeEmbedding(a1, d4, Matrix([[1], [0], [0], [0]]))
    with pytest.raises(ValueError):
        HatEmbedding(emb)


# ------------------------------------------------------ normalizer certificates


def test_certificate_growth_frozen():
    cert = normalizer_certificate(make_scaled(A2, X))
    assert not cert.in_normalizer
    assert cert.kind == "scale-invariant-growth"
    assert cert.exponents == (1, 2, 3)
    assert cert.corner_gcds == (4, 16, 64)
    assert cert.invariants == (Fraction(4), Fraction(16), Fraction(64))
    assert "pairwise distinct" in cert.describe()
    assert cert.canonical_ratio == 4


def test_certificate_witnessed_by_own_powers():
    # the corner matrix is already two-sided reduced, so its own powers
    # carry the growth and no fallback reduction is needed
    cert = normalizer_certificate(make_scaled(A2, X))
    assert cert.witness_matrix == cert.canonical_matrix == X


def test_certificate_diagonal_fallback():
    # J @ X @ T(e0) has raw-power invariants (4, 1, 4): the value 1 and the
    # repeat make them useless as a witness, so the certificate must fall
    # back to the two-sided diagonal reduction of the element
    y = make_scaled(
        A2, A2.involution().matrix @ X @ A2.transvection((1, 0, 0, 0)).matrix
    )
    raw = []
    for m in (1, 2, 3):
        p = y.power(m)
        alpha = vec_gcd(A2.s1 @ p.matrix.col(0))
        raw.append(Fraction(alpha * alpha, p.ratio))
    assert raw == [Fraction(4), Fraction(1), Fraction(4)]

    cert = normalizer_certificate(y)
    assert not cert.in_normalizer
    assert cert.kind == "scale-invariant-growth"
    assert cert.witness_matrix != cert.canonical_matrix
    assert cert.witness_matrix == Matrix(
        [[1, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0],
         [0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 4]]
    )
    assert cert.corner_gcds == (1, 1, 1)
    assert cert.invariants == (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64))
    assert cert.witness_matrix.T @ A2.s1 @ cert.witness_matrix == 4 * A2.s1


def test_certificate_walks_columns_and_content_once(monkeypatch):
    # a conclusive certificate walks the first column of each power by
    # mat-vec products and forms no matrix-by-matrix product; the content of
    # each object is walked once, however often it is read, also by the
    # double reduction of a certificate that falls back to it
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(
        Matrix, "__matmul__",
        lambda a, b: (isinstance(b, Matrix) and products.append(b)) or matmul(a, b))
    walks = []
    content = ScaledOrthogonal.content.func
    counted = cached_property(lambda x: walks.append(x) or content(x))
    counted.__set_name__(ScaledOrthogonal, "content")
    monkeypatch.setattr(ScaledOrthogonal, "content", counted)
    x = make_scaled(A2, helpers.scale_matrix(X, 3))
    for exponents in ((1, 2, 3), (1, 2, 5)):
        cert = normalizer_certificate(x, exponents)
        assert cert.witness_matrix is x.matrix and products == []
        assert cert.corner_gcds == tuple(4**m for m in exponents)
    y = make_scaled(
        A2, A2.involution().matrix @ X @ A2.transvection((1, 0, 0, 0)).matrix)
    cert = normalizer_certificate(y)  # falls back to the double reduction
    assert cert.witness_matrix is reduce_double_coset(y).reduced
    assert (x.content, y.content) == (1, 1)
    # 3X, its canonical form x, and y, which is canonical already
    assert len(walks) == len({id(w) for w in walks}) == 3


def test_certificate_custom_exponents():
    cert = normalizer_certificate(make_scaled(A2, X), exponents=(2, 5))
    assert cert.exponents == (2, 5)
    assert cert.corner_gcds == (16, 1024)
    assert cert.invariants == (Fraction(16), Fraction(1024))


def test_certificate_integral_member():
    w = A2.element_from_word(W_WORD)
    doubled = make_scaled(A2, helpers.scale_matrix(w.matrix, 2),
                          canonicalize=False)
    cert = normalizer_certificate(doubled)
    assert cert.in_normalizer
    assert cert.kind == "integral-member"
    assert cert.canonical_ratio == 1
    assert cert.canonical_matrix == w.matrix
    assert "normalizes the group" in cert.describe()


def test_certificate_requires_maximal_base():
    a7 = ExtendedForm(root_lattice("A7"))  # 8 = (7+1)/2 * 2: not maximal
    x = make_scaled(a7, helpers.corner_scaling(a7.dim, 2))
    with pytest.raises(ValueError, match="maximal even"):
        normalizer_certificate(x)


def test_certificate_exponent_validation():
    x = make_scaled(A2, X)
    with pytest.raises(ValueError):
        normalizer_certificate(x, exponents=())
    with pytest.raises(ValueError):
        normalizer_certificate(x, exponents=(0, 1))


def test_certificate_exponents_are_strict_integers():
    # exponents are read through the strict integer check: nothing is
    # truncated or parsed, and the message names the argument
    x = make_scaled(A2, X)
    member = make_scaled(A2, A2.element_from_word(W_WORD).matrix)
    for bad in (1.5, "2", True):
        for y in (x, member):
            with pytest.raises(ValueError,
                               match=f"exponents must be integral, got {re.escape(repr(bad))}"):
                normalizer_certificate(y, exponents=(1, bad))
    with pytest.raises(ValueError, match="exponents must be integral"):
        normalizer_certificate(x, exponents=(1.5, "2", True))
    cert = normalizer_certificate(x, exponents=(Fraction(2), 1, 2))
    assert cert.exponents == (1, 2) and cert.corner_gcds == (4, 16)


def test_certificate_scaling_stable():
    # rescaling the matrix along its ray does not change the verdict
    x = make_scaled(A2, X)
    scaled_up = make_scaled(A2, helpers.scale_matrix(X, 3),
                            canonicalize=False)
    assert scaled_up.ratio == 36
    cert = normalizer_certificate(scaled_up)
    assert not cert.in_normalizer
    assert cert.canonical_ratio == 4
    assert cert.corner_gcds == normalizer_certificate(x).corner_gcds
