"""Extended forms, membership classification, generators, and completion.

Independent oracles: the small Gram matrices and generator matrices are
written out by hand below from the coordinate layout (0 pairs with the last
index, 1 with the second-to-last, the negated base in between); isotropy
and primitivity of the frozen vectors are checked by hand arithmetic in the
comments.
"""

import random
from fractions import Fraction

import pytest

import helpers
from evenlat import (
    CapExceeded,
    EvenLattice,
    ExtendedForm,
    Matrix,
    Membership,
    det,
    is_maximal_even,
    root_lattice,
)
from evenlat import matrices, ogroup
from evenlat.ogroup import base_reflection

A1 = ExtendedForm(root_lattice("A1"))
A2 = ExtendedForm(root_lattice("A2"))


# ----------------------------------------------------------------- form shape


def test_extended_gram_frozen_a1():
    assert A1.dim == 5 and A1.n == 1
    assert A1.s1 == Matrix([
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, -2, 0, 0],
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    assert A1.s0 == Matrix([[0, 0, 1], [0, -2, 0], [1, 0, 0]])
    assert det(A1.s1) == -2
    # _dual takes row i of S1 to s1_det·e_i: it applies s1_det·S1^{-1}
    assert A1.s1_det == 2
    assert [A1._dual(r) for r in A1.s1.num] == [[2 * (i == j) for j in range(5)]
                                                for i in range(5)]


def test_extended_gram_a2_and_signature():
    assert det(A2.s1) == 3
    for form, n in ((A1, 1), (A2, 2), (ExtendedForm(root_lattice("D4")), 4)):
        assert helpers.signature(form.s1) == (2, n + 2, 0)
        # the base block sits negated in the middle
        assert form.s1.submatrix(range(2, 2 + n), range(2, 2 + n)) == -(
            form.base.gram
        )
        assert form.quad(tuple(int(i == 0) for i in range(form.dim))) == 0


def test_constructor_type_check():
    with pytest.raises(TypeError):
        ExtendedForm("A2")


def test_constructor_rejects_indefinite_base():
    # even of determinant -5: S1 would have signature (3, 3), not (2, 4)
    indefinite = EvenLattice(Matrix([[2, 1], [1, -2]]))
    with pytest.raises(ValueError, match="positive definite"):
        ExtendedForm(indefinite)


def test_quad_values():
    # by hand over A1: 2 h0 h4 + 2 h1 h3 - 2 h2^2
    assert A1.quad((1, 0, 0, 0, 1)) == 2
    assert A1.quad((1, 9, 3, 1, 0)) == 0
    assert A1.quad((0, 0, 1, 0, 0)) == -2
    assert A1.mid_quad_half((0, 1, 0)) == -1
    assert A1.mid_quad_half((1, 0, 3)) == 3


# ----------------------------------------------------------------- generators


def test_involution_frozen():
    j = A1.involution()
    assert j.matrix == Matrix([
        [0, 0, 0, 0, -1],
        [0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
    ])
    assert (j @ j).matrix == Matrix.identity(5)
    assert j.word == (("J",),)
    assert j.in_discriminant_kernel()


def test_transvection_frozen():
    # lam = middle unit vector: S0 lam = (0, -2, 0), half-norm -1
    t = A1.transvection((0, 1, 0))
    assert t.matrix == Matrix([
        [1, 0, 2, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ])
    assert t.in_discriminant_kernel()
    t2 = A1.dual_transvection((0, 1, 0))
    assert t2.matrix == Matrix([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 0, 2, 0, 1],
    ])
    assert t2.in_discriminant_kernel()


def test_transvection_additive():
    rng = random.Random(7)
    for form in (A1, A2):
        for _ in range(10):
            a = tuple(rng.randint(-3, 3) for _ in range(form.n + 2))
            b = tuple(rng.randint(-3, 3) for _ in range(form.n + 2))
            ab = tuple(x + y for x, y in zip(a, b))
            assert (form.transvection(a) @ form.transvection(b)).matrix == \
                form.transvection(ab).matrix
            assert (
                form.dual_transvection(a) @ form.dual_transvection(b)
            ).matrix == form.dual_transvection(ab).matrix


def test_involution_twists_transvections():
    # J T(lam) J = T*(sigma lam) where sigma swaps the two hyperbolic
    # slots and negates the base block (and symmetrically for T*)
    rng = random.Random(11)
    for form in (A1, A2):
        j = form.involution().matrix
        for _ in range(10):
            lam = tuple(rng.randint(-3, 3) for _ in range(form.n + 2))
            sig = (lam[-1],) + tuple(-x for x in lam[1:-1]) + (lam[0],)
            assert j @ form.transvection(lam).matrix @ j == \
                form.dual_transvection(sig).matrix
            assert j @ form.dual_transvection(lam).matrix @ j == \
                form.transvection(sig).matrix


def test_transvection_validation():
    with pytest.raises(ValueError):
        A1.transvection((1, 0))  # wrong length
    with pytest.raises(ValueError):
        A1.transvection((Fraction(1, 2), 0, 0))
    with pytest.raises(ValueError):
        A1.element_from_word((("X", (0, 0, 0)),))


def test_element_from_word_and_inverse():
    word = (("J",), ("T", (1, 0, -1)), ("T*", (0, 2, 1)))
    g = A1.element_from_word(word)
    assert g.word == word
    inv = g.inverse()
    assert (g @ inv).matrix == Matrix.identity(5)
    assert inv.word == (("T*", (0, -2, -1)), ("T", (-1, 0, 1)), ("J",))
    # the recorded word reproduces the matrix
    assert A1.element_from_word(inv.word).matrix == inv.matrix


def test_group_element_operations():
    g = A1.element_from_word((("T", (1, 1, 0)),))
    assert (g ** 0).matrix == Matrix.identity(5)
    assert (g ** 3).matrix == (g @ g @ g).matrix
    assert (g ** -2).matrix == (g.inverse() @ g.inverse()).matrix
    assert g == A1.transvection((1, 1, 0))
    assert hash(g) == hash(A1.transvection((1, 1, 0)))
    with pytest.raises(ValueError):
        g @ A2.involution()  # different forms


def test_power_matches_repeated_products():
    # words and matrices of g**k against k-fold products of g (of its
    # inverse for k < 0), for an element with a word and one without
    rng = random.Random(23)
    for g in (helpers.random_element(A2, rng), A2.embed_rotation(-Matrix.identity(2))):
        for k in range(-2, 6):
            step = g if k >= 0 else g.inverse()
            expect = A2.identity()
            for _ in range(abs(k)):
                expect = expect @ step
            got = g**k
            assert got.matrix == expect.matrix and got.word == expect.word, k


def test_group_element_validation():
    from evenlat import GroupElement

    with pytest.raises(ValueError):
        GroupElement(A1, helpers.corner_scaling(5, 2))  # scales, not preserves
    with pytest.raises(ValueError):
        GroupElement(A1, Matrix([[Fraction(1, 2)] * 5] * 5))  # not integral


# -------------------------------------------------------------- classification


def test_classify_chain_frozen():
    d = A2.dim
    assert A2.classify(Matrix.identity(d)) == Membership.DISCRIMINANT_KERNEL
    # -identity: integral, special, plus-oriented, but acts as -1 on Z/3
    assert A2.classify(-Matrix.identity(d)) == Membership.INTEGRAL_SPECIAL_PLUS
    # flipping one hyperbolic pair keeps det 1 but reverses the 2-plane
    flip = Matrix.diagonal([-1] + [1] * (d - 2) + [-1])
    assert A2.classify(flip) == Membership.SPECIAL
    # swapping the two base coordinates of 2A1 is orthogonal with det -1
    two = ExtendedForm(root_lattice("2A1"))
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    rows[2], rows[3] = rows[3], rows[2]
    assert two.classify(Matrix(rows)) == Membership.ORTHOGONAL
    assert A2.classify(2 * Matrix.identity(d)) == Membership.NOT_ORTHOGONAL
    with pytest.raises(ValueError):
        A2.classify(Matrix.identity(3))


def test_classify_witness_all_levels():
    d = A2.dim
    level, wit = A2.classify_witness(Matrix.identity(d))
    assert level == Membership.DISCRIMINANT_KERNEL and wit == {}

    level, wit = A2.classify_witness(2 * Matrix.identity(d))
    assert level == Membership.NOT_ORTHOGONAL
    assert wit == {"check": "form-congruence", "entry": (0, 5),
                   "got": 4, "expected": 1}

    two = ExtendedForm(root_lattice("2A1"))
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    rows[2], rows[3] = rows[3], rows[2]
    level, wit = two.classify_witness(Matrix(rows))
    assert level == Membership.ORTHOGONAL
    assert wit == {"check": "determinant", "value": -1}

    flip = Matrix.diagonal([-1] + [1] * (d - 2) + [-1])
    level, wit = A2.classify_witness(flip)
    assert level == Membership.SPECIAL
    assert wit == {"check": "orientation", "value": -1}

    level, wit = A2.classify_witness(-Matrix.identity(d))
    assert level == Membership.INTEGRAL_SPECIAL_PLUS
    assert wit == {"check": "kernel-congruence", "entry": (2, 2),
                   "value": Fraction(4, 3)}
    # the witness entry really is an entry of (M - I) @ s1^{-1}: row 2 of
    # M - I = -2I, applied through s1_det·S1^{-1}
    delta = A2._dual([-2 * (j == 2) for j in range(d)])
    assert Fraction(delta[2], A2.s1_det) == Fraction(4, 3)


def test_form_and_member_path_form_no_adjugate():
    # S1^{-1} is applied through the base's Smith record: building a form,
    # classifying a kernel member, inverting it, completing its first column
    # and naming a kernel-congruence witness leave the base adjugate unformed
    for name in ("A2", "A30", "E8"):
        base = root_lattice(name)
        form = ExtendedForm(base)
        g = form.transvection((1,) + (0,) * (form.n + 1)) @ form.involution()
        assert form.classify(g.matrix) == Membership.DISCRIMINANT_KERNEL
        assert form.orthogonal_inverse(g.matrix) @ g.matrix == Matrix.identity(form.dim)
        assert form.complete_isotropic(g.matrix.col(0)).matrix.col(0) == g.matrix.col(0)
        level, wit = form.classify_witness(-Matrix.identity(form.dim))
        # E8 is unimodular: every integral member acts trivially on L*/L
        assert wit.get("check") == (None if name == "E8" else "kernel-congruence"), name
        assert "adjugate" not in vars(base), name


def test_congruence_witness_in_row_zero_forms_one_row(monkeypatch):
    # a matrix that fails the form congruence at (0, 0) is refused after
    # the first row of MᵀS1M is formed, and the witness names that entry:
    # that row is column 0 of M times the packed rows of S1·M, one product
    # per nonzero entry, and no other row's products are taken
    form = ExtendedForm(root_lattice("A30"))
    rows = [list(r) for r in form.involution().matrix.num]
    rows[0][0] += 1
    factors = []

    def counting(x, y):
        factors.append(x)
        return x * y

    monkeypatch.setattr(matrices, "mul", counting)
    level, wit = form.classify_witness(rows)
    assert factors == [r[0] for r in rows if r[0]] == [1, -1]
    assert level == Membership.NOT_ORTHOGONAL
    assert wit == {"check": "form-congruence", "entry": (0, 0),
                   "got": -2, "expected": 0}


def test_orthogonal_inverse_refuses_a_matrix_off_the_form():
    # the public inverse checks numᵀS1·num = den²·S1 first, and names the
    # first entry where it fails: 2·I scales S1 by 4, and the all-ones
    # matrix J has JᵀS1J = (sum of S1)·J = 2·J on A2
    d = A2.dim
    with pytest.raises(ValueError, match=r"entry \(0, 5\) of num\^T S1 num is 4, not 1"):
        A2.orthogonal_inverse(Matrix.identity(d) * 2)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of num\^T S1 num is 2, not 0"):
        A2.orthogonal_inverse([[1] * d] * d)
    # a rational member passes: diag(2, 1, ..., 1, 1/2) has num scaling the
    # form by den² = 4
    half = helpers.corner_scaling(d, 2) * Fraction(1, 2)
    assert A2.orthogonal_inverse(half) @ half == Matrix.identity(d)


def test_classify_witness_matches_classify():
    rng = random.Random(77)
    for _ in range(20):
        g = helpers.random_element(A2, rng, max_len=4)
        level, wit = A2.classify_witness(g.matrix)
        assert level == A2.classify(g.matrix) == Membership.DISCRIMINANT_KERNEL
        assert wit == {}


def test_classify_rational_special_plus():
    # transvection formula evaluated at a non-integral base vector: still
    # orthogonal, det 1, plus-oriented, but not integral
    lam = (0, Fraction(1, 2), 0)
    slam = A1.s0 @ lam
    q = Fraction(sum(a * b for a, b in zip(lam, slam)), 2)
    rows = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    for j in range(3):
        rows[0][1 + j] = -slam[j]
        rows[1 + j][4] = lam[j]
    rows[0][4] = -q
    m = Matrix(rows)
    assert not m.is_integral
    assert A1.classify(m) == Membership.SPECIAL_PLUS
    level, wit = A1.classify_witness(m)
    assert level == Membership.SPECIAL_PLUS
    assert wit == {"check": "integrality", "entry": (0, 4),
                   "value": Fraction(1, 4)}


def test_classify_membership_is_monotone_data():
    # every generator word lies in the kernel, the deepest level
    rng = random.Random(13)
    for _ in range(20):
        g = helpers.random_element(A2, rng)
        assert g.classify() == Membership.DISCRIMINANT_KERNEL
        assert g.in_discriminant_kernel()


def test_embed_rotation(monkeypatch):
    # product of the two simple reflections: a rotation of order 3
    r1 = base_reflection(A2.base, (1, 0))
    r2 = base_reflection(A2.base, (0, 1))
    rot = r1 @ r2
    assert det(rot) == 1
    # the membership gate decides, with no exact determinant
    exact = helpers.record_calls(monkeypatch, "_bareiss")
    neg = -Matrix.identity(2)
    g = A2.embed_rotation(neg)
    assert g.classify() == Membership.INTEGRAL_SPECIAL_PLUS
    assert not g.in_discriminant_kernel()
    g3 = A2.embed_rotation(rot)
    assert (g3 @ g3 @ g3).matrix == Matrix.identity(A2.dim)
    with pytest.raises(ValueError, match="rotation must have determinant one"):
        A2.embed_rotation(r1)  # det -1
    with pytest.raises(ValueError, match="rotation must preserve the base form"):
        A2.embed_rotation(Matrix([[1, 1], [0, 1]]))  # not an isometry
    with pytest.raises(ValueError):
        A2.embed_rotation(Matrix.identity(3))  # wrong size
    assert exact == []


def test_orthogonal_inverse_formula_sweep():
    rng = random.Random(19)
    for form in (A1, A2):
        for _ in range(30):
            g = helpers.random_element(form, rng)
            inv = form.orthogonal_inverse(g.matrix)
            assert g.matrix @ inv == Matrix.identity(form.dim)
            assert inv @ g.matrix == Matrix.identity(form.dim)


def test_kernel_is_normal_sample():
    # conjugating kernel words by integral elements outside the kernel
    rng = random.Random(29)
    neg = A2.embed_rotation(-Matrix.identity(2))
    for _ in range(15):
        g = helpers.random_element(A2, rng)
        conj = neg.matrix @ g.matrix @ A2.orthogonal_inverse(neg.matrix)
        assert A2.classify(conj) == Membership.DISCRIMINANT_KERNEL


def test_base_reflection():
    assert base_reflection(A2.base, (1, 0)) == Matrix([[-1, 1], [0, 1]])
    r = base_reflection(A2.base, (1, 1))
    assert r @ r == Matrix.identity(2)
    assert det(r) == -1
    # norm -2 in a hyperbolic plane flips the sign branch
    hyp = EvenLattice(Matrix([[0, 1], [1, 0]]))
    r2 = base_reflection(hyp, (1, -1))
    assert r2 @ r2 == Matrix.identity(2)
    assert r2.T @ hyp.gram @ r2 == hyp.gram
    with pytest.raises(ValueError):
        base_reflection(A2.base, (2, 0))  # norm 8


def test_vectors_are_read_as_integers_or_refused():
    # a float is not truncated and a bool is no integer entry; an integral
    # Fraction is read as its integer, as Matrix reads it
    for v in ((1.7, 0.2), (1.0, 0), (True, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ValueError):
            base_reflection(A2.base, v)
    assert base_reflection(A2.base, (Fraction(1), 0)) == Matrix([[-1, 1], [0, 1]])
    # a word token's vector is read the same way, as are its kind and length
    for lam in ((True, 0, 0, 0), (1.0, 0, 0, 0), (0, 0.5, 0, 0),
                (0, Fraction(1, 2), 0, 0), (1, 0, 0)):
        for kind, make in (("T", A2.transvection), ("T*", A2.dual_transvection)):
            with pytest.raises(ValueError):
                make(lam)
            with pytest.raises(ValueError):
                A2.element_from_word([(kind, lam)])
    with pytest.raises(ValueError):
        A2.element_from_word([("X", (1, 0, 0, 0))])
    lam = (Fraction(2), 0, 0, 1)
    assert A2.transvection(lam) == A2.transvection((2, 0, 0, 1))
    assert A2.dual_transvection(lam).word == (("T*", (2, 0, 0, 1)),)
    # the word keeps the normalised ints
    g = A2.element_from_word([("T", (Fraction(1), 0, 0, 0))])
    t = A2.transvection((Fraction(1), 0, 0, 0))
    assert g == t and g.word == t.word == (("T", (1, 0, 0, 0)),)
    e0 = (1, 0, 0, 0, 0, 0)
    for h in ((True, 0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0.0)):
        with pytest.raises(ValueError):
            A2.is_primitive_isotropic(h)
        with pytest.raises(ValueError):
            A2.complete_isotropic(h)
    assert A2.is_primitive_isotropic((Fraction(1),) + e0[1:])
    assert A2.complete_isotropic((Fraction(1),) + e0[1:]).matrix.col(0) == e0


def test_embed_rotation_is_a_member_by_construction(monkeypatch):
    rot = base_reflection(A2.base, (1, 0)) @ base_reflection(A2.base, (0, 1))
    classified = helpers.count_calls(monkeypatch, "classify_witness")
    g = A2.embed_rotation(rot)
    neg = A2.embed_rotation(-Matrix.identity(2))
    assert classified == []
    # oracle: the block matrix written out, and its full classification; a
    # Weyl rotation acts trivially on dual/lattice, -1 does not on Z/3
    for elem, q, level in ((g, rot, Membership.DISCRIMINANT_KERNEL),
                           (neg, -Matrix.identity(2), Membership.INTEGRAL_SPECIAL_PLUS)):
        dense = [[int(i == j) for j in range(6)] for i in range(6)]
        for i in range(2):
            dense[2 + i][2:4] = q.row(i)
        assert elem.matrix == Matrix(dense) and elem.matrix.is_integral
        assert A2.classify(elem.matrix) == level


# ------------------------------------------------------------------ completion


def test_primitive_isotropic_predicates():
    e0 = (1, 0, 0, 0, 0)
    assert A1.is_primitive_isotropic(e0)
    assert not A1.is_primitive_isotropic((2, 0, 0, 0, 0))  # imprimitive
    assert not A1.is_primitive_isotropic((0, 0, 1, 0, 0))  # norm -2
    assert not A1.is_primitive_isotropic((0, 0, 0, 0, 0))
    # by hand: quad = 2*0 + 2*9 - 2*9 = 0, pairing gcd(0,1,-6,9,1) = 1
    assert A1.is_primitive_isotropic((1, 9, 3, 1, 0))
    with pytest.raises(ValueError):
        A1.is_primitive_isotropic((1, 0, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        A1.is_primitive_isotropic((Fraction(1, 2), 0, 0, 0, 0))


def test_unimodular_vector_need_not_be_primitive():
    # over 4A1: entries have gcd 1, but every pairing value is even, so
    # the vector cannot start a group element; quad = 2*(0+4) - 8 = 0
    form = ExtendedForm(root_lattice("4A1"))
    h = (0, 2, 1, 1, 1, 1, 2, 0)
    assert form.quad(h) == 0
    from evenlat.matrices import vec_gcd

    assert vec_gcd(h) == 1
    assert vec_gcd(form.s1 @ h) == 2
    assert not form.is_primitive_isotropic(h)
    with pytest.raises(ValueError):
        form.complete_isotropic(h)


def test_complete_isotropic_frozen_vector():
    g = A1.complete_isotropic((1, 9, 3, 1, 0))
    assert g.matrix.col(0) == (1, 9, 3, 1, 0)
    assert g.in_discriminant_kernel()
    assert g.word is not None
    assert A1.element_from_word(g.word).matrix == g.matrix


def test_complete_isotropic_identity_on_e0():
    g = A1.complete_isotropic((1, 0, 0, 0, 0))
    assert g.matrix == Matrix.identity(5)
    assert g.word == ()


def test_complete_isotropic_rejects():
    with pytest.raises(ValueError):
        A1.complete_isotropic((1, 0, 0, 0, 1))  # norm 2
    with pytest.raises(ValueError):
        A1.complete_isotropic((2, 0, 0, 0, 0))


def test_completion_roundtrip_sweep():
    rng = random.Random(37)
    forms = [A1, A2, ExtendedForm(root_lattice("2A1")),
             ExtendedForm(root_lattice("D4"))]
    for _ in range(60):
        form = rng.choice(forms)
        g = helpers.random_element(form, rng, max_len=4)
        h = g.matrix.col(0)
        assert form.is_primitive_isotropic(h)
        done = form.complete_isotropic(h)
        assert done.matrix.col(0) == h
        assert len(done.word) <= 15
        assert done.in_discriminant_kernel()


def test_completion_checks_only_its_input(monkeypatch):
    # the tokens a completion builds are ints already: only h is checked, and
    # the word still multiplies out to the element
    calls = helpers.record_calls(monkeypatch, "_int_vec", owner=ogroup)
    rng = random.Random(41)
    for form in (A1, A2, ExtendedForm(root_lattice("D4"))):
        h = helpers.random_element(form, rng, max_len=4).matrix.col(0)
        calls.clear()
        done = form.complete_isotropic(h)
        assert calls and all(args == (h,) for args in calls)
        assert done.word and done == form.element_from_word(done.word)


def test_completion_covers_sign_and_bootstrap_branches():
    # leading zeros force each bootstrap branch in turn (isotropy and
    # primitivity by hand: quad = 2 h0 h4 + 2 h1 h3 - 2 h2^2)
    for h in [
        (0, 0, 0, 0, 1),   # last-entry branch
        (0, 1, 0, 0, 0),   # second-entry branch
        (0, 0, 0, 1, 0),   # second-to-last branch
        (-1, 0, 0, 0, 0),  # sign fix at the very end
        (0, 1, 1, 1, 0),   # euclidean phase with a live base block
        (-1, 5, 2, 1, 3),  # quad = -6 + 10 - 8 = -4? no: see filter below
    ]:
        if not A1.is_primitive_isotropic(h):
            continue
        g = A1.complete_isotropic(h)
        assert g.matrix.col(0) == h
    # a base-block-only vector is never isotropic over a definite base, so
    # the remaining bootstrap branch is unreachable from valid input
    two = ExtendedForm(root_lattice("2A1"))
    for h in [(0, 0, a, b, 0, 0) for a in range(-2, 3) for b in range(-2, 3)]:
        if any(h):
            assert not two.is_isotropic(h)


def test_orbit_transporter():
    rng = random.Random(41)
    for _ in range(10):
        a = helpers.random_element(A2, rng, max_len=3)
        b = helpers.random_element(A2, rng, max_len=3)
        h1, h2 = a.matrix.col(0), b.matrix.col(0)
        t = A2.orbit_transporter(h1, h2)
        assert t.matrix @ h1 == h2
        assert t.in_discriminant_kernel()


def test_single_cusp_frozen_cases():
    # one cusp exactly when the base of the form is maximal even
    assert is_maximal_even(ExtendedForm(root_lattice("E8")).base) is True
    assert is_maximal_even(A2.base) is True
    assert is_maximal_even(ExtendedForm(root_lattice("4A1")).base) is False


def test_single_cusp_cap():
    with pytest.raises(CapExceeded):
        is_maximal_even(ExtendedForm(root_lattice("4A1")).base, max_order=3)
