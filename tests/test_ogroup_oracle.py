"""The integer group core against the dense Fraction formulas it replaced.

Generator tokens are applied in closed form; they are checked against dense
products of the token matrices written from their entry formulas in
``helpers``. The oracle below classifies with the dense formulas: the full
product MᵀS1M, a Bareiss determinant, and (M - I)·S1^{-1} over Fraction with
S1^{-1} from Gauss-Jordan elimination (``helpers.inverse``). The library
reads the same witnesses off the upper triangle of Mᵀ(S1·M), the
determinant modulo an odd prime, and the discriminant generators. Inputs
are random generator words, each also perturbed so that it fails one chosen
gate, and rescaled on the outer hyperbolic plane so that it is rational.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from evenlat import (
    EvenLattice, ExtendedForm, GroupElement, Matrix, Membership, ScaledOrthogonal, det,
    direct_sum, root_lattice,
)
from evenlat.cosets import make_scaled, normalizer_certificate
from evenlat.matrices import _bareiss, _rank_mod
from evenlat.ogroup import _act, _identity_corners, _sign_modulus, base_reflection

FORMS = {name: ExtendedForm(root_lattice(name))
         for name in ("A1", "A2", "D4", "E8", "A15", "2D4")}
# two discriminant generators of mixed orders, Z/2 x Z/4
FORMS["A1+A3"] = ExtendedForm(direct_sum(root_lattice("A1"), root_lattice("A3")))
S1_INV = {name: helpers.inverse(form.s1) for name, form in FORMS.items()}
GATES = ("form-congruence", "determinant", "orientation", "integrality",
         "kernel-congruence")


def first_entry(a, bad):
    return next((i, j) for i, row in enumerate(a.rows)
                for j, x in enumerate(row) if bad(i, j, x))


def oracle_witness(name, m):
    form, s1 = FORMS[name], FORMS[name].s1
    w = m.T @ s1 @ m
    if w != s1:
        i, j = first_entry(w, lambda i, j, x: x != s1[i, j])
        return Membership.NOT_ORTHOGONAL, {"check": "form-congruence", "entry": (i, j),
                                           "got": w[i, j], "expected": s1[i, j]}
    dt = det(m)
    if dt != 1:
        return Membership.ORTHOGONAL, {"check": "determinant", "value": dt}
    orient = form._orientation_value(m)
    if orient <= 0:
        return Membership.SPECIAL, {"check": "orientation", "value": orient}
    if not m.is_integral:
        i, j = first_entry(m, lambda i, j, x: isinstance(x, Fraction))
        return Membership.SPECIAL_PLUS, {"check": "integrality", "entry": (i, j),
                                         "value": m[i, j]}
    delta = (m - Matrix.identity(form.dim)) @ S1_INV[name]
    if not delta.is_integral:
        i, j = first_entry(delta, lambda i, j, x: isinstance(x, Fraction))
        return Membership.INTEGRAL_SPECIAL_PLUS, {"check": "kernel-congruence",
                                                  "entry": (i, j), "value": delta[i, j]}
    return Membership.DISCRIMINANT_KERNEL, {}


def perturb(name, m, gate, rng):
    """Right-multiply (or shift) a member so that it fails exactly one gate."""
    form = FORMS[name]
    d, n = form.dim, form.n
    rows = [list(r) for r in m.rows]
    if gate == "form-congruence":
        rows[rng.randrange(d)][rng.randrange(d)] += 1
    for row in rows:
        if gate == "determinant":  # swap the inner hyperbolic pair
            row[1], row[d - 2] = row[d - 2], row[1]
        elif gate == "orientation":  # -1 on the outer hyperbolic plane
            row[0], row[d - 1] = -row[0], -row[d - 1]
        elif gate == "integrality":  # e0 -> 2 e0, e_last -> e_last / 2
            row[0], row[d - 1] = 2 * row[0], Fraction(row[d - 1], 2)
        elif gate == "kernel-congruence" and n == 4:
            # D4: swap two outer nodes; A1+A3: flip the A3 diagram
            row[3], row[5], row[1], row[d - 2] = row[5], row[3], row[d - 2], row[1]
        elif gate == "kernel-congruence" and name == "2D4":  # swap the D4 blocks
            row[2:6], row[6:10] = row[6:10], row[2:6]
        elif gate == "kernel-congruence":  # -1 on the base, det fixed by a swap
            row[2:n + 2] = [-x for x in row[2:n + 2]]
            if n % 2:
                row[1], row[d - 2] = row[d - 2], row[1]
    return Matrix(rows)


def rescale(m, t):
    """m @ diag(t, 1, ..., 1, 1/t): still orthogonal, rational off t | last column."""
    return Matrix([[t * r[0], *r[1:-1], Fraction(r[-1], t)] for r in m.rows])


@pytest.mark.parametrize("name", sorted(FORMS))
def test_classify_witness_matches_fraction_oracle(name):
    form = FORMS[name]
    rng = random.Random(sum(map(ord, name)))
    seen = set()
    for _ in range(4):
        m = helpers.random_element(form, rng, max_len=4, spread=1).matrix
        for gate in ("",) + GATES:
            x = perturb(name, m, gate, rng) if gate else m
            # denominators 3 and 15 move the determinant's prime to 5 and 7
            for y in (x, rescale(x, 3), rescale(x, 15)):
                got = form.classify_witness(y)
                assert got == oracle_witness(name, y), (name, gate)
                seen.add(got[1].get("check", ""))
    # every gate fails somewhere, except the kernel gate where O(D) is
    # trivial: D = 0 for E8 and D = Z/2 for A1
    trivial = {"kernel-congruence"} if name in ("A1", "E8") else set()
    assert seen == {""} | set(GATES) - trivial


# the ScaledOrthogonal refusal for each check that stops classify below
# the integral group
REFUSALS = {"form-congruence": "scale the form", "determinant": "positive determinant",
            "orientation": "oriented positive 2-plane", "integrality": "must be integral"}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_scaled_at_ratio_one_refuses_where_classify_stops(name):
    # one membership gate: at ratio 1 a matrix is refused exactly when
    # classify stops below the integral group, and the message names the
    # check that stopped it
    form = FORMS[name]
    rng = random.Random(61 + len(name))
    seen = set()
    for _ in range(3):
        m = helpers.random_element(form, rng, max_len=4, spread=1).matrix
        for gate in ("",) + GATES:
            x = perturb(name, m, gate, rng) if gate else m
            level, witness = form.classify_witness(x)
            if level >= Membership.INTEGRAL_SPECIAL_PLUS:
                assert ScaledOrthogonal(form, x, 1).matrix == x
                continue
            seen.add(witness["check"])
            with pytest.raises(ValueError, match=REFUSALS[witness["check"]]):
                ScaledOrthogonal(form, x, 1)
    assert seen == set(REFUSALS)


def test_determinant_sign_read_modulo_an_odd_prime(monkeypatch):
    # the rank of num - t I modulo the least odd prime dividing neither the
    # ratio t^2 nor det S1 = 3 of A2: 5, until 5 divides t, then 7
    form = FORMS["A2"]
    calls = helpers.record_calls(monkeypatch, "_rank_mod")
    m = helpers.random_element(form, random.Random(11)).matrix
    swapped = perturb("A2", m, "determinant", None)
    for t, p in ((1, 5), (2, 5), (3, 5), (15, 7)):
        x, y = rescale(m, t), rescale(swapped, t)
        assert x.den == y.den == t
        calls.clear()
        assert form.classify(x) >= Membership.SPECIAL
        assert form.classify_witness(y) == (Membership.ORTHOGONAL,
                                            {"check": "determinant", "value": -1})
        assert [c[1:] for c in calls] == [(t, p), (t, p)]


def test_rational_matrix_failing_the_congruence():
    for name in ("A2", "A1+A3"):
        form = FORMS[name]
        m = rescale(helpers.random_element(form, random.Random(4)).matrix, 3)
        rows = [list(r) for r in m.rows]
        rows[2][1] += Fraction(1, 3)
        x = Matrix(rows)
        got = form.classify_witness(x)
        assert got == oracle_witness(name, x)
        assert got[1]["check"] == "form-congruence" and x.den == 3


def test_classifying_a_member_runs_no_exact_determinant(monkeypatch):
    calls = helpers.record_calls(monkeypatch, "_bareiss")
    for name, form in FORMS.items():
        g = helpers.random_element(form, random.Random(9))
        assert GroupElement(form, g.matrix).classify() >= Membership.INTEGRAL_SPECIAL_PLUS
        assert form.orthogonal_inverse(g.matrix) @ g.matrix == Matrix.identity(form.dim)
    assert calls == []


@pytest.mark.parametrize("name", sorted(FORMS))
def test_trusted_results_pass_the_oracle(name):
    form = FORMS[name]
    rng = random.Random(7 + len(name))
    members = [helpers.random_element(form, rng, max_len=3, spread=1) for _ in range(3)]
    if form.n % 2 == 0:  # -1 on an even-rank base: integral, outside the kernel off E8
        members.append(form.embed_rotation(-Matrix.identity(form.n)))
    ident = Matrix.identity(form.dim)
    for g, h in zip(members, members[1:] + members[:1]):
        prod = g @ h
        assert prod.matrix == g.matrix @ h.matrix
        for elem in (prod, g.inverse(), g**3, g**-2):
            level = oracle_witness(name, elem.matrix)[0]
            assert level >= Membership.INTEGRAL_SPECIAL_PLUS
            assert level == elem.classify()
        assert form.orthogonal_inverse(g.matrix) @ g.matrix == ident


def test_orthogonal_inverse_rational_input_unchanged():
    # a special-plus matrix off the lattice keeps the old S1^{-1} m^t S1 value
    for name in ("A1", "A2", "A15"):
        form = FORMS[name]
        m = perturb(name, helpers.random_element(form, random.Random(3)).matrix,
                    "integrality", None)
        inv = form.orthogonal_inverse(m)
        assert inv == S1_INV[name] @ m.T @ form.s1
        assert inv @ m == Matrix.identity(form.dim)


def test_orthogonal_inverse_integral_input_skips_normalising(monkeypatch):
    # a member's inverse is divided out in ints: no matrix is rebuilt from
    # its entries, which is what Matrix.__init__ does
    built = []
    real_init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, rows: built.append(rows) or real_init(self, rows))
    for name, form in FORMS.items():
        m = helpers.random_element(form, random.Random(5)).matrix
        built.clear()
        inv = form.orthogonal_inverse(m)
        assert inv.is_integral and not built
        assert inv == S1_INV[name] @ m.T @ form.s1


def test_integral_adjugate():
    # _dual applies s1_det·S1^{-1} to an integer vector, in integers: it takes
    # row i of S1 to s1_det·e_i and agrees with the Gauss-Jordan inverse
    rng = random.Random(11)
    for name, form in FORMS.items():
        sd, d = form.s1_det, form.dim
        assert sd == abs(det(form.s1))
        for i, row in enumerate(form.s1.num):
            assert form._dual(row) == [sd * (j == i) for j in range(d)]
        for _ in range(5):
            v = tuple(rng.randint(-9, 9) for _ in range(d))
            out = form._dual(v)
            assert all(type(x) is int for x in out)
            assert tuple(out) == S1_INV[name] * sd @ v


# the bases of the coset-reduction and wide-verify benchmark workloads
WORKLOAD_BASES = ("A2", "A4", "D4", "E6", "E8", "A30", "3D8", "A15", "2E8", "D16+")


def _check_dual_and_adjoint(form, rng):
    # _dual applies s1_det·S1^{-1} through the base's Smith record, and
    # _adjoint forms S1^{-1}·mᵀS1 on packed rows: for a member, and for an
    # integral m whose entries need slots wider than 8 bytes
    d, sd = form.dim, form.s1_det
    inv = helpers.inverse(form.s1)
    # the slot bound holds: no row of s1_det·S1^{-1} sums past it
    assert max(sum(map(abs, r)) for r in (inv * sd).num) <= form._dual_rowsum
    v = [rng.randint(-9, 9) for _ in range(d)]
    assert form._dual(v) == list(inv * sd @ v)
    member = helpers.random_element(form, rng, max_len=3, spread=1).matrix
    wide = Matrix([[rng.randint(-2**40, 2**40) for _ in range(d)] for _ in range(d)])
    for m in (member, wide):
        assert form._adjoint(m, form) == inv @ m.T @ form.s1


@pytest.mark.parametrize("name", WORKLOAD_BASES)
def test_dual_and_adjoint_match_gauss_jordan(name):
    _check_dual_and_adjoint(ExtendedForm(root_lattice(name)), random.Random(name))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dual_and_adjoint_match_gauss_jordan_on_random_definite_grams(data):
    # Bᵀ·A_n·B is even and positive definite for a nonsingular B
    n = data.draw(st.integers(1, 6))
    b = Matrix(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    assume(det(b) != 0)
    form = ExtendedForm(EvenLattice(b.T @ root_lattice(f"A{n}").gram @ b))
    _check_dual_and_adjoint(form, random.Random(data.draw(st.integers(0, 2**16))))


def test_members_by_construction_are_not_reclassified(monkeypatch):
    form = FORMS["A2"]
    calls = helpers.count_calls(monkeypatch, "classify_witness")
    g = form.element_from_word(helpers.random_word(random.Random(5), form.n, 4))
    t = (form.transvection((1, 0, 0, 1)) @ form.involution()
         @ form.dual_transvection((0, 1, 1, 0)))
    _ = (g @ t, g.inverse(), g**5, g**-3, form.identity())
    assert calls == []
    GroupElement(form, g.matrix)  # outside matrices are verified on entry
    assert len(calls) == 1
    done = form.complete_isotropic(g.matrix.col(0))  # its result is verified once
    assert len(calls) == 2 and done.matrix.col(0) == g.matrix.col(0)
    cert = normalizer_certificate(make_scaled(form, helpers.scale_matrix(g.matrix, 3)))
    assert len(calls) == 3 and cert.in_normalizer


def unit_word(rng, n, length):
    """Random tokens whose lam has one nonzero entry, as completion builds."""
    word = []
    for _ in range(length):
        kind = rng.choice(("J", "T", "T*"))
        lam = [0] * (n + 2)
        lam[rng.randrange(n + 2)] = rng.choice((-3, -2, -1, 1, 2, 3))
        word.append((kind,) if kind == "J" else (kind, tuple(lam)))
    return tuple(word)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_token_action_matches_dense_products(name):
    form = FORMS[name]
    d = form.dim
    rng = random.Random(31 + len(name))
    for k in range(24):
        length = rng.randint(1, 6)
        word = (unit_word(rng, form.n, length) if k % 2
                else helpers.random_word(rng, form.n, length, spread=3))
        m = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        for tok in word:
            # from the left, on a column vector
            v = [rng.randint(-9, 9) for _ in range(d)]
            col = [r[0] for r in helpers.list_matmul(helpers.token_rows(form, tok),
                                                     [[x] for x in v])]
            _act(form._token(tok), v)
            assert v == col
        # from the right, on a whole matrix and so on each row vector
        got = form._times_parts(Matrix(m), map(form._token, word))
        assert [list(r) for r in got.rows] == helpers.word_rows(form, word, start=m)
        assert got.is_integral
        # from the left, as row operations, the parts given as an iterator too
        dense = helpers.list_matmul(helpers.word_rows(form, word), m)
        for parts in (map(form._token, word), tuple(map(form._token, word))):
            got = form._parts_times(parts, Matrix(m))
            assert [list(r) for r in got.rows] == dense
        # the element is the left-to-right product of its tokens
        elem = form.element_from_word(word)
        assert [list(r) for r in elem.matrix.rows] == helpers.word_rows(form, word)
        assert elem.word == word


@settings(max_examples=60)
@given(st.sampled_from(sorted(FORMS)), st.data())
def test_parts_hold_s0_lam_and_half_its_pairing(name, data):
    form = FORMS[name]
    lam = tuple(data.draw(st.lists(st.integers(-2**40, 2**40) | st.integers(-2, 2),
                                   min_size=form.n + 2, max_size=form.n + 2)))
    kind, lam_p, q, lam_nz, slam_nz = form._parts(data.draw(st.sampled_from(("T", "T*"))),
                                                  lam)
    slam = form.s0 @ lam
    assert lam_p == lam
    assert list(lam_nz) == [(1 + j, x) for j, x in enumerate(lam) if x]
    assert list(slam_nz) == [(1 + j, x) for j, x in enumerate(slam) if x]
    assert 2 * q == sum(x * y for x, y in zip(lam, slam))
    # a token from outside has the same form
    assert form._token((kind, list(lam))) == (kind, lam, q, lam_nz, slam_nz)


def test_generators_match_their_entry_formulas():
    form = FORMS["D4"]
    lam = (1, -2, 0, 3, 1, -1)
    for tok, elem in ((("J",), form.involution()),
                      (("T", lam), form.transvection(lam)),
                      (("T*", lam), form.dual_transvection(lam))):
        assert [list(r) for r in elem.matrix.rows] == helpers.token_rows(form, tok)
        assert elem.word == (tok,)


def test_tokens_validated_on_use():
    form = FORMS["A2"]
    for bad in (("T", (1, 0, 0)),  # wrong length
                ("T*", (Fraction(1, 2), 0, 0, 0)),
                ("T", (True, 0, 0, 0)),  # bool is no integer entry
                ("X", (0, 0, 0, 0)),
                ("T", 5),  # no vector
                ("J", 5),  # J takes no argument
                "J",  # a bare name is no token
                ()):
        with pytest.raises(ValueError):
            form.element_from_word((("J",), bad))
        with pytest.raises(ValueError):
            form._token(bad)
    with pytest.raises(ValueError):  # a string is no word of tokens
        form.element_from_word("J")


def test_outside_word_must_multiply_to_the_matrix():
    form = FORMS["A2"]
    eye = Matrix.identity(form.dim)
    with pytest.raises(ValueError, match="does not multiply to the matrix"):
        GroupElement(form, eye, word=(("J",),))
    with pytest.raises(ValueError, match="malformed token"):
        GroupElement(form, eye, word=(("J", 5),))
    j = form.involution()
    g = GroupElement(form, j.matrix, word=[["J"]])
    assert g == j and g.word == (("J",),)
    word = helpers.random_word(random.Random(7), form.n, 5)
    g = GroupElement(form, form.element_from_word(word).matrix, word=word)
    assert g.word == word and g.inverse().inverse().word == word


# odd and even d, with 3 | det S1 for A2, E6 and A8, so that the determinant's
# prime is never 3 there; 2A1 also carries similitudes of ratio 2
SIGN_FORMS = {name: ExtendedForm(root_lattice(name))
              for name in ("A1", "A2", "A3", "2A1", "D4", "E6", "E7", "A8")}


def _similitude_2a1(d):
    """diag(2, 2, B, 1, 1) with B = [[1, 1], [-1, 1]]: BᵀSB = 2S on 2A1 and
    the outer pairs pair to 2, so it scales S1 by 2 with determinant 8."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    rows[0][0] = rows[1][1] = 2
    rows[2][2:4], rows[3][2:4] = [1, 1], [-1, 1]
    return Matrix(rows)


def _oracle_prime(ratio):
    """The least odd prime not dividing the ratio: ±isqrt(ratio^d) differ there."""
    return next(p for p in range(3, 4 * ratio + 5, 2)
                if ratio % p and all(p % t for t in range(3, p, 2)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SIGN_FORMS)), st.data())
def test_determinant_sign_by_rank_matches_det_mod_and_bareiss(name, data):
    # a member from a word, times a det -1 isometry or not, scaled by t (ratio
    # t^2) or, on 2A1, by a similitude of ratio 2: the gate's determinant
    # verdict agrees with det num mod an odd prime and with its exact sign
    form = SIGN_FORMS[name]
    d, n = form.dim, form.n
    kinds = st.sampled_from(("J", "T", "T*"))
    word = data.draw(st.lists(st.tuples(kinds, st.lists(st.integers(-2, 2), min_size=n + 2,
                                                        max_size=n + 2)), max_size=4))
    word = tuple((k,) if k == "J" else (k, tuple(lam)) for k, lam in word)
    m = form.element_from_word(word).matrix
    flip = data.draw(st.sampled_from(("", "swap", "reflection")))
    if flip == "swap":  # the inner hyperbolic pair: det -1
        m = Matrix([[*r[:1], r[d - 2], *r[2:d - 2], r[1], r[d - 1]] for r in m.num])
    elif flip == "reflection":  # a simple root of the base: det -1
        m = m @ _identity_corners(base_reflection(form.base, [1] + [0] * (n - 1)))
    ratio = 1
    if name == "2A1" and data.draw(st.booleans()):
        m, ratio = m @ _similitude_2a1(d), 2
    t = data.draw(st.sampled_from((1, 2, 3, 5, 6, 15)))
    num, ratio = tuple(tuple(t * x for x in r) for r in m.num), ratio * t * t
    failed = form._gate(Matrix._over(num), ratio)
    assert failed is None or failed[1]["check"] in ("determinant", "orientation")
    positive = failed is None or failed[1]["check"] == "orientation"
    p = _oracle_prime(ratio)
    assert positive == (helpers._det_mod(num, p) == isqrt(ratio**d) % p)
    assert positive == (_bareiss(num) > 0) == (flip == "")
    # the gate's prime keeps S1 nondegenerate and the ratio a square
    p, s = _sign_modulus(ratio, form.s1_det)
    assert ratio * form.s1_det % p and (s * s - ratio) % p == 0
    assert p != 3 or form.s1_det % 3


def test_determinant_sign_at_a_non_square_ratio():
    # ratio 2 is a square mod neither 3 nor 5, so 2A1 (det S1 = 4) reads the
    # sign mod 7, with the root 3 of 2; swapping the inner pair flips it
    form = SIGN_FORMS["2A1"]
    d = form.dim
    assert _sign_modulus(2, form.s1_det) == (7, 3)
    m = _similitude_2a1(d)
    swapped = Matrix([[*r[:1], r[d - 2], *r[2:d - 2], r[1], r[d - 1]] for r in m.num])
    assert form._gate(m, 2) is None
    assert form._gate(swapped, 2) == (Membership.ORTHOGONAL,
                                      {"check": "determinant", "value": -1})
    assert (_bareiss(m.num), _bareiss(swapped.num)) == (8, -8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SIGN_FORMS)), st.data())
def test_rank_kernel_pivots_at_most_twice_the_word_length(name, data):
    # num - I of a word of length l has rank at most 2l: J - I has rank 2, and
    # each transvection is I plus two rank-one terms
    form = SIGN_FORMS[name]
    n = form.n
    length = data.draw(st.integers(0, 5))
    word = tuple(data.draw(st.sampled_from((("J",),))
                           | st.tuples(st.sampled_from(("T", "T*")),
                                       st.tuples(*[st.integers(-3, 3)] * (n + 2))))
                 for _ in range(length))
    num = form.element_from_word(word).matrix.num
    p, s = _sign_modulus(1, form.s1_det)
    shifted = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(num)]
    rank = _rank_mod(num, s, p)
    assert rank == helpers.dense_rank_mod(shifted, p) <= 2 * length
    assert rank % 2 == 0
