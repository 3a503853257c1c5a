"""Exact integer/rational matrix arithmetic: frozen oracles and random sweeps.

Frozen values below were computed by hand (cofactor expansions, adjugates);
the sweeps check the defining identities, which determine each result
uniquely (Smith divisors, inverses, inertia are all canonical). The rational
``inverse`` and ``signature`` live in ``helpers`` as oracles for the integer
paths; they are checked here too.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (SingularMatrixError, _det_mod, dense_rank_mod, dense_smith_normal_form,
                     inverse, signature)
from evenlat import (ExtendedForm, Matrix, det, direct_sum, is_positive_definite,
                     root_lattice, smith_normal_form)
from evenlat.matrices import (_bareiss, _congruence_mismatch, _congruent, _eliminate,
                              _entry_bound, _nonzeros, _packed_rows, _rank_mod, vec_gcd)

A2 = Matrix([[2, -1], [-1, 2]])


def random_int_matrix(rng, n, m=None, lo=-6, hi=6):
    m = n if m is None else m
    return Matrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


# ---------------------------------------------------------------- determinant


def test_det_frozen_values():
    # hand cofactor expansion: 2*2 - (-1)*(-1) = 3
    assert det(A2) == 3
    assert det(Matrix([[5]])) == 5
    assert det(Matrix([[1, 2], [2, 4]])) == 0
    assert det(Matrix([])) == 1
    # 3x3 by hand: 2*(4-1) - (-1)*(-2-0) + 0 = 6 - 2 = 4
    assert det(Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])) == 4


def test_det_rational():
    assert det(Matrix([[Fraction(1, 2), 0], [0, 3]])) == Fraction(3, 2)
    assert det(Matrix([[Fraction(1, 3), Fraction(2, 3)], [1, 2]])) == 0
    # integral result from rational entries comes back as int
    d = det(Matrix([[Fraction(1, 2), 0], [0, 2]]))
    assert d == 1 and isinstance(d, int)


def test_det_multiplicative_sweep():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 4)
        a, b = random_int_matrix(rng, n), random_int_matrix(rng, n)
        assert det(a @ b) == det(a) * det(b)


def test_det_transpose_invariant_sweep():
    rng = random.Random(109)
    for _ in range(40):
        a = random_int_matrix(rng, rng.randint(1, 5))
        assert det(a.T) == det(a)


def test_det_mod_matches_exact_determinant_sweep():
    # singular inputs and zero leading columns included, so the row swaps and
    # the early zero both run
    rng = random.Random(113)
    for _ in range(80):
        n = rng.randint(0, 6)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        for p in (3, 5, 7, 11):
            assert _det_mod(rows, p) == _bareiss(rows) % p, (rows, p)


def test_rank_mod_matches_dense_rank_sweep():
    # num - s I for s = 1 and s = 2, with rows equal to s e_i (skipped), rows
    # that are zero only mod p, repeated rows and singular inputs
    rng = random.Random(127)
    for _ in range(120):
        n = rng.randint(0, 7)
        s = rng.choice((1, 2))
        rows = [[s * (i == j) for j in range(n)] for i in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n)):
            rows[i] = [rng.choice((0, 0, 0, 1, -1, 2, 3, -5)) for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        for p in (3, 5, 7):
            shifted = [[x - s * (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)]
            assert _rank_mod(tuple(map(tuple, rows)), s, p) == dense_rank_mod(shifted, p), (
                rows, s, p)


# -------------------------------------------------------------------- inverse


def test_inverse_frozen():
    inv = inverse(A2)
    third = Fraction(1, 3)
    assert inv == Matrix([[2 * third, third], [third, 2 * third]])
    assert A2 @ inv == Matrix.identity(2)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_inverse_roundtrip_sweep():
    rng = random.Random(202)
    done = 0
    while done < 80:
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n)
        if det(a) == 0:
            continue
        assert a @ inverse(a) == Matrix.identity(n)
        assert inverse(a) @ a == Matrix.identity(n)
        done += 1


# ------------------------------------------------------------------ structure


def test_identity_transpose_pow():
    i3 = Matrix.identity(3)
    assert i3 @ i3 == i3
    m = Matrix([[1, 2], [3, 4]])
    assert m.T == Matrix([[1, 3], [2, 4]])
    assert m ** 0 == Matrix.identity(2)
    assert m ** 3 == m @ m @ m
    with pytest.raises(ValueError):
        m ** -1


def test_equality_and_hash():
    a = Matrix([[1, 0], [0, 1]])
    assert a == Matrix.identity(2)
    assert hash(a) == hash(Matrix.identity(2))
    assert a != Matrix([[1, 0], [0, 2]])
    # int and equal-valued Fraction entries normalize to the same matrix
    assert Matrix([[Fraction(2, 1)]]) == Matrix([[2]])


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


@pytest.mark.parametrize("call,message", [
    (lambda: Matrix([[1, 2]]) + Matrix([[1], [2]]), "shape mismatch"),
    (lambda: det(Matrix([[1, 2, 3], [4, 5, 6]])), "square"),
    (lambda: is_positive_definite(Matrix([[2, 1], [0, 2]])), "symmetric"),
    (lambda: direct_sum(), "at least one summand"),
], ids=["add-shapes", "det-non-square", "definite-non-symmetric", "empty-direct-sum"])
def test_malformed_operands_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bool_entries_rejected():
    # bool is an int subclass; True must not pass silently as 1
    for rows in ([[True]], [[1, 0], [0, False]], [[Fraction(1, 2), True]]):
        with pytest.raises(TypeError, match="got bool"):
            Matrix(rows)
    with pytest.raises(TypeError):
        Matrix.diagonal([True, 1])


def test_vector_products_normalize_to_int():
    # rational matrix times integer vector: integral results must come
    # back as python ints (downstream integrality tests depend on it)
    m = Matrix([[Fraction(1, 2), Fraction(1, 2)], [0, 1]])
    out = m @ (2, 4)
    assert out == (3, 4)
    assert all(isinstance(v, int) for v in out)
    out2 = (2, 4) @ m
    assert out2 == (1, 5)
    assert all(isinstance(v, int) for v in out2)


def test_is_integral_and_integer_only_inputs():
    m = Matrix([[Fraction(2, 1), 1], [0, 1]])
    assert m.is_integral
    assert all(isinstance(v, int) for row in m.rows for v in row)
    half = Matrix([[Fraction(1, 2)]])
    assert not half.is_integral
    # the integer-only algorithms refuse rational input
    with pytest.raises(ValueError, match="non-integer"):
        is_positive_definite(half)
    with pytest.raises(ValueError, match="non-integer"):
        smith_normal_form(half)
    # the determinant scales rational input to integers instead
    assert det(half) == Fraction(1, 2)


def _canon(x):
    # the documented normalisation: integral values come back as int
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def _ref_rows(rows):
    return tuple(tuple(_canon(x) for x in r) for r in rows)


def _ref_product(a, b):
    # the generic rational product, entry by entry on plain lists
    return _ref_rows([[sum((Fraction(x) * y for x, y in zip(r, c)), Fraction(0))
                       for c in zip(*b)] for r in a])


def _ref_det(a):
    # cofactor expansion along the first row, in Fractions
    if not a:
        return 1
    return _canon(sum(
        (-1) ** j * Fraction(x) * _ref_det([r[:j] + r[j + 1:] for r in a[1:]])
        for j, x in enumerate(a[0])))


def _variants(rng, rows):
    # the same values as ints, as Fraction(k, 1), and with one rational entry
    rational = [list(r) for r in rows]
    rational[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] = Fraction(
        rng.choice((-3, -1, 1, 5)), rng.choice((2, 3, 4)))
    return (rows, [[Fraction(x) for x in r] for r in rows], rational)


def test_integer_path_matches_generic_products():
    rng = random.Random(83)
    for _ in range(30):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-7, 7) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(k)]
        v = [rng.randint(-7, 7) for _ in range(k)]
        for x in _variants(rng, a):
            for y in _variants(rng, b):
                got = Matrix(x) @ Matrix(y)
                assert got.rows == _ref_product(x, y)
                assert got.is_integral == all(
                    type(e) is int for r in got.rows for e in r)
            for w in (v, [Fraction(e) for e in v]):
                want = tuple(r[0] for r in _ref_product(x, [[e] for e in w]))
                got = Matrix(x) @ w
                assert got == want
                assert [type(e) for e in got] == [type(e) for e in want]
                got = tuple(w) @ Matrix(x).T
                assert got == want
                assert [type(e) for e in got] == [type(e) for e in want]


def test_is_integral_after_arithmetic():
    m = Matrix([[1, -2], [3, 4]])
    h = Matrix([[Fraction(1, 2), 1], [0, Fraction(-3, 2)]])
    for out, integral in ((m.T, True), (-m, True), (m + m, True), (m - m, True),
                          (m * 3, True), (3 * m, True), (m * Fraction(4, 2), True),
                          (m * Fraction(1, 2), False), (h.T, False), (-h, False),
                          (h + h, True), (h + m, False), (m + h, False),
                          (h * 2, True), (h * 3, False), (Matrix.identity(3), True),
                          (Matrix([]), True)):
        assert out.is_integral is integral, out
        assert integral == all(type(x) is int for r in out.rows for x in r)
    assert (m.T).rows == ((1, 3), (-2, 4))
    assert (-m).rows == ((-1, 2), (-3, -4))
    # bool stays out of every path: refused as an entry of a matrix or a
    # vector, and a bool scalar produces plain ints
    for bad in (lambda: Matrix([[1, True]]), lambda: m @ (True, False),
                lambda: (1, False) @ m):
        with pytest.raises(TypeError, match="got bool"):
            bad()
    assert all(type(x) is int for r in (m * True).rows for x in r)


_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6))))


def _rows(n, m):
    return st.lists(st.lists(_ENTRIES, min_size=m, max_size=m),
                    min_size=n, max_size=n)


def _same(got, want):
    # equal values, and an int exactly where the oracle has one
    assert got == want and list(map(type, got)) == list(map(type, want))


def _check_form(out, want):
    # num over one reduced positive den, and rows = num/den with an int for
    # every integral value, equal to the per-entry Fraction oracle
    flat = [x for r in out.num for x in r]
    assert all(type(x) is int for x in flat) and type(out.den) is int
    assert out.den > 0 and gcd(out.den, *flat) == 1
    assert out.rows == tuple(tuple(Fraction(x, out.den) for x in r) for r in out.num)
    assert all(type(x) is int for r in out.rows for x in r
               if Fraction(x).denominator == 1)
    assert out.is_integral is (out.den == 1)
    assert len(out.rows) == len(want)
    for got_row, want_row in zip(out.rows, want):
        _same(got_row, want_row)
    assert Matrix(out.rows) == out and hash(Matrix(out.rows)) == hash(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_num_over_den_matches_fraction_oracle(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_rows(n, k)), data.draw(_rows(k, m))
    c = data.draw(_rows(n, k))
    v = data.draw(st.lists(_ENTRIES, min_size=k, max_size=k))
    t = data.draw(_ENTRIES)
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
    fa = [[Fraction(x) for x in r] for r in a]
    pairs = [list(zip(r, s)) for r, s in zip(fa, c)]
    ref = _ref_rows(a)
    _check_form(ma, ref)
    _check_form(ma.T, _ref_rows(zip(*a)))
    _check_form(-ma, _ref_rows([[-x for x in r] for r in fa]))
    _check_form(ma + mc, _ref_rows([[x + y for x, y in r] for r in pairs]))
    _check_form(ma - mc, _ref_rows([[x - y for x, y in r] for r in pairs]))
    scaled = _ref_rows([[x * t for x in r] for r in fa])
    _check_form(ma * t, scaled)
    _check_form(t * ma, scaled)
    _check_form(ma @ mb, _ref_product(a, b))
    _check_form(ma.submatrix(range(n - 1, -1, -1), range(k)), _ref_rows(a[::-1]))
    want = tuple(r[0] for r in _ref_product(a, [[x] for x in v]))
    for got in (ma @ v, tuple(v) @ ma.T):
        _same(got, want)
    for i in range(n):
        _same(ma.row(i), ref[i])
        _same(tuple(ma[i, j] for j in range(k)), ref[i])
    _same(ma.col(0), tuple(r[0] for r in ref))
    sq = data.draw(_rows(n, n))
    _same((det(Matrix(sq)),), (_ref_det(sq),))
    for e in range(4):
        want = _ref_rows([[int(i == j) for j in range(n)] for i in range(n)])
        for _ in range(e):
            want = _ref_product(want, sq)
        _check_form(Matrix(sq) ** e, want)
    # a bool is no entry of a matrix or a vector, but a bool scalar gives
    # ints; a float is refused everywhere
    for bad in (lambda: Matrix([list(r[:-1]) + [True] for r in a]),
                lambda: ma @ ([True] * k), lambda: ([False] * n) @ ma):
        with pytest.raises(TypeError, match="got bool"):
            bad()
    _check_form(ma * True, _ref_rows(a))
    for bad in (lambda: Matrix([[1.0] * k]), lambda: ma @ ([0.5] * k),
                lambda: ([0.5] * n) @ ma, lambda: ma * 0.5, lambda: 0.5 * ma):
        with pytest.raises(TypeError):
            bad()


def test_scalar_and_addition():
    m = Matrix([[1, 2], [3, 4]])
    assert 2 * m == Matrix([[2, 4], [6, 8]])
    assert m - m == Matrix.zeros(2, 2)
    assert m + m == 2 * m
    assert (-m) + m == Matrix.zeros(2, 2)


def test_access_helpers():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.col(1) == (2, 5)
    assert m.submatrix([1], [0, 2]) == Matrix([[4, 6]])


# ------------------------------------------------------------------ signature


def test_signature_frozen():
    assert signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(A2) == (2, 0, 0)
    assert signature(Matrix([[2, 0], [0, -2]])) == (1, 1, 0)
    assert signature(Matrix([[0, 0], [0, 1]])) == (1, 0, 1)
    assert signature(Matrix.zeros(3, 3)) == (0, 0, 3)


def test_signature_congruence_invariant_sweep():
    # inertia is invariant under congruence by any invertible matrix
    rng = random.Random(404)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        g = random_int_matrix(rng, n)
        s = g + g.T  # symmetric
        p = random_int_matrix(rng, n)
        if det(p) == 0:
            continue
        assert signature(p.T @ s @ p) == signature(s)
        done += 1


def test_positive_definite():
    assert is_positive_definite(A2)
    assert not is_positive_definite(Matrix([[2, 3], [3, 2]]))
    assert not is_positive_definite(Matrix([[0, 1], [1, 0]]))
    assert not is_positive_definite(Matrix([[-2]]))
    assert is_positive_definite(Matrix([]))


def test_positive_definite_matches_signature_sweep():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(505)
    inputs = []
    for _ in range(60):
        n = rng.randint(1, 4)
        g = random_int_matrix(rng, n, lo=-3, hi=3)
        inputs.append(g + g.T)
    # nonsingular, but some leading minor is 0: the hyperbolic plane's first
    # index to enter the leading block pairs with nothing there, so the pass
    # must swap rows
    blocks = [A2, Matrix([[2, 1], [1, -2]]), Matrix([[-2]]), Matrix([[4]]),
              Matrix([[0, 1], [1, 0]])]
    for _ in range(30):
        b = rng.choice(blocks)
        k, n = b.nrows, b.nrows + 2
        block = Matrix([[0, 1] + [0] * k, [1, 0] + [0] * k]
                       + [[0, 0] + list(r) for r in b.rows])
        perm = list(range(n))
        rng.shuffle(perm)
        p = Matrix([[int(i == perm[j]) for j in range(n)] for i in range(n)])
        s = p.T @ block @ p
        assert any(det(s.submatrix(range(k), range(k))) == 0 for k in range(1, n))
        inputs.append(s)
    for s in inputs:
        n = s.nrows
        assert _bareiss(s.rows) == det(s) == sympy.Matrix([list(r) for r in s.rows]).det()
        assert is_positive_definite(s) == (signature(s) == (n, 0, 0))


# --------------------------------------------------------- smith normal form


def test_snf_frozen_examples():
    u, d, v = smith_normal_form(A2)
    assert d == Matrix([[1, 0], [0, 3]])
    assert u @ A2 @ v == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1

    _, d, _ = smith_normal_form(Matrix([[2, 0], [0, 3]]))
    assert d == Matrix([[1, 0], [0, 6]])  # cyclic group Z/2 x Z/3 = Z/6

    _, d, _ = smith_normal_form(Matrix([[0]]))
    assert d == Matrix([[0]])

    _, d, _ = smith_normal_form(Matrix.diagonal([4, 6]))
    assert d == Matrix([[2, 0], [0, 12]])


def test_snf_rectangular():
    a = Matrix([[2, 4, 6], [4, 8, 12]])
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert d[0, 0] == 2
    assert all(d[i, j] == 0 for i in range(2) for j in range(3) if (i, j) != (0, 0))


def test_snf_property_sweep():
    rng = random.Random(303)
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, n, m)
        u, d, v = smith_normal_form(a)
        assert u @ a @ v == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [d[i, i] for i in range(min(n, m))]
        assert all(d[i, j] == 0 for i in range(n) for j in range(m) if i != j)
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0)
        if n == m:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det(a))


_ENTRY = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9)),
                   st.integers(-10**40, 10**40))


@st.composite
def _rectangular(draw):
    # sparse, dense and huge entries, with a zero row and a zero column drawn in
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=1)):
        rows[i] = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        for r in rows:
            r[j] = 0
    return Matrix(rows)


@st.composite
def _glue_rows(draw):
    # [d I; lifts] as overlattice_from_glue forms it, over an ADE discriminant
    # form, for classes that need not span an isotropic group
    lat = root_lattice(draw(st.sampled_from(("A1", "A3", "A7", "3A1", "5A1", "2A2",
                                              "3A3", "D4", "2D4", "D6", "E6", "E7"))))
    divs = lat.discriminant_group().divisors
    d, n = divs[-1], lat.rank
    classes = draw(st.lists(st.tuples(*(st.integers(0, di - 1) for di in divs)),
                            min_size=1, max_size=3))
    lifts = [lat._lift_numerators(x)[1] for x in classes]
    return Matrix([[d * (i == j) for j in range(n)] for i in range(n)] + lifts)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_rectangular(), _glue_rows()))
def test_snf_matches_dense_oracle(a):
    # the sparse elimination takes the dense one's pivots: U, D, V and the
    # tracked sign all agree
    assert (*smith_normal_form(a), _eliminate(a)[2]) == \
        dense_smith_normal_form(a, _signed=True)


# ----------------------------------------------------------------- congruence

_SPARSE = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_congruent_matches_dense_product(data):
    # B S B^t / den on row nonzeros against the dense product: equal where
    # den divides every entry, None exactly where it does not; the mismatch
    # reader finds none against the product, nor against the product over
    # den scaled by den, and names the one changed upper-triangle entry
    k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    b = data.draw(st.lists(st.lists(_SPARSE, min_size=n, max_size=n),
                           min_size=k, max_size=k))
    upper = data.draw(st.lists(_SPARSE, min_size=n * n, max_size=n * n))
    s = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    den = data.draw(st.integers(1, 6))
    dense = (Matrix(b) @ Matrix(s) @ Matrix(b).T).num
    got = _congruent(_nonzeros(b), _nonzeros(s), den)
    if any(x % den for r in dense for x in r):
        assert got is None
    else:
        assert got == tuple(tuple(x // den for x in r) for r in dense)
        assert _congruence_mismatch(list(zip(*b)), _nonzeros(s), got, den,
                                    _packed_rows(_nonzeros(s), got)) is None
    assert _congruence_mismatch(list(zip(*b)), _nonzeros(s), dense, 1,
                                _packed_rows(_nonzeros(s), dense)) is None
    i = data.draw(st.integers(0, k - 1))
    j = data.draw(st.integers(i, k - 1))
    changed = [list(r) for r in dense]
    changed[i][j] += data.draw(st.sampled_from((-1, 1, 7)))
    got = _congruence_mismatch(list(zip(*b)), _nonzeros(s), changed, 1,
                               _packed_rows(_nonzeros(s), changed))
    assert got == (i, j, dense[i][j])


def _first_upper_mismatch(w, target):
    return next(((i, l, w[i][l]) for i in range(len(w)) for l in range(i, len(w))
                 if w[i][l] != target[i][l]), None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_congruence_mismatch_matches_dense_product_on_packed_slots(data):
    # the packed reader against the dense MᵀSM, for a rectangular M and a
    # symmetric S and E (as every caller's are), with zero, negative and
    # large entries: 2^40 entries, and M scaled by up to 2^31, need slots
    # wider than 8 bytes. E is MᵀSM or a symmetric change of it; M scaled
    # by k scales the product by k², which scale = k² then matches
    rows, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))

    def ints(count):
        size = data.draw(st.sampled_from((0, 3, 2**40)))
        return data.draw(st.lists(st.integers(-size, size), min_size=count,
                                  max_size=count))

    flat = ints(rows * n)
    m = [flat[i * n:(i + 1) * n] for i in range(rows)]
    upper = ints(rows * rows)
    s = [[upper[min(i, j) * rows + max(i, j)] for j in range(rows)] for i in range(rows)]
    e = [list(r) for r in (Matrix(m).T @ Matrix(s) @ Matrix(m)).num]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        delta = data.draw(st.sampled_from((-1, 1, 2**70)))
        e[i][j] += delta
        if i != j:
            e[j][i] += delta
    k = data.draw(st.sampled_from((1, -1, 2, -3, 2**31)))
    mk = [[k * x for x in r] for r in m]
    want = _first_upper_mismatch((Matrix(mk).T @ Matrix(s) @ Matrix(mk)).num,
                                 [[k * k * x for x in r] for r in e])
    assert _congruence_mismatch(mk, _nonzeros(s), e, k * k,
                                _packed_rows(_nonzeros(s), e)) == want


def test_congruence_mismatch_slots_hold_what_is_packed():
    # the slot width bounds M and E themselves, not only M^t S M: a zero S
    # or a zero scale bounds nothing, but M and E are packed all the same
    zero, big = _nonzeros([[0, 0], [0, 0]]), [[2**70, -2**70], [1, 0]]
    e0, e1 = [[0, 0], [0, 0]], [[0, 2**70], [2**70, 0]]
    assert _congruence_mismatch(big, zero, e0, 1, _packed_rows(zero, e0)) is None
    assert _congruence_mismatch(big, zero, e1, 1, _packed_rows(zero, e1)) == (0, 1, 0)
    s, e = _nonzeros([[2]]), [[2**70]]
    assert _congruence_mismatch([[1]], s, e, 0, _packed_rows(s, e)) == (0, 0, 2)


def test_congruence_mismatch_packs_only_the_rows_read(monkeypatch):
    # the A30 involution with entry (0, 0) raised by one differs in row 0 of
    # M^t S1 M, which reads rows 0 and last of S1 M, the nonzeros of column 0
    # of M; they read rows last and 0 of M: two rows are packed, not 34
    form = ExtendedForm(root_lattice("A30"))
    rows = [list(r) for r in form.involution().matrix.num]
    rows[0][0] += 1
    packs = helpers.record_calls(monkeypatch, "_pack")
    assert form.classify_witness(rows)[1]["check"] == "form-congruence"
    assert [c[0] for c in packs] == [tuple(rows[-1]), tuple(rows[0])]


def test_entry_bound_is_16_bits_or_the_largest_entry():
    assert _entry_bound([[32767, -32768], [0, 5]]) == 2**15
    assert _entry_bound([[32768, 0], [0, 5]]) == 32768
    assert _entry_bound([[1, -32769]]) == 32769
    assert _entry_bound([[3, -2**70]]) == 2**70


# -------------------------------------------------------------------- helpers


def test_dot():
    # inner products are row-times-vector products
    assert Matrix([[1, 2, 3]]) @ (4, 5, 6) == (32,)
    assert (4, 5, 6) @ Matrix([[1], [2], [3]]) == (32,)
    assert Matrix([[Fraction(1, 2)]]) @ (2,) == (1,)
    assert isinstance((Matrix([[Fraction(1, 2)]]) @ (2,))[0], int)
    with pytest.raises(ValueError):
        Matrix([[1]]) @ (1, 2)
    with pytest.raises(ValueError):
        (1, 2) @ Matrix([[1]])


def test_vec_gcd():
    assert vec_gcd((4, -6, 10)) == 2
    assert vec_gcd((0, 0)) == 0
    assert vec_gcd((0, 7)) == 7
    assert vec_gcd(()) == 0 and vec_gcd((True, -3)) == 1
    for bad in ((Fraction(1, 2),), (1.5,), (4, 1.5)):
        with pytest.raises(ValueError):
            vec_gcd(bad)
