"""The determinant a lattice reads off its one Smith elimination.

``EvenLattice`` runs no Bareiss pass: its determinant is det U * det V times
the product of the Smith divisors, with the sign tracked through the row and
column swaps and the final negations of the elimination
(``matrices._eliminate``). The oracles
are the Bareiss ``det`` of ``matrices`` and ``sympy``'s determinant over ZZ
(``sympy`` is a test-only dependency), on ``hypothesis``-drawn even Grams,
definite and indefinite, and on the ADE Grams. The discriminant form must
also not see the basis: its divisors and its multiset of q values are the
same after a random unimodular change of basis P^T G P.
"""

import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evenlat import (
    EvenLattice, Matrix, det, direct_sum, is_positive_definite, root_lattice,
)
from evenlat.matrices import _bareiss, _eliminate, smith_normal_form

sympy = pytest.importorskip("sympy")

ADE = ([f"A{n}" for n in range(1, 31)] + [f"D{n}" for n in range(4, 25)]
       + ["E6", "E7", "E8"])


def sympy_det(g: Matrix) -> int:
    return int(sympy.Matrix(g.rows).to_DM().det())


def unimodular(n: int, rng: random.Random, steps: int) -> Matrix:
    """A product of random column negations and additions of a multiple of
    one column to another."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        q = 0 if i == j or rng.random() < 0.2 else rng.choice((-2, -1, 1, 2))
        for r in p:
            r[i] = r[i] + q * r[j] if q else -r[i]
    return Matrix(p)


@st.composite
def even_grams(draw):
    """(Gram, definite by construction): B^T A_n B is positive definite for a
    nonsingular B; otherwise a symmetric matrix with an even diagonal."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        b = Matrix(draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                 min_size=n, max_size=n)))
        assume(det(b) != 0)
        return b.T @ root_lattice(f"A{n}").gram @ b, True
    low = draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            x = low[i * n + j]
            rows[i][j] = rows[j][i] = 2 * x if i == j else x
    g = Matrix(rows)
    assume(det(g) != 0)
    return g, False


@settings(max_examples=50, deadline=None)
@given(even_grams())
def test_smith_determinant_matches_bareiss_and_sympy(case):
    g, definite = case
    lat = EvenLattice(g)
    assert lat.determinant == det(g) == sympy_det(g)
    assert lat.is_positive_definite == is_positive_definite(g)
    assert lat.is_positive_definite or not definite


def test_smith_determinant_on_ade_grams():
    for name in ADE:
        lat = root_lattice(name)
        assert lat.determinant == det(lat.gram) == sympy_det(lat.gram), name


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_tracked_sign_is_det_u_times_det_v(rows):
    # any square matrix, singular ones too
    a = Matrix(rows)
    u, d, v = smith_normal_form(a)
    full, _, sign, _ = _eliminate(a)
    assert u @ a @ v == d
    assert full == tuple(d[i, i] for i in range(d.nrows))
    assert sign == _bareiss(u.num) * _bareiss(v.num)
    assert det(a) == sign * prod(d[i, i] for i in range(d.nrows))


def _form_invariants(lat: EvenLattice):
    disc = lat.discriminant_group()
    return disc.divisors, sorted(disc.q_table().values())


@pytest.mark.parametrize("name", ["A4", "A7", "D4", "D6", "E6", "E7", "2A2", "A1 + A3"])
def test_discriminant_form_ignores_the_basis_ade(name):
    g = direct_sum(*map(root_lattice, name.split(" + "))).gram
    rng = random.Random(name)
    want = _form_invariants(EvenLattice(g))
    for _ in range(3):
        p = unimodular(g.nrows, rng, 3 * g.nrows)
        moved = EvenLattice(p.T @ g @ p)
        assert moved.determinant == det(g)
        assert _form_invariants(moved) == want


# even blocks, definite and indefinite, by |det|, from 1 to 9
_BLOCKS = {b: abs(_bareiss(b)) for b in [
    root_lattice(name).gram.num for name in ("A1", "A2", "A3", "D4", "E8")] + [
    ((-2,),), ((4,),), ((-6,),), ((0, 1), (1, 0)), ((2, 1), (1, -2)), ((2, 1), (1, 4)),
    ((0, 3), (3, 2)), ((-2, 1), (1, -4))]}


@st.composite
def small_det_grams(draw):
    """A nondegenerate even Gram of rank <= 8 with |det| <= 128 by
    construction, so that no draw is filtered: a direct sum of blocks whose
    determinants multiply to at most 128 in absolute value, in a basis
    changed by a unimodular matrix, which keeps the determinant."""
    blocks, bound, rank = [], 128, 0
    fits = list(_BLOCKS)
    while fits and (not blocks or draw(st.booleans())):
        block = draw(st.sampled_from(fits))
        blocks.append(block)
        bound //= _BLOCKS[block]
        rank += len(block)
        fits = [b for b, d in _BLOCKS.items() if d <= bound and rank + len(b) <= 8]
    g = direct_sum(*(EvenLattice(Matrix(b)) for b in blocks)).gram
    p = unimodular(rank, random.Random(draw(st.integers(0, 2**32))), 2 * rank)
    return p.T @ g @ p


@settings(max_examples=25, deadline=None)
@given(small_det_grams(), st.integers(0, 2**32))
def test_discriminant_form_ignores_the_basis(g, seed):
    assert abs(det(g)) <= 128
    p = unimodular(g.nrows, random.Random(seed), 2 * g.nrows)
    assert _form_invariants(EvenLattice(p.T @ g @ p)) == _form_invariants(EvenLattice(g))
