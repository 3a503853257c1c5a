"""The integer discriminant-form layer against the algorithms it replaced.

The oracles below are the ``Fraction`` layer as it stood before the integer
lift Gram, the per-prime anisotropy scan and the orthogonality-pruned glue
search:

* lift Gram: lifts V[:, i]/d_i reduced into [0, 1), and their Gram matrix
  summed entry by entry over ``Fraction``; ``EvenLattice.lift`` of each
  generator must give those lifts;
* adjugate: ``helpers.inverse`` (Gauss-Jordan over ``Fraction``) times |det S|;
* anisotropy: a scan over every element of the module;
* glue search: the depth-first search that builds the closure of each
  candidate, tests every new element for isotropy, and rescans all
  isotropic elements to decide maximality.

Inputs: every ADE sum of rank <= 8 whose discriminant order is <= 256, and
``hypothesis``-drawn even Grams of rank <= 4 with |det| <= 256. The Smith
normal form, which both layers share, is checked for its identities and
against ``sympy``'s invariant factors (``sympy`` is a test-only oracle).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from evenlat import (
    EvenLattice, Matrix, det, direct_sum, root_lattice, smith_normal_form,
)

# discriminant order and rank of each irreducible component
COMPONENTS = {
    "A1": (2, 1), "A2": (3, 2), "A3": (4, 3), "A4": (5, 4), "A5": (6, 5),
    "A6": (7, 6), "A7": (8, 7), "A8": (9, 8), "D4": (4, 4), "D5": (4, 5),
    "D6": (4, 6), "D7": (4, 7), "D8": (4, 8), "E6": (3, 6), "E7": (2, 7),
    "E8": (1, 8),
}


def ade_sums(max_order=256, max_rank=8):
    names = list(COMPONENTS)
    out = []

    def grow(start, acc, order, rank):
        if acc:
            out.append(tuple(acc))
        for i in range(start, len(names)):
            o, r = COMPONENTS[names[i]]
            if order * o <= max_order and rank + r <= max_rank:
                grow(i, acc + [names[i]], order * o, rank + r)

    grow(0, [], 1, 0)
    return out


ADE_SUMS = ade_sums()


# -------------------------------------------------------------------- oracles


def oracle_lifts_and_gram(lat):
    s = lat.gram
    _, d, v = smith_normal_form(s)
    full = [d[i, i] for i in range(d.nrows)]
    kept = [i for i, di in enumerate(full) if di > 1]
    lifts = []
    for i in kept:
        col = [Fraction(v[r, i], full[i]) for r in range(s.nrows)]
        lifts.append(tuple(c - (c // 1) for c in col))
    k = len(kept)
    gram = Matrix([
        [
            sum(lifts[a][r] * s[r, c] * lifts[b][c]
                for r in range(s.nrows) for c in range(s.ncols))
            for b in range(k)
        ]
        for a in range(k)
    ]) if k else Matrix.zeros(0, 0)
    return tuple(lifts), gram


def oracle_anisotropic(mod):
    zero = mod.zero
    return all(x == zero or mod.q_value(x) != 0 for x in mod.elements())


def oracle_glue(mod):
    """(chain, span) of every maximal totally isotropic subgroup."""
    zero = mod.zero
    iso = [x for x in mod.elements() if x != zero and mod.q_value(x) == 0]
    found = []

    def extension(span, x):
        new = mod._closure_with(span, x)
        if any(y not in span and mod.q_value(y) != 0 for y in new):
            return None
        return new

    def is_maximal(span):
        return all(x in span or extension(span, x) is None for x in iso)

    def dfs(chain, span):
        floor = chain[-1] if chain else None
        for x in iso:
            if floor is not None and x <= floor:
                continue
            if x in span:
                continue
            new = extension(span, x)
            if new is None:
                continue
            if min(new - span) != x:
                continue
            dfs(chain + [x], new)
        if is_maximal(span):
            found.append((tuple(chain), span))

    dfs([], frozenset([zero]))
    found.sort(key=lambda t: (len(t[1]), t[0]))
    return found


def check_against_oracles(lat):
    mod = lat.discriminant_group()
    lifts, gram = oracle_lifts_and_gram(lat)
    k = len(mod.divisors)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert tuple(lat.lift(e) for e in units) == lifts
    assert mod.lift_gram == gram
    # the Smith-form adjugate against the Gauss-Jordan inverse
    assert lat.adjugate == helpers.inverse(lat.gram) * abs(lat.determinant)
    assert mod.is_anisotropic() == oracle_anisotropic(mod)
    got = [(g.generators, g.elements()) for g in mod.maximal_isotropic_subgroups()]
    assert got == oracle_glue(mod)


# ---------------------------------------------------------------------- tests


def test_ade_family_covers_the_hard_cases():
    assert len(ADE_SUMS) == 100
    assert ("A1",) * 8 in ADE_SUMS and ("A2",) * 4 in ADE_SUMS
    assert ("A1", "A1", "A1", "A1", "D4") in ADE_SUMS


@pytest.mark.parametrize("names", ADE_SUMS, ids="+".join)
def test_ade_sums_match_oracles(names):
    check_against_oracles(direct_sum(*(root_lattice(n) for n in names)))


@st.composite
def even_grams(draw, max_rank=4):
    n = draw(st.integers(1, max_rank))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    return Matrix(rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(even_grams())
def test_random_even_grams_match_oracles(gram):
    d = det(gram)
    assume(d != 0 and abs(d) <= 256)
    check_against_oracles(EvenLattice(gram))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_smith_normal_form_identities_and_divisors(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    a = Matrix(rows)
    u, d, v, w = smith_normal_form(a, with_v_inverse=True)
    assert u @ a @ v == d
    assert w @ v == Matrix.identity(a.ncols)
    assert v @ w == Matrix.identity(a.ncols)
    assert smith_normal_form(a) == (u, d, v)
    diag = [d[i, i] for i in range(min(a.shape))]
    assert all(d[i, j] == 0 for i in range(d.nrows) for j in range(d.ncols)
               if i != j)
    expected = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows))]
    assert [x for x in diag if x] == [x for x in expected if x]
