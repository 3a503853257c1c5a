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
  isotropic elements to decide maximality;
* glue search on integer codes: the orthogonality-pruned search on
  coordinate tuples that it replaced (``tuple_glue_search``), on modules of
  order up to 1024, where the first oracle is too slow;
* overlattices: the Hermite form H of [d I; d lifts] by ``sympy`` (an
  independent HNF), then H S H^t / d^2 and the embedding (d H^-1)^t by dense
  products, for every glue group of every input; each overlattice's own
  discriminant form must be anisotropic and its determinant the Bareiss
  determinant of its Gram. The kernel ``_hnf_mod`` must return the same
  reduced rows whichever generating set of the group it is fed.

Inputs: every ADE sum of rank <= 8 whose discriminant order is <= 256, and
``hypothesis``-drawn even Grams of rank <= 4 with |det| <= 256; for the
tuple search also 9A1, 2D4 + 3A1, 4A3 + 2A1 and Grams of rank <= 5 with
|det| <= 1024 built around blocks with Z/4, Z/8 and Z/9 parts. The Smith
normal form, which both layers share, is checked for its identities and
against ``sympy``'s invariant factors (``sympy`` is a test-only oracle).
"""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import helpers
from evenlat import (
    EvenLattice, Matrix, det, direct_sum, overlattice_from_glue, root_lattice,
    smith_normal_form,
)
from evenlat.matrices import _hnf_mod
from evenlat.quadmod import MAX_GLUE_ORDER

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
        new = helpers.tuple_closure(mod, span, x)
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


def tuple_glue_search(mod):
    """(chain, span) of every maximal totally isotropic subgroup.

    The orthogonality-pruned search on coordinate tuples, as it stood before
    the search moved to integer codes, copied verbatim but for its closure,
    which is ``helpers.tuple_closure`` (its ``_closure_with`` verbatim).
    """
    self = mod
    max_order = MAX_GLUE_ORDER
    self._guard(max_order)
    iso = self.isotropic_elements(max_order)
    index = {x: i for i, x in enumerate(iso)}
    n = self._den // 2
    gram = self._igram
    orth = {}
    found = []

    def orth_mask(i):
        # isotropic y with b(x, y) = x^t (N lift_gram) y / N = 0 mod 1
        if i not in orth:
            gx = [sum(map(mul, row, iso[i])) % n for row in gram]
            orth[i] = sum(1 << j for j, y in enumerate(iso)
                          if sum(map(mul, gx, y)) % n == 0)
        return orth[i]

    def dfs(chain, span, cand, floor):
        rest = cand >> (floor + 1) << (floor + 1)
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            x = iso[i]
            new = helpers.tuple_closure(self, span, x)
            added = new - span
            if min(added) != x:
                continue  # not the canonical chain for that subgroup
            gone = sum(1 << index[y] for y in added)
            dfs(chain + [x], new, cand & orth_mask(i) & ~gone, i)
        if not cand:
            found.append((tuple(chain), span))

    dfs([], frozenset([self.zero]), (1 << len(iso)) - 1, -1)
    found.sort(key=lambda t: (len(t[1]), t[0]))
    return found


def oracle_overlattice(lat, glue):
    """(Gram, embedding) of the glue overlattice by an independent HNF.

    The generators [d I; d lifts] go in as the columns of a matrix with the
    coordinates reversed; ``sympy``'s column Hermite form of it, transposed
    and reversed back, is the upper triangular row form H with reduced
    entries above each pivot. Then Gram H S H^t / d^2 and embedding
    (d H^-1)^t, with the Gauss-Jordan ``helpers.inverse``.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    n = lat.rank
    divisors = lat.discriminant_group().divisors
    d = divisors[-1] if divisors else 1
    gens = [[d * int(i == j) for j in range(n)] for i in range(n)]
    gens += [[int(d * x) for x in lat.lift(g)] for g in glue.generators]
    w = hermite_normal_form(sympy.Matrix([[g[n - 1 - i] for g in gens]
                                          for i in range(n)])).T
    h = Matrix([[int(w[n - 1 - i, n - 1 - j]) for j in range(n)] for i in range(n)])
    gram = h @ lat.gram @ h.T * Fraction(1, d * d)
    emb = (helpers.inverse(h) * d).T
    return gram, emb


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
    glues = mod.maximal_isotropic_subgroups()
    assert [(g.generators, g.elements()) for g in glues] == oracle_glue(mod)
    for glue in glues:
        over, emb = overlattice_from_glue(lat, glue)
        gram, m = oracle_overlattice(lat, glue)
        assert (over.gram, emb.matrix) == (gram, m)
        assert m.T @ gram @ m == lat.gram
        # what the CLI reports without a scan: a maximal glue group gives a
        # maximal even overlattice, of determinant det L / |H|^2
        assert over.discriminant_group().is_anisotropic()
        assert over.determinant == det(gram)


# ---------------------------------------------------------------------- tests


def test_ade_family_covers_the_hard_cases():
    assert len(ADE_SUMS) == 100
    assert ("A1",) * 8 in ADE_SUMS and ("A2",) * 4 in ADE_SUMS
    assert ("A1", "A1", "A1", "A1", "D4") in ADE_SUMS


@pytest.mark.parametrize("names", ADE_SUMS, ids="+".join)
def test_ade_sums_match_oracles(names):
    check_against_oracles(direct_sum(*(root_lattice(n) for n in names)))


def test_overlattice_basis_is_canonical():
    # the kernel itself, since GlueGroup reduces any generating set to its
    # canonical chain first: the lifts of the canonical generators and of
    # every element in a shuffled order span the same d M, so give the same
    # rows, and those rows are reduced
    rng = random.Random(0)
    for names in ADE_SUMS:
        lat = direct_sum(*(root_lattice(n) for n in names))
        n, divisors = lat.rank, lat.discriminant_group().divisors
        d = divisors[-1] if divisors else 1
        for glue in lat.discriminant_group().maximal_isotropic_subgroups():
            elements = list(glue.elements())
            rng.shuffle(elements)
            rows = _hnf_mod([lat._lift_numerators(g)[1] for g in glue.generators], d, n)
            assert _hnf_mod([lat._lift_numerators(g)[1] for g in elements], d, n) == rows
            full = [dict(row) for row in rows]
            assert all(full[j] and 0 not in full[j].values() for j in range(n))
            for j in range(n):
                h = full[j].get(j, 0)
                assert h > 0 and d % h == 0 and rows[j][0] == (j, h)
                assert all(0 <= full[k].get(j, 0) < h for k in range(j))
                assert all(j not in full[k] for k in range(j + 1, n))


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


@pytest.mark.parametrize("names", [
    ("9A1",), ("D4", "D4", "A1", "A1", "A1"), ("A3",) * 4 + ("A1", "A1"),
], ids="+".join)
def test_glue_search_matches_tuple_search(names):
    # modules of order 512, 128 and 1024; 9A1 has 270 maximal subgroups
    mod = direct_sum(*(root_lattice(n) for n in names)).discriminant_group()
    got = [(g.generators, g.elements()) for g in mod.maximal_isotropic_subgroups()]
    assert got == tuple_glue_search(mod)


# blocks with discriminant Z/4, Z/8, Z/9 (det -9), Z/3 x Z/9 and Z/2 x Z/6
BLOCKS = ([[4]], [[8]], [[2, 1], [1, -4]], [[6, 3], [3, 6]], [[4, 2], [2, 4]])


@st.composite
def grams_with_blocks(draw, max_rank=5):
    rows = []
    for block in draw(st.lists(st.sampled_from(BLOCKS), max_size=2)):
        rows = _block_sum(rows, block)
    if len(rows) < max_rank:
        rows = _block_sum(rows, draw(even_grams(max_rank - len(rows))).rows)
    return Matrix(rows)


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(r) + [0] * m for r in a] + [[0] * n + list(r) for r in b]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(grams_with_blocks())
@example(Matrix([[4, 0, 0], [0, 4, 0], [0, 0, 8]]))
@example(Matrix(_block_sum([[8]], [[2, 1], [1, -4]])))
@example(Matrix(_block_sum([[2, 1], [1, -4]], [[2, 1], [1, -4]])))
@example(Matrix(_block_sum(_block_sum([[4]], [[4]]), _block_sum([[4]], [[4]]))))
def test_random_glue_search_matches_tuple_search(gram):
    d = det(gram)
    assume(d != 0 and abs(d) <= 1024)
    mod = EvenLattice(gram).discriminant_group()
    got = [(g.generators, g.elements()) for g in mod.maximal_isotropic_subgroups()]
    assert got == tuple_glue_search(mod)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=m, max_size=m))))
def test_smith_normal_form_identities_and_divisors(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    a = Matrix(rows)
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    diag = [d[i, i] for i in range(min(a.shape))]
    assert all(d[i, j] == 0 for i in range(d.nrows) for j in range(d.ncols)
               if i != j)
    expected = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows))]
    assert [x for x in diag if x] == [x for x in expected if x]
