"""The three lattice-side kernels that work on nonzeros, against dense oracles.

* ``_congruent`` forms B S B^t / den only where two rows of B meet a common
  column; the oracle is the dense triple product on lists, with ``None``
  exactly where den does not divide an entry.
* ``_eliminate`` swaps columns through a map of row keys; the oracle is
  ``helpers.rowkey_eliminate``, the elimination that moved the entries of
  every row on a swap, which must give the same (diagonal, V, sign, log).
* ``_positive_definite`` eliminates on sparse rows, fewest nonzeros first;
  the oracles are Sylvester's test on the Bareiss determinants of the
  leading minors and ``sympy``'s definiteness, on definite, semidefinite,
  indefinite, forest and dense Grams.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from evenlat import Matrix, root_lattice
from evenlat.matrices import _bareiss, _congruent, _eliminate, _nonzeros, _positive_definite

sympy = pytest.importorskip("sympy")

_SMALL = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, -5))


def _dense_congruence(b, s):
    bs = [[sum(x * s[k][j] for k, x in enumerate(r)) for j in range(len(s))] for r in b]
    return [[sum(x * y for x, y in zip(r, c)) for c in b] for r in bs]


@st.composite
def _congruence_case(draw):
    # S symmetric n x n; B with k rows, k independent of n, some rows empty;
    # with supports drawn inside a partition of the columns, rows of
    # different parts are disjoint
    n, k = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    upper = draw(st.lists(_SMALL, min_size=n * n, max_size=n * n))
    s = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    b = []
    for _ in range(k):
        home = draw(st.integers(0, 3))  # 3: no part, a row that may hit any column
        row = draw(st.lists(_SMALL, min_size=n, max_size=n))
        if draw(st.integers(0, 4)) == 0:
            row = [0] * n
        b.append([x if home == 3 or part[j] == home else 0 for j, x in enumerate(row)])
    return b, s, draw(st.sampled_from((1, 1, 2, 3, 4, 9)))


@settings(max_examples=300, deadline=None)
@given(_congruence_case())
def test_congruent_matches_dense_triple_product(case):
    b, s, den = case
    dense = _dense_congruence(b, s)
    got = _congruent(_nonzeros(b), _nonzeros(s), den)
    if any(x % den for r in dense for x in r):
        assert got is None
    else:
        assert got == tuple(tuple(x // den for x in r) for r in dense)


def test_congruent_edge_shapes():
    s = _nonzeros(root_lattice("A3").gram.num)
    assert _congruent([], s) == ()
    assert _congruent([[], []], s) == ((0, 0), (0, 0))
    # rows on columns 0 and 2 of A3 meet no common nonzero of B S
    b = _nonzeros([[1, 0, 0], [0, 0, 1]])
    assert _congruent(b, s) == ((2, 0), (0, 2))
    assert _congruent(b, s, 2) == ((1, 0), (0, 1))
    # one odd entry makes the division by 2 inexact
    assert _congruent(_nonzeros([[1, 0, 0], [0, 1, 0]]), s, 2) is None
    # dense rows of B over the sparse A30 Gram
    rng = random.Random(4)
    n = 30
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a30 = root_lattice("A30").gram.num
    assert _congruent(_nonzeros(rows), _nonzeros(a30)) == tuple(
        map(tuple, _dense_congruence(rows, a30)))


# ------------------------------------------------------------------ Smith


_ENTRY = st.one_of(_SMALL, st.integers(-10**30, 10**30))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda m: st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))))
def test_eliminate_matches_rowkey_oracle(rows):
    a = Matrix(rows)
    assert _eliminate(a) == helpers.rowkey_eliminate(a)


def test_eliminate_matches_rowkey_oracle_on_ade_grams():
    rng = random.Random(11)
    grams = [root_lattice(f"A{n}").gram for n in range(1, 41)]
    grams += [root_lattice(f"D{n}").gram for n in range(4, 41)]
    for g in grams:
        assert _eliminate(g) == helpers.rowkey_eliminate(g)
    for g in rng.sample(grams, 12):
        # a basis permuted and sheared, so that swaps land far apart
        n = g.nrows
        perm = rng.sample(range(n), n)
        p = Matrix([[int(i == perm[j]) + (j == i + 1) for j in range(n)] for i in range(n)])
        moved = p.T @ g @ p
        assert _eliminate(moved) == helpers.rowkey_eliminate(moved)


# -------------------------------------------------------------- definiteness


def _sylvester(rows) -> bool:
    return all(_bareiss([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


def _gram(b):
    """B^t B for the rows of B."""
    n = len(b[0])
    return [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]


@st.composite
def _symmetric(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("definite", "semidefinite", "indefinite",
                                 "forest", "dense")))
    if kind in ("definite", "semidefinite", "dense"):
        k = {"definite": n + 1, "semidefinite": max(1, n - 1), "dense": n}[kind]
        entry = st.integers(-4, 4) if kind == "dense" else _SMALL
        b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        g = _gram(b)
        shift = draw(st.integers(0, 1)) if kind != "semidefinite" else 0
        return [[x + shift * (i == j) for j, x in enumerate(r)] for i, r in enumerate(g)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.integers(-3, 6))
        if kind == "forest":
            j = draw(st.sampled_from([*range(i), None]))
            if j is not None:
                g[i][j] = g[j][i] = draw(st.integers(-3, 3))
        else:
            for j in range(i):
                g[i][j] = g[j][i] = draw(_SMALL)
    return g


@settings(max_examples=400, deadline=None)
@given(_symmetric())
def test_positive_definite_matches_sylvester_and_sympy(g):
    want = _sylvester(g)
    assert _positive_definite(g) == want
    assert bool(sympy.Matrix(g).is_positive_definite) == want


def test_positive_definite_on_named_and_permuted_grams():
    rng = random.Random(23)
    for name in ("A1", "A40", "D40", "E8", "3A2", "A256", "D256", "D16+"):
        g = [list(r) for r in root_lattice(name).gram.num]
        n = len(g)
        perm = rng.sample(range(n), n)
        moved = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert _positive_definite(g) and _positive_definite(moved)
        for c, drop in ((n // 2, 1), (n - 1, 1), (0, 2)):
            low = [r[:] for r in moved]
            low[c][c] -= drop
            if n <= 40:
                assert _positive_definite(low) == _sylvester(low), (name, c, drop)
            elif drop == 2:
                assert not _positive_definite(low)  # a zero diagonal entry


def test_positive_definite_on_dense_rank_60():
    # entries stay minors: rank 60 takes milliseconds, while an elimination
    # whose entries grow exponentially would not finish
    rng = random.Random(60)
    n = 60
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    g = _gram(b)
    g = [[x + (i == j) for j, x in enumerate(r)] for i, r in enumerate(g)]
    assert _positive_definite(g)
    assert _bareiss(g) > 0
    # a negative diagonal entry: indefinite
    g[n - 1][n - 1] = -1
    assert not _positive_definite(g)
    # a row and column of zeros: singular, so not definite
    g = [r[:n - 1] + [0] for r in g[:n - 1]] + [[0] * n]
    assert not _positive_definite(g)
