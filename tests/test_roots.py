"""ADE root lattices, name parsing, and the closed-form maximality test.

Independent oracles: Gram matrices are frozen from the simple-root models
written out by hand; determinants follow the classical values n+1 / 4 /
3,2,1; the closed form is cross-checked against a brute-force scan of the
discriminant form, which shares no code with it.
"""

from fractions import Fraction

import pytest

import evenlat.lattices
import helpers
from evenlat import (
    Matrix,
    a_generator_class,
    det,
    is_maximal_even,
    maximality_formula,
    parse_name,
    root_lattice,
    squarefree,
)
from evenlat.roots import MAX_RANK


# -------------------------------------------------------------------- parsing


def test_parse_name():
    assert parse_name("A7") == (1, "A", 7, False)
    assert parse_name("D8+") == (1, "D", 8, True)
    assert parse_name("4A1") == (4, "A", 1, False)
    assert parse_name("  E8  ") == (1, "E", 8, False)
    assert parse_name("12D4") == (12, "D", 4, False)


@pytest.mark.parametrize("bad", ["B3", "", "A", "D8++", "0A1", "a1", "A-1", "A01", "04A1",
                                 5, None])
def test_parse_name_rejects(bad):
    with pytest.raises(ValueError):
        parse_name(bad)


def test_parse_name_bounds_the_rank():
    assert MAX_RANK == 256
    assert parse_name(f"A{MAX_RANK}") == (1, "A", MAX_RANK, False)
    assert parse_name(f"{MAX_RANK // 2}A2") == (MAX_RANK // 2, "A", 2, False)
    for bad in (f"A{MAX_RANK + 1}", f"{MAX_RANK + 1}A1", "2D129", "33D8+"):
        with pytest.raises(ValueError, match=f"above the limit {MAX_RANK}"):
            parse_name(bad)


@pytest.mark.parametrize("bad", ["A0", "D1", "E5", "E9", "A2+", "E8+", "D7+", "D12+"])
def test_root_lattice_rejects(bad):
    with pytest.raises(ValueError):
        root_lattice(bad)


# -------------------------------------------------------------- gram matrices


def test_a_series_gram():
    assert root_lattice("A1").gram == Matrix([[2]])
    assert root_lattice("A3").gram == Matrix(
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )
    for n in range(1, 9):
        lat = root_lattice(f"A{n}")
        assert lat.determinant == n + 1
        assert lat.is_positive_definite


def test_d_series_gram():
    assert root_lattice("D4").gram == Matrix(
        [[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]]
    )
    for n in range(2, 10):
        lat = root_lattice(f"D{n}")
        assert lat.determinant == 4
        assert lat.is_positive_definite
    # the Gram is B B^T for the basis e1+e2, e1-e2, e2-e3, ..., e_{n-1}-e_n
    for n in range(2, 40):
        basis = [[1, 1] + [0] * (n - 2), [1, -1] + [0] * (n - 2)]
        basis += [[int(j == i - 1) - int(j == i) for j in range(n)] for i in range(2, n)]
        b = Matrix(basis)
        assert root_lattice(f"D{n}").gram == b @ b.T
    # D3 and A3 present the same lattice in different bases: same divisors
    assert (
        root_lattice("D3").discriminant_group().divisors
        == root_lattice("A3").discriminant_group().divisors
        == (4,)
    )


def test_e_series_gram():
    e8 = root_lattice("E8")
    assert e8.gram == Matrix([
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ])
    assert [root_lattice(f"E{n}").determinant for n in (6, 7, 8)] == [3, 2, 1]
    assert all(root_lattice(f"E{n}").is_positive_definite for n in (6, 7, 8))
    # E8 is unimodular: trivial discriminant group
    assert root_lattice("E8").discriminant_group().order == 1


def test_multiplicity_prefix():
    lat = root_lattice("3A2")
    assert lat.rank == 6
    assert lat.name == "3A2"
    assert lat.determinant == 27
    a2 = root_lattice("A2").gram
    for b in range(3):
        assert lat.gram.submatrix(range(2 * b, 2 * b + 2),
                                  range(2 * b, 2 * b + 2)) == a2
    assert root_lattice("4A1").gram == 2 * Matrix.identity(4)


@pytest.mark.parametrize("single,multiple", [("A1", "4A1"), ("D8+", "2D8+")])
def test_multiplicity_builds_one_summand(monkeypatch, single, multiple):
    # kX sums k copies of one built X: the same Smith forms and overlattices
    # as X alone, no definiteness pass while building, and reading definiteness
    # runs the one pass of X
    def calls(name):
        passes = helpers.record_calls(monkeypatch, "_positive_definite")
        smith = helpers.record_calls(monkeypatch, "_eliminate")
        glued = helpers.record_calls(monkeypatch, "overlattice_from_glue",
                                     owner=evenlat.lattices)
        lat = root_lattice(name)
        built = len(passes)
        assert lat.is_positive_definite
        monkeypatch.undo()
        return built, passes, smith, len(glued)

    want = calls(single)
    assert calls(multiple) == want
    built, passes, smith, glued = want
    # one elimination: the D8+ glue class replays the log of D8's
    assert built == 0 and len(passes) == 1 and len(smith) == 1
    assert glued == (single != "A1")


# -------------------------------------------------------------- glued D-series


def test_d8_plus():
    lat = root_lattice("D8+")
    assert lat.rank == 8
    assert lat.determinant == 1
    assert lat.name == "D8+"
    assert lat.is_positive_definite
    assert is_maximal_even(lat)


def test_d16_plus():
    lat = root_lattice("D16+")
    assert lat.rank == 16
    assert lat.determinant == 1
    assert all(lat.gram[i, i] % 2 == 0 for i in range(16))


def test_d_plus_requires_multiple_of_8():
    for bad in ("D2+", "D4+", "D6+", "D10+", "D12+"):
        with pytest.raises(ValueError):
            root_lattice(bad)


# ------------------------------------------------------------------ squarefree


def test_squarefree_frozen_and_brute():
    def brute(n):
        return all(n % (k * k) for k in range(2, n + 1))

    for n in range(1, 200):
        assert squarefree(n) == brute(n)
    assert squarefree(1) and squarefree(30)
    assert not squarefree(4) and not squarefree(12)
    for bad in (0, 2.5, True, Fraction(4)):
        with pytest.raises(ValueError, match="need a positive integer"):
            squarefree(bad)


# ------------------------------------------------------- generator class of A_n


def test_a_generator_class_q_values():
    # the standard generator has q = n / (2(n+1)) and full order n+1
    for n in range(1, 11):
        lat = root_lattice(f"A{n}")
        disc = lat.discriminant_group()
        cls = a_generator_class(lat)
        assert disc.element_order(cls) == n + 1
        q = Fraction(n, 2 * (n + 1))
        assert disc.q_value(cls) == q - (q // 1)


# ------------------------------------------------------------- maximality test


def test_maximality_formula_frozen_a_series():
    # hand values: n+1 squarefree (n even) / (n+1)/2 squarefree (n odd)
    expect = [True, True, True, True, True, True, False,
              False, True, True, True, True]  # A1..A12
    got = [maximality_formula("A", n) for n in range(1, 13)]
    assert got == expect


def test_maximality_formula_matches_scan():
    for n in range(1, 17):
        assert maximality_formula("A", n) == is_maximal_even(
            root_lattice(f"A{n}")
        ), f"A{n}"
    for n in range(2, 17):
        assert maximality_formula("D", n) == is_maximal_even(
            root_lattice(f"D{n}")
        ), f"D{n}"
    for n in (6, 7, 8):
        assert maximality_formula("E", n) is True
        assert is_maximal_even(root_lattice(f"E{n}"))


def test_maximality_formula_rejects():
    for family, n in [("A", 0), ("D", 1), ("E", 5), ("F", 4), ("A", 2.5),
                      ("A", True), ("D", 8.0), ("E", "6")]:
        with pytest.raises(ValueError):
            maximality_formula(family, n)
