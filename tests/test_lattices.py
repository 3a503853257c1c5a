"""Even lattices, dual classes, embeddings, and glue overlattices.

Independent oracles: small Gram matrices and dual vectors are worked out by
hand in the comments; direct-sum discriminant values are recombined
arithmetically from the summands rather than through the module under test.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evenlat.cli
import helpers
from evenlat import (
    EvenLattice,
    ExtendedForm,
    GlueGroup,
    LatticeEmbedding,
    Matrix,
    a_generator_class,
    det,
    direct_sum,
    is_maximal_even,
    is_positive_definite,
    overlattice_from_glue,
    root_lattice,
    smith_normal_form,
)
from evenlat.matrices import _eliminate

GOLDEN = Path(__file__).resolve().parent / "golden"


# ----------------------------------------------------------------- validation


def test_constructor_validation():
    with pytest.raises(ValueError):
        EvenLattice(Matrix([[1]]))  # odd diagonal
    with pytest.raises(ValueError):
        EvenLattice(Matrix([[2, 1], [0, 2]]))  # not symmetric
    with pytest.raises(ValueError):
        EvenLattice(Matrix([[2, 2], [2, 2]]))  # degenerate
    with pytest.raises(ValueError):
        EvenLattice(Matrix([[Fraction(1, 2)]]))  # not integral
    with pytest.raises(ValueError):
        EvenLattice(Matrix([[2, 1, 0], [1, 2, 1]]))  # not square


def test_basic_accessors():
    lat = root_lattice("A2")
    assert lat.rank == 2
    assert lat.determinant == 3
    assert lat.is_positive_definite
    assert lat.norm((1, 0)) == 2
    assert lat.inner((1, 0), (0, 1)) == -1
    assert lat.norm((1, 1)) == 2
    # both vectors are read as a product reads them: the right length, and
    # entries int or Fraction
    for u, v in (((1,), (1, 0)), ((1, 0, 7), (1, 0)), ((1, 0), (1,)),
                 ((1, 0), (1, 0, 7))):
        with pytest.raises(ValueError, match="shape mismatch"):
            lat.inner(u, v)
    for u, v in (((True, 0), (1, 0)), ((1, 0), (0, False)), ((1.0, 0), (1, 0))):
        with pytest.raises(TypeError):
            lat.inner(u, v)
    # indefinite even lattices are accepted
    hyp = EvenLattice(Matrix([[0, 1], [1, 0]]))
    assert not hyp.is_positive_definite
    assert hyp.determinant == -1


# ----------------------------------------------------------- dual-class logic


def test_element_from_dual_a2():
    lat = root_lattice("A2")
    disc = lat.discriminant_group()
    # by hand: S (2/3, 1/3) = (1, 0) is integral, q = (1/2)(2/3) = 1/3
    cls = lat.element_from_dual((Fraction(2, 3), Fraction(1, 3)))
    assert disc.element_order(cls) == 3
    assert disc.q_value(cls) == Fraction(1, 3)
    # a lattice vector lands on the zero class
    assert lat.element_from_dual((1, -2)) == disc.zero
    # lift of the class differs from the input by a lattice vector
    lift = lat.lift(cls)
    assert all(
        (Fraction(a) - b).denominator == 1
        for a, b in zip(lift, (Fraction(2, 3), Fraction(1, 3)))
    )


def test_element_from_dual_rejects_non_dual():
    lat = root_lattice("A2")
    with pytest.raises(ValueError):
        lat.element_from_dual((Fraction(1, 2), 0))  # S v not integral
    # entries are int or Fraction, not strings parsed by Fraction
    with pytest.raises(TypeError):
        lat.element_from_dual(["2/3", "1/3"])


def test_element_from_dual_is_additive():
    rng = random.Random(31)
    lat = root_lattice("D4")
    disc = lat.discriminant_group()
    sinv = helpers.inverse(lat.gram)

    def random_dual():
        # integer combination of the dual basis (columns of the inverse Gram)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(4))
        return sinv @ coeffs

    for _ in range(25):
        u, v = random_dual(), random_dual()
        s = tuple(a + b for a, b in zip(u, v))
        assert lat.element_from_dual(s) == disc.add(
            lat.element_from_dual(u), lat.element_from_dual(v)
        )


# ------------------------------------------------------------------ direct sum


def test_direct_sum_gram_and_det():
    lat = direct_sum(root_lattice("A1"), root_lattice("A2"))
    assert lat.gram == Matrix([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    assert lat.determinant == 6
    assert lat.name == "A1 + A2"
    assert root_lattice("4A1").gram == Matrix.diagonal([2, 2, 2, 2])


def test_direct_sum_refuses_a_summand_that_is_no_lattice():
    with pytest.raises(TypeError, match="summand 1 must be an EvenLattice, got 'x'"):
        direct_sum(root_lattice("A2"), "x")


def test_direct_sum_det_is_product_of_summands():
    # the determinant is taken from the summands, not recomputed; check it
    # against Bareiss on the block Gram
    rng = random.Random(59)
    small = [Matrix([[2, 1], [1, 4]]), Matrix([[4, -1], [-1, 2]]),
             Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 6]]), Matrix([[-2, 1], [1, 2]])]
    names = ["A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8"]
    for _ in range(25):
        parts = [root_lattice(rng.choice(names)) if rng.random() < 0.6
                 else EvenLattice(rng.choice(small)) for _ in range(rng.randint(1, 4))]
        lat = direct_sum(*parts)
        assert lat.determinant == det(lat.gram)


def test_direct_sum_discriminant_recombines():
    # q multiset of A1 + A2 must equal all sums q1(a) + q2(b) mod 1:
    # {0, 1/4} x {0, 1/3, 1/3} -> {0, 1/3, 1/3, 1/4, 7/12, 7/12}
    lat = direct_sum(root_lattice("A1"), root_lattice("A2"))
    disc = lat.discriminant_group()
    assert disc.divisors == (6,)
    got = sorted(disc.q_table().values())
    expect = sorted(
        (qa + qb) - ((qa + qb) // 1)
        for qa in (Fraction(0), Fraction(1, 4))
        for qb in (Fraction(0), Fraction(1, 3), Fraction(1, 3))
    )
    assert got == expect


def test_direct_sum_q_additive_via_duals():
    rng = random.Random(47)
    a, b = root_lattice("A3"), root_lattice("D4")
    both = direct_sum(a, b)
    da, db, dd = (x.discriminant_group() for x in (a, b, both))
    ia = helpers.inverse(a.gram)
    ib = helpers.inverse(b.gram)
    for _ in range(25):
        u = tuple((ia @ tuple(rng.randint(-2, 2) for _ in range(a.rank))))
        v = tuple((ib @ tuple(rng.randint(-2, 2) for _ in range(b.rank))))
        qa = da.q_value(a.element_from_dual(u))
        qb = db.q_value(b.element_from_dual(v))
        qs = dd.q_value(both.element_from_dual(u + v))
        total = qa + qb
        assert qs == total - (total // 1)


# ------------------------------------------------------------------ embeddings


def test_embedding_validation():
    a1, d4 = root_lattice("A1"), root_lattice("D4")
    with pytest.raises(ValueError):
        LatticeEmbedding(a1, d4, Matrix([[1], [0], [0]]))  # wrong shape
    with pytest.raises(ValueError):
        LatticeEmbedding(a1, d4, Matrix([[Fraction(1, 2)], [0], [0], [0]]))
    with pytest.raises(ValueError):
        LatticeEmbedding(a1, d4, Matrix([[1], [1], [0], [0]]))  # norm 2+2-... wrong
    # a transport over many columns: a glue embedding of 8A1 is accepted as
    # built, and refused with any one entry changed
    lat = root_lattice("8A1")
    glue = lat.discriminant_group().maximal_isotropic_subgroups()[0]
    over, emb = overlattice_from_glue(lat, glue)
    assert LatticeEmbedding(lat, over, emb.matrix).index == 16
    for i in range(8):
        for j in range(8):
            rows = [list(r) for r in emb.matrix.num]
            rows[i][j] += 1
            with pytest.raises(ValueError, match="embedding does not transport the Gram"):
                LatticeEmbedding(lat, over, Matrix(rows))


def test_frozen_4a1_in_d4_embedding():
    # in unit coordinates the four orthogonal roots e1+e2, e1-e2, e3+e4,
    # e3-e4 expand over the D4 simple roots with e3+e4 = v1 - v2 - 2v3 - v4
    e = Matrix([[1, 0, 1, 0], [0, 1, -1, 0], [0, 0, -2, 0], [0, 0, -1, 1]])
    emb = LatticeEmbedding(root_lattice("4A1"), root_lattice("D4"), e)
    assert emb.index == 2


# ----------------------------------------------------------- glue overlattices


def test_overlattice_4a1_frozen():
    lat = root_lattice("4A1")
    (glue,) = lat.discriminant_group().maximal_isotropic_subgroups()
    over, emb = overlattice_from_glue(lat, glue)
    assert over.determinant == 4
    assert emb.index == 2
    assert emb.sub is lat and emb.sup is over
    assert over.gram == Matrix(
        [[2, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]]
    )
    assert is_maximal_even(over)


def test_overlattice_d8_is_unimodular():
    lat = root_lattice("D8")
    subs = lat.discriminant_group().maximal_isotropic_subgroups()
    assert len(subs) == 2
    for glue in subs:
        over, emb = overlattice_from_glue(lat, glue)
        assert over.determinant == 1
        assert emb.index == 2
        assert over.rank == 8
        assert over.is_positive_definite
        assert is_maximal_even(over)


def test_overlattice_det_index_identity_sweep():
    # det(L) = det(M) * [M:L]^2 across every maximal glue of several lattices
    for name in ("4A1", "5A1", "D8", "6A1", "A7"):
        lat = root_lattice(name)
        for glue in lat.discriminant_group().maximal_isotropic_subgroups():
            over, emb = overlattice_from_glue(lat, glue)
            assert emb.index == glue.order == abs(det(emb.matrix))
            assert over.determinant * glue.order**2 == lat.determinant


def test_index_is_read_off_the_determinants(monkeypatch):
    calls = helpers.record_calls(monkeypatch, "det")
    lat = root_lattice("6A1")
    for glue in lat.discriminant_group().maximal_isotropic_subgroups():
        _, emb = overlattice_from_glue(lat, glue)
        assert emb.index == glue.order == 4
    assert calls == []
    a1, d4 = root_lattice("A1"), root_lattice("D4")
    with pytest.raises(ValueError):
        LatticeEmbedding(a1, d4, Matrix([[1], [0], [0], [0]])).index


def test_non_maximal_glue_gives_a_non_maximal_overlattice():
    # an order-2 subgroup of a maximal 8A1 glue group: the overlattice takes
    # its determinant from the parent and eliminates only when asked
    lat = root_lattice("8A1")
    glue = lat.discriminant_group().maximal_isotropic_subgroups()[0]
    assert glue.order > 2
    half = GlueGroup(lat.discriminant_group(), glue.generators[:1])
    assert half.order == 2
    over, emb = overlattice_from_glue(lat, half)
    assert "_smith" not in vars(over)
    assert over.determinant == 64 == det(over.gram)
    assert emb.index == 2
    assert over.discriminant_group().is_anisotropic() is False
    assert "_smith" in vars(over)


def test_overlattice_wrong_parent_rejected():
    lat4, lat5 = root_lattice("4A1"), root_lattice("5A1")
    (glue,) = lat4.discriminant_group().maximal_isotropic_subgroups()
    with pytest.raises(ValueError):
        overlattice_from_glue(lat5, glue)


def test_trivial_glue_returns_same_lattice():
    lat = root_lattice("A2")
    (glue,) = lat.discriminant_group().maximal_isotropic_subgroups()
    assert glue.order == 1
    over, emb = overlattice_from_glue(lat, glue)
    assert emb.index == 1
    assert over.determinant == lat.determinant


def test_overlattice_accepts_glue_of_an_equal_lattice():
    # ownership is the module's presentation: a second 4A1 object has the
    # same Smith form, so the same divisors and lift Gram
    lat, twin = root_lattice("4A1"), root_lattice("4A1")
    (glue,) = twin.discriminant_group().maximal_isotropic_subgroups()
    over, emb = overlattice_from_glue(lat, glue)
    assert emb.sub is lat
    assert over.gram == overlattice_from_glue(twin, glue)[0].gram
    with pytest.raises(ValueError):
        overlattice_from_glue(root_lattice("5A1"), glue)
    # same divisors (2, 2), other lift Gram: U(2) against 2A1
    u2 = EvenLattice(Matrix([[0, 2], [2, 0]]))
    iso = GlueGroup(u2.discriminant_group(), [(1, 0)])
    with pytest.raises(ValueError):
        overlattice_from_glue(root_lattice("2A1"), iso)


# ---------------------------------------------------------- one Smith form


def test_one_smith_form_serves_every_map(monkeypatch, capsys):
    # analyze, overlattices and atlas run one elimination per lattice; the
    # adjugate's columns and element_from_dual replay its log, so no read
    # adds one
    core = helpers.record_calls(monkeypatch, "_eliminate")

    def eliminations():
        # the Gram of each elimination since the last look
        out = [args[0] for args in core]
        core.clear()
        return out

    for argv, grams in ((["analyze", "--name", "A5"], ["A5"]),
                        (["overlattices", "--name", "8A1"], ["A1", "8A1"]),
                        (["atlas", "--family", "D", "--min", "4", "--max", "6"],
                         ["D4", "D5", "D6"])):
        want = [root_lattice(g).gram for g in grams]
        eliminations()
        assert evenlat.cli.main([*argv, "--format", "json"]) == 0
        assert eliminations() == want
    capsys.readouterr()

    for read in (helpers.adjugate, a_generator_class):
        lat = root_lattice("A5")
        disc = lat.discriminant_group()
        assert eliminations() == [lat.gram]
        read(lat)
        assert eliminations() == []
        cls = a_generator_class(lat)  # element_from_dual
        assert disc.order == 6 and disc.element_order(cls) == 6
        assert lat.lift(cls) == tuple(Fraction(5 - i, 6) for i in range(5))
        assert helpers.adjugate(lat) == helpers.inverse(lat.gram) * 6
        assert eliminations() == []

    # an ExtendedForm base: the record alone, also once its inverse has
    # applied S1^{-1} through that record
    lat = root_lattice("E6")
    form = ExtendedForm(lat)
    assert form.orthogonal_inverse(Matrix.identity(form.dim)) == Matrix.identity(form.dim)
    assert eliminations() == [lat.gram]

    # the core's diagonal, V columns and sign are the public form's, that
    # form and sign are the dense oracle's
    for name in ("A5", "E6", "8A1", "D6"):
        gram = root_lattice(name).gram
        u, d, v = smith_normal_form(gram)
        full, cols, sign, _ = _eliminate(gram)
        assert (u, d, v, sign) == helpers.dense_smith_normal_form(gram, _signed=True)
        assert full == tuple(d[i, i] for i in range(d.nrows))
        assert [[col.get(i, 0) for i in range(v.nrows)] for col in cols] == \
            [list(v.col(j)) for j in range(v.ncols)]


def test_glue_generators_lift_once_per_lattice():
    # the 30 glue groups of 8A1 share their generators: the lattice's lift
    # memo holds one lift per distinct class, each a lift of its class, and
    # the overlattices built from it are the golden ones
    lat = root_lattice("8A1")
    groups = lat.discriminant_group().maximal_isotropic_subgroups()
    overs = [overlattice_from_glue(lat, glue)[0].gram for glue in groups]
    gens = {g for glue in groups for g in glue.generators}
    assert len(groups) == 30 and sum(len(glue.generators) for glue in groups) > len(gens)
    assert set(lat._lifts) == gens
    assert all(lat.element_from_dual(lat.lift(g)) == g for g in gens)
    golden = json.loads((GOLDEN / "overlattices-8a1.json").read_text(encoding="utf-8"))
    assert overs == [Matrix(e["overlattice_gram"]) for e in golden["overlattices"]]


def test_extended_form_takes_no_rational_inverse():
    # no module of the library defines a Gauss-Jordan inverse or a rational
    # congruence to call; the form inverts S1 through its integral adjugate
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "evenlat":
            assert not hasattr(mod, "inverse") and not hasattr(mod, "signature"), key
    for name in ("A2", "D4", "E8", "3A1"):
        form = ExtendedForm(root_lattice(name))
        sd, d = form.s1_det, form.dim
        assert [form._dual(r) for r in form.s1.num] == [[sd * (i == j) for j in range(d)]
                                                        for i in range(d)]


def test_lift_refuses_unreduced_classes():
    lat = root_lattice("A2")
    for bad in ((3,), (-1,), (True,), (Fraction(1),), (1, 0), ()):
        with pytest.raises(ValueError):
            lat.lift(bad)
    # a trivial discriminant group lifts to the zero vector
    assert root_lattice("E8").lift(()) == (0,) * 8


def test_positive_definite_once_and_from_summands(monkeypatch):
    rng = random.Random(67)
    small = [Matrix([[2, 1], [1, 4]]), Matrix([[2, 1], [1, -2]]),
             Matrix([[4, -1], [-1, 2]]), Matrix([[0, 1], [1, 0]])]
    names = ["A1", "A2", "A4", "D4", "E6"]
    seen = set()
    for _ in range(30):
        parts = [root_lattice(rng.choice(names)) if rng.random() < 0.6
                 else EvenLattice(rng.choice(small)) for _ in range(rng.randint(1, 4))]
        lat = direct_sum(*parts)
        seen.add(lat.is_positive_definite)
        assert lat.is_positive_definite == is_positive_definite(lat.gram)
    assert seen == {True, False}
    indefinite = direct_sum(root_lattice("A2"), EvenLattice(Matrix([[2, 1], [1, -2]])))
    assert not indefinite.is_positive_definite
    assert not is_positive_definite(indefinite.gram)
    # building runs no definiteness pass; reading a direct sum's definiteness
    # runs one per summand, none on the block Gram, and none is repeated
    passes = helpers.record_calls(monkeypatch, "_positive_definite")
    a, b = root_lattice("A3"), root_lattice("D4")
    lat = direct_sum(a, b)
    assert lat.determinant == a.determinant * b.determinant == 16
    assert passes == []
    assert lat.is_positive_definite and lat.is_positive_definite
    assert a.is_positive_definite and b.is_positive_definite
    assert ExtendedForm(lat).s1_det == 16
    assert [args[0] for args in passes] == [a.gram.num, b.gram.num]
    # a lattice built from a Gram runs exactly one pass, when it is read
    passes.clear()
    hyp = EvenLattice(Matrix([[0, 1], [1, 0]]))
    assert hyp.determinant == -1 and passes == []
    assert not hyp.is_positive_definite and not hyp.is_positive_definite
    assert [args[0] for args in passes] == [hyp.gram.num]


def test_glue_overlattice_takes_its_parents_definiteness(monkeypatch):
    # an overlattice spans its parent's rational space, so it has its
    # parent's signature: reading it runs the parent's definiteness pass only
    passes = helpers.record_calls(monkeypatch, "_positive_definite")
    u2 = EvenLattice(Matrix([[0, 2], [2, 0]]))
    hyp, _ = overlattice_from_glue(u2, GlueGroup(u2.discriminant_group(), [(1, 0)]))
    overs = [root_lattice(name) for name in ("D8+", "D16+", "D24+")] + [hyp]
    assert [lat.is_positive_definite for lat in overs] == [True, True, True, False]
    assert [args[0] for args in passes] == [
        root_lattice(name).gram.num for name in ("D8", "D16", "D24")] + [u2.gram.num]
    monkeypatch.undo()
    assert [is_positive_definite(lat.gram) for lat in overs] == [True, True, True, False]
