"""Finite quadratic modules: q values, isotropy, glue-group enumeration.

Independent oracles: q is recomputed in the tests straight from rational
lifts and the source Gram matrix (a code path the module's integer fast
path never touches), and the isotropic sets below were counted by hand
(weight arguments in (Z/2)^k).
"""

import random
import re
from fractions import Fraction

import pytest

import helpers
from evenlat import (
    CapExceeded,
    FiniteQuadraticModule,
    GlueGroup,
    Matrix,
    is_maximal_even,
    root_lattice,
)


def q_from_lift(lat, x) -> Fraction:
    """Independent q: half the source norm of the lift, reduced mod 1."""
    v = lat.lift(x)
    total = Fraction(0)
    for i in range(lat.rank):
        for j in range(lat.rank):
            total += Fraction(v[i]) * lat.gram[i, j] * Fraction(v[j])
    total /= 2
    return total - (total // 1)


# ----------------------------------------------------------------- validation


def test_divisor_chain_enforced():
    with pytest.raises(ValueError):
        FiniteQuadraticModule(
            (2, 3), Matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]))
    with pytest.raises(ValueError):
        FiniteQuadraticModule((1,), Matrix([[1]]))
    with pytest.raises(ValueError):  # one lift Gram row per divisor
        FiniteQuadraticModule((2,), Matrix.zeros(0, 0))
    # divisors are read strictly: nothing is truncated or parsed
    for bad in (2.5, "3", True):
        with pytest.raises(ValueError,
                           match=f"divisors must be integral, got {re.escape(repr(bad))}"):
            FiniteQuadraticModule((bad,), Matrix([[Fraction(1, 2)]]))
    # a nested list is read as a Matrix, as EvenLattice reads its Gram
    listed = FiniteQuadraticModule((2,), [[Fraction(1, 2)]])
    assert listed.lift_gram == Matrix([[Fraction(1, 2)]])
    assert listed.q_value((1,)) == Fraction(1, 4)


def test_element_validation():
    mod = root_lattice("A1").discriminant_group()
    with pytest.raises(ValueError):
        mod.q_value((2,))  # not reduced
    with pytest.raises(ValueError):
        mod.q_value((0, 0))  # wrong length
    # every element method checks every element it is given
    a2 = root_lattice("A2").discriminant_group()
    for bad in (lambda: a2.bilinear((), (1,)), lambda: a2.bilinear((1, 5), (1,)),
                lambda: a2.bilinear((1,), (3,)), lambda: a2.add((), (1,)),
                lambda: a2.add((1,), (0, 0)), lambda: a2.neg((3,)),
                lambda: a2.scale(2, (1, 1)), lambda: a2.element_order(()),
                lambda: a2.q_value((True,)), lambda: a2.q_value((1.5,)),
                lambda: a2.q_value((2.0,)), lambda: a2.bilinear((1,), (Fraction(1),)),
                lambda: a2.add((True,), (1,)), lambda: a2.element_order(("1",))):
        with pytest.raises(ValueError, match="not a reduced element"):
            bad()
    assert a2.bilinear((1,), (1,)) == Fraction(2, 3)
    assert a2.add((1,), (2,)) == (0,) and a2.neg((1,)) == (2,)
    assert a2.scale(2, (2,)) == (1,) and a2.element_order((1,)) == 3


# ------------------------------------------------------------------- q values


def test_a1_module_frozen():
    mod = root_lattice("A1").discriminant_group()
    assert mod.divisors == (2,)
    assert mod.order == 2
    assert mod.q_value((1,)) == Fraction(1, 4)
    assert mod.q_value((0,)) == 0
    assert root_lattice("A1").lift((1,)) == (Fraction(1, 2),)
    assert mod.is_anisotropic()


def test_a2_module_frozen():
    lat = root_lattice("A2")
    mod = lat.discriminant_group()
    assert mod.divisors == (3,)
    # both nonzero classes carry q = 1/3 (hand: q(2g) = 4 q(g) = q(g) mod 1)
    assert sorted(mod.q_table().values()) == [0, Fraction(1, 3), Fraction(1, 3)]
    assert mod.is_anisotropic()


def test_q_matches_lift_oracle_sweep():
    rng = random.Random(17)
    for name in ("A1", "A2", "A3", "A4", "D4", "D5", "D8", "4A1", "A5"):
        lat = root_lattice(name)
        mod = lat.discriminant_group()
        elems = list(mod.elements())
        for _ in range(12):
            x = rng.choice(elems)
            assert mod.q_value(x) == q_from_lift(lat, x)


def test_group_operations():
    mod = root_lattice("4A1").discriminant_group()
    assert mod.divisors == (2, 2, 2, 2)
    x, y = (1, 0, 1, 0), (1, 1, 0, 0)
    assert mod.add(x, y) == (0, 1, 1, 0)
    assert mod.neg(x) == x  # 2-torsion
    assert mod.scale(3, x) == x
    assert mod.element_order((0, 0, 0, 0)) == 1
    assert mod.element_order(x) == 2
    d8 = root_lattice("D8").discriminant_group()
    assert d8.divisors == (2, 2)


def test_element_order_mixed():
    mod = root_lattice("A1").discriminant_group()
    assert mod.element_order((1,)) == 2
    a3 = root_lattice("A3").discriminant_group()
    assert a3.divisors == (4,)
    assert a3.element_order((2,)) == 2
    assert a3.element_order((1,)) == 4


def test_bilinear_properties():
    # b is symmetric, additive in each slot, and b(x,x) = 2 q(x) mod 1
    rng = random.Random(23)
    for name in ("A3", "D4", "4A1", "A4"):
        mod = root_lattice(name).discriminant_group()
        elems = list(mod.elements())
        for _ in range(15):
            x, y, z = (rng.choice(elems) for _ in range(3))
            bxy = mod.bilinear(x, y)
            assert bxy == mod.bilinear(y, x)
            s = mod.bilinear(x, z) + mod.bilinear(y, z)
            assert mod.bilinear(mod.add(x, y), z) == s - (s // 1)
            two_q = 2 * mod.q_value(x)
            assert mod.bilinear(x, x) == two_q - (two_q // 1)


# ------------------------------------------------------------------- isotropy


def test_isotropic_elements_frozen_counts():
    # (Z/2)^4 with q = weight/4: isotropic iff weight = 0 mod 4
    mod4 = root_lattice("4A1").discriminant_group()
    assert mod4.isotropic_elements() == [(1, 1, 1, 1)]
    assert not mod4.is_anisotropic()

    # (Z/2)^5: exactly the C(5,4) = 5 weight-four vectors
    mod5 = root_lattice("5A1").discriminant_group()
    iso = mod5.isotropic_elements()
    assert len(iso) == 5
    assert all(sum(x) == 4 for x in iso)

    # anisotropic examples have none
    assert root_lattice("D4").discriminant_group().isotropic_elements() == []


def test_anisotropic_direct_sum_mixed():
    # A3 + A1: Z/4 x Z/2 with q = 3j^2/8 + k^2/4, no nonzero roots (hand scan)
    lat = root_lattice("A3")
    from evenlat import direct_sum

    mod = direct_sum(lat, root_lattice("A1")).discriminant_group()
    assert mod.is_anisotropic()


def test_caps_raise():
    mod = root_lattice("4A1").discriminant_group()  # order 16
    with pytest.raises(CapExceeded):
        mod.is_anisotropic(max_order=10)
    with pytest.raises(CapExceeded):
        mod.isotropic_elements(max_order=10)
    with pytest.raises(CapExceeded):
        mod.maximal_isotropic_subgroups(max_order=10)


# ---------------------------------------------------------------- glue groups


def test_glue_group_rejects_non_isotropic():
    mod = root_lattice("4A1").discriminant_group()
    with pytest.raises(ValueError):
        GlueGroup(mod, [(1, 1, 0, 0)])  # q = 1/2
    mod5 = root_lattice("5A1").discriminant_group()
    # two isotropic generators whose sum is not isotropic
    with pytest.raises(ValueError):
        GlueGroup(mod5, [(1, 1, 1, 1, 0), (0, 1, 1, 1, 1)])


def test_glue_group_canonical_chain_and_equality():
    mod = root_lattice("4A1").discriminant_group()
    g = GlueGroup(mod, [(1, 1, 1, 1)])
    assert g.order == 2
    assert g.generators == ((1, 1, 1, 1),)
    assert g.elements() == frozenset({(0, 0, 0, 0), (1, 1, 1, 1)})
    # generators are normalized mod divisors, same span compares equal
    assert GlueGroup(mod, [(3, -1, 1, 5)]) == g
    assert hash(GlueGroup(mod, [(3, -1, 1, 5)])) == hash(g)


@pytest.mark.parametrize("gen", [
    (1.9, 1, 1, 1), (Fraction(3, 2), 1, 1, 1), ("1", 1, 1, 1), (True, 1, 1, 1),
    (1, 1, 1, 1, 0), (1, 1),
], ids=["float", "fraction", "str", "bool", "length-5", "length-2"])
def test_glue_group_rejects_non_integer_generators(gen):
    # each of these was once read as (1, 1, 1, 1), cut to length 4, or
    # refused as "not isotropic"
    mod = root_lattice("4A1").discriminant_group()
    with pytest.raises(ValueError) as err:
        GlueGroup(mod, [gen])
    assert "isotropic" not in str(err.value)


def test_glue_group_accepts_integral_fractions():
    mod = root_lattice("4A1").discriminant_group()
    g = GlueGroup(mod, [(Fraction(3, 1), 1, 1, -1)])
    assert g.generators == ((1, 1, 1, 1),)


def test_maximal_isotropic_subgroups_frozen():
    triv = root_lattice("A2").discriminant_group().maximal_isotropic_subgroups()
    assert len(triv) == 1 and triv[0].order == 1 and triv[0].generators == ()

    subs4 = root_lattice("4A1").discriminant_group().maximal_isotropic_subgroups()
    assert len(subs4) == 1
    assert subs4[0].order == 2
    assert subs4[0].generators == ((1, 1, 1, 1),)

    subs5 = root_lattice("5A1").discriminant_group().maximal_isotropic_subgroups()
    assert len(subs5) == 5
    assert all(s.order == 2 for s in subs5)

    subs8 = root_lattice("D8").discriminant_group().maximal_isotropic_subgroups()
    assert len(subs8) == 2
    assert all(s.order == 2 for s in subs8)


def test_dead_candidates_are_not_tried_again(monkeypatch):
    # 8A1: dead candidates are dropped by their wrap masks, with no coset;
    # each child builds the one coset x + span, since 2x = 0 lies in the
    # span: 901 cosets. Building x + span for every candidate to test it,
    # as the search once did, built 4332
    calls = helpers.record_calls(monkeypatch, "_coset", owner=FiniteQuadraticModule)
    mod = root_lattice("8A1").discriminant_group()
    subs = mod.maximal_isotropic_subgroups()
    assert len(subs) == 30
    assert len(calls) == 901
    # every coset built is a child's: its least element is the x it adds
    monkeypatch.undo()
    assert all(min(mod._coset(span, x)) == x for _, span, x in calls)


def test_maximal_subgroups_are_maximal_and_isotropic():
    for name in ("4A1", "5A1", "D8", "6A1"):
        mod = root_lattice(name).discriminant_group()
        iso = set(mod.isotropic_elements())
        for sub in mod.maximal_isotropic_subgroups():
            span = sub.elements()
            assert all(mod.q_value(x) == 0 for x in span)
            # no isotropic element extends the subgroup isotropically
            for x in iso - span:
                bigger = helpers.tuple_closure(mod, span, x)
                assert any(mod.q_value(y) != 0 for y in bigger - span)


def test_is_maximal_even_matches_anisotropy():
    for name, expect in [("A1", True), ("A2", True), ("A3", True),
                         ("A7", False), ("D8", False), ("D4", True),
                         ("4A1", False), ("E8", True)]:
        assert is_maximal_even(root_lattice(name)) is expect
