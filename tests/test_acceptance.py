"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Each test prints an ``ACCEPTANCE ACxx PASS`` line on success (visible with
``-s``); a failure shows up as that criterion's FAILED line instead.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import helpers
from evenlat import (
    ExtendedForm,
    Matrix,
    Membership,
    a_generator_class,
    make_scaled,
    normalizer_certificate,
    overlattice_from_glue,
    reduce_double_coset,
    reduce_right_coset,
    root_lattice,
)
from evenlat.cli import main
from evenlat.matrices import vec_gcd
from evenlat.ogroup import base_reflection


def _report(tag: str, detail: str):
    print(f"ACCEPTANCE {tag} PASS: {detail}")


def test_ac01_maximality_atlas_agrees_within_time_budget(capsys):
    start = time.perf_counter()
    rows = 0
    for family, top in (("A", 30), ("D", 30), ("E", 8)):
        code = main(["atlas", "--family", family, "--max", str(top),
                     "--format", "json"])
        assert code == 0  # the command itself raises on any disagreement
        data = json.loads(capsys.readouterr().out)
        for entry in data["entries"]:
            assert entry["maximal_by_formula"] == entry["maximal_by_scan"]
            rows += 1
    elapsed = time.perf_counter() - start
    assert rows == 62
    assert elapsed < 60.0, f"atlas sweep took {elapsed:.1f}s"
    _report("AC01", f"closed form = brute force on all {rows} rows "
                    f"(A<=30, D<=30, E) in {elapsed:.2f}s")


def test_ac02_discriminant_table():
    for n in range(1, 31):
        assert root_lattice(f"A{n}").determinant == n + 1, f"A{n}"
    for n in range(2, 31):
        assert root_lattice(f"D{n}").determinant == 4, f"D{n}"
    for n, d in ((6, 3), (7, 2), (8, 1)):
        assert root_lattice(f"E{n}").determinant == d, f"E{n}"
    _report("AC02", "det A_n = n+1 (n<=30), det D_n = 4 (n<=30), "
                    "det E6/E7/E8 = 3/2/1")


def test_ac03_cyclic_generator_q_values():
    for n in range(1, 31):
        lat = root_lattice(f"A{n}")
        disc = lat.discriminant_group()
        cls = a_generator_class(lat)
        # n/(2(n+1)) < 1/2, so the value is already reduced mod 1
        assert disc.q_value(cls) == Fraction(n, 2 * (n + 1)), f"A{n}"
        assert disc.element_order(cls) == n + 1
    _report("AC03", "generator q = n/(2(n+1)) mod 1, exact, for A1..A30")


def test_ac04_glue_counts_and_overlattice_discriminants():
    lat4 = root_lattice("4A1")
    disc4 = lat4.discriminant_group()
    assert disc4.isotropic_elements() == [(1, 1, 1, 1)]
    glues4 = disc4.maximal_isotropic_subgroups()
    assert len(glues4) == 1 and glues4[0].order == 2
    over4, emb4 = overlattice_from_glue(lat4, glues4[0])
    assert over4.determinant == lat4.determinant // 4 == 4
    assert emb4.index == 2
    assert all(over4.gram[i, i] % 2 == 0 for i in range(4))  # even

    lat5 = root_lattice("5A1")
    glues5 = lat5.discriminant_group().maximal_isotropic_subgroups()
    assert len(glues5) == 5
    for glue in glues5:
        over, emb = overlattice_from_glue(lat5, glue)
        assert over.determinant == lat5.determinant // 4 == 8
        assert emb.index == 2
        assert all(over.gram[i, i] % 2 == 0 for i in range(5))
    _report("AC04", "exactly 1 maximal even overlattice for 4A1 and 5 for "
                    "5A1, each even with discriminant dropped by 4")


def test_ac05_d8_overlattices_unimodular():
    lat = root_lattice("D8")
    glues = lat.discriminant_group().maximal_isotropic_subgroups()
    assert len(glues) == 2
    for glue in glues:
        over, emb = overlattice_from_glue(lat, glue)
        assert over.determinant == 1
        assert over.rank == 8
        assert over.is_positive_definite
        assert emb.index == 2
    assert root_lattice("D8+").determinant == 1
    _report("AC05", "gluing D8 yields even unimodular overlattices (det 1)")


def test_ac06_completion_roundtrips():
    rng = random.Random(2024)
    forms = [ExtendedForm(root_lattice(n)) for n in ("A1", "A2", "2A1", "D4")]
    for i in range(200):
        form = forms[i % len(forms)]
        w = form.element_from_word(
            helpers.random_word(rng, form.n, rng.randint(1, 15))
        )
        h = w.matrix.col(0)
        assert form.is_primitive_isotropic(h)
        done = form.complete_isotropic(h)
        assert done.matrix.col(0) == h
        assert done.classify() == Membership.DISCRIMINANT_KERNEL
        assert form.element_from_word(done.word).matrix == done.matrix
    _report("AC06", "200 random primitive isotropic first columns (words of "
                    "length <= 15 over A1/A2/2A1/D4) completed exactly")


def test_ac07_coset_reduction_invariants():
    rng = random.Random(4096)
    cases = 0
    for name in ("A2", "D4"):
        form = ExtendedForm(root_lattice(name))
        d = form.dim
        for s in (1, 2, 3):
            base = helpers.corner_scaling(d, s)
            runs = 20 if name == "A2" else 14
            for _ in range(runs):
                w = helpers.random_element(form, rng, max_len=3)
                v = helpers.random_element(form, rng, max_len=3)
                x = make_scaled(form, w.matrix @ base @ v.matrix,
                                canonicalize=False)
                r = x.ratio
                assert r == s * s
                rc = reduce_right_coset(x)
                assert rc.alpha == vec_gcd(x.matrix.col(0))
                assert rc.alpha * rc.delta == r
                assert rc.reduced == rc.transformer.matrix @ x.matrix
                assert rc.reduced.col(0) == tuple(
                    rc.alpha if i == 0 else 0 for i in range(d)
                )
                dc = reduce_double_coset(x)
                assert dc.alpha == vec_gcd(
                    e for row in x.matrix.rows for e in row
                )
                assert dc.alpha * dc.delta == r
                assert all(
                    e % dc.alpha == 0 for row in dc.reduced.rows for e in row
                )
                assert dc.left.matrix @ x.matrix @ dc.right.matrix == dc.reduced
                assert dc.core.T @ form.s0 @ dc.core == r * form.s0
                cases += 1
    assert cases >= 100
    _report("AC07", f"{cases} reductions over A2/D4, r in (1,4,9): "
                    "alpha = gcd(first column), alpha* = gcd(entries), "
                    "alpha*delta = r, reduced/alpha* integral")


def test_ac08_inverse_formula_and_block_pattern():
    rng = random.Random(8080)
    forms = [ExtendedForm(root_lattice(n)) for n in ("A1", "A2", "D4")]
    for i in range(500):
        form = forms[i % len(forms)]
        d = form.dim
        mid = range(1, d - 1)
        s0inv = helpers.inverse(form.s0)
        g = helpers.random_element(form, rng, max_len=5)
        m = g.matrix
        inv = form.orthogonal_inverse(m)
        assert inv @ m == Matrix.identity(d)
        assert m @ inv == Matrix.identity(d)
        # block pattern of the inverse: corners swap on the diagonal and
        # stay put off it; the middle block conjugates by the middle form;
        # row/column strips trade places through the middle form
        assert inv[0, 0] == m[d - 1, d - 1]
        assert inv[d - 1, d - 1] == m[0, 0]
        assert inv[0, d - 1] == m[0, d - 1]
        assert inv[d - 1, 0] == m[d - 1, 0]
        k = m.submatrix(mid, mid)
        assert inv.submatrix(mid, mid) == s0inv @ k.T @ form.s0
        assert inv.submatrix(mid, [0]).col(0) == s0inv @ m.row(d - 1)[1:d - 1]
        assert inv.submatrix(mid, [d - 1]).col(0) == s0inv @ m.row(0)[1:d - 1]
        assert inv.row(0)[1:d - 1] == m.submatrix(mid, [d - 1]).col(0) @ form.s0
        assert inv.row(d - 1)[1:d - 1] == m.submatrix(mid, [0]).col(0) @ form.s0
    _report("AC08", "500 words: form-transpose inverse exact, all nine "
                    "blocks follow the inverse pattern")


def test_ac09_kernel_normality_on_generators():
    rng = random.Random(9009)
    a2 = ExtendedForm(root_lattice("A2"))
    d4 = ExtendedForm(root_lattice("D4"))

    def random_rotation(form):
        # product of two random reflections of the base: determinant one
        vecs = []
        while len(vecs) < 2:
            v = tuple(rng.randint(-2, 2) for _ in range(form.n))
            if form.base.norm(v) == 2:
                vecs.append(v)
        rot = base_reflection(form.base, vecs[0]) @ base_reflection(
            form.base, vecs[1])
        return form.embed_rotation(rot)

    def random_generator(form):
        c = rng.randrange(3)
        if c == 0:
            return form.involution()
        lam = tuple(rng.randint(-3, 3) for _ in range(form.n + 2))
        return form.transvection(lam) if c == 1 else form.dual_transvection(lam)

    count = 0
    for form in (a2, d4):
        conjugators = [form.embed_rotation(-Matrix.identity(form.n))]
        for _ in range(10):
            conjugators.append(random_rotation(form))
        for _ in range(10):
            conjugators.append(helpers.random_element(form, rng, 4))
        for _ in range(50):
            t = random_generator(form)
            m = rng.choice(conjugators)
            conj = m.matrix @ t.matrix @ form.orthogonal_inverse(m.matrix)
            assert form.classify(conj) == Membership.DISCRIMINANT_KERNEL
            count += 1
    assert count == 100
    _report("AC09", "100 conjugates of standard generators by integral "
                    "elements remain in the discriminant kernel")


def test_ac10_normalizer_certificates():
    rng = random.Random(10010)
    a2 = ExtendedForm(root_lattice("A2"))
    d4 = ExtendedForm(root_lattice("D4"))
    grown = members = 0
    for form in (a2, d4):
        for s in (2, 3):
            for _ in range(3):
                w = helpers.random_element(form, rng, max_len=3)
                v = helpers.random_element(form, rng, max_len=3)
                x = make_scaled(
                    form,
                    w.matrix @ helpers.corner_scaling(form.dim, s) @ v.matrix,
                )
                assert x.content == 1 and x.ratio == s * s > 1
                cert = normalizer_certificate(x)
                assert not cert.in_normalizer
                assert cert.kind == "scale-invariant-growth"
                assert len(set(cert.invariants)) == len(cert.invariants)
                assert all(val != 1 for val in cert.invariants)
                grown += 1
        for _ in range(4):
            g = helpers.random_element(form, rng, max_len=4)
            cert = normalizer_certificate(make_scaled(form, g.matrix))
            assert cert.in_normalizer and cert.kind == "integral-member"
            assert cert.canonical_ratio == 1
            members += 1

    # the frozen corner fixture shows the exact growth alpha(X^m) = 4^m
    cert = normalizer_certificate(make_scaled(a2, helpers.corner_scaling(6, 2)))
    assert cert.corner_gcds == (4, 16, 64)
    assert cert.invariants == (Fraction(4), Fraction(16), Fraction(64))

    # refusal on a base that is not maximal even
    a7 = ExtendedForm(root_lattice("A7"))
    with pytest.raises(ValueError, match="maximal even"):
        normalizer_certificate(make_scaled(a7, helpers.corner_scaling(a7.dim, 2)))
    _report("AC10", f"{grown} canonical r>1 matrices rejected with growth "
                    f"witnesses, {members} r=1 matrices certified as group "
                    "members, non-maximal base refused")
