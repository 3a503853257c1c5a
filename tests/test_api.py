"""The public API, pinned name by name, and a ledger of what reaches each name.

``evenlat.__all__`` is compared with a frozen set, so adding, removing or
renaming a public name shows up as a one-line diff here. The rational linear
algebra the library retired (a Gauss-Jordan ``inverse``, the ``Fraction``
congruence ``signature``), the ``has_single_cusp`` alias of
``is_maximal_even`` and the per-entry ``Fraction`` path of Matrix
(``_norm``, ``_dot``, ``denominator_lcm``, ``Matrix._from_ints``) must not
come back; the tests keep the first two in ``helpers`` as oracles. Nor must
the thin aliases (``GroupElement.in_discriminant_kernel``, the
``ExtendedForm`` values ``quad``, ``is_isotropic`` and ``mid_quad_half``,
``ScaledOrthogonal.is_canonical`` and the ``ratio`` of the two coset forms),
the dense ``EvenLattice.adjugate``, which ``helpers.adjugate`` reads off the
Smith record for the oracle tests, or ``NormalizerCertificate.describe``.

The ledger maps every public name to what reaches it: a golden CLI case
(``"cli <case>"``), one small call of the library entry points a benchmark
workload runs (``"workload <name>"``), or a named test
(``"test <file>::<function>"``). The public names are those of ``__all__``,
the public module-level functions and classes of each submodule, and the
public methods and properties of those classes. A name with no entry fails,
and so does an entry for a name that is gone. A CLI or workload entry holds
only if that source, traced under ``sys.setprofile``, runs the name's code
(for a class, any code of its own); a test entry, only if that test exists
and names it. A new public name thus comes with what reaches it, or is not
public.

An import guard reads each module with ``ast``: a name imported into a module
must be used there or be listed in its ``__all__``.
"""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from functools import cache, cached_property
from pathlib import Path
from types import FunctionType

import pytest

import evenlat
from evenlat import EvenLattice, ExtendedForm, Matrix, cli, cosets

TESTS = Path(__file__).resolve().parent
SRC = Path(evenlat.__file__).resolve().parent

PUBLIC = frozenset({
    "Matrix", "det", "is_positive_definite", "smith_normal_form",
    "MAX_GLUE_ORDER", "MAX_ORDER", "CapExceeded", "FiniteQuadraticModule",
    "GlueGroup", "is_maximal_even",
    "EvenLattice", "LatticeEmbedding", "direct_sum", "overlattice_from_glue",
    "a_generator_class", "maximality_formula", "parse_name", "root_lattice",
    "squarefree",
    "ExtendedForm", "GroupElement", "Membership",
    "HatEmbedding", "HypothesisViolation", "ScaledOrthogonal", "make_scaled",
    "max_extension_member", "normalizer_certificate", "reduce_double_coset",
    "reduce_right_coset",
    "__version__",
})


def test_all_is_pinned_and_resolves():
    assert len(evenlat.__all__) == len(set(evenlat.__all__))
    assert set(evenlat.__all__) == PUBLIC
    for name in evenlat.__all__:
        assert getattr(evenlat, name, None) is not None, name


def test_retired_names_stay_gone():
    for name in ("inverse", "signature", "SingularMatrixError"):
        assert not hasattr(evenlat.matrices, name), name
        assert not hasattr(evenlat, name), name
    assert not hasattr(evenlat.ogroup, "has_single_cusp")
    assert not hasattr(evenlat, "has_single_cusp")
    # the per-entry Fraction path of Matrix: every matrix is num over one den
    for name in ("_norm", "_dot", "denominator_lcm"):
        assert not hasattr(evenlat.matrices, name), name
    assert not hasattr(evenlat.Matrix, "_from_ints")
    # the tuple closure of the glue search: spans are closed on integer codes
    assert not hasattr(evenlat.FiniteQuadraticModule, "_closure_with")
    # S1^{-1} is applied by ExtendedForm._dual, not held as a dense matrix
    assert not hasattr(evenlat.ExtendedForm(evenlat.root_lattice("A2")), "s1_adj")
    # a token has one checked form, from ExtendedForm._token or _parts
    for name in ("_token_parts", "_times_tokens"):
        assert not hasattr(evenlat.ExtendedForm, name), name
    assert not hasattr(evenlat.ogroup, "_token_inverse")
    # one Smith elimination: U is replayed from its log, with no second
    # elimination and no private flags on the public form
    a = evenlat.Matrix([[2, 1], [1, 2]])
    for flag in ("_readout", "_signed"):
        with pytest.raises(TypeError):
            evenlat.smith_normal_form(a, **{flag: True})
    assert not hasattr(evenlat.EvenLattice, "_unimodular")
    # thin aliases: each restated a value its callers read directly
    for owner, name in ((evenlat.GroupElement, "in_discriminant_kernel"),
                        (evenlat.ExtendedForm, "quad"),
                        (evenlat.ExtendedForm, "is_isotropic"),
                        (evenlat.ExtendedForm, "mid_quad_half"),
                        (evenlat.ScaledOrthogonal, "is_canonical"),
                        (evenlat.cosets.RightCosetForm, "ratio"),
                        (evenlat.cosets.DoubleCosetForm, "ratio"),
                        # the dense adjugate: the library applies it through
                        # _adjugate_times, and helpers.adjugate reads it there
                        (evenlat.EvenLattice, "adjugate"),
                        # restated fields of the certificate, which stay
                        (evenlat.cosets.NormalizerCertificate, "describe")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


# ------------------------------------------------------------- import guard


def _names_in_all(tree) -> set:
    return {name for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for name in ast.literal_eval(node.value)}


def test_every_import_is_used():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items()
                  if name not in used | _names_in_all(tree)}
        assert not unused, f"{path.name} imports names it never uses: {unused}"


# ------------------------------------------------------------------- ledger

MODULES = tuple(importlib.import_module(f"evenlat.{m.name}")
                for m in pkgutil.iter_modules(evenlat.__path__))
MEMBERS = (FunctionType, staticmethod, classmethod, property, cached_property)

LEDGER = {
    # constants of __all__
    "evenlat.MAX_GLUE_ORDER": "test test_cli.py::test_max_order_only_where_a_group_is_scanned",
    "evenlat.MAX_ORDER": "test test_cli.py::test_max_order_only_where_a_group_is_scanned",
    "evenlat.__version__": "test test_cli.py::test_version_flag",
    # cli
    # main builds its parser once per process, so a trace may not see it
    "cli.build_parser": "test test_golden.py::test_table_is_rendered_from_the_json_payload",
    "cli.main": "cli classify-a2-identity",
    # matrices
    "matrices.Matrix": "cli classify-a2-identity",
    "matrices.Matrix.T": "test test_matrices.py::test_identity_transpose_pow",
    "matrices.Matrix.col": "cli complete-a2",
    "matrices.Matrix.diagonal": "test test_matrices.py::test_snf_frozen_examples",
    "matrices.Matrix.identity": "cli complete-a2",
    "matrices.Matrix.is_integral": "cli classify-a2-identity",
    "matrices.Matrix.is_square": "cli classify-a2-identity",
    "matrices.Matrix.is_symmetric": "cli classify-a2-identity",
    "matrices.Matrix.row": "cli reduce-right-a2-corner",
    "matrices.Matrix.rows": "cli complete-a2",
    "matrices.Matrix.shape": "cli classify-a2-identity",
    "matrices.Matrix.submatrix": "cli reduce-double-a2-corner",
    "matrices.Matrix.zeros": "test test_matrices.py::test_scalar_and_addition",
    "matrices.det":
        "test test_determinant_oracle.py::test_smith_determinant_matches_bareiss_and_sympy",
    "matrices.is_positive_definite":
        "test test_matrices.py::test_positive_definite_matches_signature_sweep",
    "matrices.smith_normal_form": "test test_matrices.py::test_snf_matches_dense_oracle",
    "matrices.vec_gcd": "cli complete-a2",
    # quadmod
    "quadmod.CapExceeded": "test test_quadmod.py::test_caps_raise",
    "quadmod.FiniteQuadraticModule": "cli atlas-a",
    "quadmod.FiniteQuadraticModule.add": "test test_quadmod.py::test_group_operations",
    "quadmod.FiniteQuadraticModule.bilinear": "test test_quadmod.py::test_bilinear_properties",
    "quadmod.FiniteQuadraticModule.element_order": "test test_quadmod.py::test_group_operations",
    "quadmod.FiniteQuadraticModule.elements": "cli analyze-a3",
    "quadmod.FiniteQuadraticModule.is_anisotropic": "cli atlas-a",
    "quadmod.FiniteQuadraticModule.isotropic_elements": "cli overlattices-5a1",
    "quadmod.FiniteQuadraticModule.maximal_isotropic_subgroups": "cli overlattices-5a1",
    "quadmod.FiniteQuadraticModule.neg": "test test_quadmod.py::test_group_operations",
    "quadmod.FiniteQuadraticModule.order": "cli atlas-a",
    "quadmod.FiniteQuadraticModule.q_table": "cli analyze-a3",
    "quadmod.FiniteQuadraticModule.q_value":
        "test test_quadmod.py::test_q_matches_lift_oracle_sweep",
    "quadmod.FiniteQuadraticModule.scale": "test test_quadmod.py::test_group_operations",
    "quadmod.FiniteQuadraticModule.zero": "cli overlattices-5a1",
    "quadmod.GlueGroup": "cli overlattices-5a1",
    "quadmod.GlueGroup.elements":
        "test test_quadmod.py::test_glue_group_canonical_chain_and_equality",
    "quadmod.GlueGroup.order": "cli overlattices-5a1",
    "quadmod.is_maximal_even": "workload coset-reduction",
    # lattices
    "lattices.EvenLattice": "cli classify-a2-identity",
    "lattices.EvenLattice.discriminant_group": "cli atlas-a",
    "lattices.EvenLattice.element_from_dual": "cli overlattices-d24plus",
    "lattices.EvenLattice.inner": "test test_lattices.py::test_basic_accessors",
    "lattices.EvenLattice.is_positive_definite": "cli classify-a2-identity",
    "lattices.EvenLattice.lift": "cli overlattices-d24plus",
    "lattices.EvenLattice.norm": "test test_lattices.py::test_basic_accessors",
    "lattices.EvenLattice.rank": "cli classify-a2-identity",
    "lattices.LatticeEmbedding": "cli overlattices-5a1",
    "lattices.LatticeEmbedding.index": "cli overlattices-5a1",
    "lattices.direct_sum": "cli classify-2a1-determinant",
    "lattices.overlattice_from_glue": "cli overlattices-5a1",
    # roots
    "roots.a_generator_class": "test test_roots.py::test_a_generator_class_q_values",
    "roots.maximality_formula": "cli atlas-a",
    "roots.parse_name": "cli classify-a2-identity",
    "roots.root_lattice": "cli classify-a2-identity",
    "roots.squarefree": "cli atlas-a",
    # ogroup
    "ogroup.ExtendedForm": "cli classify-a2-identity",
    "ogroup.ExtendedForm.classify": "cli complete-a2",
    "ogroup.ExtendedForm.classify_witness": "cli classify-a2-identity",
    "ogroup.ExtendedForm.complete_isotropic": "cli complete-a2",
    "ogroup.ExtendedForm.dual_transvection": "workload coset-reduction",
    "ogroup.ExtendedForm.element_from_word": "workload coset-reduction",
    "ogroup.ExtendedForm.embed_rotation": "test test_ogroup.py::test_embed_rotation",
    "ogroup.ExtendedForm.identity": "cli reduce-double-a2-corner",
    "ogroup.ExtendedForm.involution": "workload coset-reduction",
    "ogroup.ExtendedForm.is_primitive_isotropic": "cli complete-a2",
    "ogroup.ExtendedForm.orbit_transporter": "test test_ogroup.py::test_orbit_transporter",
    "ogroup.ExtendedForm.orthogonal_inverse": "workload wide-verify",
    "ogroup.ExtendedForm.transvection": "workload coset-reduction",
    "ogroup.GroupElement": "cli complete-a2",
    "ogroup.GroupElement.classify": "cli complete-a2",
    "ogroup.GroupElement.inverse":
        "test test_ogroup_oracle.py::test_trusted_results_pass_the_oracle",
    "ogroup.GroupElement.word": "cli complete-a2",
    # an IntEnum defines no code of its own to trace
    "ogroup.Membership": "test test_ogroup.py::test_classify_chain_frozen",
    "ogroup.base_reflection": "test test_ogroup.py::test_base_reflection",
    # cosets
    "cosets.DoubleCosetForm": "cli reduce-double-a2-corner",
    "cosets.HatEmbedding": "test test_cosets.py::test_hat_identity_embedding",
    "cosets.HatEmbedding.pull": "test test_cosets.py::test_hat_inverse_matches_gauss_jordan",
    "cosets.HatEmbedding.push": "test test_cosets.py::test_hat_inverse_matches_gauss_jordan",
    "cosets.HypothesisViolation": "test test_cosets.py::test_hypothesis_violation_frozen_matrix",
    "cosets.NormalizerCertificate": "workload coset-reduction",
    "cosets.RightCosetForm": "cli reduce-right-a2-corner",
    "cosets.ScaledOrthogonal": "cli reduce-right-a2-corner",
    "cosets.ScaledOrthogonal.canonical": "cli reduce-right-a2-corner",
    "cosets.ScaledOrthogonal.content": "cli reduce-right-a2-corner",
    "cosets.ScaledOrthogonal.power":
        "test test_cosets.py::test_power_is_trusted_and_matches_verified",
    "cosets.make_scaled": "cli reduce-right-a2-corner",
    "cosets.max_extension_member": "test test_cosets.py::test_max_extension_member_levels",
    "cosets.normalizer_certificate": "workload coset-reduction",
    "cosets.reduce_double_coset": "cli reduce-double-a2-corner",
    "cosets.reduce_right_coset": "cli reduce-right-a2-corner",
}


def public_surface() -> dict:
    """Every public name, qualified by its module, mapped to its object: the
    constants of ``__all__`` as ``evenlat.<name>``, each submodule's public
    functions and classes, and the public methods and properties of those
    classes."""
    out = {f"evenlat.{name}": obj for name in evenlat.__all__
           if not callable(obj := getattr(evenlat, name))}
    for mod in MODULES:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != mod.__name__:
                continue  # imported from a sibling, listed under its own module
            out[f"{short}.{name}"] = obj
            if inspect.isclass(obj):
                out.update((f"{short}.{name}.{attr}", member)
                           for attr, member in vars(obj).items()
                           if not attr.startswith("_") and isinstance(member, MEMBERS))
    return out


def _codes(obj) -> set:
    """The code objects whose call reaches obj: its function's, or for a
    class those of every function, property and method it defines."""
    if inspect.isclass(obj):
        return set().union(*(_codes(v) for v in vars(obj).values()
                             if isinstance(v, MEMBERS)))
    for attr in ("__func__", "fget", "func"):  # methods, property, cached_property
        obj = getattr(obj, attr, obj)
    return {obj.__code__} if isinstance(obj, FunctionType) else set()


def _traced(run) -> set:
    """The code objects run calls, its standard output discarded."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
    return seen


def _workload_runs() -> dict:
    """A small call of each library entry point a benchmark workload runs
    (``bench/workloads.py``), by workload, over the A1 form. The inputs are
    literals, so the trace holds only the calls themselves."""
    # T((0, 1, 0)) over A1, a kernel member, and T @ diag(4, 2, 2, 2, 1),
    # which scales the form by 4
    t = [[1, 0, 2, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1]]
    scaled = [[x * s for x, s in zip(row, (4, 2, 2, 2, 1))] for row in t]

    def built_form():
        # both group workloads build their forms, then cross-check the tokens
        form = ExtendedForm(EvenLattice(Matrix([[2]]), name="A1"))
        for elem in (form.involution(), form.transvection((0, 1, 0)),
                     form.dual_transvection((0, 1, 0))):
            assert elem.matrix.rows
        return form

    def lattice_survey():
        for command in ("analyze", "overlattices"):
            assert cli.main([command, "--name", "2A1", "--format", "json"]) == 0

    def coset_reduction():
        x = cosets.make_scaled(built_form(), scaled)
        rc, dc = cosets.reduce_right_coset(x), cosets.reduce_double_coset(x)
        cert = cosets.normalizer_certificate(x)
        # what the workload's fingerprint reads
        return (x.matrix.rows, rc.transformer.word, dc.left.word, dc.right.word,
                cert.invariants)

    def wide_verify():
        form = built_form()
        m = Matrix(t)
        assert form.classify_witness(m) == (evenlat.Membership.DISCRIMINANT_KERNEL, {})
        done = form.complete_isotropic(tuple(row[0] for row in t))
        return form.orthogonal_inverse(m).rows, done.matrix.rows, done.word

    return {"lattice-survey": lattice_survey, "coset-reduction": coset_reduction,
            "wide-verify": wide_verify}


@cache
def _test_sources(file: str) -> dict:
    """Test function name -> its source, for a test file."""
    lines = (TESTS / file).read_text(encoding="utf-8").splitlines()
    return {node.name: "\n".join(lines[node.lineno - 1:node.end_lineno])
            for node in ast.parse("\n".join(lines)).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


@pytest.fixture(scope="module")
def reached() -> dict:
    """Source -> the code objects it runs: each golden CLI case, and each
    workload's calls. A case runs with ``--format json``: its table is
    rendered from that payload by the CLI's private writers."""
    from test_golden import CASES, argv_for

    out = {}
    for case in CASES:
        argv = argv_for(case) + ["--format", "json"]
        out[f"cli {case}"] = _traced(lambda: cli.main(argv))
    for name, run in _workload_runs().items():
        out[f"workload {name}"] = _traced(run)
    return out


def test_ledger_names_every_public_name():
    surface = set(public_surface())
    assert not sorted(surface - set(LEDGER)), "public names with no ledger entry"
    assert not sorted(set(LEDGER) - surface), "ledger entries for names that are gone"


def test_ledger_sources_reach_their_names(reached):
    surface = public_surface()
    for name, source in LEDGER.items():
        kind, _, where = source.partition(" ")
        if kind == "test":
            file, _, func = where.partition("::")
            assert func in _test_sources(file), f"{name}: no test {where}"
            assert name.rpartition(".")[2] in _test_sources(file)[func], (name, source)
        else:
            assert source in reached, f"{name}: no source {source!r}"
            hit = bool(_codes(surface[name]) & reached[source])
            assert hit, f"{source} does not reach {name}"
