"""Golden CLI corpus: JSON and table output must stay byte-identical.

Each case runs one command on a frozen input from ``golden/inputs`` twice,
with ``--format json`` and with the default table format, and compares
standard output, byte for byte, with ``golden/<case>.json`` and
``golden/<case>.txt``. The table outputs were written by the CLI before
``reduce`` and ``complete`` stopped re-verifying library results. The JSON
outputs were written by the CLI before the integer-only group core replaced
the kernel gate over ``Fraction`` and the Gauss-Jordan inverse of S1 (the
library keeps neither; ``test_ogroup_oracle`` checks against both), so they
pin that refactors keep every reported value, witness and generator word. The ``overlattices``
cases on 3D4, 8A1, 4A2, 2D4 and D24+ and the ``analyze`` cases on
``[[510510]]`` (seven primes), 12A2, 16A1 and a Gram with 2-, 3- and
5-parts were written by the ``Fraction`` discriminant-form layer, before
the integer lift Gram, per-prime anisotropy scan and orthogonality-pruned
glue search replaced it, and while every overlattice still ran its own
Smith elimination and anisotropy scan: they pin that the determinant taken
from the parent and the maximality read off the search are the same values.
All seven ``overlattices`` cases were written again when the overlattice
basis became the Hermite normal form of d M: only the Gram matrices changed,
every other field and line is as before.
The ``analyze`` cases on an indefinite Gram and on
E8 (trivial discriminant group) and the ``atlas`` case on the E family were
written by the CLI before each table was rendered from its JSON payload.
The payload test builds that JSON form with ``cli._encode``, the encoder
``main`` uses.
The integrality gate of ``classify`` has no case: the CLI reads integer
matrices only.
"""

import json
from pathlib import Path

import pytest

from evenlat.cli import _encode, build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# case -> argv; "@name" stands for the path of golden/inputs/name.json
CASES = {
    "classify-a2-identity":
        ["classify", "--name", "A2", "--input", "@classify-a2-identity"],
    "classify-a2-form-congruence":
        ["classify", "--name", "A2", "--input", "@classify-a2-form-congruence"],
    "classify-2a1-determinant":
        ["classify", "--name", "2A1", "--input", "@classify-2a1-determinant"],
    "classify-a2-orientation":
        ["classify", "--name", "A2", "--input", "@classify-a2-orientation"],
    "classify-a2-kernel-congruence":
        ["classify", "--name", "A2", "--input", "@classify-a2-kernel-congruence"],
    "classify-a30-kernel-congruence":
        ["classify", "--name", "A30", "--input", "@classify-a30-kernel-congruence"],
    "classify-d4-member": ["classify", "--name", "D4", "--input", "@classify-d4-member"],
    "complete-a2": ["complete", "--name", "A2", "--input", "@complete-a2"],
    "complete-a1-sign": ["complete", "--name", "A1", "--input", "@complete-a1-sign"],
    "complete-e8": ["complete", "--name", "E8", "--input", "@complete-e8"],
    "reduce-right-a2-corner":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-corner", "--mode", "right"],
    "reduce-double-a2-corner":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-corner", "--mode", "double"],
    "reduce-right-a2-word":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-word", "--mode", "right"],
    "reduce-double-a2-word":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-word", "--mode", "double"],
    "reduce-right-a2-content-raw":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-content", "--mode", "right",
         "--no-canonicalize"],
    "reduce-double-a2-content":
        ["reduce", "--name", "A2", "--input", "@reduce-a2-content", "--mode", "double"],
    "reduce-double-e8-word":
        ["reduce", "--name", "E8", "--input", "@reduce-e8-word", "--mode", "double"],
    "atlas-a": ["atlas", "--family", "A", "--max", "10"],
    "atlas-d": ["atlas", "--family", "D", "--min", "2", "--max", "9"],
    "atlas-e": ["atlas", "--family", "E", "--max", "8"],
    "analyze-a3": ["analyze", "--name", "A3"],
    "analyze-4a1": ["analyze", "--name", "4A1"],
    "analyze-gram-file": ["analyze", "--lattice", "@lattice-a2-gram"],
    "analyze-indefinite": ["analyze", "--lattice", "@lattice-indefinite"],
    "analyze-e8": ["analyze", "--name", "E8"],
    "analyze-6a1-capped": ["analyze", "--name", "6A1", "--max-order", "10"],
    "overlattices-5a1": ["overlattices", "--name", "5A1"],
    "overlattices-d8": ["overlattices", "--name", "D8"],
    "overlattices-3d4": ["overlattices", "--name", "3D4"],
    "overlattices-8a1": ["overlattices", "--name", "8A1"],
    "overlattices-4a2": ["overlattices", "--name", "4A2"],
    "overlattices-2d4": ["overlattices", "--name", "2D4"],
    "overlattices-d24plus": ["overlattices", "--name", "D24+"],
    "analyze-510510": ["analyze", "--lattice", "@lattice-510510"],
    "analyze-12a2": ["analyze", "--name", "12A2"],
    "analyze-16a1": ["analyze", "--name", "16A1"],
    "analyze-mixed-2-3-5":
        ["analyze", "--lattice", "@lattice-mixed-2-3-5", "--qtable-max", "200"],
}


def argv_for(case):
    return [str(INPUTS / f"{a[1:]}.json") if a.startswith("@") else a
            for a in CASES[case]]


def test_corpus_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_byte_identical(case, capsys):
    code = main(argv_for(case) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_table_output_byte_identical(case, capsys):
    code = main(argv_for(case))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_is_rendered_from_the_json_payload(case):
    # the command computes the payload once; the table reads only its JSON
    # form and the parsed options
    args = build_parser().parse_args(argv_for(case))
    payload = json.loads(json.dumps(args.func(args), default=_encode))
    assert payload == json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    text = "\n".join(args.table(payload, args)) + "\n"
    assert text == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
