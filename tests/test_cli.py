"""Command-line interface: exit codes, output shapes, determinism."""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evenlat
import helpers
from evenlat import ExtendedForm, Matrix, __version__, root_lattice
from evenlat.cli import _dumps, _encode, build_parser, main
from evenlat.roots import MAX_RANK


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# -------------------------------------------------------------------- analyze


def test_analyze_table(capsys):
    code, out, err = run(capsys, "analyze", "--name", "A1")
    assert code == 0 and err == ""
    assert "maximal even: yes" in out
    assert "discriminant group: Z/2 (order 2)" in out
    assert "zero-dimensional cusps: 1" in out
    assert "(1,): 1/4" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--name", "D4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4
    assert data["determinant"] == 4
    assert data["discriminant_divisors"] == [2, 2]
    assert data["maximal_even"] is True
    assert data["single_cusp_class"] is True
    qs = {tuple(e["element"]): e["q"] for e in data["q_table"]}
    assert sorted(qs.values()) == ["0", "1/2", "1/2", "1/2"]


def test_analyze_cusp_verdict_non_maximal(capsys):
    code, out, _ = run(capsys, "analyze", "--name", "4A1")
    assert code == 0
    assert "maximal even: no" in out
    assert "zero-dimensional cusps: > 1" in out
    code, out, _ = run(capsys, "analyze", "--name", "4A1", "--format", "json")
    assert json.loads(out)["single_cusp_class"] is False


def test_analyze_qtable_suppression(capsys):
    code, out, _ = run(capsys, "analyze", "--name", "4A1", "--qtable-max", "1")
    assert code == 0
    assert "suppressed" in out
    code, out, _ = run(capsys, "analyze", "--name", "4A1", "--format", "json",
                       "--qtable-max", "1")
    assert "q_table" not in json.loads(out)


def test_analyze_gram_file(capsys, tmp_path):
    path = write_json(tmp_path, "lat.json", {"gram": [[2, -1], [-1, 2]]})
    code, out, _ = run(capsys, "analyze", "--lattice", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["determinant"] == 3


def test_analyze_name_file_and_stdin(capsys, monkeypatch, tmp_path):
    path = write_json(tmp_path, "lat.json", {"name": "A2"})
    code, out, _ = run(capsys, "analyze", "--lattice", path, "--format", "json")
    assert code == 0 and json.loads(out)["determinant"] == 3
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"gram": [[2]]}'))
    code, out, _ = run(capsys, "analyze", "--lattice", "-", "--format", "json")
    assert code == 0 and json.loads(out)["determinant"] == 2


def test_analyze_timings_to_stderr(capsys):
    code, out, err = run(capsys, "analyze", "--name", "A1", "--timings")
    assert code == 0
    assert "elapsed:" in err
    assert "elapsed:" not in out


# ---------------------------------------------------------------------- atlas


def test_atlas_table_and_json(capsys):
    code, out, _ = run(capsys, "atlas", "--family", "A", "--max", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("A")]
    assert len(lines) == 12
    code, out, _ = run(capsys, "atlas", "--family", "A", "--max", "12",
                       "--format", "json")
    entries = json.loads(out)["entries"]
    verdict = {e["name"]: e["maximal_by_formula"] for e in entries}
    assert verdict["A7"] is False and verdict["A8"] is False
    assert verdict["A6"] is True and verdict["A9"] is True
    assert all(e["maximal_by_formula"] == e["maximal_by_scan"] for e in entries)


def test_atlas_e_family_window(capsys):
    code, out, _ = run(capsys, "atlas", "--family", "E", "--max", "20",
                       "--format", "json")
    assert code == 0
    assert [e["name"] for e in json.loads(out)["entries"]] == ["E6", "E7", "E8"]


def test_atlas_d_family(capsys):
    code, out, _ = run(capsys, "atlas", "--family", "D", "--min", "2",
                       "--max", "16", "--format", "json")
    entries = json.loads(out)["entries"]
    verdict = {e["name"]: e["maximal_by_formula"] for e in entries}
    assert verdict["D8"] is False and verdict["D16"] is False
    assert verdict["D4"] is True and verdict["D12"] is True


# --------------------------------------------------------------- overlattices


def test_overlattices_4a1(capsys):
    code, out, _ = run(capsys, "overlattices", "--name", "4A1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    entry = data["overlattices"][0]
    assert entry["glue_generators"] == [[1, 1, 1, 1]]
    assert entry["glue_order"] == 2
    assert entry["index"] == 2
    assert entry["overlattice_determinant"] == 4
    assert entry["overlattice_maximal"] is True
    assert entry["overlattice_gram"] == [
        [2, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]
    ]


def test_overlattices_d8_table(capsys):
    code, out, _ = run(capsys, "overlattices", "--name", "D8")
    assert code == 0
    assert "maximal even overlattices: 2" in out
    assert "determinant 1" in out


def test_overlattices_glue_cap(capsys):
    code, _, err = run(capsys, "overlattices", "--name", "4A1",
                       "--max-glue-order", "10")
    assert code == 2
    assert "exceeds the scan cap" in err


# ------------------------------------------------------------------- classify


def test_classify_identity(capsys, tmp_path):
    path = write_json(tmp_path, "m.json",
                      {"R": [[int(i == j) for j in range(6)] for i in range(6)]})
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path)
    assert code == 0
    assert "membership: discriminant_kernel (level 5)" in out


def test_classify_levels_json(capsys, tmp_path):
    neg = [[-int(i == j) for j in range(6)] for i in range(6)]
    path = write_json(tmp_path, "m.json", {"R": neg})
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "membership": "integral_special_plus",
        "level": 4,
        "witness": {"check": "kernel-congruence", "entry": [2, 2],
                    "value": "4/3"},
    }


def test_classify_witness_reported(capsys, tmp_path):
    doubled = [[2 * int(i == j) for j in range(6)] for i in range(6)]
    path = write_json(tmp_path, "m.json", {"R": doubled})
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path)
    assert code == 0
    assert "membership: not_orthogonal (level 0)" in out
    assert "witness (check: form-congruence, entry: (0, 5), got: 4, " \
           "expected: 1)" in out
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path,
                       "--format", "json")
    data = json.loads(out)
    assert data["witness"] == {"check": "form-congruence", "entry": [0, 5],
                               "got": 4, "expected": 1}


def test_classify_kernel_has_no_witness(capsys, tmp_path):
    path = write_json(tmp_path, "m.json",
                      {"R": [[int(i == j) for j in range(6)] for i in range(6)]})
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path,
                       "--format", "json")
    assert json.loads(out)["witness"] is None
    code, out, _ = run(capsys, "classify", "--name", "A2", "--input", path)
    assert "witness" not in out


def test_classify_missing_field(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", {"matrix": []})
    code, _, err = run(capsys, "classify", "--name", "A2", "--input", path)
    assert code == 2 and "error:" in err


# ------------------------------------------------------------------- complete


def test_complete_frozen_vector(capsys, tmp_path):
    # by hand over A2: quad(1,1,1,1,1,0) = 0 + 2 - (2 - 2 + 2) = 0; primitive
    path = write_json(tmp_path, "h.json", {"h": [1, 1, 1, 1, 1, 0]})
    code, out, _ = run(capsys, "complete", "--name", "A2", "--input", path,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["membership"] == "discriminant_kernel"
    assert data["word_length"] == len(data["word"])
    # rebuild the element from the reported word and check the column
    form = ExtendedForm(root_lattice("A2"))
    word = tuple(
        ("J",) if tok == ["J"] else (tok[0], tuple(tok[1]))
        for tok in data["word"]
    )
    assert form.element_from_word(word).matrix.col(0) == (1, 1, 1, 1, 1, 0)
    assert data["matrix"][0][0] == 1


def test_complete_rejects_bad_vector(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", {"h": [1, 0, 0, 0, 0, 1]})  # norm 2
    code, _, err = run(capsys, "complete", "--name", "A2", "--input", path)
    assert code == 2 and "not primitive isotropic" in err


# --------------------------------------------------------------------- reduce


def corner_payload(d, s):
    return {"R": [list(r) for r in helpers.corner_scaling(d, s).rows]}


def test_reduce_right_json(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", corner_payload(6, 2))
    code, out, _ = run(capsys, "reduce", "--name", "A2", "--input", path,
                       "--mode", "right", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["ratio"], data["alpha"], data["delta"]) == (4, 4, 1)
    assert data["transformer_word"] == []
    assert data["reduced"][0][0] == 4
    assert len(data["verification"]) == 5
    assert all(c["ok"] is True for c in data["verification"])
    assert {"check": "alpha * delta = ratio", "ok": True} in data["verification"]


def test_reduce_double_json(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", corner_payload(6, 2))
    code, out, _ = run(capsys, "reduce", "--name", "A2", "--input", path,
                       "--mode", "double", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["ratio"], data["alpha"], data["delta"]) == (4, 1, 4)
    assert data["reduced"][0][0] == 1
    assert data["reduced"][5][5] == 4
    assert len(data["core"]) == 4
    assert all(c["ok"] is True for c in data["verification"])
    assert {"check": "alpha = gcd of all input entries",
            "ok": True} in data["verification"]


def test_reduce_table_has_transcript(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", corner_payload(6, 2))
    code, out, _ = run(capsys, "reduce", "--name", "A2", "--input", path,
                       "--mode", "right")
    assert code == 0
    assert "verification:" in out
    assert "  alpha = gcd of first-column pairings: ok" in out


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize("argv", [
    ["complete", "--name", "A2", "--input", "complete-a2"],
    ["complete", "--name", "E8", "--input", "complete-e8"],
    ["reduce", "--name", "A2", "--input", "reduce-a2-word", "--mode", "right"],
    ["reduce", "--name", "A2", "--input", "reduce-a2-word", "--mode", "double"],
    ["reduce", "--name", "E8", "--input", "reduce-e8-word", "--mode", "double"],
    ["reduce", "--name", "A2", "--input", "reduce-a2-content", "--mode", "right",
     "--no-canonicalize"],
])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cli_classifies_only_inside_the_library(argv, fmt, capsys, monkeypatch):
    # the one classify behind these commands is the completion's own;
    # the CLI prints the library's checks instead of recomputing them
    classified = helpers.count_calls(monkeypatch, "classify_witness")
    completed = helpers.count_calls(monkeypatch, "_complete")
    argv = [str(GOLDEN_INPUTS / f"{a}.json") if prev == "--input" else a
            for prev, a in zip([None] + argv, argv)]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert len(classified) == len(completed)
    if argv[0] == "complete" or "right" in argv:
        assert len(completed) == 1


def test_reduce_explicit_ratio_checked(capsys, tmp_path):
    payload = corner_payload(6, 2)
    payload["r"] = 8
    path = write_json(tmp_path, "r.json", payload)
    code, _, err = run(capsys, "reduce", "--name", "A2", "--input", path)
    assert code == 2 and "does not scale the form" in err


def test_reduce_hypothesis_violation_exits_3(capsys, tmp_path):
    path = write_json(tmp_path, "v.json",
                      {"R": helpers.HYPOTHESIS_VIOLATOR_4A1})
    for mode in ("right", "double"):
        code, _, err = run(capsys, "reduce", "--name", "4A1", "--input", path,
                           "--mode", mode, "--no-canonicalize")
        assert code == 3
        assert "not divisible by its pairing content" in err


# ------------------------------------------------------------ errors and misc


def test_bad_name_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--name", "B3")
    assert code == 2 and "cannot parse lattice name" in err


def test_missing_lattice_exits_2(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2 and "provide a lattice" in err


def test_bad_json_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    code, _, err = run(capsys, "analyze", "--lattice", str(p))
    assert code == 2 and "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--lattice", "/nonexistent/x.json")
    assert code == 2


def test_lattice_json_without_fields_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "l.json", {"rank": 2})
    code, _, err = run(capsys, "analyze", "--lattice", path)
    assert code == 2 and "'gram' or 'name'" in err


def test_odd_gram_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "l.json", {"gram": [[1]]})
    code, _, err = run(capsys, "analyze", "--lattice", path)
    assert code == 2 and "diagonal must be even" in err


def test_analyze_cap_gives_partial_report(capsys):
    # structural facts still reported; verdicts flagged unknown, exit 0
    code, out, err = run(capsys, "analyze", "--name", "6A1",
                         "--max-order", "10")
    assert code == 0 and err == ""
    assert "discriminant group: Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2 (order 64)" in out
    assert "maximal even: unknown (cap exceeded)" in out
    assert "zero-dimensional cusps: unknown (cap exceeded)" in out
    assert "q values: suppressed (order 64 > scan cap 10)" in out
    code, out, _ = run(capsys, "analyze", "--name", "6A1",
                       "--max-order", "10", "--format", "json")
    data = json.loads(out)
    assert data["cap_exceeded"] is True
    assert data["maximal_even"] is None
    assert data["determinant"] == 64
    assert "q_table" not in data


def test_analyze_64a1_is_bounded():
    # the form build is integer work of polynomial size; with the Fraction
    # lift Gram this ran past 60 s before the scan cap could answer
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "evenlat.cli", "analyze", "--name", "64A1",
         "--format", "json"],
        capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["cap_exceeded"] is True and data["anisotropic"] is None
    assert data["discriminant_divisors"] == [2] * 64


def test_overlattices_cap_exceeded_exits_2(capsys):
    code, _, err = run(capsys, "overlattices", "--name", "6A1",
                       "--max-glue-order", "10")
    assert code == 2 and "exceeds" in err


IDENTITY6 = [[int(i == j) for j in range(6)] for i in range(6)]
CORNER6 = [list(r) for r in helpers.corner_scaling(6, 2).rows]
TRUE_CORNER = [[True if (i, j) == (0, 0) else x for j, x in enumerate(row)]
               for i, row in enumerate(IDENTITY6)]
# 2·I of one rank above the limit, whole, so only its size is wrong
GRAM_OVER_LIMIT = {"gram": [[2 * (i == j) for j in range(MAX_RANK + 1)]
                            for i in range(MAX_RANK + 1)]}

# (case, exit code, stderr fragment, argv, --lattice JSON, --input JSON)
EXIT_CODE_CASES = [
    ("analyze-name", 0, "", ["analyze", "--name", "A2"], None, None),
    ("analyze-gram", 0, "", ["analyze"], {"gram": [[2, -1], [-1, 2]]}, None),
    ("classify", 0, "", ["classify", "--name", "A2"], None, {"R": IDENTITY6}),
    ("complete", 0, "", ["complete", "--name", "A2"], None, {"h": [1, 1, 1, 1, 1, 0]}),
    ("reduce", 0, "", ["reduce", "--name", "A2"], None, {"R": CORNER6, "r": 4}),
    ("gram-string", 2, "'gram' must be a JSON list", ["analyze"], {"gram": "ab"}, None),
    ("gram-float", 2, "got 2.0", ["analyze"], {"gram": [[2.0]]}, None),
    ("gram-bool", 2, "got true", ["analyze"], {"gram": [[True]]}, None),
    ("gram-flat", 2, "'gram' must be a JSON list", ["analyze"], {"gram": [2]}, None),
    ("gram-rank-257-stdin", 2, f"rank 257, above the limit {MAX_RANK}",
     ["analyze", "--lattice", "-"], GRAM_OVER_LIMIT, None),
    ("lattice-not-object", 2, "must be an object", ["analyze"], 5, None),
    ("lattice-name-int", 2, "'name' must be a string", ["analyze"], {"name": 7}, None),
    ("gram-name-int", 2, "'name' must be a string", ["analyze"],
     {"gram": [[2]], "name": 7}, None),
    ("classify-bool", 2, "got true", ["classify", "--name", "A2"], None,
     {"R": TRUE_CORNER}),
    ("classify-not-object", 2, "must be an object", ["classify", "--name", "A2"],
     None, [IDENTITY6]),
    ("classify-indefinite-base", 2, "must be positive definite", ["classify"],
     {"gram": [[2, 1], [1, -2]]}, {"R": IDENTITY6}),
    ("complete-float", 2, "got 1.7", ["complete", "--name", "A1"], None,
     {"h": [1.7, 0, 0, 0, 0]}),
    ("complete-string", 2, "'h' must be a JSON list", ["complete", "--name", "A1"],
     None, {"h": "10000"}),
    ("reduce-ratio-bool", 2, "'r' must hold JSON integers", ["reduce", "--name", "A2"],
     None, {"R": CORNER6, "r": True}),
    ("reduce-ratio-float", 2, "got 4.0", ["reduce", "--name", "A2"], None,
     {"R": CORNER6, "r": 4.0}),
    ("reduce-violation-right", 3, "not divisible by its pairing content",
     ["reduce", "--name", "4A1", "--mode", "right", "--no-canonicalize"], None,
     {"R": helpers.HYPOTHESIS_VIOLATOR_4A1}),
    ("reduce-violation-double", 3, "not divisible by its pairing content",
     ["reduce", "--name", "4A1", "--mode", "double", "--no-canonicalize"], None,
     {"R": helpers.HYPOTHESIS_VIOLATOR_4A1}),
    ("reduce-core-violation-right", 0, "", ["reduce", "--name", "4A1", "--mode", "right"],
     None, {"R": helpers.CORE_VIOLATOR_4A1}),
    ("reduce-core-violation-double", 3, "reduced core is not divisible",
     ["reduce", "--name", "4A1", "--mode", "double"], None,
     {"R": helpers.CORE_VIOLATOR_4A1}),
    ("complete-no-h", 2, "needs an 'h' vector field", ["complete", "--name", "A1"],
     None, {"R": IDENTITY6}),
    ("reduce-no-R", 2, "needs an 'R' matrix field", ["reduce", "--name", "A2"],
     None, {"r": 4}),
    ("cap-analyze-negative", 2, "--max-order must be positive, got -1",
     ["analyze", "--name", "A2", "--max-order", "-1"], None, None),
    ("cap-atlas-zero", 2, "--max-order must be positive, got 0",
     ["atlas", "--family", "A", "--max", "3", "--max-order", "0"], None, None),
    ("cap-overlattices-negative", 2, "--max-glue-order must be positive, got -1",
     ["overlattices", "--name", "4A1", "--max-glue-order", "-1"], None, None),
    ("qtable-negative", 2, "--qtable-max must be non-negative, got -1",
     ["analyze", "--name", "A2", "--qtable-max", "-1"], None, None),
    ("qtable-zero", 0, "", ["analyze", "--name", "A2", "--qtable-max", "0"], None, None),
    ("atlas-max-zero", 2, "no A-series lattice has a rank in 1..0",
     ["atlas", "--family", "A", "--max", "0"], None, None),
    ("atlas-min-above-max", 2, "no A-series lattice has a rank in 5..2",
     ["atlas", "--family", "A", "--min", "5", "--max", "2"], None, None),
    ("atlas-e-below-6", 2, "no E-series lattice has a rank in 1..5",
     ["atlas", "--family", "E", "--max", "5"], None, None),
    # a key the command does not read is refused by name, not ignored
    ("gram-extra-key", 2, 'lattice JSON has the key "extra", which is not read',
     ["analyze"], {"gram": [[2]], "extra": 1}, None),
    ("name-extra-key", 2, 'the key "gram_file"', ["overlattices"],
     {"name": "A2", "gram_file": "a2.json"}, None),
    ("classify-extra-key", 2, 'classify input JSON has the key "r"',
     ["classify", "--name", "A2"], None, {"R": IDENTITY6, "r": 4}),
    ("complete-extra-key", 2, 'complete input JSON has the key "R"',
     ["complete", "--name", "A2"], None, {"h": [1, 1, 1, 1, 1, 0], "R": IDENTITY6}),
    ("reduce-extra-key", 2, 'reduce input JSON has the key "mode"',
     ["reduce", "--name", "A2"], None, {"R": CORNER6, "r": 4, "mode": "double"}),
]


@pytest.mark.parametrize("case", EXIT_CODE_CASES, ids=[c[0] for c in EXIT_CODE_CASES])
def test_exit_code_contract(case, capsys, monkeypatch, tmp_path):
    _, expected, fragment, argv, lattice, payload = case
    argv = list(argv)
    if "-" in argv:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(lattice)))
    elif lattice is not None:
        argv += ["--lattice", write_json(tmp_path, "lat.json", lattice)]
    if payload is not None:
        argv += ["--input", write_json(tmp_path, "in.json", payload)]
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    if expected == 0:
        assert err == "" and out
    else:
        assert err.startswith("error: ") and fragment in err
        assert out == ""


def test_rank_zero_lattice_is_answered_consistently(capsys, tmp_path):
    # {"gram": []} is the rank-0 lattice: determinant 1, a trivial and so
    # anisotropic discriminant form, and itself as its one maximal even
    # overlattice, through the trivial glue group
    path = write_json(tmp_path, "rank0.json", {"gram": []})
    code, out, _ = run(capsys, "analyze", "--lattice", path, "--format", "json")
    assert code == 0
    p = json.loads(out)
    assert (p["rank"], p["determinant"], p["discriminant_order"]) == (0, 1, 1)
    assert p["maximal_even"] is True and p["positive_definite"] is True
    code, out, _ = run(capsys, "overlattices", "--lattice", path, "--format", "json")
    assert code == 0
    p = json.loads(out)
    assert (p["determinant"], p["count"]) == (1, 1)
    (entry,) = p["overlattices"]
    assert (entry["glue_order"], entry["index"], entry["overlattice_gram"]) == (1, 1, [])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_max_order_only_where_a_group_is_scanned(capsys, tmp_path):
    # classify, complete and reduce scan no discriminant group, and
    # overlattices reads maximality off its glue search, so none of them
    # takes a scan cap: the option is a usage error there
    path = str(tmp_path / "unread.json")
    refused = [[cmd, "--name", "A1", "--input", path]
               for cmd in ("classify", "complete", "reduce")]
    for argv in refused + [["overlattices", "--name", "A1"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-order", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-order 5" in capsys.readouterr().err
    parser = build_parser()
    for argv in (["analyze", "--name", "A1"], ["atlas", "--family", "A", "--max", "2"]):
        assert parser.parse_args(argv + ["--max-order", "5"]).max_order == 5


def test_rank_is_bounded_before_anything_is_built(capsys, monkeypatch):
    # every Matrix, built by Matrix(...) or Matrix._over, goes through _fill
    built = helpers.record_calls(monkeypatch, "_fill")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(GRAM_OVER_LIMIT)))
    for argv in (["analyze", "--name", "A100000"],
                 ["overlattices", "--name", "100000A1"],
                 ["atlas", "--family", "A", "--max", "100000"],
                 ["analyze", "--lattice", "-"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"limit {MAX_RANK}" in err
    assert built == []


def test_caps_below_one_are_refused_before_any_matrix_is_built(capsys, monkeypatch):
    built = helpers.record_calls(monkeypatch, "_fill")
    refused = [case[3] for case in EXIT_CODE_CASES if case[0].startswith("cap-")]
    assert len(refused) == 3
    for argv in refused:
        assert run(capsys, *argv)[:2] == (2, "")
    assert built == []


def test_definiteness_is_one_bareiss_pass_where_it_is_read(capsys, monkeypatch):
    passes = helpers.record_calls(monkeypatch, "_positive_definite")
    code, out, _ = run(capsys, "overlattices", "--name", "A8", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 1
    assert passes == []
    code, out, _ = run(capsys, "analyze", "--name", "A8", "--format", "json")
    assert code == 0 and json.loads(out)["positive_definite"] is True
    assert len(passes) == 1


def test_overlattices_eliminate_once_per_glue_group(capsys, monkeypatch):
    # the A1 summand and the 8A1 discriminant form take one elimination
    # each, and the glue groups none: their bases are Hermite forms; the
    # overlattices build no discriminant form: their maximality comes from
    # the search
    core = helpers.record_calls(monkeypatch, "_eliminate")
    forms = helpers.record_calls(monkeypatch, "FiniteQuadraticModule",
                                 owner=evenlat.quadmod)
    code, out, _ = run(capsys, "overlattices", "--name", "8A1", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 30
    assert all(e["overlattice_maximal"] for e in data["overlattices"])
    assert (len(core), len(forms)) == (2, 1)


def test_json_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "overlattices", "--name", "4A1",
                           "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "--name", "D8",
                           "--format", "json")
        outs.append(out)
    assert outs[0] == outs[1]


_INTS = st.one_of(st.integers(-5, 5), st.integers(-10**30, 10**30))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS,
    # non-ASCII text and the characters that need escapes
    st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                      st.characters()), max_size=6),
    st.fractions(max_denominator=50),
    st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(st.one_of(_INTS, st.fractions(max_denominator=6)),
                 min_size=n, max_size=n), max_size=3)).map(Matrix),
)
_PAYLOADS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.lists(_INTS, max_size=4), st.dictionaries(st.text(max_size=4), kids, max_size=4),
), max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS)
def test_json_writer_matches_indented_dumps(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True, default=_encode)


def test_json_writer_refuses_what_dumps_refuses():
    for bad in (object(), {"a": [1, {2, 3}]}, (b"x",)):
        with pytest.raises(TypeError) as want:
            json.dumps(bad, indent=2, sort_keys=True, default=_encode)
        with pytest.raises(TypeError) as got:
            _dumps(bad)
        assert str(got.value) == str(want.value)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_entry_point(entry_point, *argv):
    """Run ``module:attr`` as the launcher an installer would generate.

    The child imports the same ``evenlat`` package as this process, so the
    check does not depend on what is installed or on ``PATH``.
    """
    module, attr = entry_point.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(evenlat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", launcher, *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_installed():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"] == {"evenlat": "evenlat.cli:main"}
    assert project["version"] == __version__
    entry_point = project["scripts"]["evenlat"]
    proc = run_entry_point(entry_point, "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__
    proc = run_entry_point(entry_point, "analyze", "--name", "Q9")
    assert proc.returncode == 2
    assert "cannot parse lattice name" in proc.stderr


@pytest.mark.skipif(shutil.which("evenlat") is None,
                    reason="no 'evenlat' console script on PATH")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("evenlat"), "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "evenlat.cli", "analyze", "--name", "A1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "maximal even: yes" in proc.stdout
