"""Command-line interface.

Subcommands:

* ``analyze``       rank, determinant, discriminant form, maximality of a lattice
* ``atlas``         closed-form vs computed maximality across an ADE family
* ``overlattices``  maximal even overlattices via isotropic glue groups
* ``classify``      membership chain level of a matrix over the extended form
* ``complete``      generator word completing a primitive isotropic vector
* ``reduce``        right- or double-coset normal form of a scaled matrix

Lattices come from ``--name`` (ADE symbols like A7, D8+, 4A1) or ``--lattice``
(a JSON file, ``-`` for stdin, with {"gram": [[...]]} or {"name": "..."}).
Output is a stable table or JSON (``--format json``); exact rationals are
rendered as "p/q" strings. Exit codes: 0 success, 2 invalid input or caps,
3 reduction hypothesis violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .cosets import (
    HypothesisViolation,
    make_scaled,
    reduce_double_coset,
    reduce_right_coset,
)
from .lattices import EvenLattice, overlattice_from_glue
from .matrices import Matrix
from .ogroup import ExtendedForm, Membership
from .quadmod import MAX_GLUE_ORDER, MAX_ORDER, CapExceeded
from .roots import maximality_formula, root_lattice


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Matrix):
        return [list(row) for row in obj.rows]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, payload: dict, table_lines):
    if args.format == "json":
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _read_json_source(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_object(path: str, what: str) -> dict:
    data = _read_json_source(path)
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {json.dumps(data)}")
    return data


def _json_int(x, what: str) -> int:
    # JSON true/false load as bool, a subclass of int, and int() would
    # coerce floats and strings: all three are refused
    if type(x) is not int:
        raise ValueError(f"{what} must hold JSON integers, got {json.dumps(x)}")
    return x


def _json_ints(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, got {json.dumps(v)}")
    return [_json_int(x, what) for x in v]


def _json_matrix(rows, what: str) -> Matrix:
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a JSON list of rows, got {json.dumps(rows)}")
    return Matrix([_json_ints(r, what) for r in rows])


def _json_name(x) -> str:
    if not isinstance(x, str):
        raise ValueError(f"lattice 'name' must be a string, got {json.dumps(x)}")
    return x


def _load_lattice(args) -> EvenLattice:
    if getattr(args, "name", None):
        return root_lattice(args.name)
    if getattr(args, "lattice", None):
        data = _read_object(args.lattice, "lattice")
        if "gram" in data:
            return EvenLattice(_json_matrix(data["gram"], "'gram'"),
                               name=_json_name(data.get("name", "")))
        if "name" in data:
            return root_lattice(_json_name(data["name"]))
        raise ValueError("lattice JSON needs a 'gram' or 'name' field")
    raise ValueError("provide a lattice via --name or --lattice")


def _matrix_rows(lines, mat: Matrix, indent="  "):
    cells = [[str(x) for x in row] for row in mat.rows]
    width = max((len(c) for row in cells for c in row), default=1)
    for row in cells:
        lines.append(indent + " ".join(c.rjust(width) for c in row))


def _word_json(word):
    out = []
    for tok in word:
        if tok[0] == "J":
            out.append(["J"])
        else:
            out.append([tok[0], list(tok[1])])
    return out


# -- subcommands ----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    lat = _load_lattice(args)
    disc = lat.discriminant_group()
    try:
        maximal = disc.is_anisotropic(args.max_order)
        capped = False
    except CapExceeded:
        maximal = None
        capped = True
    verdict = "unknown (cap exceeded)" if capped else (
        "yes" if maximal else "no")
    positive = lat.is_positive_definite  # a full Bareiss pass; read once
    payload = {
        "name": lat.name or None,
        "rank": lat.rank,
        "determinant": lat.determinant,
        "positive_definite": positive,
        "discriminant_divisors": list(disc.divisors),
        "discriminant_order": disc.order,
        "anisotropic": maximal,
        "maximal_even": maximal,
        "single_cusp_class": maximal,
        "cap_exceeded": capped,
    }
    lines = [
        f"lattice: {lat.name or '(unnamed)'}",
        f"rank: {lat.rank}",
        f"determinant: {lat.determinant}",
        f"positive definite: {'yes' if positive else 'no'}",
        f"discriminant group: {_group_name(disc.divisors)} (order {disc.order})",
        f"anisotropic: {verdict}",
        f"maximal even: {verdict}",
    ]
    if capped:
        lines.append("zero-dimensional cusps: unknown (cap exceeded)")
        lines.append(
            f"q values: suppressed (order {disc.order} > scan cap "
            f"{args.max_order})"
        )
        _emit(args, payload, lines)
        return 0
    lines.append(f"zero-dimensional cusps: {'1' if maximal else '> 1'}")
    if disc.order <= args.qtable_max:
        table = disc.q_table()
        payload["q_table"] = [
            {"element": list(x), "q": q} for x, q in sorted(table.items())
        ]
        lines.append("q values:")
        for x, q in sorted(table.items()):
            lines.append(f"  {tuple(x)}: {q}")
    else:
        lines.append(
            f"q values: suppressed (order {disc.order} > {args.qtable_max})"
        )
    _emit(args, payload, lines)
    return 0


def _group_name(divisors) -> str:
    if not divisors:
        return "trivial"
    return " x ".join(f"Z/{d}" for d in divisors)


def _cmd_atlas(args) -> int:
    family = args.family.upper()
    ranks = range(max(args.min, 1), args.max + 1)
    if family == "D":
        ranks = [n for n in ranks if n >= 2]
    elif family == "E":
        ranks = [n for n in ranks if n in (6, 7, 8)]
    rows = []
    for n in ranks:
        lat = root_lattice(f"{family}{n}")
        disc = lat.discriminant_group()
        predicted = maximality_formula(family, n)
        computed = disc.is_anisotropic(args.max_order)
        if predicted != computed:
            raise AssertionError(
                f"closed form and scan disagree for {family}{n}"
            )
        rows.append({
            "name": f"{family}{n}",
            "determinant": lat.determinant,
            "discriminant_order": disc.order,
            "maximal_by_formula": predicted,
            "maximal_by_scan": computed,
        })
    lines = [f"{'name':<6} {'det':>8} {'disc order':>11} {'maximal':>8}"]
    for row in rows:
        lines.append(
            f"{row['name']:<6} {row['determinant']:>8} "
            f"{row['discriminant_order']:>11} "
            f"{'yes' if row['maximal_by_formula'] else 'no':>8}"
        )
    _emit(args, {"family": family, "entries": rows}, lines)
    return 0


def _cmd_overlattices(args) -> int:
    lat = _load_lattice(args)
    disc = lat.discriminant_group()
    glues = disc.maximal_isotropic_subgroups(args.max_glue_order)
    entries = []
    for glue in glues:
        over, emb = overlattice_from_glue(lat, glue)
        entries.append({
            "glue_generators": [list(g) for g in glue.generators],
            "glue_order": glue.order,
            "index": emb.index,
            "overlattice_gram": over.gram,
            "overlattice_determinant": over.determinant,
            "overlattice_maximal": over.discriminant_group().is_anisotropic(
                args.max_order
            ),
        })
    payload = {
        "lattice": lat.name or None,
        "determinant": lat.determinant,
        "count": len(entries),
        "overlattices": entries,
    }
    lines = [
        f"lattice: {lat.name or '(unnamed)'} (determinant {lat.determinant})",
        f"maximal even overlattices: {len(entries)}",
    ]
    for i, e in enumerate(entries):
        lines.append(
            f"[{i}] glue order {e['glue_order']}, index {e['index']}, "
            f"generators {e['glue_generators']}, "
            f"determinant {e['overlattice_determinant']}"
        )
        _matrix_rows(lines, e["overlattice_gram"])
    _emit(args, payload, lines)
    return 0


def _cmd_classify(args) -> int:
    lat = _load_lattice(args)
    form = ExtendedForm(lat)
    data = _read_object(args.input, "classify input")
    if "R" not in data:
        raise ValueError("classify input needs an 'R' matrix field")
    level, witness = form.classify_witness(_json_matrix(data["R"], "'R'"))
    payload = {
        "membership": level.name.lower(),
        "level": int(level),
        "witness": witness or None,
    }
    lines = [f"membership: {level.name.lower()} (level {int(level)})"]
    if witness:
        parts = ", ".join(f"{k}: {_fmt_value(v)}" for k, v in witness.items())
        lines.append(f"witness ({parts})")
    _emit(args, payload, lines)
    return 0


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + ", ".join(str(x) for x in v) + ")"
    return str(v)


def _cmd_complete(args) -> int:
    lat = _load_lattice(args)
    form = ExtendedForm(lat)
    data = _read_object(args.input, "complete input")
    if "h" not in data:
        raise ValueError("complete input needs an 'h' vector field")
    h = _json_ints(data["h"], "'h'")
    elem = form.complete_isotropic(h)  # raises unless a kernel element
    payload = {
        "h": h,
        "word": _word_json(elem.word),
        "word_length": len(elem.word),
        "matrix": elem.matrix,
        "membership": Membership.DISCRIMINANT_KERNEL.name.lower(),
    }
    lines = [
        f"word length: {len(elem.word)}",
        f"word: {_word_json(elem.word)}",
        "matrix with first column h:",
    ]
    _matrix_rows(lines, elem.matrix)
    _emit(args, payload, lines)
    return 0


def _cmd_reduce(args) -> int:
    lat = _load_lattice(args)
    form = ExtendedForm(lat)
    data = _read_object(args.input, "reduce input")
    if "R" not in data:
        raise ValueError("reduce input needs an 'R' matrix field")
    ratio = data.get("r")
    scaled = make_scaled(
        form,
        _json_matrix(data["R"], "'R'"),
        ratio=None if ratio is None else _json_int(ratio, "'r'"),
        canonicalize=not args.no_canonicalize,
    )
    if args.mode == "right":
        red = reduce_right_coset(scaled)
        payload = {
            "mode": "right",
            "ratio": scaled.ratio,
            "alpha": red.alpha,
            "delta": red.delta,
            "reduced": red.reduced,
            "transformer_word": _word_json(red.transformer.word),
        }
        lines = [
            f"ratio: {scaled.ratio}",
            f"alpha: {red.alpha}",
            f"delta: {red.delta}",
            f"transformer word length: {len(red.transformer.word)}",
            "reduced matrix:",
        ]
        _matrix_rows(lines, red.reduced)
    else:
        red = reduce_double_coset(scaled)
        payload = {
            "mode": "double",
            "ratio": scaled.ratio,
            "alpha": red.alpha,
            "delta": red.delta,
            "reduced": red.reduced,
            "core": red.core,
            "left_word": _word_json(red.left.word),
            "right_word": _word_json(red.right.word),
        }
        lines = [
            f"ratio: {scaled.ratio}",
            f"alpha: {red.alpha}",
            f"delta: {red.delta}",
            f"left word length: {len(red.left.word)}",
            f"right word length: {len(red.right.word)}",
            "reduced matrix diag(alpha, core, delta):",
        ]
        _matrix_rows(lines, red.reduced)
    # each identity the reduction guarantees held, or it raised
    payload["verification"] = [{"check": name, "ok": True} for name in red.checks]
    lines.append("verification:")
    lines.extend(f"  {name}: ok" for name in red.checks)
    _emit(args, payload, lines)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_lattice_options(p):
    p.add_argument("--name", help="ADE lattice name, e.g. A7, D8+, 4A1")
    p.add_argument(
        "--lattice",
        help="JSON file ('-' for stdin) with {'gram': [[...]]} or {'name': ...}",
    )


def _add_common_options(p):
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    p.add_argument(
        "--timings", action="store_true",
        help="print elapsed wall time to stderr",
    )
    p.add_argument(
        "--max-order", type=int, default=MAX_ORDER,
        help="cap on discriminant-group scans",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evenlat",
        description="exact arithmetic for even lattices and their orthogonal groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="discriminant form and maximality")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument(
        "--qtable-max", type=int, default=100,
        help="largest discriminant order for which the q table is printed",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("atlas", help="maximality across an ADE family")
    _add_common_options(p)
    p.add_argument("--family", required=True, choices=("A", "D", "E"))
    p.add_argument("--min", type=int, default=1, help="smallest rank")
    p.add_argument("--max", type=int, required=True, help="largest rank")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("overlattices", help="maximal even overlattices")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument(
        "--max-glue-order", type=int, default=MAX_GLUE_ORDER,
        help="cap on discriminant order for glue enumeration",
    )
    p.set_defaults(func=_cmd_overlattices)

    p = sub.add_parser("classify", help="membership level of a matrix")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'R': [[...]]}")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("complete", help="complete a primitive isotropic vector")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'h': [...]}")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("reduce", help="coset normal form of a scaled matrix")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'R': [[...]], 'r': int}")
    p.add_argument("--mode", choices=("right", "double"), default="right")
    p.add_argument(
        "--no-canonicalize", action="store_true",
        help="keep the matrix/ratio as given instead of dividing out content",
    )
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CapExceeded, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if getattr(args, "timings", False):
            elapsed = time.perf_counter() - start
            print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
