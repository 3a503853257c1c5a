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
Each command computes one JSON payload; ``--format json`` prints it, and the
default table is rendered from it, so both show the same values. Exact
rationals are "p/q" strings. Exit codes: 0 success, 2 invalid input or caps,
3 reduction hypothesis violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
from .roots import MAX_RANK, maximality_formula, root_lattice


def _encode(obj):
    """json.dumps default: a Matrix as its rows, a Fraction as "p/q"."""
    if isinstance(obj, Matrix):
        return obj.rows
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, default=_encode), byte for byte.

    json's indented output runs its pure-Python encoder; this writer encodes
    strings with the C ``encode_basestring_ascii`` and writes each all-int
    list, such as a Gram row, in one join.
    """
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    # nl is a newline and the indent of the line obj starts on
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        _write(_encode(obj), nl, out)


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


def _matrix_rows(rows) -> list:
    cells = [[str(x) for x in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    return ["  " + " ".join(c.rjust(width) for c in row) for row in cells]


# -- subcommands ----------------------------------------------------------------
# _cmd_<name>(args) returns the payload; _table_<name>(payload, args) renders
# the table from the payload's JSON form and the options alone.


def _cmd_analyze(args) -> dict:
    lat = _load_lattice(args)
    disc = lat.discriminant_group()
    try:
        maximal = disc.is_anisotropic(args.max_order)
        capped = False
    except CapExceeded:
        maximal = None
        capped = True
    payload = {
        "name": lat.name or None,
        "rank": lat.rank,
        "determinant": lat.determinant,
        "positive_definite": lat.is_positive_definite,
        "discriminant_divisors": list(disc.divisors),
        "discriminant_order": disc.order,
        "anisotropic": maximal,
        "maximal_even": maximal,
        "single_cusp_class": maximal,
        "cap_exceeded": capped,
    }
    if not capped and disc.order <= args.qtable_max:
        payload["q_table"] = [
            {"element": list(x), "q": q} for x, q in sorted(disc.q_table().items())
        ]
    return payload


def _table_analyze(p, args) -> list:
    capped, order = p["cap_exceeded"], p["discriminant_order"]
    verdict = "unknown (cap exceeded)" if capped else (
        "yes" if p["maximal_even"] else "no")
    cusps = "unknown (cap exceeded)" if capped else (
        "1" if p["maximal_even"] else "> 1")
    group = " x ".join(f"Z/{d}" for d in p["discriminant_divisors"]) or "trivial"
    lines = [
        f"lattice: {p['name'] or '(unnamed)'}",
        f"rank: {p['rank']}",
        f"determinant: {p['determinant']}",
        f"positive definite: {'yes' if p['positive_definite'] else 'no'}",
        f"discriminant group: {group} (order {order})",
        f"anisotropic: {verdict}",
        f"maximal even: {verdict}",
        f"zero-dimensional cusps: {cusps}",
    ]
    if capped or "q_table" not in p:
        cap = f"scan cap {args.max_order}" if capped else args.qtable_max
        return lines + [f"q values: suppressed (order {order} > {cap})"]
    return lines + ["q values:"] + [
        f"  {tuple(e['element'])}: {e['q']}" for e in p["q_table"]
    ]


def _cmd_atlas(args) -> dict:
    family = args.family.upper()
    if args.max > MAX_RANK:
        raise ValueError(f"--max {args.max} is above the rank limit {MAX_RANK}")
    ranks = range(max(args.min, 1), args.max + 1)
    if family == "D":
        ranks = [n for n in ranks if n >= 2]
    elif family == "E":
        ranks = [n for n in ranks if n in (6, 7, 8)]
    if not ranks:
        raise ValueError(f"no {family}-series lattice has a rank in {args.min}..{args.max}")
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
    return {"family": family, "entries": rows}


def _table_atlas(p, args) -> list:
    return [f"{'name':<6} {'det':>8} {'disc order':>11} {'maximal':>8}"] + [
        f"{row['name']:<6} {row['determinant']:>8} "
        f"{row['discriminant_order']:>11} "
        f"{'yes' if row['maximal_by_formula'] else 'no':>8}"
        for row in p["entries"]
    ]


def _cmd_overlattices(args) -> dict:
    lat = _load_lattice(args)
    disc = lat.discriminant_group()
    entries = []
    for glue in disc.maximal_isotropic_subgroups(args.max_glue_order):
        over, emb = overlattice_from_glue(lat, glue)
        entries.append({
            "glue_generators": glue.generators,
            "glue_order": glue.order,
            "index": emb.index,
            "overlattice_gram": over.gram,
            "overlattice_determinant": over.determinant,
            # derived: each H found is maximal, so H^perp/H is anisotropic (Nikulin)
            "overlattice_maximal": True,
        })
    return {
        "lattice": lat.name or None,
        "determinant": lat.determinant,
        "count": len(entries),
        "overlattices": entries,
    }


def _table_overlattices(p, args) -> list:
    lines = [
        f"lattice: {p['lattice'] or '(unnamed)'} (determinant {p['determinant']})",
        f"maximal even overlattices: {p['count']}",
    ]
    for i, e in enumerate(p["overlattices"]):
        lines.append(
            f"[{i}] glue order {e['glue_order']}, index {e['index']}, "
            f"generators {e['glue_generators']}, "
            f"determinant {e['overlattice_determinant']}"
        )
        lines += _matrix_rows(e["overlattice_gram"])
    return lines


def _cmd_classify(args) -> dict:
    lat = _load_lattice(args)
    form = ExtendedForm(lat)
    data = _read_object(args.input, "classify input")
    if "R" not in data:
        raise ValueError("classify input needs an 'R' matrix field")
    level, witness = form.classify_witness(_json_matrix(data["R"], "'R'"))
    return {
        "membership": level.name.lower(),
        "level": int(level),
        "witness": witness or None,
    }


def _table_classify(p, args) -> list:
    lines = [f"membership: {p['membership']} (level {p['level']})"]
    if p["witness"]:
        # an entry index is a JSON list, printed as the tuple it was
        parts = ", ".join(
            f"{k}: ({', '.join(map(str, v))})" if isinstance(v, list) else f"{k}: {v}"
            for k, v in p["witness"].items()
        )
        lines.append(f"witness ({parts})")
    return lines


def _cmd_complete(args) -> dict:
    lat = _load_lattice(args)
    form = ExtendedForm(lat)
    data = _read_object(args.input, "complete input")
    if "h" not in data:
        raise ValueError("complete input needs an 'h' vector field")
    h = _json_ints(data["h"], "'h'")
    elem = form.complete_isotropic(h)  # raises unless a kernel element
    return {
        "h": h,
        "word": elem.word,
        "word_length": len(elem.word),
        "matrix": elem.matrix,
        "membership": Membership.DISCRIMINANT_KERNEL.name.lower(),
    }


def _table_complete(p, args) -> list:
    return [
        f"word length: {p['word_length']}",
        f"word: {p['word']}",
        "matrix with first column h:",
    ] + _matrix_rows(p["matrix"])


def _cmd_reduce(args) -> dict:
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
        fields = {"transformer_word": red.transformer.word}
    else:
        red = reduce_double_coset(scaled)
        fields = {
            "core": red.core,
            "left_word": red.left.word,
            "right_word": red.right.word,
        }
    return {
        "mode": args.mode,
        "ratio": scaled.ratio,
        "alpha": red.alpha,
        "delta": red.delta,
        "reduced": red.reduced,
        **fields,
        # each identity the reduction guarantees held, or it raised
        "verification": [{"check": name, "ok": True} for name in red.checks],
    }


def _table_reduce(p, args) -> list:
    lines = [f"ratio: {p['ratio']}", f"alpha: {p['alpha']}", f"delta: {p['delta']}"]
    if p["mode"] == "right":
        lines += [f"transformer word length: {len(p['transformer_word'])}",
                  "reduced matrix:"]
    else:
        lines += [f"left word length: {len(p['left_word'])}",
                  f"right word length: {len(p['right_word'])}",
                  "reduced matrix diag(alpha, core, delta):"]
    return lines + _matrix_rows(p["reduced"]) + ["verification:"] + [
        f"  {c['check']}: ok" for c in p["verification"]
    ]


# -- parser ----------------------------------------------------------------------


def _add_lattice_options(p):
    p.add_argument("--name", help="ADE lattice name, e.g. A7, D8+, 4A1")
    p.add_argument(
        "--lattice",
        help="JSON file ('-' for stdin) with {'gram': [[...]]} or {'name': ...}",
    )


def _add_common_options(p, scans=False):
    p.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    p.add_argument(
        "--timings", action="store_true",
        help="print elapsed wall time to stderr",
    )
    if scans:  # the commands that scan a discriminant group take its cap
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
    _add_common_options(p, scans=True)
    p.add_argument(
        "--qtable-max", type=int, default=100,
        help="largest discriminant order for which the q table is printed",
    )
    p.set_defaults(func=_cmd_analyze, table=_table_analyze)

    p = sub.add_parser("atlas", help="maximality across an ADE family")
    _add_common_options(p, scans=True)
    p.add_argument("--family", required=True, choices=("A", "D", "E"))
    p.add_argument("--min", type=int, default=1, help="smallest rank")
    p.add_argument("--max", type=int, required=True, help="largest rank")
    p.set_defaults(func=_cmd_atlas, table=_table_atlas)

    p = sub.add_parser("overlattices", help="maximal even overlattices")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument(
        "--max-glue-order", type=int, default=MAX_GLUE_ORDER,
        help="cap on discriminant order for glue enumeration",
    )
    p.set_defaults(func=_cmd_overlattices, table=_table_overlattices)

    p = sub.add_parser("classify", help="membership level of a matrix")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'R': [[...]]}")
    p.set_defaults(func=_cmd_classify, table=_table_classify)

    p = sub.add_parser("complete", help="complete a primitive isotropic vector")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'h': [...]}")
    p.set_defaults(func=_cmd_complete, table=_table_complete)

    p = sub.add_parser("reduce", help="coset normal form of a scaled matrix")
    _add_lattice_options(p)
    _add_common_options(p)
    p.add_argument("--input", required=True, help="JSON with {'R': [[...]], 'r': int}")
    p.add_argument("--mode", choices=("right", "double"), default="right")
    p.add_argument(
        "--no-canonicalize", action="store_true",
        help="keep the matrix/ratio as given instead of dividing out content",
    )
    p.set_defaults(func=_cmd_reduce, table=_table_reduce)

    return parser


# main parses with one parser per process; build_parser() stays fresh per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # a cap below 1 admits no module, not even the trivial one
        for option in ("max_order", "max_glue_order"):
            cap = getattr(args, option, 1)
            if cap <= 0:
                raise ValueError(f"--{option.replace('_', '-')} must be positive, got {cap}")
        # 0 prints no q table; a negative limit is a typo, not a setting
        if getattr(args, "qtable_max", 0) < 0:
            raise ValueError(f"--qtable-max must be non-negative, got {args.qtable_max}")
        # the one place a report is printed: the payload's JSON, or a table read off it
        payload = args.func(args)
        if args.format == "json":
            print(_dumps(payload))
        else:
            payload = json.loads(json.dumps(payload, default=_encode))
            print("\n".join(args.table(payload, args)))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
