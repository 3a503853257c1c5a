"""Root lattices of the A, D, E series and their standard glue data.

Gram matrices come from the usual simple-root models:

* A_n: differences of consecutive unit vectors, giving the tridiagonal
  2/-1 matrix of rank n and determinant n+1;
* D_n: e1+e2 followed by consecutive differences, determinant 4;
* E6, E7, E8: the Dynkin-diagram Cartan matrices (chain 1-3-4-5-...-N with
  node 2 hanging off node 4), determinants 3, 2, 1;
* D_n with a plus suffix: the index-2 even overlattice of D_n glued along
  the half-sum of the unit vectors, which is even exactly when 8 | n.

Names such as "A7", "D8+", or "4A1" (a multiplicity prefix means an
orthogonal direct sum of copies) are parsed by ``root_lattice``. The closed
form for maximality of a single ADE lattice is ``maximality_formula``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .lattices import EvenLattice, direct_sum, overlattice_from_glue
from .matrices import Matrix
from .quadmod import GlueGroup, _prime_divisors

# no leading zeros: a multiplicity is at least 1, a rank is 0 or has none
_NAME_RE = re.compile(r"^([1-9]\d*)?([ADE])(0|[1-9]\d*)(\+?)$")

# largest rank a name may ask for, checked before anything is built
MAX_RANK = 256

_E_EDGES = {
    6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}

_E_DETS = {6: 3, 7: 2, 8: 1}


def squarefree(n: int) -> bool:
    """True iff no square > 1 divides n (n >= 1)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("need a positive integer")
    return all(n % (p * p) for p in _prime_divisors(n))


def _gram(n: int, edges) -> Matrix:
    """2 on the diagonal and x at (i, j) and (j, i) for each edge (i, j, x)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for i, j, x in edges:
        rows[i][j] = rows[j][i] = x
    return Matrix._over(tuple(map(tuple, rows)))


def _a_gram(n: int) -> Matrix:
    return _gram(n, [(i, i + 1, -1) for i in range(n - 1)])


def _d_gram(n: int) -> Matrix:
    # basis e1+e2, e1-e2, e2-e3, ..., e_{n-1}-e_n: a chain of differences
    # from e1-e2 on, which e1+e2 meets in +1 at e2-e3 only
    return _gram(n, [(0, 2, 1)] * (n > 2) + [(i, i + 1, -1) for i in range(1, n - 1)])


def _e_gram(n: int) -> Matrix:
    return _gram(n, [(a - 1, b - 1, -1) for a, b in _E_EDGES[n]])


def a_generator_class(lat: EvenLattice) -> tuple:
    """Class of the standard generator of the A_n discriminant group.

    Takes an A_n lattice in the simple-root basis and returns the class of
    the dual vector with coordinates (n+1-i)/(n+1); its q value is
    n / (2(n+1)).
    """
    n = lat.rank
    coords = [Fraction(n + 1 - i, n + 1) for i in range(1, n + 1)]
    return lat.element_from_dual(coords)


def _d_plus_glue_class(lat: EvenLattice) -> tuple:
    # half-sum of unit vectors, written in the e1+e2, e1-e2, diffs basis
    n = lat.rank
    coords = [Fraction(n, 4), Fraction(2 - n, 4)]
    coords += [Fraction(-(n - i + 1), 2) for i in range(3, n + 1)]
    return lat.element_from_dual(coords)


def _not_a_root_lattice(family: str, n: int):
    """Why family and rank name no ADE root lattice, or None when they do."""
    if isinstance(n, bool) or not isinstance(n, int):
        return f"rank must be an integer, got {n!r}"
    if family == "E":
        return None if n in _E_EDGES else "E-series exists for ranks 6, 7, 8"
    if family not in ("A", "D"):
        return f"unknown family {family!r}"
    least = 1 if family == "A" else 2
    return None if n >= least else f"{family}-series needs rank >= {least}"


def _check_exists(family: str, n: int) -> None:
    """Raise ValueError unless family and rank name an ADE root lattice."""
    reason = _not_a_root_lattice(family, n)
    if reason is not None:
        raise ValueError(reason)


def _single(family: str, n: int, plus: bool) -> EvenLattice:
    _check_exists(family, n)
    if plus and family != "D":
        raise ValueError("a plus suffix applies only to the D series")
    if family == "A":
        return EvenLattice(_a_gram(n), name=f"A{n}")
    if family == "D":
        lat = EvenLattice(_d_gram(n), name=f"D{n}")
        if not plus:
            return lat
        if n % 8:
            raise ValueError(
                "the glued D-series lattice is even only when 8 divides the rank"
            )
        glue = GlueGroup(lat.discriminant_group(), [_d_plus_glue_class(lat)])
        over, _ = overlattice_from_glue(lat, glue)
        over.name = f"D{n}+"
        return over
    lat = EvenLattice(_e_gram(n), name=f"E{n}")
    if lat.determinant != _E_DETS[n]:
        raise AssertionError("E-series determinant check failed")
    return lat


def parse_name(name: str):
    """Split a lattice name like ``4A1`` or ``D8+`` into parts."""
    m = _NAME_RE.match(name.strip()) if isinstance(name, str) else None
    if not m:
        raise ValueError(
            f"cannot parse lattice name {name!r}; expected e.g. A7, D8+, 4A1"
        )
    mult = int(m.group(1) or 1)
    n = int(m.group(3))
    if mult * n > MAX_RANK:
        raise ValueError(
            f"lattice {name.strip()!r} has rank {mult * n}, above the limit {MAX_RANK}")
    return mult, m.group(2), n, bool(m.group(4))


def root_lattice(name: str) -> EvenLattice:
    """Build the even lattice named by an ADE symbol with optional multiplicity."""
    mult, family, n, plus = parse_name(name)
    one = _single(family, n, plus)
    if mult == 1:
        return one
    out = direct_sum(*[one] * mult)
    out.name = name.strip()
    return out


def maximality_formula(family: str, n: int) -> bool:
    """Closed-form test: does the ADE lattice admit no proper even overlattice?

    A_n: yes iff n+1 is squarefree (n even) or (n+1)/2 is squarefree (n odd).
    D_n: yes iff n is not divisible by 8. E6, E7, E8: always.
    """
    _check_exists(family, n)
    if family == "A":
        return squarefree(n + 1) if n % 2 == 0 else squarefree((n + 1) // 2)
    if family == "D":
        return n % 8 != 0
    return True
