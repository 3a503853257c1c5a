"""Finite quadratic modules, isotropy, and glue groups.

A module here is a finite abelian group d_1 Z x ... x d_k Z carrying a
quadratic form q with values in Q/Z, presented by the Gram matrix of lifts
of its generators into the dual of an even lattice. Elements are coordinate
tuples taken mod the divisors; q is evaluated exactly. The glue search and
a glue group hold element codes instead, decoded only at the API: one int
per element, coordinate i in a field of b bits under one guard bit
(2^b >= d_k), coordinate 0 the most significant, so int order is tuple
order. Two codes add in a few whole-int operations: add; add an offset of
2^b - d_i per field, which sets the guard of exactly the fields that reached
d_i and carries into no other field; mask those fields; subtract d_i there.
In this order y + s < y exactly when y wraps at the first nonzero coordinate
of s, so the search finds its dead candidates by masks, without cosets.
The central predicates:

* anisotropic (q vanishes only at 0), which is equivalent to the source
  lattice having no proper even overlattice;
* totally isotropic subgroups, whose members are exactly the glue groups of
  even overlattices, maximal subgroups giving maximal overlattices.

Scans are guarded by explicit caps and fail loudly instead of degrading.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import mul

from .matrices import Matrix, _int_vec

MAX_ORDER = 10**6  # element-scan guard
MAX_GLUE_ORDER = 4096  # subgroup-enumeration guard


class CapExceeded(RuntimeError):
    """An enumeration cap was hit; the requested scan was not performed."""


class FiniteQuadraticModule:
    """Finite quadratic module presented by divisors and a lift Gram matrix.

    divisors: the nontrivial invariant factors d_1 | d_2 | ... (each > 1).
    lift_gram: exact Gram matrix, under the source form, of lifts of the
        generators into the dual of an even lattice, so
        q(x) = (1/2) x^t lift_gram x mod 1. The lifts themselves stay with
        the lattice (``EvenLattice.lift``).
    """

    def __init__(self, divisors, lift_gram: Matrix):
        divisors = _int_vec(divisors, "divisors")
        if not isinstance(lift_gram, Matrix):
            lift_gram = Matrix(lift_gram)
        if any(d <= 1 for d in divisors):
            raise ValueError("divisors must all exceed 1")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise ValueError("divisors must form a chain d_i | d_{i+1}")
        k = len(divisors)
        if lift_gram.shape != (k, k) or not lift_gram.is_symmetric:
            raise ValueError("lift_gram must be symmetric k x k")
        self.divisors = divisors
        self.lift_gram = lift_gram
        # integer fast path: with lift_gram = G / N, q(x) = (x^t G x) / (2N) mod 1
        self._den = 2 * lift_gram.den
        self._igram = lift_gram.num
        # element codes: (b, offsets, guard bits, divisors) by field
        b = (divisors[-1] - 1).bit_length() if divisors else 0
        shifts = [(b + 1) * (k - 1 - i) for i in range(k)]
        self._codec = (
            b,
            sum(((1 << b) - d) << t for d, t in zip(divisors, shifts)),
            sum(1 << b + t for t in shifts),
            sum(d << t for d, t in zip(divisors, shifts)),
        )
        self._shifts = tuple(shifts)

    # -- group structure -----------------------------------------------------

    @property
    def order(self) -> int:
        return prod(self.divisors)

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.divisors)

    def elements(self):
        """All elements, lexicographically."""
        return product(*(range(d) for d in self.divisors))

    def add(self, x: tuple, y: tuple) -> tuple:
        self._check_element(x, y)
        return tuple((a + b) % d for a, b, d in zip(x, y, self.divisors))

    def neg(self, x: tuple) -> tuple:
        self._check_element(x)
        return tuple((-a) % d for a, d in zip(x, self.divisors))

    def scale(self, j: int, x: tuple) -> tuple:
        self._check_element(x)
        return tuple((j * a) % d for a, d in zip(x, self.divisors))

    def element_order(self, x: tuple) -> int:
        self._check_element(x)
        out = 1
        for a, d in zip(x, self.divisors):
            o = d // gcd(a, d)
            out = out * o // gcd(out, o)
        return out

    # -- quadratic form --------------------------------------------------------

    def _qnum(self, x: tuple) -> int:
        # numerator of q(x) over the fixed denominator 2N
        g = self._igram
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = g[i]
                total += xi * xi * row[i]
                for j in range(i + 1, len(x)):
                    total += 2 * xi * x[j] * row[j]
        return total % self._den

    def q_value(self, x: tuple) -> Fraction:
        """q(x) as an exact rational in [0, 1)."""
        self._check_element(x)
        return Fraction(self._qnum(x), self._den)

    def bilinear(self, x: tuple, y: tuple) -> Fraction:
        """b(x, y) = q(x+y) - q(x) - q(y) mod 1, in [0, 1)."""
        self._check_element(x, y)
        s = self._qnum(self.add(x, y)) - self._qnum(x) - self._qnum(y)
        return Fraction(s % self._den, self._den)

    def _check_element(self, *xs: tuple):
        for x in xs:
            # a bool or a float is no coordinate, even where it compares as one
            if len(x) != len(self.divisors) or any(
                type(a) is not int or not 0 <= a < d for a, d in zip(x, self.divisors)
            ):
                raise ValueError(f"{x!r} is not a reduced element of this module")

    def q_table(self) -> dict:
        """Full element -> q(x) map. Only sensible for small modules."""
        return {x: Fraction(self._qnum(x), self._den) for x in self.elements()}

    # -- isotropy ---------------------------------------------------------------

    def _guard(self, max_order: int):
        if self.order > max_order:
            raise CapExceeded(
                f"module order {self.order} exceeds the scan cap {max_order}"
            )

    def _primary_part(self, p: int):
        # elements of D_p, zero first: the p-part of Z/d_i is generated by
        # d_i / p^a, with p^a the exact power of p dividing d_i
        gens = []
        for d in self.divisors:
            pa = 1
            while d % (pa * p) == 0:
                pa *= p
            gens.append((d // pa, pa))
        return (
            tuple(c * g for c, (g, _) in zip(cs, gens))
            for cs in product(*(range(pa) for _, pa in gens))
        )

    def is_anisotropic(self, max_order: int = MAX_ORDER) -> bool:
        """True iff q(x) = 0 only for x = 0.

        D = sum of its p-parts D_p, which are mutually orthogonal, and q(x_p)
        has a p-power denominator, so q(x) = sum q(x_p) vanishes iff every
        q(x_p) does: D is anisotropic iff each D_p is (Nikulin 1979). The
        scan visits sum |D_p| elements, not |D|; the cap still bounds |D|.
        """
        self._guard(max_order)
        for p in _prime_divisors(self.divisors[-1] if self.divisors else 1):
            parts = self._primary_part(p)
            next(parts)  # zero
            if any(self._qnum(x) == 0 for x in parts):
                return False
        return True

    def isotropic_elements(self, max_order: int = MAX_ORDER) -> list:
        """Nonzero isotropic elements, lexicographically ordered."""
        self._guard(max_order)
        zero = self.zero
        return [x for x in self.elements() if x != zero and self._qnum(x) == 0]

    # -- subgroups ---------------------------------------------------------------

    def _encode(self, x: tuple) -> int:
        """The code of a reduced element: coordinate i in field i of _codec."""
        code = 0
        for a in x:
            code = (code << self._codec[0] + 1) | a
        return code

    def _decode(self, code: int) -> tuple:
        mask = (1 << self._codec[0]) - 1
        return tuple((code >> t) & mask for t in self._shifts)

    def _add(self, v: int, x: int) -> int:
        """The code of the sum of two codes; (g << 1) - (g >> b) masks the
        fields whose guard g the offset set."""
        b, off, guards, dmask = self._codec
        v += x
        g = (v + off) & guards
        return v - (dmask & ((g << 1) - (g >> b))) if g else v

    def _coset(self, span, x: int) -> list:
        """The codes of s + x for the codes s in span, added as in ``_add``."""
        b, off, guards, dmask = self._codec
        out = []
        for v in span:
            v += x
            g = (v + off) & guards
            out.append(v - (dmask & ((g << 1) - (g >> b))) if g else v)
        return out

    def _cosets(self, span, x: int):
        """The cosets x + span, 2x + span, ... that are not span itself, as
        code lists; span is a set of codes closed under addition. Each
        multiple is tested for membership in span before its coset is built."""
        jx = x
        while jx not in span:
            yield self._coset(span, jx)
            jx = self._add(jx, x)

    def maximal_isotropic_subgroups(self, max_order: int = MAX_GLUE_ORDER) -> list:
        """All maximal totally isotropic subgroups as GlueGroups.

        Each subgroup is produced once, via its canonical generator chain
        (repeatedly adjoin the least element outside the current span). For an
        anisotropic module the answer is the trivial subgroup alone.

        The search runs on element codes (``_coset``): ints whose order is
        the lexicographic order of the tuples. For isotropic x, span + <x>
        is totally isotropic iff b(x, c) = 0 for every chain generator c,
        since q(s + jx) = q(s) + j b(s, x) for s in the span. So each search
        node carries a bitmask of the isotropic elements outside its span
        and orthogonal to its chain, and a span is maximal exactly when that
        mask is empty.

        A candidate x is dead at a node when some s + x < x, s in its span:
        x is then never again the least new element below it, since a larger
        span' without x has s + x outside it but in span' + <x>. With l the
        first nonzero coordinate of s, s + x < x iff x wraps at l:
        x_l >= d_l - s_l. So the dead candidates of a span are the union of
        the masks W(l, t) = {isotropic y : y_l >= t}, one per nonzero s, and
        a child's dead mask is its parent's with the masks of the elements
        it adds. Each node drops its dead candidates from the mask once;
        cosets are built only for the children, to form their spans and to
        check that no multiple jx + span holds an element below x. The mask
        still decides maximality: the least element of a coset y + span is a
        candidate whenever y is, and it is never dead.
        """
        iso = self.isotropic_elements(max_order)
        codes = [self._encode(x) for x in iso]
        bit = {c: 1 << i for i, c in enumerate(codes)}
        n = self._den // 2
        gram = self._igram
        orth, wraps = {}, {}
        found = []

        def orth_mask(i):
            # isotropic y with b(x, y) = x^t (N lift_gram) y / N = 0 mod 1
            if i not in orth:
                gx = [sum(map(mul, row, iso[i])) % n for row in gram]
                orth[i] = sum(1 << j for j, y in enumerate(iso)
                              if sum(map(mul, gx, y)) % n == 0)
            return orth[i]

        def wrap_mask(s):
            # W(l, d_l - s_l) for the lead l of s: the y that s + y < y
            if s not in wraps:
                x = self._decode(s)
                l = next(i for i, c in enumerate(x) if c)
                t = self.divisors[l] - x[l]
                wraps[s] = sum(1 << j for j, y in enumerate(iso) if y[l] >= t)
            return wraps[s]

        def dfs(chain, span, cand, dead, floor):
            cand &= ~dead
            rest = cand >> (floor + 1) << (floor + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                x = codes[i]
                more = self._cosets(span, x)
                added = next(more)
                for c in more:
                    if min(c) < x:
                        break  # not the canonical chain for that subgroup
                    added += c
                else:
                    keep = orth_mask(i) & ~sum(map(bit.__getitem__, added))
                    grown = dead
                    for y in added:
                        grown |= wraps[y] if y in wraps else wrap_mask(y)
                    dfs(chain + [x], span.union(added), cand & keep, grown, i)
            if not cand:
                found.append((tuple(chain), span))

        dfs([], frozenset([0]), (1 << len(iso)) - 1, 0, -1)
        found.sort(key=lambda t: (len(t[1]), t[0]))
        return [GlueGroup(self, tuple(map(self._decode, chain)), span)
                for chain, span in found]


class GlueGroup:
    """A totally isotropic subgroup of a finite quadratic module.

    Each generator must be an integer vector (``_int_vec``) with one entry
    per divisor; it is reduced modulo the divisors.
    """

    def __init__(self, parent: FiniteQuadraticModule, generators, _codes=None):
        # _codes: the element codes, as the search found them with these generators
        if _codes is None:
            k = len(parent.divisors)
            span = {0}
            for g in generators:
                g = _int_vec(g)
                if len(g) != k:
                    raise ValueError(f"glue generator {g!r} must have {k} entries")
                x = parent._encode(tuple(a % d for a, d in zip(g, parent.divisors)))
                span = span.union(*parent._cosets(span, x))
            for y in map(parent._decode, span):
                if parent._qnum(y) != 0:
                    raise ValueError(
                        f"glue group is not isotropic: q{y!r} != 0"
                    )
            gens, _codes = _canonical_chain(parent, span), frozenset(span)
        else:
            gens = tuple(generators)
        self.parent = parent
        self.generators = gens
        self._codes = _codes

    @property
    def order(self) -> int:
        return len(self._codes)

    def elements(self) -> frozenset:
        return frozenset(map(self.parent._decode, self._codes))

    def __eq__(self, other):
        # one shared parent fixes the codec, so equal codes are equal elements
        return (
            isinstance(other, GlueGroup)
            and self.parent is other.parent
            and self._codes == other._codes
        )

    def __hash__(self):
        return hash(self._codes)

    def __repr__(self):
        return f"GlueGroup(order={self.order}, generators={list(self.generators)})"


def _canonical_chain(mod: FiniteQuadraticModule, span: set) -> tuple:
    """The decoded generator chain of a subgroup given by its codes.

    The chain is greedy: repeatedly take the least element not yet spanned.
    """
    chain = []
    cur = {0}
    for c in sorted(span):
        if c not in cur:
            chain.append(c)
            cur = cur.union(*mod._cosets(cur, c))
    return tuple(map(mod._decode, chain))


def _prime_divisors(n: int) -> list:
    # trial division in at most sqrt(n) steps; n is the exponent of a module
    # whose order the scan cap already bounds, or a number squarefree tests
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_maximal_even(lattice, max_order: int = MAX_ORDER) -> bool:
    """True iff the even lattice admits no proper even overlattice.

    Equivalent to its discriminant form being anisotropic; applies to definite
    and indefinite nondegenerate forms alike.
    """
    return lattice.discriminant_group().is_anisotropic(max_order)
