"""Finite quadratic modules, isotropy, and glue groups.

A module here is a finite abelian group d_1 Z x ... x d_k Z carrying a
quadratic form q with values in Q/Z, presented by rational lifts of its
generators into the dual of an even lattice. Elements are coordinate tuples
taken mod the divisors; q is evaluated exactly. The central predicates:

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

from .matrices import Matrix, denominator_lcm

MAX_ORDER = 10**6  # element-scan guard
MAX_GLUE_ORDER = 4096  # subgroup-enumeration guard


class CapExceeded(RuntimeError):
    """An enumeration cap was hit; the requested scan was not performed."""


def _mod1(x) -> Fraction:
    """x reduced into [0, 1); a Fraction already there is returned as is."""
    if type(x) is Fraction and 0 <= x.numerator < x.denominator:
        return x
    return Fraction(x) % 1


class FiniteQuadraticModule:
    """Discriminant form presented by divisors and dual-vector lifts.

    divisors: the nontrivial invariant factors d_1 | d_2 | ... (each > 1).
    generator_lifts: for each divisor, a rational coordinate vector in the
        source lattice basis whose class generates the corresponding cyclic
        factor; entries reduced into [0, 1).
    lift_gram: exact Gram matrix of the lifts under the source form, so
        q(x) = (1/2) x^t lift_gram x mod 1.
    """

    def __init__(self, divisors, generator_lifts, lift_gram: Matrix,
                 source_gram=None, snf_row_transform=None, full_divisors=None):
        divisors = tuple(int(d) for d in divisors)
        if any(d <= 1 for d in divisors):
            raise ValueError("divisors must all exceed 1")
        for a, b in zip(divisors, divisors[1:]):
            if b % a != 0:
                raise ValueError("divisors must form a chain d_i | d_{i+1}")
        k = len(divisors)
        lifts = tuple(tuple(map(_mod1, v)) for v in generator_lifts)
        if len(lifts) != k:
            raise ValueError("one lift per divisor required")
        if lift_gram.shape != (k, k) or not lift_gram.is_symmetric:
            raise ValueError("lift_gram must be symmetric k x k")
        self.divisors = divisors
        self.generator_lifts = lifts
        self.lift_gram = lift_gram
        # integer fast path: q(x) = (x^t N*G x) / (2N) mod 1
        n = denominator_lcm(x for row in lift_gram.rows for x in row)
        self._den = 2 * n
        self._igram = [[int(x * n) for x in row] for row in lift_gram.rows]
        self._source_gram = source_gram
        self._snf_u = snf_row_transform
        self._full_divisors = full_divisors

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
        return tuple((a + b) % d for a, b, d in zip(x, y, self.divisors))

    def neg(self, x: tuple) -> tuple:
        return tuple((-a) % d for a, d in zip(x, self.divisors))

    def scale(self, j: int, x: tuple) -> tuple:
        return tuple((j * a) % d for a, d in zip(x, self.divisors))

    def element_order(self, x: tuple) -> int:
        out = 1
        for a, d in zip(x, self.divisors):
            o = d // gcd(a, d)
            out = out * o // gcd(out, o)
        return out

    def lift(self, x: tuple) -> tuple:
        """A rational dual vector representing the class x, entries in [0,1)."""
        n = len(self.generator_lifts[0]) if self.generator_lifts else 0
        acc = [Fraction(0)] * n
        for c, vec in zip(x, self.generator_lifts):
            for i, val in enumerate(vec):
                acc[i] += c * val
        return tuple(v - (v // 1) for v in acc)

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
        s = self._qnum(self.add(x, y)) - self._qnum(x) - self._qnum(y)
        return Fraction(s % self._den, self._den)

    def _check_element(self, x: tuple):
        if len(x) != len(self.divisors) or any(
            not (0 <= a < d) for a, d in zip(x, self.divisors)
        ):
            raise ValueError(f"{x!r} is not a reduced element of this module")

    def q_table(self) -> dict:
        """Full element -> q(x) map. Only sensible for small modules."""
        return {x: self.q_value(x) for x in self.elements()}

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

    def _closure_with(self, span: frozenset, g: tuple):
        # span is a subgroup; returns span + <g>
        out = set(span)
        step = set(span)
        for _ in range(self.element_order(g) - 1):
            step = {self.add(s, g) for s in step}
            out |= step
        return frozenset(out)

    def maximal_isotropic_subgroups(self, max_order: int = MAX_GLUE_ORDER) -> list:
        """All maximal totally isotropic subgroups as GlueGroups.

        Each subgroup is produced once, via its canonical generator chain
        (repeatedly adjoin the least element outside the current span). For an
        anisotropic module the answer is the trivial subgroup alone.

        For isotropic x, span + <x> is totally isotropic iff b(x, c) = 0 for
        every chain generator c, since q(s + jx) = q(s) + j b(s, x) for s in
        the span. So each search node carries the bitmask of isotropic
        elements outside its span and orthogonal to its chain; a closure is
        built only for an accepted candidate, and a span is maximal exactly
        when that mask is empty.
        """
        self._guard(max_order)
        iso = self.isotropic_elements(max_order)
        index = {x: i for i, x in enumerate(iso)}
        n = self._den // 2
        gram = self._igram
        orth = {}
        found = []

        def orth_mask(i):
            # isotropic y with b(x, y) = x^t (N lift_gram) y / N = 0 mod 1
            if i not in orth:
                gx = [sum(map(mul, row, iso[i])) % n for row in gram]
                orth[i] = sum(1 << j for j, y in enumerate(iso)
                              if sum(map(mul, gx, y)) % n == 0)
            return orth[i]

        def dfs(chain, span, cand, floor):
            rest = cand >> (floor + 1) << (floor + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                x = iso[i]
                new = self._closure_with(span, x)
                added = new - span
                if min(added) != x:
                    continue  # not the canonical chain for that subgroup
                gone = sum(1 << index[y] for y in added)
                dfs(chain + [x], new, cand & orth_mask(i) & ~gone, i)
            if not cand:
                found.append((tuple(chain), span))

        dfs([], frozenset([self.zero]), (1 << len(iso)) - 1, -1)
        found.sort(key=lambda t: (len(t[1]), t[0]))
        return [GlueGroup(self, gens, span) for gens, span in found]


class GlueGroup:
    """A totally isotropic subgroup of a finite quadratic module."""

    def __init__(self, parent: FiniteQuadraticModule, generators, _span=None):
        gens = tuple(tuple(int(a) % d for a, d in zip(g, parent.divisors))
                     for g in generators)
        span = _span
        if span is None:
            span = frozenset([parent.zero])
            for g in gens:
                span = parent._closure_with(span, g)
            for y in span:
                if parent._qnum(y) != 0:
                    raise ValueError(
                        f"glue group is not isotropic: q{y!r} != 0"
                    )
            gens = _canonical_chain(parent, span)
        self.parent = parent
        self.generators = gens
        self._span = span

    @property
    def order(self) -> int:
        return len(self._span)

    def elements(self) -> frozenset:
        return self._span

    def __eq__(self, other):
        return (
            isinstance(other, GlueGroup)
            and self.parent is other.parent
            and self._span == other._span
        )

    def __hash__(self):
        return hash(self._span)

    def __repr__(self):
        return f"GlueGroup(order={self.order}, generators={list(self.generators)})"


def _canonical_chain(mod: FiniteQuadraticModule, span: frozenset) -> tuple:
    # greedy: repeatedly take the least element not yet spanned
    chain = []
    cur = frozenset([mod.zero])
    rest = sorted(span - cur)
    while rest:
        g = rest[0]
        chain.append(g)
        cur = mod._closure_with(cur, g)
        rest = sorted(span - cur)
    return tuple(chain)


def _prime_divisors(n: int) -> list:
    # trial division; n is the exponent of a module whose order the scan cap
    # already bounds, so this costs at most sqrt(cap) steps
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
