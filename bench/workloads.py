"""The three workloads: seeded inputs, the timed job, and its output checks.

Each workload object offers

* ``generate(rng)``: the job pool, built with the benchmark's own code;
* ``build(ev)``: library objects the jobs reuse (part of set-up);
* ``cross_check(ev, ctx, rng)``: an untimed sanity check of that set-up;
* ``run(ev, ctx, job)``: one timed job, calling the library only;
* ``check(job, out)``: verdict from the benchmark's own arithmetic, "ok" or
  "capped" (a documented cap refusal), raising ``CheckFailed`` otherwise;
* ``fingerprint(out)``: a string that repeats byte for byte when the job's
  output does, so repeated jobs are compared instead of re-checked.

A pool is one pass of at least 100 jobs with a fixed composition; the seed
draws the free parameters of each job and the order of the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from itertools import product
from math import prod

import exact as X

# documented defaults of the library's scan and glue-enumeration caps
MAX_ORDER = 10**6
MAX_GLUE_ORDER = 4096

MEMBER_LEVEL = 4  # INTEGRAL_SPECIAL_PLUS in the documented membership chain


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own oracle."""


class Job:
    __slots__ = ("index", "case", "data", "oracle")

    def __init__(self, index, case, data):
        self.index = index
        self.case = case
        self.data = data
        self.oracle = None

    def __repr__(self):
        return f"Job({self.index}, {self.case})"


def require(cond, what, job):
    if not cond:
        raise CheckFailed(f"{job.case}: {what}")


def _pool(rng, items):
    """Jobs from (case, data) pairs, in seeded order."""
    rng.shuffle(items)
    return [Job(i, case, data) for i, (case, data) in enumerate(items)]


def _rows(m):
    return [list(r) for r in m.rows]


# -- lattice-survey ------------------------------------------------------------

# glue counts from coding theory: doubly-even codes (5A1, 6A1), extended
# Hamming codes (8A1), tetracodes (4A2); graphs of the six isometries of the
# D4 form (2D4); unimodular or anisotropic sums have only the trivial glue
GLUE_COUNTS = {"4A1": 1, "5A1": 5, "6A1": 15, "8A1": 30, "4A2": 8, "2D4": 6,
               "3D4": 45, "2E8": 1}

# one pass: every single ADE lattice and glue sum named below, seeded cyclic
# and random Grams, and eleven heavy cases (one job in nine)
SINGLES = ([f"A{n}" for n in range(1, 31)] + [f"D{n}" for n in range(4, 25)]
           + ["E6", "E7", "E8", "D8+", "D16+", "D24+"])
GLUE_SUMS = ["4A1", "5A1", "6A1", "4A2", "2D4", "2E8"]
HEAVY = ["8A1", "8A1", "3D4", "3D4", "16A1", "16A1", "12A2", "12A2"]
HEAVY_SCANS = 3  # copies of [[510510]], a full anisotropy scan
SEEDED_CYCLIC = 12
SEEDED_GRAMS = 13


def random_even_gram(rng):
    """Even symmetric Gram of rank 2..6, nonzero determinant, |det| <= 400."""
    while True:
        r = rng.randint(2, 6)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = rng.choice((-4, -2, 2, 2, 4, 4, 6))
            for j in range(i):
                g[i][j] = g[j][i] = rng.choice((-1, 0, 0, 1))
        if 0 < abs(X.det(g)) <= 400:
            return g


class LatticeSurvey:
    """``analyze`` then ``overlattices`` through ``cli.main`` per lattice.

    A pass is 100 jobs in seeded order. The named lattices are the same for
    every seed, so the latency distribution keeps its shape; the seed draws
    the cyclic Grams [[2m]] (half with 2m above the glue cap) and the random
    even Grams.
    """

    name = "lattice-survey"

    def generate(self, rng):
        specs = [("name", name) for name in SINGLES + GLUE_SUMS + HEAVY]
        specs += [("gram", [[510510]])] * HEAVY_SCANS + [("gram", [[1021020]])]
        # m is drawn from its own stratum of 1..half or half+1..4*half: the
        # scan costs grow with m and sit near the median job, so stratified
        # draws keep the median steady from seed to seed
        half = MAX_GLUE_ORDER // 2
        strata = SEEDED_CYCLIC // 2
        for k in range(SEEDED_CYCLIC):
            lo, hi = (1, half) if k % 2 else (half + 1, 4 * half)
            width = (hi - lo + 1) // strata
            start = lo + k // 2 * width
            m = rng.randint(start, start + width - 1)
            specs.append(("gram", [[2 * m]]))
        specs += [("gram", random_even_gram(rng)) for _ in range(SEEDED_GRAMS)]
        return _pool(rng, [(v if k == "name" else json.dumps(v), (k, v)) for k, v in specs])

    def build(self, ev):
        return None

    def cross_check(self, ev, ctx, rng):
        pass

    def run(self, ev, ctx, job):
        kind, value = job.data
        if kind == "name":
            source, stdin = ["--name", value], None
        else:
            source, stdin = ["--lattice", "-"], json.dumps({"gram": value})
        outs = []
        for command in ("analyze", "overlattices"):
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            if stdin is not None:
                sys.stdin = io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ev.cli.main([command, *source, "--format", "json"])
            finally:
                sys.stdin = saved
            outs.append((code, out.getvalue(), err.getvalue()))
        return outs

    def fingerprint(self, out):
        return json.dumps(out)

    @staticmethod
    def _oracle(job):
        kind, value = job.data
        g = X.named_gram(value) if kind == "name" else value
        det = X.det(g)
        order = abs(det)
        info = {"gram": g, "det": det, "order": order,
                "pd": X.is_positive_definite(g)}
        if kind == "gram" and len(g) == 1:
            info["anisotropic"] = X.cyclic_anisotropic(g[0][0] // 2)
        elif kind == "name":
            mult, single = X.split_name(value)
            if single.endswith("+"):
                aniso = True  # D_n^+ with 8 | n is unimodular
            else:
                aniso = X.ade_maximal(single[0], int(single[1:]))
            sq = X.q_values(X.named_gram(single))
            if mult == 1 and (0 in sq[1:]) == aniso:
                raise CheckFailed(f"{value}: closed form disagrees with the q-value scan")
            info["anisotropic"] = aniso if mult == 1 else X.sum_anisotropic(sq, mult)
        else:
            info["anisotropic"] = 0 not in X.q_values(g)[1:]
        if order <= 100:
            info["q"] = sorted(X.q_values(g))
        return info

    def check(self, job, outs):
        if job.oracle is None:
            job.oracle = self._oracle(job)
        own = job.oracle
        (acode, aout, aerr), (ocode, oout, oerr) = outs
        capped = False

        require(acode == 0 and aerr == "", f"analyze exit {acode}: {aerr.strip()}", job)
        a = json.loads(aout)
        require(a["rank"] == len(own["gram"]), "rank", job)
        require(a["determinant"] == own["det"], "determinant", job)
        require(a["positive_definite"] == own["pd"], "definiteness", job)
        require(a["discriminant_order"] == own["order"], "discriminant order", job)
        divs = a["discriminant_divisors"]
        require(prod(divs) == own["order"] and all(d > 1 for d in divs)
                and all(b % c == 0 for c, b in zip(divs, divs[1:])),
                "divisor chain", job)
        verdict = a["anisotropic"]
        require(a["maximal_even"] == verdict and a["single_cusp_class"] == verdict,
                "maximality flags disagree", job)
        if a["cap_exceeded"]:
            require(own["order"] > MAX_ORDER and verdict is None, "cap below the order", job)
            capped = True
        else:
            require(verdict == own["anisotropic"], f"maximality {verdict}", job)
            if "q" in own:
                table = sorted(Fraction(e["q"]) for e in a["q_table"])
                require(table == own["q"], "q-value multiset", job)
            else:
                require("q_table" not in a, "q table above the print limit", job)

        if ocode == 2:
            require(f"exceeds the scan cap {MAX_GLUE_ORDER}" in oerr and oout == "",
                    f"overlattices refused: {oerr.strip()}", job)
            require(own["order"] > MAX_GLUE_ORDER, "glue cap below the order", job)
            return "capped"
        require(ocode == 0 and oerr == "", f"overlattices exit {ocode}: {oerr.strip()}", job)
        o = json.loads(oout)
        entries = o["overlattices"]
        require(o["determinant"] == own["det"] and o["count"] == len(entries) >= 1,
                "overlattice count", job)
        if job.case in GLUE_COUNTS:
            require(len(entries) == GLUE_COUNTS[job.case], "glue count", job)
        gens = [json.dumps(e["glue_generators"]) for e in entries]
        require(len(set(gens)) == len(gens), "repeated glue group", job)
        trivial = len(entries) == 1 and entries[0]["glue_order"] == 1
        if verdict is not None:
            require(trivial == verdict, "glue groups contradict maximality", job)
        for e in entries:
            g, k = e["overlattice_gram"], e["glue_order"]
            require(all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(i)),
                    "overlattice Gram not symmetric", job)
            require(all(g[i][i] % 2 == 0 for i in range(len(g))), "overlattice not even", job)
            dg = X.det(g)
            require(dg == e["overlattice_determinant"] and dg * k * k == own["det"],
                    "det(over) * |G|^2 != det L", job)
            require(e["index"] == k, "index != glue order", job)
            require(e["overlattice_maximal"] == (0 not in X.q_values(g)[1:]),
                    "overlattice maximality", job)
        return "capped" if capped else "ok"


# -- coset-reduction -------------------------------------------------------------

COSET_BASES = ["A2", "A4", "D4", "E6", "E8"]
SCALES = (1, 2, 3, 5)
# A job's cost depends on its random words several-fold (the certificate of
# some s = 2 inputs takes ten times as long), so the pool holds several draws
# of each combination to keep the median steady from seed to seed.
COSET_DRAWS = 3


def random_word(rng, n, length, spread):
    word = []
    for _ in range(length):
        c = rng.randrange(3)
        if c == 0:
            word.append(("J",))
        else:
            lam = tuple(rng.randint(-spread, spread) for _ in range(n + 2))
            word.append(("T" if c == 1 else "T*", lam))
    return tuple(word)


def _build_forms(ev, names):
    forms = {}
    for name in names:
        gram = ev.matrices.Matrix(X.named_gram(name))
        forms[name] = ev.ogroup.ExtendedForm(ev.lattices.EvenLattice(gram, name=name))
    return forms


def _cross_check_tokens(forms, own, rng):
    """One J, T(lam) and T*(lam) per form against the own entry formulas."""
    for name, form in forms.items():
        f = own[name]
        lam = tuple(rng.randint(-2, 2) for _ in range(f.n + 2))
        ident = X.identity(f.dim)
        for tok, elem in ((("J",), form.involution()),
                          (("T", lam), form.transvection(lam)),
                          (("T*", lam), form.dual_transvection(lam))):
            if X.matmul_sparse(ident, f.token(tok), f.dim) != _rows(elem.matrix):
                raise CheckFailed(f"{name}: generator {tok[0]} differs from its formula")


def _check_word(f, elem, job, what):
    m = _rows(elem.matrix)
    require(elem.word is not None and f.word_matrix(elem.word) == m,
            f"{what} word does not multiply out to its matrix", job)
    require(f.level(m)[0] == 5, f"{what} is not a discriminant-kernel element", job)
    return m


class CosetReduction:
    """make_scaled -> reduce_right_coset -> reduce_double_coset ->
    normalizer_certificate on R = W diag(s^2, s, ..., s, 1) V.

    A pass is 540 jobs in seeded order: COSET_DRAWS draws of every
    combination of base, s in SCALES and word lengths 1..3 of W and V. One
    job in ten is also multiplied by a large content c.
    """

    name = "coset-reduction"

    def __init__(self):
        self.own = {name: X.Form(X.named_gram(name)) for name in COSET_BASES}

    def generate(self, rng):
        items = []
        combos = product(range(COSET_DRAWS), COSET_BASES, SCALES, (1, 2, 3), (1, 2, 3))
        for k, (_, base, s, lw, lv) in enumerate(combos):
            f = self.own[base]
            w = random_word(rng, f.n, lw, 1)
            v = random_word(rng, f.n, lv, 1)
            d = f.dim
            diag = [s * s] + [s] * (d - 2) + [1]
            r = [[x * diag[j] for j, x in enumerate(row)] for row in f.word_matrix(w)]
            for tok in v:
                r = X.matmul_sparse(r, f.token(tok), d)
            c = 1
            if k % 10 == 9:
                # decades 10^6 .. 10^11 in turn, value uniform inside the decade
                e = 6 + k // 10 % 6
                c = rng.randrange(10**e, 10**(e + 1))
            rc = [[c * x for x in row] for row in r] if c > 1 else r
            case = f"{base}:s={s}" + (":content" if c > 1 else "")
            items.append((case, (base, s, r, rc)))
        return _pool(rng, items)

    def build(self, ev):
        return _build_forms(ev, COSET_BASES)

    def cross_check(self, ev, forms, rng):
        _cross_check_tokens(forms, self.own, rng)

    def run(self, ev, forms, job):
        base, _, _, r = job.data
        cosets = ev.cosets
        x = cosets.make_scaled(forms[base], r)
        return (x, cosets.reduce_right_coset(x), cosets.reduce_double_coset(x),
                cosets.normalizer_certificate(x))

    def fingerprint(self, out):
        x, rc, dc, cert = out
        return repr((x.ratio, x.matrix.rows, rc.reduced.rows, rc.transformer.word,
                     dc.reduced.rows, dc.left.word, dc.right.word, cert.kind,
                     cert.invariants))

    def check(self, job, out):
        base, s, r, _ = job.data
        f = self.own[base]
        d = f.dim
        ratio = s * s
        x, rc, dc, cert = out
        require(x.ratio == ratio and _rows(x.matrix) == r, "canonical matrix or ratio", job)

        w = _check_word(f, rc.transformer, job, "right transformer")
        red = _rows(rc.reduced)
        require(X.matmul(w, r) == red, "W R != reduced", job)
        alpha = X.vec_gcd(X.matvec(f.s1, [row[0] for row in r]))
        require(rc.alpha == alpha and rc.alpha * rc.delta == ratio,
                "alpha != gcd of the first column's pairings", job)
        require([row[0] for row in red] == [alpha] + [0] * (d - 1)
                and red[d - 1] == [0] * (d - 1) + [rc.delta], "right normal form", job)

        left = _check_word(f, dc.left, job, "left transformer")
        right = _check_word(f, dc.right, job, "right transformer")
        red = _rows(dc.reduced)
        require(X.matmul(X.matmul(left, r), right) == red, "L R V != reduced", job)
        alpha = X.content(r)
        require(dc.alpha == alpha and alpha * dc.delta == ratio and dc.delta % alpha == 0,
                "alpha != gcd of all entries", job)
        inner = range(1, d - 1)
        require(all(red[i][j] == 0 for i in range(d) for j in range(d)
                    if (i in inner) != (j in inner) or (i != j and i not in inner))
                and red[0][0] == alpha and red[d - 1][d - 1] == dc.delta,
                "double normal form is not diag(alpha, core, delta)", job)
        core = [row[1:d - 1] for row in red[1:d - 1]]
        require(X.congruent(core, f.s0) == [[ratio * y for y in row] for row in f.s0],
                "core does not scale the middle form", job)

        if s == 1:
            require(cert.in_normalizer and cert.kind == "integral-member"
                    and cert.canonical_ratio == 1, "ratio-1 certificate", job)
            return "ok"
        require(not cert.in_normalizer and cert.kind == "scale-invariant-growth"
                and cert.canonical_ratio == ratio, "certificate verdict", job)
        wit = _rows(cert.witness_matrix)
        require(X.congruent(wit, f.s1) == [[ratio * y for y in row] for row in f.s1],
                "witness does not scale the form", job)
        invariants = []
        for m, a, inv in zip(cert.exponents, cert.corner_gcds, cert.invariants):
            p = X.identity(d)
            for _ in range(m):
                p = X.matmul(p, wit)
            own_a = X.vec_gcd(X.matvec(f.s1, [row[0] for row in p]))
            require(a == own_a and inv == Fraction(a * a, ratio**m), "invariant", job)
            invariants.append(inv)
        require(len(set(invariants)) == len(invariants) and 1 not in invariants,
                "invariants do not move", job)
        return "ok"


# -- wide-verify -------------------------------------------------------------------

WIDE_BASES = ["A30", "3D8", "A15", "2E8", "D16+"]
# jobs per base in a pass of 100
WIDE_MIX = {"A30": 20, "3D8": 10, "A15": 40, "2E8": 15, "D16+": 15}
# gates the first inputs of each base are perturbed to fail: one input in
# five, each gate four times; the kernel gate only exists off unimodular bases
WIDE_PERTURB = {
    "A30": ["kernel-congruence"] * 2 + ["integrality"] * 2,
    "3D8": ["kernel-congruence", "determinant"],
    "A15": ["kernel-congruence", "integrality", "orientation", "orientation",
            "form-congruence"],
    "2E8": ["integrality", "orientation", "determinant", "form-congruence"],
    "D16+": ["determinant", "determinant", "form-congruence", "form-congruence",
             "orientation"],
}


def perturb(f, m, gate, rng):
    """Right-multiply a member by a matrix that breaks exactly one gate."""
    d, n = f.dim, f.n
    m = [row[:] for row in m]
    if gate == "form-congruence":
        m[rng.randrange(d)][rng.randrange(d)] += 1
    elif gate == "determinant":  # swap the inner hyperbolic pair
        for row in m:
            row[1], row[d - 2] = row[d - 2], row[1]
    elif gate == "orientation":  # -1 on the outer hyperbolic plane
        for row in m:
            row[0], row[d - 1] = -row[0], -row[d - 1]
    elif gate == "integrality":  # e0 -> 2 e0, e_last -> e_last / 2
        for row in m:
            row[0], row[d - 1] = 2 * row[0], Fraction(row[d - 1], 2)
    elif n == 24:  # 3D8: swap the first two D8 blocks
        for row in m:
            row[2:10], row[10:18] = row[10:18], row[2:10]
    else:  # -1 on the base, times the inner swap when n is odd
        for row in m:
            row[2:n + 2] = [-x for x in row[2:n + 2]]
            if n % 2:
                row[1], row[d - 2] = row[d - 2], row[1]
    return m


class WideVerify:
    """classify_witness on untrusted matrices over large forms; members then
    go through orthogonal_inverse and complete_isotropic of their first column.

    A pass is 100 inputs (WIDE_MIX) in seeded order; one input in five is
    perturbed (WIDE_PERTURB) so that every gate of the chain fails on some.
    """

    name = "wide-verify"

    def __init__(self):
        self.own = {name: X.Form(X.named_gram(name)) for name in WIDE_BASES}

    def generate(self, rng):
        items = []
        for base, count in WIDE_MIX.items():
            f = self.own[base]
            gates = WIDE_PERTURB[base]
            for k in range(count):
                m = f.word_matrix(random_word(rng, f.n, 2 + k % 3, 1))
                gate = gates[k] if k < len(gates) else ""
                if gate:
                    m = perturb(f, m, gate, rng)
                items.append((f"{base}:{gate or 'member'}", (base, gate, m)))
        return _pool(rng, items)

    def build(self, ev):
        return _build_forms(ev, WIDE_BASES)

    def cross_check(self, ev, forms, rng):
        _cross_check_tokens(forms, self.own, rng)

    def run(self, ev, forms, job):
        base, _, rows = job.data
        form = forms[base]
        m = ev.matrices.Matrix(rows)
        level, witness = form.classify_witness(m)
        if level < MEMBER_LEVEL:
            return level, witness, None, None
        h = tuple(row[0] for row in rows)
        return level, witness, form.orthogonal_inverse(m), form.complete_isotropic(h)

    def fingerprint(self, out):
        level, witness, inv, done = out
        return repr((int(level), witness, inv and inv.rows,
                     done and (done.matrix.rows, done.word)))

    def check(self, job, out):
        base, gate, m = job.data
        f = self.own[base]
        level, witness, inv, done = out
        own_level, own_gate = f.level(m)
        require(own_gate == gate, f"input fails gate {own_gate!r}, not {gate!r}", job)
        require(int(level) == own_level and witness.get("check", "") == own_gate,
                f"classified {int(level)} {witness}, expected {own_level}", job)
        if own_level < MEMBER_LEVEL:
            require(inv is None, "non-member was inverted", job)
            return "ok"
        d = f.dim
        require(X.matmul(m, _rows(inv)) == X.identity(d), "M M^-1 != I", job)
        c = _rows(done.matrix)
        require([row[0] for row in c] == [row[0] for row in m], "completion column != h", job)
        require(X.congruent(c, f.s1) == f.s1, "completion is not orthogonal", job)
        require(f.word_matrix(done.word) == c, "completion word != matrix", job)
        return "ok"


WORKLOADS = {w.name: w for w in (LatticeSurvey, CosetReduction, WideVerify)}
