"""Finite cdga presentations and the real-homotopy obstruction.

A presentation is a free graded-commutative algebra over Q on named
generators, with the differential given per generator and extended as
a degree +1 derivation.  Monomials are tuples of generator indices in
ascending order.  A product merges two of them, with one Koszul sign
for each odd factor that passes another (found by bisect, no sorting
by swaps), and a repeated odd index kills the term.  Polynomials,
representatives, coordinates and primitives are exact Fractions at the
API and in the minimal-model tower, whose generators are handed back;
the rest of the work is on ints.  Every elimination is one
linalg._Echelon, the package's witness-carrying echelon, on sparse
{column: int} rows: d is scaled once to integers, a rational row is
cleared of denominators on the way in, and a result is divided by its
integer scale once on the way out.  The duality pairing and the cup
subalgebra also read the integer representative rows h_rows directly.

The obstruction pipeline is one fixed recipe.  For a presentation P of
formal dimension 2n and a level j:

  * check Poincare duality of H(P) (b_2n = 1 and a nondegenerate cup
    pairing in complementary degrees), else the criterion does not
    apply.  H^k is built first in each degree up to min(2n, top),
    upward, so Im d(k-1) clears d(k) (Chen-Kerber clearing): its rows
    at the highest columns of Im d(k-1) are skipped unbuilt, the
    relations left are exactly the classes that survive the quotient,
    and b_k = dim C^k - rank d(k) - rank d(k-1) is checked.  The
    pairing forms no cup product: one linear functional phi on the
    degree-2n cochains gives the top-class coordinate, each
    representative monomial m1 is contracted once against supp phi
    into the dual terms (T/m1, sign * phi(T)), and a pairing entry sums
    those terms against the complementary representative rows, indexed
    by column, divided once by both rows' leads and phi's denominator;
  * check the cup hypothesis that the subalgebra generated by classes
    of degree <= j misses H^{j+1}.  Its products multiply integer
    polynomials, the representative rows and span vectors lifted
    through them, and only the product's coordinates are solved for;
  * compare r_j^k, the rank of H^k of the j-minimal model map, with
    d_j^k, the dimension of the degree-k piece of that subalgebra.

Always 0 <= d_j^k <= r_j^k.  A strict excess in the duality window
[2n-j, 2n] blocks every j-controlled complex structure on anything
with this real homotopy type; compatibility() additionally bounds the
excess by the zigzag counts ell_k of a candidate bicomplex and reports
the degrees where the candidate is excluded.
"""

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .bicomplex import DEGREE_CAP
from .conditions import ell
from .errors import (
    InfiniteDimensional,
    Inconsistent,
    InvalidInput,
    NoPoincareDuality,
    NotStabilized,
    UnknownPreset,
)
from .linalg import _Echelon, _kernel

__all__ = [
    "CdgaPresentation",
    "CohomologyRing",
    "ObstructionReport",
    "ObstructionRow",
    "CompatibilityReport",
    "CompatibilityRow",
    "cdga_cohomology",
    "cdga_from_json",
    "cdga_to_json",
    "compatibility",
    "d_jk",
    "format_poly",
    "j_minimal_model",
    "obstruction",
    "parse_poly",
    "preset",
    "r_jk",
]

_F1 = Fraction(1)

# Truncation guard: a single graded piece never needs more monomials
# than this in any computation the package performs.
PIECE_CAP = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Monomials and polynomials.
#
# A monomial is a tuple of generator indices sorted ascending; a
# polynomial is a dict monomial -> coefficient (a Fraction, or an int
# inside the engine) with no zero values.  Only odd factors carry signs:
# moving an odd factor x into a sorted monomial passes the odd factors
# greater than x, and an odd x already present kills the product.


def _mul_mono(m1, m2, degrees):
    """(sign, m1 * m2) for sorted monomials; (0, ()) when an odd repeats."""
    flips = 0
    for x in m2:
        if degrees[x] & 1:
            q = bisect_left(m1, x)
            if q < len(m1) and m1[q] == x:
                return 0, ()
            for y in m1[q:]:
                flips += degrees[y] & 1
    return (-1 if flips & 1 else 1), tuple(sorted(m1 + m2))


def _mono_degree(mono, degrees):
    return sum(degrees[i] for i in mono)


def _poly_add_into(acc, poly, coef):
    for m, c in poly.items():
        nc = acc.get(m, 0) + coef * c
        if nc:
            acc[m] = nc
        else:
            acc.pop(m, None)


def _poly_mul(p1, p2, degrees):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            sign, m = _mul_mono(m1, m2, degrees)
            if sign:
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _d_monomial(mono, dpolys, degrees):
    """Leibniz expansion of d on one monomial.

    odd[t] counts the odd factors before position t.  The term that puts
    a monomial m of d(mono[t]) in place of mono[t] has the sign
    (-1)^odd[t], times one sign for each odd factor of the rest that an
    odd factor x of m passes on its way to q = bisect(mono, x): the
    parity of odd[q] - odd[t], less mono[t] itself when it is odd and q
    lies past it.  An odd x that the rest already has kills the term.
    """
    out = {}
    odd = [0]
    for g in mono:
        odd.append(odd[-1] + (degrees[g] & 1))
    n = len(mono)
    for t, g in enumerate(mono):
        dg = dpolys[g]
        if not dg:
            continue
        rest = mono[:t] + mono[t + 1:]
        ot = odd[t]
        past = ot + (degrees[g] & 1)  # odd[q] counts mono[t] when q > t
        for m, c in dg.items():
            flips = ot
            for x in m:
                if degrees[x] & 1:
                    q = bisect_left(mono, x)
                    if q > t:
                        if q < n and mono[q] == x:
                            break
                        flips += odd[q] - past
                    elif q < t:
                        if mono[q] == x:
                            break
                        flips += ot - odd[q]
            else:
                mm = tuple(sorted(rest + m))
                out[mm] = out.get(mm, 0) + (-c if flips & 1 else c)
    return {m: c for m, c in out.items() if c}


def _d_poly(poly, dpolys, degrees):
    out = {}
    for m, c in poly.items():
        _poly_add_into(out, _d_monomial(m, dpolys, degrees), c)
    return out


# ---------------------------------------------------------------------------
# Polynomial text grammar: Q-linear combinations of '*'-joined
# generator names, with '^' powers.  "e1*e2-1/2*e3^2" parses; there
# are no parentheses.


_TOKEN_RE = re.compile(
    r"\s*(?:(\d+)(?:(/)(\d*))?|([^\W\d]\w*)|([-+*^])|(\S))")


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        num, slash, den, name, op, bad = m.groups()
        if bad:
            raise InvalidInput(
                f"unexpected character {bad!r} at position {m.start(6)}")
        if num is None:
            tokens.append(name or op)
            continue
        pos = m.start(1)
        if slash and not den:
            raise InvalidInput(f"bad rational at position {pos} in {text!r}")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:  # past the interpreter's digit limit
            raise InvalidInput(f"coefficient at position {pos}: {exc}") from exc
        if not den:
            raise InvalidInput(
                f"zero denominator at position {pos} in {text!r}")
        tokens.append(Fraction(num, den))
    return tokens


def parse_poly(text, index, degrees):
    """Parse a polynomial string against a name -> generator-index map."""
    tokens = _tokenize(text)
    if not tokens:
        raise InvalidInput("empty polynomial (omit the entry instead)")
    poly = {}
    pos = 0
    total = len(tokens)
    while pos < total:
        coef = _F1
        if tokens[pos] == "+":
            pos += 1
        elif tokens[pos] == "-":
            coef = -coef
            pos += 1
        sign, mono, factors = 1, (), 0
        expect_factor = True
        while expect_factor:
            if pos >= total:
                raise InvalidInput(f"dangling operator in {text!r}")
            tok = tokens[pos]
            if isinstance(tok, Fraction):
                coef *= tok
                pos += 1
            elif isinstance(tok, str) and tok not in "+-*^":
                g = index.get(tok)
                if g is None:
                    raise InvalidInput(f"unknown generator {tok!r}")
                power = 1
                pos += 1
                if pos < total and tokens[pos] == "^":
                    pos += 1
                    if pos >= total or not isinstance(tokens[pos], Fraction):
                        raise InvalidInput(f"bad exponent in {text!r}")
                    e = tokens[pos]
                    if e.denominator != 1 or e < 0:
                        raise InvalidInput(f"exponent must be a natural: {e}")
                    power = int(e)
                    pos += 1
                factors += power
                if factors > PIECE_CAP:
                    raise InvalidInput(
                        f"monomial with more than {PIECE_CAP} factors "
                        f"in {text!r}")
                if power > 1 and degrees[g] & 1:
                    sign = 0  # an odd square
                elif sign:
                    s, mono = _mul_mono(mono, (g,) * power, degrees)
                    sign *= s
            else:
                raise InvalidInput(f"expected a factor in {text!r}")
            if pos < total and tokens[pos] == "*":
                pos += 1
            else:
                expect_factor = False
        if sign:
            poly[mono] = poly.get(mono, 0) + sign * coef
    return {m: c for m, c in poly.items() if c}


def format_poly(poly, names):
    """Canonical text for a polynomial, inverse to parse_poly."""
    if not poly:
        return "0"
    out = []
    for mono, coef in sorted(poly.items(), key=lambda kv: (len(kv[0]), kv[0])):
        parts = []
        t = 0
        while t < len(mono):
            g = mono[t]
            cnt = 1
            while t + cnt < len(mono) and mono[t + cnt] == g:
                cnt += 1
            parts.append(names[g] if cnt == 1 else f"{names[g]}^{cnt}")
            t += cnt
        if not parts:
            term = str(coef)
        elif coef == 1:
            term = "*".join(parts)
        elif coef == -1:
            term = "-" + "*".join(parts)
        else:
            term = f"{coef}*" + "*".join(parts)
        out.append(term)
    text = out[0]
    for term in out[1:]:
        text += term if term.startswith("-") else "+" + term
    return text


# ---------------------------------------------------------------------------
# Presentations.


class CdgaPresentation:
    """Free graded-commutative algebra over Q with a differential.

    generators is a sequence of (name, degree >= 1); differential maps
    a generator name to a polynomial (text in the grammar above, or an
    already-canonical monomial dict).  The constructor checks that d
    is homogeneous of degree +1 and that d squared vanishes on
    generators, which by the Leibniz rule makes it vanish everywhere.
    """

    def __init__(self, generators, differential=None, formal_dimension=0):
        gens = []
        for name, degree in generators:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise InvalidInput(f"bad generator name {name!r}")
            if type(degree) is not int or degree < 1:
                raise InvalidInput(
                    f"generator {name!r} needs integer degree >= 1")
            gens.append((name, degree))
        self.generators = tuple(gens)
        self.names = tuple(n for n, _ in gens)
        self.degrees = tuple(d for _, d in gens)
        if len(set(self.names)) != len(self.names):
            raise InvalidInput("duplicate generator names")
        self.index = {n: i for i, n in enumerate(self.names)}
        if type(formal_dimension) is not int or formal_dimension < 0:
            raise InvalidInput("formal_dimension must be a natural number")
        self.formal_dimension = formal_dimension

        diff = {}
        for name, value in (differential or {}).items():
            g = self.index.get(name)
            if g is None:
                raise InvalidInput(f"differential on unknown name {name!r}")
            if isinstance(value, str):
                poly = parse_poly(value, self.index, self.degrees)
            else:
                poly = {}
                for mono, coef in dict(value).items():
                    sign, m = 1, ()
                    for x in mono:
                        s, m = _mul_mono(m, (x,), self.degrees)
                        sign *= s
                    if sign:
                        _poly_add_into(poly, {m: Fraction(coef)}, sign)
            target = self.degrees[g] + 1
            for mono in poly:
                if _mono_degree(mono, self.degrees) != target:
                    raise InvalidInput(
                        f"d({name}) is not homogeneous of degree {target}")
            if poly:
                diff[name] = poly
        self.differential = diff

        dpolys = [diff.get(n) for n in self.names]
        for name in self.names:
            dg = diff.get(name)
            if dg and _d_poly(dg, dpolys, self.degrees):
                raise InvalidInput(f"d squared is nonzero on {name!r}")
        self._engine = None

    def differential_text(self):
        return {
            name: format_poly(poly, self.names)
            for name, poly in sorted(self.differential.items())
        }

    def __eq__(self, other):
        if not isinstance(other, CdgaPresentation):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.differential == other.differential
            and self.formal_dimension == other.formal_dimension
        )

    def __repr__(self):
        return (
            f"CdgaPresentation({len(self.generators)} generators, "
            f"formal dimension {self.formal_dimension})"
        )


def cdga_to_json(P):
    return {
        "dim": P.formal_dimension,
        "generators": [
            {"name": n, "degree": d} for n, d in P.generators
        ],
        "d": P.differential_text(),
    }


def cdga_from_json(obj):
    if not isinstance(obj, dict) or "generators" not in obj:
        raise InvalidInput("cdga JSON must be an object with 'generators'")
    if type(obj.get("dim", 0)) is not int:
        raise InvalidInput("'dim' must be an integer")
    if not isinstance(obj["generators"], list):
        raise InvalidInput("'generators' must be a list")
    gens = []
    for row in obj["generators"]:
        if not isinstance(row, dict) or "name" not in row or "degree" not in row:
            raise InvalidInput(f"bad generator entry {row!r}")
        gens.append((row["name"], row["degree"]))
    d = obj.get("d", {})
    if not isinstance(d, dict) or not all(
        isinstance(v, str) for v in d.values()
    ):
        raise InvalidInput("'d' must map generator names to polynomial text")
    return CdgaPresentation(gens, d, obj.get("dim", 0))


def _ints(row):
    """(den * row on ints, den), den the lcm of the row's denominators."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}, den


def _solve(ech, row, what):
    """(w, s): ints, w / s the combination of ech's witnesses whose
    pivots sum to the rational row; else raise Inconsistent(what)."""
    z, den = _ints(row)
    wit = {-1: 1}
    if ech.reduce(z, wit):
        raise Inconsistent(what)
    return wit, -den * wit.pop(-1)


def _cleared(im, n):
    """Rows of d(k) that Im d(k-1) shows dependent, n = dim C^k: through
    one echelon by falling column, each v in Im d(k-1) has its own
    highest column h, and as d v = 0, row h lies in the span of the rows
    before it and its relation in Im d(k-1) plus theirs."""
    top = _Echelon()
    return {n - 1 - top.insert({n - 1 - c: v for c, v in row.items()})
            for row in im.pivots.values()}


class _CohData:
    """H^k of a presentation as two int echelons over the degree-k basis.

    im holds Im(L d) (see _Engine), each pivot witnessed by a preimage
    over basis(k-1).  quo shares im's rows and adds the representative
    rows h_rows, the i-th witnessed by {i: its lead}, so reducing a
    cocycle through quo leaves its H^k coordinates in the witness.  The
    rows do not depend on whether d(k) was cleared (see _Engine.coh).
    """

    __slots__ = ("im", "quo", "h_rows")

    def __init__(self, im, quo, h_rows):
        self.im = im
        self.quo = quo
        self.h_rows = h_rows


def _piece(degs, k):
    """The sorted degree-k monomials in generators of degrees degs: from
    the last generator back, tails[r] for r in rems[i] holds the sorted
    monomials in generators i.. of degree r (more factors i first), if
    any; each extends to its own degree-k monomial, so bounds the piece."""
    # rems[i]: the degrees left for generators i.. (odd squares vanish)
    rems = [{k} if k >= 0 else set()]
    for d in degs:
        rem = rems[-1]
        rems.append(rem | {r - d for r in rem if r >= d} if d % 2 else
                    {r - c * d for r in rem for c in range(r // d + 1)})
    tails = {0: [()]}
    for i in reversed(range(len(degs))):
        d, level, size = degs[i], {}, 0
        for r in rems[i]:
            if d % 2:
                out = [(i,) + t for t in got] if (got := tails.get(r - d)) else []
            else:
                out = []
                for c in range(r // d, 0, -1):
                    if got := tails.get(r - c * d):
                        out += [(i,) * c + t for t in got]
            if got := tails.get(r):
                out += got
            if out:
                size += len(out)
                if size > PIECE_CAP:
                    raise InfiniteDimensional(
                        f"degree-{k} piece exceeds {PIECE_CAP} monomials")
                level[r] = out
        tails = level
    return tails.get(k, [])


class _Engine:
    """Per-presentation caches: bases, differentials (int rows of L d, L
    the lcm of d's denominators), cohomology, the top degree."""

    def __init__(self, P):
        self.degrees = P.degrees
        self.top = sum(P.degrees) if all(d % 2 for d in P.degrees) else inf  # odd squares vanish
        self.dpolys = [P.differential.get(n) for n in P.names]
        self.L = lcm(*(c.denominator for p in P.differential.values() for c in p.values()))
        self._dints = [p and {m: c.numerator * (self.L // c.denominator)
                              for m, c in p.items()} for p in self.dpolys]
        self._basis = {}
        self._bindex = {}
        self._coh = {}
        self._d_echs = {}
        self._ker_wits = {}
        self._spans = {}
        self._models = {}

    def basis(self, k):
        got = self._basis.get(k)
        if got is None:
            got = self._basis[k] = _piece(self.degrees, k) if k <= self.top else []
            self._bindex[k] = {m: i for i, m in enumerate(got)}
        return got

    def bindex(self, k):
        self.basis(k)
        return self._bindex[k]

    def d_row(self, mono, k):
        """Image of a degree-k basis monomial as a row over basis(k+1).
        Not cached: _eliminate asks for each row once."""
        idx = self.bindex(k + 1)
        poly = _d_monomial(mono, self._dints, self.degrees)
        return {idx[m]: c for m, c in poly.items()}

    def _eliminate(self, k):
        """Reduce d out of degree k once.  Its echelon is Im d for
        coh(k+1) and its relations are Ker d for coh(k); each waits here
        until that call takes it.  While Im d(k-1) waits here too, the
        rows it clears (_cleared) are skipped unbuilt: the echelon and
        the other relations stay the same, and each one kept survives."""
        basis = self.basis(k)
        im = self._d_echs.get(k - 1)
        skip = () if im is None else _cleared(im, len(basis))
        ech = _Echelon()
        rows = (None if i in skip else self.d_row(m, k)
                for i, m in enumerate(basis))
        self._ker_wits[k] = _kernel(rows, ech), im is not None
        self._d_echs[k] = ech

    def coh(self, k):
        """H^k: the relations of d(k) reduced through Im d(k-1), one that
        reduces to 0 skipped.  Inconsistent unless b_k = dim C^k -
        rank d(k) - rank d(k-1), the ranks read off the two echelons, and
        unless every relation survives where d(k) was cleared."""
        got = self._coh.get(k)
        if got is not None:
            return got
        if k > 0 and k - 1 not in self._d_echs:
            self._eliminate(k - 1)
        if k not in self._ker_wits:
            self._eliminate(k)
        im = self._d_echs.pop(k - 1) if k > 0 else _Echelon()
        rels, cleared = self._ker_wits.pop(k)
        quo = _Echelon(im.pivots)
        h_rows = []
        for wit in rels:
            lead = quo.insert(wit)
            if lead is not None:
                quo.wits[lead] = {len(h_rows): quo.pivots[lead][lead]}
                h_rows.append(quo.pivots[lead])
        b = len(h_rows)
        want = len(self.basis(k)) - im.rank - (
            self._d_echs.get(k) or self._coh[k + 1].im).rank
        if b != want or cleared and b != len(rels):
            raise Inconsistent(f"b_{k} = {b} of {len(rels)} relations, but dim "
                               f"C^{k} - rank d({k}) - rank d({k - 1}) = {want}")
        got = _CohData(im, quo, h_rows)
        self._coh[k] = got
        return got

    def betti(self, k):
        return len(self.coh(k).h_rows)

    def h_rep_poly(self, k, i):
        basis = self.basis(k)
        row = self.coh(k).h_rows[i]
        lead = row[min(row)]
        return {basis[c]: Fraction(v, lead) for c, v in row.items()}

    def coords(self, poly, k):
        """(w, s): ints with w / s the coordinates of a degree-k cocycle
        polynomial in the H^k representative basis."""
        idx = self.bindex(k)
        return _solve(self.coh(k).quo, {idx[m]: c for m, c in poly.items()},
                      f"degree-{k} class escaped the computed decomposition")

    def solve_d(self, poly, k):
        """A primitive w with d(w) = poly, as a degree k-1 polynomial."""
        idx = self.bindex(k)
        w, s = _solve(self.coh(k).im, {idx[m]: c for m, c in poly.items()},
                      f"degree-{k} cochain is not exact")
        basis = self.basis(k - 1)
        return {basis[c]: Fraction(v * self.L, s) for c, v in w.items()}

    def cup_coords(self, k1, i1, k2, i2):
        prod = _poly_mul(
            self.h_rep_poly(k1, i1), self.h_rep_poly(k2, i2), self.degrees)
        w, s = self.coords(prod, k1 + k2)
        return {i: Fraction(v, s) for i, v in w.items()}

    def h_polys(self, k):
        """The H^k representative rows as int polynomials, each lead times
        its h_rep_poly, with the leads."""
        basis = self.basis(k)
        rows = self.coh(k).h_rows
        return ([{basis[c]: v for c, v in row.items()} for row in rows],
                [row[min(row)] for row in rows])

    def subalgebra_span(self, j, up_to):
        """Echelon spans of <H^{<=j}> per degree, in H coordinates.

        A product is formed on int polynomials: the representative rows
        as they are, and a span vector lifted through them, each scaled
        by lcm(leads) / its lead.  That only scales the product, which
        no primitive, positive-lead pivot of the span sees."""
        spans = self._spans.setdefault(j, {0: None})
        for m in range(1, min(up_to, self.top) + 1):
            if m in spans:
                continue
            ech = _Echelon()
            if m <= j:
                for i in range(self.betti(m)):
                    ech.insert({i: 1})
            else:
                for a in range(1, min(j, m - 1) + 1):
                    sub = spans.get(m - a)
                    if sub is None or not sub.pivots:
                        continue
                    reps, leads = self.h_polys(m - a)
                    scale = lcm(*leads)
                    lifted = []
                    for vec in sub.pivots.values():
                        poly = {}
                        for c, v in vec.items():
                            _poly_add_into(poly, reps[c], v * (scale // leads[c]))
                        lifted.append(poly)
                    for pa in self.h_polys(a)[0]:
                        for pb in lifted:
                            prod = _poly_mul(pa, pb, self.degrees)
                            if prod:
                                ech.insert(self.coords(prod, m)[0])
            spans[m] = ech
        return spans


def _engine(P):
    if P._engine is None:
        P._engine = _Engine(P)
    return P._engine


def _check_walk(eng, last):
    """Refuse up front a walk to degree min(last, top) past DEGREE_CAP."""
    if min(last, eng.top) > DEGREE_CAP:
        raise InfiniteDimensional(f"a walk to degree {min(last, eng.top)} "
                                  f"passes the degree cap of {DEGREE_CAP}")


# ---------------------------------------------------------------------------
# Public computations.


class CohomologyRing:
    """Betti numbers, representatives, and cup products up to max_deg."""

    def __init__(self, P, max_deg):
        if max_deg < 0:
            raise InvalidInput("max_deg must be >= 0")
        self.presentation = P
        self.max_deg = max_deg
        eng = _engine(P)
        _check_walk(eng, max_deg)
        self._eng = eng
        self.dims = {}
        for k in range(min(max_deg, eng.top) + 1):
            b = eng.betti(k)
            if b:
                self.dims[k] = b

    def representatives(self, k):
        eng = self._eng
        return [
            format_poly(eng.h_rep_poly(k, i), self.presentation.names)
            for i in range(eng.betti(k))
        ]

    def cup(self, k1, i1, k2, i2):
        """Coordinates of [rep_{i1}][rep_{i2}] in the H^{k1+k2} basis."""
        return self._eng.cup_coords(k1, i1, k2, i2)

    def structure_constants(self):
        out = {}
        for k1 in sorted(self.dims):
            if k1 == 0:
                continue
            for k2 in sorted(self.dims):
                if k2 < k1 or k2 == 0 or k1 + k2 > self.max_deg:
                    continue
                for i1 in range(self.dims[k1]):
                    for i2 in range(self.dims.get(k2, 0)):
                        coords = self.cup(k1, i1, k2, i2)
                        if coords:
                            out[(k1, i1, k2, i2)] = coords
        return out


def cdga_cohomology(P, max_deg):
    return CohomologyRing(P, max_deg)


def d_jk(P, j, k):
    """dim of the degree-k piece of the subalgebra generated by H^{<=j}."""
    if j < 0 or k < 0:
        raise InvalidInput("j and k must be naturals")
    eng = _engine(P)
    _check_walk(eng, k)
    if k <= j or k > eng.top:  # b_k, 0 above the top degree
        return eng.betti(k)
    spans = eng.subalgebra_span(j, k)
    return spans[k].rank


def _is_minimal(P):
    return all(
        all(len(m) >= 2 for m in poly)
        for poly in P.differential.values()
    )


def _identity_map(P):
    return {name: {(P.index[name],): _F1} for name in P.names}


def _psi_poly(poly, model, psi_polys, ambient_degrees):
    """Push a model polynomial through the generator images psi."""
    out = {}
    for mono, coef in poly.items():
        term = {(): _F1}
        for g in mono:
            term = _poly_mul(term, psi_polys[g], ambient_degrees)
            if not term:
                break
        _poly_add_into(out, term, coef)
    return out


def _tower_stage(P, model, psi, j):
    """One Sullivan stage; returns the generators it would adjoin.

    psi maps each model generator name to its image polynomial in P.
    Each returned entry is (name, degree, d_poly over the model's
    generator indices, image polynomial over P's generator indices).
    """
    A = _engine(P)
    M = _engine(model)
    psi_polys = [psi[n] for n in model.names]
    adds = []
    fresh = itertools.count(len(model.names) + 1)

    def image_coords(deg, i):
        rep = M.h_rep_poly(deg, i)
        return A.coords(_psi_poly(rep, model, psi_polys, P.degrees), deg)

    for deg in range(1, j + 1):
        span = _Echelon()
        for i in range(M.betti(deg)):
            span.insert(image_coords(deg, i)[0])
        for i in range(A.betti(deg)):
            if span.insert({i: 1}) is not None:
                adds.append((
                    f"v{next(fresh)}", deg, {}, A.h_rep_poly(deg, i),
                ))

    for deg in range(2, j + 2):
        images = [image_coords(deg, i) for i in range(M.betti(deg))]
        for combo in _kernel([w for w, _ in images]):
            # image i is w_i / s_i; scale to own-row coefficient 1
            last = max(combo)
            own = combo[last] * images[last][1]
            z_poly = {}
            for i, c in combo.items():
                _poly_add_into(z_poly, M.h_rep_poly(deg, i),
                               Fraction(c * images[i][1], own))
            image = _psi_poly(z_poly, model, psi_polys, P.degrees)
            w = A.solve_d(image, deg) if image else {}
            adds.append((f"v{next(fresh)}", deg - 1, z_poly, w))

    return adds


def _tower(P, j, degree_cap, stage_cap):
    if j < 1:
        raise InvalidInput("j must be >= 1")
    if degree_cap is None:
        degree_cap = max(P.formal_dimension, j)
    if _is_minimal(P) and all(d <= j for d in P.degrees):
        return P, _identity_map(P), True
    _check_walk(_engine(P), j + 1)

    gens = []
    diffs = {}
    psi = {}
    model = CdgaPresentation(gens, diffs, P.formal_dimension)
    for _ in range(stage_cap):
        adds = _tower_stage(P, model, psi, j)
        if not adds:
            _check_chain_map(P, model, psi)
            return model, psi, True
        for name, degree, dpoly, image in adds:
            if degree > degree_cap:
                raise NotStabilized(
                    f"tower needs a degree-{degree} generator beyond the "
                    f"cap {degree_cap}",
                    partial=(model, psi),
                )
            gens.append((name, degree))
            if dpoly:
                diffs[name] = dpoly
            psi[name] = image
        model = CdgaPresentation(gens, diffs, P.formal_dimension)
    raise NotStabilized(
        f"tower did not stabilize within {stage_cap} stages",
        partial=(model, psi),
    )


def _check_chain_map(P, model, psi):
    psi_polys = [psi[n] for n in model.names]
    A = _engine(P)
    for g, name in enumerate(model.names):
        dg = model.differential.get(name, {})
        if _psi_poly(dg, model, psi_polys, P.degrees) != _d_poly(
                psi_polys[g], A.dpolys, P.degrees):
            raise Inconsistent(f"tower map fails to commute with d on {name}")


def _model(P, j, degree_cap=None, stage_cap=32):
    eng = _engine(P)
    key = (j, degree_cap, stage_cap)
    got = eng._models.get(key)
    if got is None:
        got = _tower(P, j, degree_cap, stage_cap)
        if got[0] is P:
            # None stands for P itself, so the engine holds no
            # reference back to its presentation.
            got = (None,) + got[1:]
        eng._models[key] = got
    model, psi, stabilized = got
    return (P if model is None else model), psi, stabilized


def j_minimal_model(P, j, degree_cap=None, stage_cap=32):
    """Free model with H^{<=j} matched and H^{j+1} injectively mapped.

    Returns (model presentation, generator image map as polynomial
    text, stabilized).  When the input is already minimal and
    generated in degrees <= j the input itself is returned.
    """
    model, psi, stabilized = _model(P, j, degree_cap, stage_cap)
    text = {
        name: format_poly(poly, P.names) for name, poly in psi.items()
    }
    return model, text, stabilized


def r_jk(P, j, k):
    """Rank of the map H^k(model) -> H^k(P) for the j-minimal model."""
    if k < 0:
        raise InvalidInput("k must be a natural")
    A = _engine(P)
    _check_walk(A, k)
    model, psi, _ = _model(P, j)
    if model is P:
        return A.betti(k)
    M = _engine(model)
    psi_polys = [psi[n] for n in model.names]
    span = _Echelon()
    for i in range(M.betti(k)):
        rep = _psi_poly(M.h_rep_poly(k, i), model, psi_polys, P.degrees)
        span.insert(A.coords(rep, k)[0])
    return span.rank


@dataclass
class ObstructionRow:
    r_jk: int
    d_jk: int

    @property
    def slack(self):
        return self.r_jk - self.d_jk


@dataclass
class ObstructionReport:
    j: int
    cup_hypothesis: bool
    rows: dict
    verdict: str
    blocked_at: tuple = ()


def _top_functional(eng, n2):
    """phi on C^{n2} as {monomial: value}, given b_{n2} = 1.

    phi(e_c) is the H^{n2} coordinate left by reducing the unit row e_c
    through coh(n2), with a column that is neither pivot dropped.  The
    image pivot rows, the representative row and the unit rows of the
    other columns form a triangular basis, so back-substitution from
    the last column gives every value, and phi(z) = w.get(0, 0) / s on
    a cocycle z, where (w, s) = coords(z, n2).
    """
    quo = eng.coh(n2).quo
    vals = {}
    for c in sorted(quo.pivots, reverse=True):
        row = quo.pivots[c]
        v = quo.wits[c][0] if c in quo.wits else 0
        for cc, x in row.items():
            if cc != c and cc in vals:
                v -= x * vals[cc]
        if v:
            vals[c] = Fraction(v) / row[c]
    basis = eng.basis(n2)
    return {basis[c]: v for c, v in vals.items()}


def _contract(m1, phi, degrees):
    """Terms (m2, sign * phi(T)) for each T in supp phi that m1 divides.

    m2 = T / m1 and m1 * m2 = sign * T.
    """
    out = []
    for top, v in phi.items():
        rest = list(top)
        try:
            for g in m1:
                rest.remove(g)
        except ValueError:
            continue
        m2 = tuple(rest)
        out.append((m2, _mul_mono(m1, m2, degrees)[0] * v))
    return out


def _pairing_rows(eng, phi, k, n2, contractions):
    """Rows {l: <[rep_i][rep_l], top class>} of the H^k x H^{n2-k} pairing.

    The sums run on ints: the representative rows as they are, and phi
    times its common denominator den.  The complementary rows are indexed
    by column once, so entry (i, l) sums only where rep_i's dual terms
    meet rep_l's entries; it is divided once, by lead_i * lead_l * den.
    contractions caches _contract per monomial, over the column indices
    of the complementary degree.
    """
    den = lcm(*(v.denominator for v in phi.values()))
    phi = {m: v.numerator * (den // v.denominator) for m, v in phi.items()}
    basis, idx = eng.basis(k), eng.bindex(n2 - k)
    others = eng.coh(n2 - k).h_rows
    leads = [row[min(row)] for row in others]
    by_col = {}
    for l, other in enumerate(others):
        for c2, x2 in other.items():
            by_col.setdefault(c2, []).append((l, x2))
    rows = []
    for rep in eng.coh(k).h_rows:
        dual = {}
        for c1, x1 in rep.items():
            m1 = basis[c1]
            terms = contractions.get(m1)
            if terms is None:
                terms = contractions[m1] = [
                    (idx[m2], v) for m2, v in _contract(m1, phi, eng.degrees)]
            for c2, v in terms:
                dual[c2] = dual.get(c2, 0) + x1 * v
        scale = rep[min(rep)] * den
        acc = {}
        for c2, v in dual.items():
            for l, x2 in by_col.get(c2, ()):
                acc[l] = acc.get(l, 0) + x2 * v
        rows.append({l: Fraction(acc[l], scale * leads[l])
                     for l in sorted(acc) if acc[l]})
    return rows


def _check_poincare_duality(P):
    eng = _engine(P)
    n2 = P.formal_dimension
    for k in range(min(n2, eng.top) + 1):  # upward, so Im d(k-1) clears d(k)
        eng.coh(k)
    if eng.betti(n2) != 1:
        raise NoPoincareDuality(
            f"b_{n2} = {eng.betti(n2)}, expected 1")
    phi = _top_functional(eng, n2)
    contractions = {}
    for k in range(n2 // 2 + 1):
        bk = eng.betti(k)
        bo = eng.betti(n2 - k)
        if bk != bo:
            raise NoPoincareDuality(
                f"b_{k} = {bk} but b_{n2 - k} = {bo}")
        ech = _Echelon()
        for row in _pairing_rows(eng, phi, k, n2, contractions):
            if row:
                ech.insert(_ints(row)[0])
        if ech.rank != bk:
            raise NoPoincareDuality(
                f"cup pairing degenerate in degrees ({k}, {n2 - k})")


def obstruction(P, j):
    """Decide whether a j-controlled structure is homotopically blocked."""
    if j < 1:
        raise InvalidInput("j must be >= 1")
    n2 = P.formal_dimension
    if n2 < 2 or n2 % 2:
        raise InvalidInput(
            f"formal dimension must be even and >= 2, got {n2}")
    eng = _engine(P)
    _check_walk(eng, max(n2, j + 1))
    for k in range(min(n2, eng.top) + 1):  # PIECE_CAP refuses an oversized piece up front
        eng.basis(k)
    _check_poincare_duality(P)
    cup_ok = d_jk(P, j, j + 1) == 0
    rows = {}
    for k in range(j + 1, n2 + 1):
        r = r_jk(P, j, k)
        d = d_jk(P, j, k)
        if d > r:
            raise Inconsistent(
                f"d_j^k = {d} exceeds r_j^k = {r} at k = {k}")
        rows[k] = ObstructionRow(r, d)
    if not cup_ok:
        return ObstructionReport(j, False, rows, "hypothesis_failed")
    window = range(max(j + 1, n2 - j), n2 + 1)
    blocked = tuple(k for k in window if rows[k].slack > 0)
    verdict = "blocked" if blocked else "inconclusive"
    return ObstructionReport(j, True, rows, verdict, blocked)


@dataclass
class CompatibilityRow:
    r_jk: int
    d_jk: int
    ell: int

    @property
    def slack(self):
        return self.r_jk - self.d_jk

    @property
    def exceeded(self):
        return self.slack > self.ell


@dataclass
class CompatibilityReport:
    j: int
    cup_hypothesis: bool
    rows: dict
    verdict: str
    excluded_at: tuple = ()


def compatibility(P, j, A):
    """Test a candidate bicomplex against the bound slack <= ell_k.

    A j-controlled structure with the E1-isotype of A forces
    r_j^k - d_j^k <= ell_k(A) in every degree k > j; any violation
    excludes the candidate.
    """
    base = obstruction(P, j)
    ell_table = ell(A)
    rows = {}
    for k, row in base.rows.items():
        rows[k] = CompatibilityRow(row.r_jk, row.d_jk, ell_table.get(k, 0))
    if not base.cup_hypothesis:
        return CompatibilityReport(j, False, rows, "hypothesis_failed")
    excluded = tuple(k for k in sorted(rows) if rows[k].exceeded)
    verdict = "excluded" if excluded else "not_excluded"
    return CompatibilityReport(j, True, rows, verdict, excluded)


# ---------------------------------------------------------------------------
# Presets.

_FILIFORM_RE = re.compile(r"filiform\((\d+)\)\Z")
# The six-dimensional presets on generators e1..e6 of degree 1.
_SIX = {
    "iwasawa": {"e5": "e1*e3-e2*e4", "e6": "e2*e3+e1*e4"},
    "nil_m1": {"e3": "e1*e2", "e4": "e1*e3", "e5": "e2*e3",
               "e6": "e1*e4+e2*e5"},
    "ex_k2_M": {"e3": "e1*e2", "e4": "e2*e3", "e5": "e2*e4",
                "e6": "e1*e5+e3*e4"},
    "ex_k2_M_variant": {"e3": "e1*e2", "e4": "e2*e3", "e5": "e2*e4-e1*e3",
                        "e6": "e1*e5+e3*e4"},
}


def preset(name):
    """Named example presentations; filiform takes its dimension inline."""
    m = _FILIFORM_RE.match(name)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        if len(digits) > len(str(PIECE_CAP)) or int(digits) > PIECE_CAP:
            raise UnknownPreset(f"filiform dimension above {PIECE_CAP}: its "
                                f"degree-1 piece exceeds {PIECE_CAP} monomials")
        n2 = int(digits)
        if n2 < 4 or n2 % 2:
            raise UnknownPreset(
                f"filiform dimension must be an even number >= 4, got {n2}")
        gens = [(f"e{i}", 1) for i in range(1, n2 + 1)]
        d = {f"e{k}": f"e1*e{k - 1}" for k in range(3, n2 + 1)}
        return CdgaPresentation(gens, d, n2)
    if name in _SIX:
        return CdgaPresentation(
            [(f"e{i}", 1) for i in range(1, 7)], _SIX[name], 6)
    raise UnknownPreset(
        f"unknown preset {name!r}; available: filiform(2n), "
        + ", ".join(_SIX))
