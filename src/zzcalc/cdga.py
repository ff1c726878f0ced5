"""Finite cdga presentations and the real-homotopy obstruction.

A presentation is a free graded-commutative algebra over Q on named
generators, with the differential given per generator and extended as
a degree +1 derivation.  Monomials are tuples of generator indices in
ascending order; reordering picks up a Koszul sign, and a repeated odd
index kills the term.  Polynomials, representatives, coordinates and
primitives are exact Fractions at the API, but every elimination is one
_Echelon of sparse {column: int} rows whose pivots can carry witnesses,
reduced fraction-free (Bareiss's step, linalg._sub): d is scaled once
to integers, a rational row is cleared of denominators on the way in,
and a result is divided by its integer scale once on the way out.

The obstruction pipeline is one fixed recipe.  For a presentation P of
formal dimension 2n and a level j:

  * check Poincare duality of H(P) (b_2n = 1 and a nondegenerate cup
    pairing in complementary degrees), else the criterion does not
    apply.  The pairing forms no cup product: one linear functional
    phi on the degree-2n cochains gives the top-class coordinate, each
    representative monomial m1 is contracted once against supp phi
    into the dual terms (T/m1, sign * phi(T)), and a pairing entry is
    the sparse dot product of those terms with the complementary
    representative;
  * check the cup hypothesis that the subalgebra generated by classes
    of degree <= j misses H^{j+1};
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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from .conditions import ell
from .errors import (
    InfiniteDimensional,
    Inconsistent,
    InvalidInput,
    NoPoincareDuality,
    NotStabilized,
    UnknownPreset,
)
from .linalg import _sub

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
# polynomial is a dict monomial -> Fraction with no zero values.


def _sort_indices(indices, degrees):
    """Canonical order with Koszul sign; (0, ()) when an odd repeats."""
    sign = 1
    lst = list(indices)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if degrees[lst[j - 1]] % 2 and degrees[lst[j]] % 2:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b and degrees[a] % 2:
            return 0, ()
    return sign, tuple(lst)


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
            sign, m = _sort_indices(m1 + m2, degrees)
            if sign:
                out[m] = out.get(m, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _d_monomial(mono, dpolys, degrees):
    """Leibniz expansion of d on one monomial."""
    out = {}
    parity = 0
    for t, g in enumerate(mono):
        dg = dpolys[g]
        if dg:
            lead = -1 if parity % 2 else 1
            head = mono[:t]
            tail = mono[t + 1:]
            for m, c in dg.items():
                sign, mm = _sort_indices(head + m + tail, degrees)
                if sign:
                    out[mm] = out.get(mm, 0) + lead * sign * c
        parity += degrees[g]
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
        indices = []
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
                if len(indices) + power > PIECE_CAP:
                    raise InvalidInput(
                        f"monomial with more than {PIECE_CAP} factors "
                        f"in {text!r}")
                indices.extend([g] * power)
            else:
                raise InvalidInput(f"expected a factor in {text!r}")
            if pos < total and tokens[pos] == "*":
                pos += 1
            else:
                expect_factor = False
        sign, mono = _sort_indices(indices, degrees)
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
                    sign, m = _sort_indices(tuple(mono), self.degrees)
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


# ---------------------------------------------------------------------------
# Sparse elimination on integer dict rows {column: int}.


class _Echelon:
    """Row space in (non-reduced) echelon form over Z, with witnesses.

    pivots maps each lead column c to an int row with a positive lead;
    wits may hold its witness, an int row at the same scale, the pair
    primitive together.  Both divided by pivots[c][c] give the rational
    lead-1 pivot and witness.  reduce(row, wit) clears pivot columns,
    lowest first, by linalg's fraction-free step and applies each step
    to wit too (a pivot without a witness has witness zero).  The pivot
    rows given to the constructor are shared, not copied.
    """

    __slots__ = ("pivots", "wits")

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)
        self.wits = {}

    def reduce(self, row, wit=None):
        """The remainder of row; wit is updated in place."""
        z, w = row, wit
        while z:
            c = min(z)
            p = self.pivots.get(c)
            if p is None:
                break
            if w is None:
                z = _sub(z, p, c)
            else:
                z, w = _sub(z, p, c, w, self.wits.get(c))
        if w is not wit:
            wit.clear()
            wit.update(w)
        return z

    def insert(self, row, wit=None):
        """Lead column of the new pivot, or None when row reduces to 0."""
        z = self.reduce(row, wit)
        if not z:
            return None
        lead = min(z)
        g = gcd(*z.values(), *(wit or {}).values())
        if z[lead] < 0:
            g = -g
        if g != 1:
            z = {c: v // g for c, v in z.items()}
            wit = wit and {c: v // g for c, v in wit.items()}
        self.pivots[lead] = z
        if wit is not None:
            self.wits[lead] = wit
        return lead

    @property
    def rank(self):
        return len(self.pivots)


def _kernel(rows, ech=None):
    """Int relations w, sum of w[i] * rows[i] zero, one per row that
    reduces to zero; the largest index is the row's own, and w divided
    by its coefficient is the rational relation.  The other rows become
    pivots of ech, the i-th witnessed by {i: 1} as reduced."""
    if ech is None:
        ech = _Echelon()
    out = []
    for i, row in enumerate(rows):
        wit = {i: 1}
        if ech.insert(row, wit) is None:
            out.append(wit)
    return out


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


class _CohData:
    """H^k of a presentation as two int echelons over the degree-k basis.

    im holds Im(L d) (see _Engine), each pivot witnessed by a preimage
    over basis(k-1).  quo shares im's rows and adds the representative
    rows h_rows, the i-th witnessed by {i: its lead}, so reducing a
    cocycle through quo leaves its H^k coordinates in the witness.
    """

    __slots__ = ("im", "quo", "h_rows")

    def __init__(self, im, quo, h_rows):
        self.im = im
        self.quo = quo
        self.h_rows = h_rows


class _Engine:
    """Per-presentation caches: bases, differentials (int rows of L d, L
    the lcm of d's denominators), cohomology."""

    def __init__(self, P):
        self.degrees = P.degrees
        self.dpolys = [P.differential.get(n) for n in P.names]
        self.L = lcm(*(c.denominator for p in P.differential.values() for c in p.values()))
        self._dints = [p and {m: c.numerator * (self.L // c.denominator)
                              for m, c in p.items()} for p in self.dpolys]
        self._basis = {}
        self._bindex = {}
        self._drow = {}
        self._coh = {}
        self._d_echs = {}
        self._ker_wits = {}
        self._spans = {}
        self._models = {}

    def basis(self, k):
        got = self._basis.get(k)
        if got is not None:
            return got
        out = []
        degs = self.degrees
        # reach[i]: the largest degree generators i.. can fill; odd squares
        # vanish, so only an even generator leaves it unbounded
        reach = [0] * (len(degs) + 1)
        for i in reversed(range(len(degs))):
            reach[i] = inf if degs[i] % 2 == 0 else degs[i] + reach[i + 1]
        # depth first over the generators, on an explicit stack: each entry
        # is (next generator, degree still to fill, monomial so far)
        stack = [(0, k, ())] if k >= 0 else []
        while stack:
            i, rem, mono = stack.pop()
            if rem == 0:
                out.append(mono)
                if len(out) > PIECE_CAP:
                    raise InfiniteDimensional(
                        f"degree-{k} piece exceeds {PIECE_CAP} monomials")
            elif rem <= reach[i]:
                stack.append((i + 1, rem, mono))
                d = degs[i]
                top = min(rem // d, 1) if d % 2 else rem // d  # odd squares vanish
                for cnt in range(1, top + 1):
                    stack.append((i + 1, rem - cnt * d, mono + (i,) * cnt))
        out.sort()
        self._basis[k] = out
        self._bindex[k] = {m: i for i, m in enumerate(out)}
        return out

    def bindex(self, k):
        self.basis(k)
        return self._bindex[k]

    def d_row(self, mono, k):
        """Image of a degree-k basis monomial as a row over basis(k+1)."""
        got = self._drow.get(mono)
        if got is None:
            poly = _d_monomial(mono, self._dints, self.degrees)
            idx = self.bindex(k + 1)
            got = {idx[m]: c for m, c in poly.items()}
            self._drow[mono] = got
        return got

    def _eliminate(self, k):
        """Reduce d out of degree k once.  Its echelon is Im d for
        coh(k+1) and its relations are Ker d for coh(k); each waits here
        until that call takes it."""
        ech = _Echelon()
        self._ker_wits[k] = _kernel(
            (self.d_row(m, k) for m in self.basis(k)), ech)
        self._d_echs[k] = ech

    def coh(self, k):
        got = self._coh.get(k)
        if got is not None:
            return got
        im = _Echelon()
        if k > 0:
            if k - 1 not in self._d_echs:
                self._eliminate(k - 1)
            im = self._d_echs.pop(k - 1)
        if k not in self._ker_wits:
            self._eliminate(k)
        quo = _Echelon(im.pivots)
        h_rows = []
        for wit in self._ker_wits.pop(k):
            lead = quo.insert(wit)
            if lead is not None:
                quo.wits[lead] = {len(h_rows): quo.pivots[lead][lead]}
                h_rows.append(quo.pivots[lead])
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

    def subalgebra_span(self, j, up_to):
        """Echelon spans of <H^{<=j}> per degree, in H coordinates."""
        spans = self._spans.setdefault(j, {0: None})
        for m in range(1, up_to + 1):
            if m in spans:
                continue
            ech = _Echelon()
            if m <= j:
                for i in range(self.betti(m)):
                    ech.insert({i: 1})
            else:
                lifted = {}

                def lift(b, vec):
                    poly = {}
                    for c, v in vec.items():
                        _poly_add_into(poly, self.h_rep_poly(b, c), v)
                    return poly

                for a in range(1, min(j, m - 1) + 1):
                    b = m - a
                    sub = spans.get(b)
                    if sub is None or not sub.pivots:
                        continue
                    vecs = lifted.setdefault(
                        b, [lift(b, vec) for vec in sub.pivots.values()])
                    for i in range(self.betti(a)):
                        pa = self.h_rep_poly(a, i)
                        for pb in vecs:
                            prod = _poly_mul(pa, pb, self.degrees)
                            if prod:
                                ech.insert(self.coords(prod, m)[0])
            spans[m] = ech
        return spans


def _engine(P):
    if P._engine is None:
        P._engine = _Engine(P)
    return P._engine


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
        self._eng = eng
        self.dims = {}
        for k in range(max_deg + 1):
            b = eng.betti(k)
            if b:
                self.dims[k] = b

    def betti(self, k):
        return self._eng.betti(k)

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
    if k <= j:
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
    M = _Engine(model)
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
    model, psi, _ = _model(P, j)
    A = _engine(P)
    if model is P:
        return A.betti(k)
    M = _Engine(model)
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
    the last column gives every value, and phi agrees with
    project(...)[0] on cocycles.
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
        out.append((m2, _sort_indices(m1 + m2, degrees)[0] * v))
    return out


def _pairing_rows(eng, phi, k, n2, contractions):
    """Rows {l: <[rep_i][rep_l], top class>} of the H^k x H^{n2-k} pairing.

    contractions caches _contract per monomial across degrees.
    """
    others = [eng.h_rep_poly(n2 - k, l) for l in range(eng.betti(n2 - k))]
    rows = []
    for i in range(eng.betti(k)):
        dual = {}
        for m1, c1 in eng.h_rep_poly(k, i).items():
            terms = contractions.get(m1)
            if terms is None:
                terms = contractions[m1] = _contract(m1, phi, eng.degrees)
            for m2, v in terms:
                dual[m2] = dual.get(m2, 0) + c1 * v
        row = {}
        for l, rep in enumerate(others):
            val = sum(
                (c2 * dual[m2] for m2, c2 in rep.items() if m2 in dual), 0)
            if val:
                row[l] = val
        rows.append(row)
    return rows


def _check_poincare_duality(P):
    eng = _engine(P)
    n2 = P.formal_dimension
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
    for k in range(n2 + 1):  # PIECE_CAP refuses an oversized piece up front
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
