"""The cdga eliminations against the two routes they replaced.

Every elimination in `cdga` is a call on `_Echelon`, on integer rows:
Im d with preimage witnesses, Ker d with unit witnesses (`_kernel`), H^k
as kernel vectors reduced through Im d, `project`, `solve_d` and the
kernel of a tower stage.  Two earlier routes are kept here, unchanged,
as oracles: the same `_Echelon` on sparse `Fraction` rows with lead-1
pivots (`FracEngine`), and before it one hand-written pivot walk per
elimination (`OldEngine`).  Both build their d rows with the replaced
insertion-sort `_d_monomial` of `test_koszul_oracle`, so their d rows
share no sign code with the engine's.  All three make the same row
operations in the same order, so the integer engine's values, divided
as the Fraction route would hold them, must agree exactly: a pivot
divided by its lead, its witness divided by the same lead, a kernel
relation divided by its own-row coefficient; representatives,
coordinates, primitives and tower adds.  (The old coh also eliminates
d out of degree k twice, where the engine shares one pass between
coh(k) and coh(k+1).)

The engine clears: where Im d(k-1) is at hand, the rows of d(k) at its
highest columns are never built (`cdga._cleared`).  Both oracles build
every row and reduce every relation, so the comparisons run in three
call orders, upward (every degree but 0 cleared), downward (only the
first degree cleared) and the duality check's former low/high
alternation, and the rows left unbuilt must be exactly the own rows of
the relations that the oracles' quotient reduces to 0.
"""

import itertools
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from zzcalc import cdga
from zzcalc.cdga import CdgaPresentation, obstruction, preset
from zzcalc.errors import Inconsistent

from test_duality_oracle import s2xs2, sheared_s2xs2
from test_koszul_oracle import _d_monomial

_F0 = Fraction(0)
_F1 = Fraction(1)


def _submul(z, prow, coef, skip):
    for cc, v in prow.items():
        if cc == skip:
            continue
        nv = z.get(cc, _F0) - coef * v
        if nv:
            z[cc] = nv
        else:
            z.pop(cc, None)


class FracEchelon:
    """Row space kept in (non-reduced) echelon form, with witnesses.

    pivots maps each lead column to its row, scaled to lead 1.  A pivot
    may carry a witness in wits under the same column: reduce(row, wit)
    applies every row operation it makes to wit as well, so wit loses
    coef * wits[c] whenever the row loses coef * pivots[c].  A pivot
    without a witness has witness zero.  The pivot rows given to the
    constructor are shared, not copied.
    """

    __slots__ = ("pivots", "wits")

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)
        self.wits = {}

    def reduce(self, row, wit=None):
        z = dict(row)
        while z:
            c = min(z)
            p = self.pivots.get(c)
            if p is None:
                return z
            coef = z.pop(c)
            _submul(z, p, coef, c)
            if wit is not None and c in self.wits:
                _submul(wit, self.wits[c], coef, None)
        return z

    def insert(self, row, wit=None):
        """Lead column of the new pivot, or None when row reduces to 0."""
        z = self.reduce(row, wit)
        if not z:
            return None
        lead = min(z)
        inv = _F1 / z[lead]
        self.pivots[lead] = {c: v * inv for c, v in z.items()}
        if wit is not None:
            self.wits[lead] = {c: v * inv for c, v in wit.items()}
        return lead

    @property
    def rank(self):
        return len(self.pivots)


def frac_kernel(rows, ech=None):
    """Witnesses {i: coef} of the rows that reduce to zero, in order.

    Each witness w is a relation: sum of w[i] * rows[i] is zero.  The
    other rows become pivots of ech, the i-th witnessed by {i: 1} as
    reduced along the way.
    """
    if ech is None:
        ech = FracEchelon()
    out = []
    for i, row in enumerate(rows):
        wit = {i: _F1}
        if ech.insert(row, wit) is None:
            out.append(wit)
    return out


class FracEngine(cdga._Engine):
    """The engine with the replaced Fraction elimination: d rows, coh,
    representatives, project and solve_d on sparse Fraction rows."""

    def d_row(self, mono, k):
        idx = self.bindex(k + 1)
        poly = _d_monomial(mono, self.dpolys, self.degrees)
        return {idx[m]: c for m, c in poly.items()}

    def _eliminate(self, k):
        ech = FracEchelon()
        self._ker_wits[k] = frac_kernel(
            (self.d_row(m, k) for m in self.basis(k)), ech)
        self._d_echs[k] = ech

    def coh(self, k):
        got = self._coh.get(k)
        if got is not None:
            return got
        im = FracEchelon()
        if k > 0:
            if k - 1 not in self._d_echs:
                self._eliminate(k - 1)
            im = self._d_echs.pop(k - 1)
        if k not in self._ker_wits:
            self._eliminate(k)
        quo = FracEchelon(im.pivots)
        h_rows = []
        for wit in self._ker_wits.pop(k):
            lead = quo.insert(wit)
            if lead is not None:
                quo.wits[lead] = {len(h_rows): _F1}
                h_rows.append(quo.pivots[lead])
        got = cdga._CohData(im, quo, h_rows)
        self._coh[k] = got
        return got

    def h_rep_poly(self, k, i):
        basis = self.basis(k)
        return {basis[c]: v for c, v in self.coh(k).h_rows[i].items()}

    def project(self, row, k):
        """Coordinates of a cocycle row in the H^k representative basis."""
        wit = {}
        if self.coh(k).quo.reduce(row, wit):
            raise Inconsistent(
                f"degree-{k} class escaped the computed decomposition")
        return {i: -v for i, v in wit.items()}

    def project_poly(self, poly, k):
        idx = self.bindex(k)
        return self.project({idx[m]: c for m, c in poly.items()}, k)

    def solve_d(self, poly, k):
        """A primitive w with d(w) = poly, as a degree k-1 polynomial."""
        idx = self.bindex(k)
        wit = {}
        if self.coh(k).im.reduce({idx[m]: c for m, c in poly.items()}, wit):
            raise Inconsistent(f"degree-{k} cochain is not exact")
        basis = self.basis(k - 1)
        return {basis[c]: -v for c, v in wit.items()}


def frac_tower_stage(P, model, psi, j):
    """The replaced _tower_stage, on the Fraction engine."""
    A = FracEngine(P)
    M = FracEngine(model)
    psi_polys = [psi[n] for n in model.names]
    adds = []
    fresh = itertools.count(len(model.names) + 1)

    def image_coords(deg, i):
        rep = M.h_rep_poly(deg, i)
        return A.project_poly(
            cdga._psi_poly(rep, model, psi_polys, P.degrees), deg)

    for deg in range(1, j + 1):
        span = FracEchelon()
        for i in range(M.betti(deg)):
            span.insert(image_coords(deg, i))
        for i in range(A.betti(deg)):
            if span.insert({i: _F1}) is not None:
                adds.append((
                    f"v{next(fresh)}", deg, {}, A.h_rep_poly(deg, i),
                ))

    for deg in range(2, j + 2):
        rows = (image_coords(deg, i) for i in range(M.betti(deg)))
        for combo in frac_kernel(rows):
            z_poly = {}
            for i, c in combo.items():
                cdga._poly_add_into(z_poly, M.h_rep_poly(deg, i), c)
            image = cdga._psi_poly(z_poly, model, psi_polys, P.degrees)
            w = A.solve_d(image, deg) if image else {}
            adds.append((f"v{next(fresh)}", deg - 1, z_poly, w))

    return adds


class OldCohData:
    __slots__ = ("im_pivots", "h_rows", "h_pivots")

    def __init__(self, im_pivots, h_rows, h_pivots):
        self.im_pivots = im_pivots
        self.h_rows = h_rows
        self.h_pivots = h_pivots


class OldEngine(FracEngine):
    """The engine with the hand-written coh, project and solve_d.

    coh also keeps each degree's kernel witnesses in self.kernels.
    """

    def __init__(self, P):
        super().__init__(P)
        self.kernels = {}

    def coh(self, k):
        got = self._coh.get(k)
        if got is not None:
            return got
        im_pivots = {}
        if k > 0:
            for i, m in enumerate(self.basis(k - 1)):
                row = dict(self.d_row(m, k - 1))
                wit = {i: _F1}
                while row:
                    c = min(row)
                    entry = im_pivots.get(c)
                    if entry is None:
                        inv = _F1 / row[c]
                        im_pivots[c] = (
                            {cc: v * inv for cc, v in row.items()},
                            {cc: v * inv for cc, v in wit.items()},
                        )
                        break
                    coef = row.pop(c)
                    _submul(row, entry[0], coef, c)
                    _submul(wit, entry[1], coef, None)

        kernel = []
        pivots = {}
        for i, m in enumerate(self.basis(k)):
            row = dict(self.d_row(m, k))
            wit = {i: _F1}
            while row:
                c = min(row)
                entry = pivots.get(c)
                if entry is None:
                    inv = _F1 / row[c]
                    pivots[c] = (
                        {cc: v * inv for cc, v in row.items()},
                        {cc: v * inv for cc, v in wit.items()},
                    )
                    break
                coef = row.pop(c)
                _submul(row, entry[0], coef, c)
                _submul(wit, entry[1], coef, None)
            else:
                kernel.append(wit)

        h_rows = []
        h_pivots = {}
        for v in kernel:
            z = dict(v)
            while z:
                c = min(z)
                if c in im_pivots:
                    _submul(z, im_pivots[c][0], z.pop(c), c)
                elif c in h_pivots:
                    _submul(z, h_rows[h_pivots[c]], z.pop(c), c)
                else:
                    inv = _F1 / z[c]
                    h_pivots[c] = len(h_rows)
                    h_rows.append({cc: val * inv for cc, val in z.items()})
                    break
        got = OldCohData(im_pivots, h_rows, h_pivots)
        self._coh[k] = got
        self.kernels[k] = kernel
        return got

    def project(self, row, k):
        """Coordinates of a cocycle row in the H^k representative basis."""
        data = self.coh(k)
        z = dict(row)
        coords = {}
        while z:
            c = min(z)
            if c in data.im_pivots:
                _submul(z, data.im_pivots[c][0], z.pop(c), c)
            elif c in data.h_pivots:
                idx = data.h_pivots[c]
                coef = z.pop(c)
                coords[idx] = coords.get(idx, _F0) + coef
                _submul(z, data.h_rows[idx], coef, c)
            else:
                raise Inconsistent(
                    f"degree-{k} class escaped the computed decomposition")
        return {i: v for i, v in coords.items() if v}

    def solve_d(self, poly, k):
        """A primitive w with d(w) = poly, as a degree k-1 polynomial."""
        data = self.coh(k)
        idx = self.bindex(k)
        z = {idx[m]: c for m, c in poly.items()}
        wit = {}
        while z:
            c = min(z)
            entry = data.im_pivots.get(c)
            if entry is None:
                raise Inconsistent(f"degree-{k} cochain is not exact")
            coef = z.pop(c)
            _submul(z, entry[0], coef, c)
            for cc, v in entry[1].items():
                nv = wit.get(cc, _F0) + coef * v
                if nv:
                    wit[cc] = nv
                else:
                    wit.pop(cc, None)
        basis = self.basis(k - 1)
        return {basis[c]: v for c, v in wit.items()}


def old_tower_stage(P, model, psi, j):
    """The replaced _tower_stage, on the replaced engine."""
    A = OldEngine(P)
    M = OldEngine(model)
    psi_polys = [psi[n] for n in model.names]
    adds = []
    fresh = itertools.count(len(model.names) + 1)

    def image_coords(deg, i):
        rep = M.h_rep_poly(deg, i)
        return A.project_poly(
            cdga._psi_poly(rep, model, psi_polys, P.degrees), deg)

    for deg in range(1, j + 1):
        span = FracEchelon()
        for i in range(M.betti(deg)):
            span.insert(image_coords(deg, i))
        for i in range(A.betti(deg)):
            if span.insert({i: _F1}) is not None:
                adds.append((
                    f"v{next(fresh)}", deg, {}, A.h_rep_poly(deg, i),
                ))

    for deg in range(2, j + 2):
        pivots = {}
        kernel = []
        for i in range(M.betti(deg)):
            row = image_coords(deg, i)
            wit = {i: _F1}
            while row:
                c = min(row)
                entry = pivots.get(c)
                if entry is None:
                    inv = _F1 / row[c]
                    pivots[c] = (
                        {cc: v * inv for cc, v in row.items()},
                        {cc: v * inv for cc, v in wit.items()},
                    )
                    break
                coef = row.pop(c)
                _submul(row, entry[0], coef, c)
                _submul(wit, entry[1], coef, None)
            else:
                kernel.append(wit)
        for combo in kernel:
            z_poly = {}
            for i, c in combo.items():
                cdga._poly_add_into(z_poly, M.h_rep_poly(deg, i), c)
            image = cdga._psi_poly(z_poly, model, psi_polys, P.degrees)
            w = A.solve_d(image, deg) if image else {}
            adds.append((f"v{next(fresh)}", deg - 1, z_poly, w))

    return adds


def iwasawa_fractional():
    """iwasawa with coefficients 1/2 and -3/4: the engine scales d by 4."""
    return CdgaPresentation(
        [(f"e{i}", 1) for i in range(1, 7)],
        {"e5": "1/2*e1*e3-e2*e4", "e6": "e2*e3-3/4*e1*e4"}, 6)


CASES = {
    **{name: (lambda name=name: preset(name)) for name in (
        "filiform(4)", "filiform(6)", "filiform(8)", "filiform(10)",
        "iwasawa", "nil_m1", "ex_k2_M", "ex_k2_M_variant")},
    "iwasawa 1/2 -3/4": iwasawa_fractional,
    "CP2": lambda: CdgaPresentation(
        [("y", 2), ("z", 5)], {"z": "y^3"}, 4),
    "S2xS2": s2xs2,
    "sheared S2xS2": sheared_s2xs2,
}


def engines(name):
    P = CASES[name]()
    return P, cdga._Engine(P), OldEngine(P)


ORDERS = ("upward", "downward", "alternating")


def walked(P, order):
    """A fresh engine after coh(k) for k = 0..2n+1 in the given order;
    "alternating" is 2n, then k and 2n - k for k = 0..n, then 2n + 1."""
    n2 = P.formal_dimension
    ks = range(n2 + 2)
    if order == "downward":
        ks = reversed(ks)
    elif order == "alternating":
        ks = [n2, *(x for k in range(n2 // 2 + 1) for x in (k, n2 - k)), n2 + 1]
    eng = cdga._Engine(P)
    for k in ks:
        eng.coh(k)
    return eng


def rational(row, lead):
    """An integer row divided by lead, as the Fraction route holds it."""
    return {c: Fraction(v, lead) for c, v in row.items()}


def lead_one(eng, k):
    """The integer engine's H^k data in the Fraction route's form: Im d
    pivots with their witnesses, representatives and H^k pivot witnesses,
    each divided by its pivot's lead.  The engine eliminates L d, so an
    Im d witness is also multiplied by L (1 for every preset)."""
    data = eng.coh(k)
    im = {c: (rational(row, row[c]),
              rational({i: v * eng.L for i, v in data.im.wits[c].items()}, row[c]))
          for c, row in data.im.pivots.items()}
    h_rows = [rational(row, row[min(row)]) for row in data.h_rows]
    h_wits = {c: rational(wit, data.quo.pivots[c][c])
              for c, wit in data.quo.wits.items()}
    return im, h_rows, h_wits


def fraction_form(data):
    """The same triple read off either replaced route."""
    if isinstance(data, OldCohData):
        return (data.im_pivots, data.h_rows,
                {c: {i: _F1} for c, i in data.h_pivots.items()})
    return ({c: (row, data.im.wits[c]) for c, row in data.im.pivots.items()},
            data.h_rows, data.quo.wits)


def project(eng, row, k):
    """The integer engine's H^k coordinates of a cocycle row, over Q."""
    basis = eng.basis(k)
    w, s = eng.coords({basis[c]: v for c, v in row.items()}, k)
    return {i: Fraction(v, s) for i, v in w.items()}


def own_one(kernel):
    """Kernel relations divided by their own-row coefficients."""
    return [rational(w, w[max(w)]) for w in kernel]


def exact_cochains(eng, k):
    """Im d's pivot rows and d of every degree-(k-1) monomial, as polys."""
    basis = eng.basis(k)
    for row in eng.coh(k).im.pivots.values():
        yield {basis[c]: v for c, v in row.items()}
    for m in eng.basis(k - 1) if k else ():
        yield {basis[c]: v for c, v in eng.d_row(m, k - 1).items()}


def cochains(eng, k):
    """Every H^k representative, plus sums with coboundaries."""
    data = eng.coh(k)
    exact = list(data.im.pivots.values())
    for i, rep in enumerate(data.h_rows):
        yield dict(rep)
        for t, b in enumerate(exact[:4]):
            z = dict(rep)
            cdga._poly_add_into(z, b, Fraction(t + 2, 3) * (i + 1))
            yield z


@pytest.mark.parametrize("name", sorted(CASES))
def test_coh_matches_old_loops(name):
    P, new, old = engines(name)
    for order in ORDERS:
        walk = walked(P, order)
        for k in range(P.formal_dimension + 2):
            assert lead_one(walk, k) == fraction_form(old.coh(k)), (order, k)
    for k in range(P.formal_dimension + 2):
        rows = [new.d_row(m, k) for m in new.basis(k)]
        assert own_one(cdga._kernel(rows)) == old.kernels[k]


@pytest.mark.parametrize("name", sorted(CASES))
def test_coh_matches_fraction_echelon(name):
    P = CASES[name]()
    new, frac = cdga._Engine(P), FracEngine(P)
    for k in range(P.formal_dimension + 2):
        rows = [new.d_row(m, k) for m in new.basis(k)]
        frows = [frac.d_row(m, k) for m in frac.basis(k)]
        assert own_one(cdga._kernel(rows)) == frac_kernel(frows)
    for order in ORDERS:
        new = walked(P, order)
        for k in range(P.formal_dimension + 2):
            assert lead_one(new, k) == fraction_form(frac.coh(k)), (order, k)
            for i in range(new.betti(k)):
                assert new.h_rep_poly(k, i) == frac.h_rep_poly(k, i)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coh_independent_of_call_order(name):
    """d out of degree k is eliminated by whichever of coh(k), coh(k+1)
    comes first and handed to the other, cleared or not, so the order
    cannot matter."""
    P = CASES[name]()
    up, down, alt = (walked(P, order) for order in ORDERS)
    for k in range(P.formal_dimension + 2):
        a = up.coh(k)
        for b in (down.coh(k), alt.coh(k)):
            assert (a.im.pivots, a.im.wits, a.quo.pivots, a.quo.wits, a.h_rows) == \
                (b.im.pivots, b.im.wits, b.quo.pivots, b.quo.wits, b.h_rows)
    assert not up._ker_wits and not down._ker_wits and not alt._ker_wits


@pytest.mark.parametrize("name", sorted(CASES) + ["filiform(12)"])
def test_cleared_rows_are_the_relations_that_die(name):
    """Upward, the rows of d(k) never built are exactly the own rows of
    the old route's relations that reduce to 0 modulo Im d(k-1)."""
    P = CASES[name]() if name in CASES else preset(name)
    eng, old = cdga._Engine(P), OldEngine(P)
    built = set()
    d_row = eng.d_row

    def recording(mono, k):
        built.add((k, mono))
        return d_row(mono, k)

    eng.d_row = recording
    top = P.formal_dimension + 1
    for k in range(top + 1):
        eng.coh(k)
    for k in range(top + 1):
        skipped = {i for i, m in enumerate(eng.basis(k)) if (k, m) not in built}
        data = old.coh(k)
        quo = FracEchelon({c: row for c, (row, _) in data.im_pivots.items()})
        dying = {max(w) for w in old.kernels[k] if quo.insert(w) is None}
        assert skipped == dying, k
        assert len(skipped) == len(data.im_pivots)


@pytest.mark.parametrize("change", ["row added", "row removed"])
def test_wrong_clearing_set_is_inconsistent(monkeypatch, change):
    """A clearing set one row too large loses a class or a rank; one row
    too small keeps a relation that dies.  coh's counts catch both."""
    cleared = cdga._cleared

    def mutated(im, n):
        rows = cleared(im, n)
        if rows:
            if change == "row added":
                rows.add(min(set(range(n)) - rows))
            else:
                rows.remove(max(rows))
        return rows

    monkeypatch.setattr(cdga, "_cleared", mutated)
    eng = cdga._Engine(preset("filiform(8)"))
    with pytest.raises(Inconsistent, match=r"^b_2 = .* relations, but dim C\^2"):
        for k in range(10):
            eng.coh(k)


def test_each_degree_eliminated_once(monkeypatch):
    calls = []
    insert = cdga._Echelon.insert

    def counted(self, *args):
        calls.append(1)
        return insert(self, *args)

    monkeypatch.setattr(cdga._Echelon, "insert", counted)
    eng = cdga._Engine(preset("filiform(10)"))
    for k in range(11):
        eng.coh(k)
    # 2611 when coh(k) and coh(k+1) each eliminate d out of degree k, and
    # 1588 with every row of d built: clearing leaves 460 rows unbuilt
    assert len(calls) == 1128


@pytest.mark.parametrize("name", sorted(CASES))
def test_project_and_solve_d_match_old_loops(name):
    P, new, old = engines(name)
    for oracle in (old, FracEngine(P)):
        for k in range(P.formal_dimension + 1):
            for z in cochains(new, k):
                assert project(new, z, k) == oracle.project(z, k)
            for x in exact_cochains(new, k):
                assert new.solve_d(x, k) == oracle.solve_d(x, k)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_failures(name):
    P, new, old = engines(name)
    frac = FracEngine(P)
    for k in range(1, P.formal_dimension + 1):
        basis = new.basis(k)
        for i in range(new.betti(k)):
            poly = new.h_rep_poly(k, i)
            for eng in (new, old, frac):
                with pytest.raises(Inconsistent, match="not exact"):
                    eng.solve_d(poly, k)
        bad = {c: _F1 for c in range(len(basis))
               if c not in new.coh(k).quo.pivots}
        if bad:
            for call in (partial(project, new), old.project, frac.project):
                with pytest.raises(Inconsistent, match="escaped"):
                    call(bad, k)


@pytest.mark.parametrize("name", sorted(CASES))
def test_invariants(name):
    P, eng, _ = engines(name)
    dpolys, degrees = eng.dpolys, eng.degrees
    for k in range(P.formal_dimension + 1):
        basis = eng.basis(k)
        rows = [eng.d_row(m, k) for m in basis]
        for wit in cdga._kernel(rows):
            poly = {basis[c]: v for c, v in wit.items()}
            assert cdga._d_poly(poly, dpolys, degrees) == {}
        data = eng.coh(k)
        for c, row in data.quo.pivots.items():
            wit = data.im.wits.get(c, {})
            assert row[c] > 0 and gcd(*row.values(), *wit.values()) == 1
        for i, rep in enumerate(data.h_rows):
            assert project(eng, rational(rep, rep[min(rep)]), k) == {i: _F1}
        for x in exact_cochains(eng, k):
            w = eng.solve_d(x, k)
            assert cdga._d_poly(w, dpolys, degrees) == x


def test_engine_holds_only_ints():
    P = preset("filiform(10)")
    obstruction(P, 2)
    eng = P._engine
    echs = [e for data in eng._coh.values() for e in (data.im, data.quo)]
    echs += list(eng._d_echs.values())
    echs += [e for spans in eng._spans.values() for e in spans.values() if e]
    assert len(echs) > 20
    for ech in echs:
        for row in (*ech.pivots.values(), *ech.wits.values()):
            assert all(type(v) is int for v in row.values())


# The j = 2 tower of a nilmanifold never reaches a fixed point once its
# presentation's shortcut is bypassed (each stage adds more degree-2
# generators), so that tower is compared over its first stages.
STAGES = {1: 32, 2: 3}


def tower_adds(P, j, stage):
    """The adds of _tower's stages, without its minimal shortcut."""
    degree_cap = max(P.formal_dimension, j)
    gens, diffs, psi = [], {}, {}
    model = CdgaPresentation(gens, diffs, P.formal_dimension)
    out = []
    for _ in range(STAGES[j]):
        adds = stage(P, model, psi, j)
        out.append(adds)
        if not adds or any(a[1] > degree_cap for a in adds):
            break
        for name, degree, dpoly, image in adds:
            gens.append((name, degree))
            if dpoly:
                diffs[name] = dpoly
            psi[name] = image
        model = CdgaPresentation(gens, diffs, P.formal_dimension)
    return out


@pytest.mark.parametrize("j", (1, 2))
@pytest.mark.parametrize("name", sorted(CASES))
def test_tower_stage_adds_match(name, j):
    P = CASES[name]()
    want = tower_adds(P, j, old_tower_stage)
    assert tower_adds(P, j, frac_tower_stage) == want
    assert tower_adds(P, j, cdga._tower_stage) == want
    model, psi = P, cdga._identity_map(P)
    want = old_tower_stage(P, model, psi, j)
    assert frac_tower_stage(P, model, psi, j) == want
    assert cdga._tower_stage(P, model, psi, j) == want
