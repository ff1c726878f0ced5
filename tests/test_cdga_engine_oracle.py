"""The cdga eliminations against the hand-written loops they replaced.

Every elimination in `cdga` is a call on `_Echelon`: Im d with preimage
witnesses, Ker d with unit witnesses (`_kernel`), H^k as kernel vectors
reduced through Im d, `project`, `solve_d` and the kernel of a tower
stage.  Before that, each was its own pivot walk; those walks are kept
here, unchanged, as the oracle.  Both make the same row operations in
the same order, so pivots, witnesses, representatives, coordinates,
primitives and tower adds must agree exactly.  (The old coh also
eliminates d out of degree k twice, where the engine shares one pass
between coh(k) and coh(k+1).)
"""

import itertools
from fractions import Fraction

import pytest

from zzcalc import cdga
from zzcalc.cdga import CdgaPresentation, preset
from zzcalc.errors import Inconsistent

from test_duality_oracle import s2xs2, sheared_s2xs2

_F0 = cdga._F0
_F1 = cdga._F1
_submul = cdga._submul


class OldCohData:
    __slots__ = ("im_pivots", "h_rows", "h_pivots")

    def __init__(self, im_pivots, h_rows, h_pivots):
        self.im_pivots = im_pivots
        self.h_rows = h_rows
        self.h_pivots = h_pivots


class OldEngine(cdga._Engine):
    """The engine with the replaced coh, project and solve_d.

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
        span = cdga._Echelon()
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


CASES = {
    **{name: (lambda name=name: preset(name)) for name in (
        "filiform(4)", "filiform(6)", "filiform(8)", "filiform(10)",
        "iwasawa", "nil_m1", "ex_k2_M", "ex_k2_M_variant")},
    "CP2": lambda: CdgaPresentation(
        [("y", 2), ("z", 5)], {"z": "y^3"}, 4),
    "S2xS2": s2xs2,
    "sheared S2xS2": sheared_s2xs2,
}


def engines(name):
    P = CASES[name]()
    return P, cdga._Engine(P), OldEngine(P)


def new_h_pivots(data):
    return {c: i for c, wit in data.quo.wits.items() for i in wit}


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
    for k in range(P.formal_dimension + 2):
        got, want = new.coh(k), old.coh(k)
        assert {c: (row, got.im.wits[c])
                for c, row in got.im.pivots.items()} == want.im_pivots
        assert got.h_rows == want.h_rows
        assert new_h_pivots(got) == want.h_pivots
        rows = [new.d_row(m, k) for m in new.basis(k)]
        assert cdga._kernel(rows) == old.kernels[k]


@pytest.mark.parametrize("name", sorted(CASES))
def test_coh_independent_of_call_order(name):
    """d out of degree k is eliminated by whichever of coh(k), coh(k+1)
    comes first and handed to the other, so the order cannot matter."""
    P = CASES[name]()
    up, down = cdga._Engine(P), cdga._Engine(P)
    top = P.formal_dimension + 1
    for k in reversed(range(top + 1)):
        down.coh(k)
    for k in range(top + 1):
        a, b = up.coh(k), down.coh(k)
        assert (a.im.pivots, a.im.wits, a.h_rows) == (b.im.pivots, b.im.wits, b.h_rows)
    assert not up._ker_wits and not down._ker_wits


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
    # 2611 when coh(k) and coh(k+1) each eliminate d out of degree k
    assert len(calls) == 1588


@pytest.mark.parametrize("name", sorted(CASES))
def test_project_and_solve_d_match_old_loops(name):
    P, new, old = engines(name)
    for k in range(P.formal_dimension + 1):
        for z in cochains(new, k):
            assert new.project(z, k) == old.project(z, k)
        for x in exact_cochains(new, k):
            assert new.solve_d(x, k) == old.solve_d(x, k)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_failures(name):
    P, new, old = engines(name)
    for k in range(1, P.formal_dimension + 1):
        basis = new.basis(k)
        for i in range(new.betti(k)):
            poly = new.h_rep_poly(k, i)
            for eng in (new, old):
                with pytest.raises(Inconsistent, match="not exact"):
                    eng.solve_d(poly, k)
        bad = {c: _F1 for c in range(len(basis))
               if c not in new.coh(k).quo.pivots}
        if bad:
            for eng in (new, old):
                with pytest.raises(Inconsistent, match="escaped"):
                    eng.project(bad, k)


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
        for i, rep in enumerate(eng.coh(k).h_rows):
            assert eng.project(rep, k) == {i: _F1}
        for x in exact_cochains(eng, k):
            w = eng.solve_d(x, k)
            assert cdga._d_poly(w, dpolys, degrees) == x


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
    assert tower_adds(P, j, cdga._tower_stage) == \
        tower_adds(P, j, old_tower_stage)
    model, psi = P, cdga._identity_map(P)
    assert cdga._tower_stage(P, model, psi, j) == \
        old_tower_stage(P, model, psi, j)
