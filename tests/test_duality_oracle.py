"""The Poincare-duality check against its cup-product oracle.

`cdga._check_poincare_duality` reads every pairing entry off one
top-degree functional phi (`_top_functional`) and contracts each
representative monomial against supp phi (`_pairing_rows`, on the
integer representative rows, each entry divided once).  The route
it replaced formed each entry as a full cup product, projected into the
H^{2n} basis; that route is kept here, unchanged, as the oracle.  The
two must give the same pairing matrix entry by entry and raise the same
exception with the same message.  `_pairing_rows` itself sums each
entry over a column index of the complementary rows; its earlier body,
one dot product for every pair of classes, is kept here too
(`dot_pairing_rows`), and the two must give the same rows, values and
key order alike.
"""

import gc
import weakref
from fractions import Fraction
from math import lcm

import pytest

from zzcalc import cdga
from zzcalc.cdga import CdgaPresentation, d_jk, obstruction, preset
from zzcalc.errors import NoPoincareDuality


def oracle_rows(eng, k, n2):
    """Pairing rows {l: coordinate of the cup product} from cup_coords."""
    rows = []
    for i in range(eng.betti(k)):
        row = {}
        for l in range(eng.betti(n2 - k)):
            coords = eng.cup_coords(k, i, n2 - k, l)
            if coords:
                row[l] = coords[0]
        rows.append(row)
    return rows


def dot_pairing_rows(eng, phi, k, n2, contractions):
    """The replaced _pairing_rows: entry (i, l) as a dot product of
    rep_i's dual terms with rep_l, for every pair (i, l)."""
    den = lcm(*(v.denominator for v in phi.values()))
    phi = {m: v.numerator * (den // v.denominator) for m, v in phi.items()}
    basis, idx = eng.basis(k), eng.bindex(n2 - k)
    others = eng.coh(n2 - k).h_rows
    leads = [row[min(row)] for row in others]
    rows = []
    for rep in eng.coh(k).h_rows:
        dual = {}
        for c1, x1 in rep.items():
            m1 = basis[c1]
            terms = contractions.get(m1)
            if terms is None:
                terms = contractions[m1] = [
                    (idx[m2], v) for m2, v in cdga._contract(m1, phi, eng.degrees)]
            for c2, v in terms:
                dual[c2] = dual.get(c2, 0) + x1 * v
        scale = rep[min(rep)] * den
        row = {}
        for l, other in enumerate(others):
            val = sum(x2 * dual[c2] for c2, x2 in other.items() if c2 in dual)
            if val:
                row[l] = Fraction(val, scale * leads[l])
        rows.append(row)
    return rows


def oracle_check(P):
    """The replaced duality check: every entry a full cup product."""
    eng = cdga._engine(P)
    n2 = P.formal_dimension
    if eng.betti(n2) != 1:
        raise NoPoincareDuality(
            f"b_{n2} = {eng.betti(n2)}, expected 1")
    for k in range(n2 // 2 + 1):
        bk = eng.betti(k)
        bo = eng.betti(n2 - k)
        if bk != bo:
            raise NoPoincareDuality(
                f"b_{k} = {bk} but b_{n2 - k} = {bo}")
        ech = cdga._Echelon()
        for row in oracle_rows(eng, k, n2):
            if row:
                ech.insert(cdga._ints(row)[0])
        if ech.rank != bk:
            raise NoPoincareDuality(
                f"cup pairing degenerate in degrees ({k}, {n2 - k})")


def _submul(z, prow, coef, skip):
    for cc, v in prow.items():
        if cc == skip:
            continue
        nv = z.get(cc, Fraction(0)) - coef * v
        if nv:
            z[cc] = nv
        else:
            z.pop(cc, None)


def lead_one_pivots(ech):
    """An echelon's pivot rows over Q, each divided by its lead."""
    return {c: {cc: Fraction(v, row[c]) for cc, v in row.items()}
            for c, row in ech.pivots.items()}


def phi_by_reduction(eng, n2):
    """phi(e_c) by reducing each unit row, free columns dropped."""
    data = eng.coh(n2)
    im, quo = lead_one_pivots(data.im), lead_one_pivots(data.quo)
    out = {}
    for c, mono in enumerate(eng.basis(n2)):
        z = {c: Fraction(1)}
        val = Fraction(0)
        while z:
            lead = min(z)
            coef = z.pop(lead)
            if lead in im:
                _submul(z, im[lead], coef, lead)
            elif lead in quo:
                val += coef
                _submul(z, quo[lead], coef, lead)
        if val:
            out[mono] = val
    return out


def s2xs2():
    return CdgaPresentation(
        [("x", 2), ("a", 2), ("y", 3), ("z", 3)],
        {"y": "x^2", "z": "a^2"}, 4)


def sheared_s2xs2():
    """C^4 = <a^2, a*x, x^2> with a^2 and a*x + x^2 exact: |supp phi| = 2."""
    return CdgaPresentation(
        [("a", 2), ("x", 2), ("y", 3), ("z", 3)],
        {"y": "a^2", "z": "a*x+x^2"}, 4)


def degenerate_pairing():
    return CdgaPresentation(
        [("x", 2), ("y", 2), ("z", 3), ("w", 3)],
        {"z": "x^2", "w": "x*y"}, 4)


def betti_mismatch():
    return CdgaPresentation([("a", 1), ("x", 4)], {}, 4)


CASES = {
    **{name: (lambda name=name: preset(name)) for name in (
        "filiform(4)", "filiform(6)", "filiform(8)", "filiform(10)",
        "iwasawa", "nil_m1", "ex_k2_M", "ex_k2_M_variant")},
    "torus(2,2)": lambda: CdgaPresentation(
        [("a0", 1), ("a1", 1)], {}, 2),
    "CP2": lambda: CdgaPresentation(
        [("y", 2), ("z", 5)], {"z": "y^3"}, 4),
    "S2xS2": s2xs2,
    "sheared S2xS2": sheared_s2xs2,
    "degenerate pairing": degenerate_pairing,
    "betti mismatch": betti_mismatch,
}


def outcome(check, P):
    try:
        check(P)
    except NoPoincareDuality as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_pairing_matrix_matches_cup_products(name):
    P = CASES[name]()
    eng = cdga._engine(P)
    n2 = P.formal_dimension
    assert eng.betti(n2) == 1
    phi = cdga._top_functional(eng, n2)
    assert phi == phi_by_reduction(eng, n2)
    contractions = {}
    for k in range(n2 + 1):
        if eng.betti(k) != eng.betti(n2 - k):
            continue
        assert cdga._pairing_rows(eng, phi, k, n2, contractions) == \
            oracle_rows(eng, k, n2)


@pytest.mark.parametrize("name", sorted(CASES) + ["filiform(12)"])
def test_pairing_rows_match_dot_products(name):
    P = CASES[name]() if name in CASES else preset(name)
    eng = cdga._engine(P)
    n2 = P.formal_dimension
    phi = cdga._top_functional(eng, n2)
    new, old = {}, {}
    for k in range(n2 + 1):
        got = cdga._pairing_rows(eng, phi, k, n2, new)
        want = dot_pairing_rows(eng, phi, k, n2, old)
        assert [list(row.items()) for row in got] == \
            [list(row.items()) for row in want]
    assert new == old


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_verdict_and_message(name):
    expected = outcome(oracle_check, CASES[name]())
    assert outcome(cdga._check_poincare_duality, CASES[name]()) == expected


def test_both_failure_branches_are_covered():
    assert outcome(cdga._check_poincare_duality, degenerate_pairing()) == (
        NoPoincareDuality, "cup pairing degenerate in degrees (2, 2)")
    assert outcome(cdga._check_poincare_duality, betti_mismatch()) == (
        NoPoincareDuality, "b_1 = 1 but b_3 = 0")


def test_phi_support_beyond_one_monomial():
    for make, size in ((s2xs2, 1), (sheared_s2xs2, 2)):
        P = make()
        eng = cdga._engine(P)
        assert len(eng.basis(4)) == 3
        assert len(cdga._top_functional(eng, 4)) == size


def test_forms_no_cup_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the duality check formed a cup product")

    monkeypatch.setattr(cdga, "_poly_mul", forbidden)
    monkeypatch.setattr(cdga._Engine, "cup_coords", forbidden)
    for name in ("filiform(8)", "S2xS2", "sheared S2xS2"):
        cdga._check_poincare_duality(CASES[name]())


def test_obstruction_forms_no_rational_representative(monkeypatch):
    """The pairing and the cup subalgebra run on the integer h_rows."""
    def forbidden(*args):
        raise AssertionError("a representative was formed over Fractions")

    monkeypatch.setattr(cdga._Engine, "h_rep_poly", forbidden)
    report = obstruction(preset("filiform(8)"), 2)
    assert {k: (row.r_jk, row.d_jk) for k, row in report.rows.items()} == {
        3: (8, 2), 4: (10, 5), 5: (8, 1), 6: (4, 2), 7: (2, 0), 8: (1, 1)}
    # filiform(12)'s representatives have leads up to 429, and its span
    # vectors mix classes of different leads, so a lift that skipped the
    # lcm(leads) / lead scaling would change these
    P = preset("filiform(12)")
    assert [d_jk(P, 2, k) for k in range(13)] == [
        1, 2, 6, 4, 13, 6, 12, 4, 7, 1, 2, 0, 1]
    assert [d_jk(P, 3, k) for k in range(13)] == [
        1, 2, 6, 18, 19, 37, 44, 30, 24, 13, 5, 1, 1]


def test_engine_freed_with_presentation():
    gc.collect()
    gc.disable()
    try:
        P = preset("filiform(8)")
        obstruction(P, 1)
        obstruction(P, 2)
        ref = weakref.ref(P._engine)
        del P
        assert ref() is None
    finally:
        gc.enable()

