"""Verdicts built on the d/dc long exact sequence.

The sequence in question is

    ... -> H^k(Ker dc) --(i+pi)--> H^k_d (+) H^k_dc --(p-j)-->
           H^k(A/Im dc) --delta--> H^{k+1}(Ker dc) -> ...

Every rank is computed from explicit subspaces of the total-degree
pieces, treating a quotient as a numerator/denominator pair:

    n1_k         = dim(Ker d ^ Ker dc)^k - dim(d Ker dc)^k
    n3_k         = dim d^{-1}(Im dc)^k - dim(Im d + Im dc)^k
    rank delta_k = dim(Im d ^ Im dc + d Ker dc)^{k+1} - dim(d Ker dc)^{k+1}
    Ker(i+pi)_k  = (Im d ^ Im dc + dK)/dK,  dK = d Ker dc
    rank(p-j)_k  = dim(Ker d + Ker dc)^k - dim(Im d + Im dc)^k

(delta sends [a] to [da], which lands in Ker dc because d(Ker dc) and
Im dc both sit inside Ker dc; p-j is onto the span of the d- and
dc-cohomology classes.)  Exactness is then double-checked by
bookkeeping: the rank of each map must equal the dimension of its
source minus the rank of the map before it.  Im d ^ Im dc lies in
Ker d ^ Ker dc, so Ker(i+pi)_k is the numerator of rank delta_{k-1}
over the same dK, and the check on i+pi holds by construction.

The ddc and ddc+3 verdicts are decided by several routes that theorems
declare equivalent; the routes are always all evaluated and compared.
A disagreement raises CharacterizationMismatch and means a bug in this
library, never a property of the input.

Each report is a dataclass written to JSON by the one report encoder in
`functors`; Ddc3Report adds its `holds` verdict.
"""

from dataclasses import dataclass
from typing import Optional

from .bicomplex import shape_degree_span, shape_to_json
from .decomposition import multiplicities
from .errors import CharacterizationMismatch, Inconsistent, InvalidInput
from .functors import (
    _encode,
    _tc,
    cohomology,
    purity_defect,
    refined_betti,
    spectral_page,
)
from .linalg import _reduce, format_scalar, subspace_intersect, subspace_sum

__all__ = [
    "LesRow",
    "LesReport",
    "Ddc3Report",
    "NumericReport",
    "PurityReport",
    "les",
    "check_ddc",
    "check_ddc3",
    "numeric_report",
    "purity_diagram",
    "j_controlled",
    "ell",
]


# ---------------------------------------------------------------------------
# The long exact sequence


@dataclass
class LesRow:
    """One degree of the sequence: the four dimensions and three ranks."""

    h_ker_dc: int
    betti: int
    h_dc: int
    h_coim_dc: int
    rank_delta: int
    rank_incl: int
    rank_proj: int

    to_json = _encode


@dataclass
class LesReport:
    rows: dict
    exact: bool

    to_json = _encode

    def degrees(self):
        return sorted(self.rows)


def _kd_cap_imd(tc, k):
    return tc._get(
        ("kd_imd", k),
        lambda: subspace_intersect(tc.kerd_cap_kerdc(k), tc.im_d(k)),
    )


def _kd_cap_imdc(tc, k):
    return tc._get(
        ("kd_imdc", k),
        lambda: subspace_intersect(tc.kerd_cap_kerdc(k), tc.im_dc(k)),
    )


def _mod_dim(space, denom):
    """dim((space + denom)/denom)."""
    return subspace_sum(space, denom).dim - denom.dim


def les(A):
    """The long exact sequence report, with exactness bookkeeping."""
    tc = _tc(A)
    rows = {}
    for k in tc.degrees():
        n1 = tc.h_ker_dc(k)
        rows[k] = LesRow(
            h_ker_dc=n1,
            betti=tc.betti(k),
            h_dc=tc.h_dc(k),
            h_coim_dc=tc.h_coim_dc(k),
            rank_delta=_mod_dim(tc.imd_cap_imdc(k + 1), tc.d_ker_dc(k + 1)),
            rank_incl=n1 - _mod_dim(tc.imd_cap_imdc(k), tc.d_ker_dc(k)),
            rank_proj=subspace_sum(tc.ker_d(k), tc.ker_dc(k)).dim
            - tc.imd_plus_imdc(k).dim,
        )
    exact = True
    for k, row in rows.items():
        prev = rows[k - 1].rank_delta if k - 1 in rows else 0
        coker_in = row.h_ker_dc - prev
        exact = exact and (
            row.rank_incl == coker_in
            and row.rank_proj == row.betti + row.h_dc - row.rank_incl
            and row.rank_delta == row.h_coim_dc - row.rank_proj
            and coker_in + (row.h_coim_dc - row.rank_delta) == 2 * row.betti
        )
    return LesReport(rows, exact)


# ---------------------------------------------------------------------------
# ddc and ddc+3


def check_ddc(A):
    """True when the complex is a sum of dots and squares only."""
    return all(s.kind in ("dot", "square") for s, _ in multiplicities(A))


@dataclass
class Ddc3Report:
    """Six verdicts for the same condition, plus the failure data.

    c1: every connecting map delta_k vanishes
    c2: only dots, squares and length-3 zigzags occur
    c3: Im d ^ Im dc <= d(Ker dc) in every degree
    c4: sum of dim H^k(Ker dc) + dim H^k(A/Im dc) equals 2 sum b_k
    c5: the square of cohomologies is bicartesian (the sequence splits
        into short exact pieces: i+pi injective and p-j surjective)
    c6: both spectral sequences degenerate at the first page and the
        purity defect is at most 1
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    c6: bool
    agree: bool
    witness: Optional[dict]
    pdef: int
    e1_degenerate: bool

    @property
    def holds(self):
        return self.c1

    def to_json(self):
        return {"holds": self.holds, **_encode(self)}


def _e1_degenerate_both(tc):
    total = sum(tc.betti(k) for k in tc.degrees())
    return (
        spectral_page(tc, "column", 1).sum_dims() == total
        and spectral_page(tc, "row", 1).sum_dims() == total
    )


def _c3_witness(tc, rows):
    """First degree and vector with x in Im d ^ Im dc but not d(Ker dc)."""
    for k in sorted(rows):
        dk = tc.d_ker_dc(k).rows
        cap = tc.imd_cap_imdc(k)
        for i, row in enumerate(cap.rows):
            if _reduce(dk, row):
                return {
                    "degree": k,
                    "element": [format_scalar(x) for x in cap.basis[i]],
                }
    raise Inconsistent("ddc+3 fails but no degree violates Im d ^ Im dc <= d Ker dc")


def check_ddc3(A):
    """Decide the ddc+3 condition by all six characterizations."""
    tc = _tc(A)
    report = les(tc)
    rows = report.rows
    table = multiplicities(tc)
    pd = purity_defect(tc)[1]
    e1 = _e1_degenerate_both(tc)

    c1 = all(r.rank_delta == 0 for r in rows.values())
    c2 = all(s.kind != "zigzag" or s.length == 3 for s, _ in table)
    c3 = all(
        tc.d_ker_dc(k).contains_subspace(tc.imd_cap_imdc(k)) for k in rows
    )
    c4 = sum(r.h_ker_dc + r.h_coim_dc for r in rows.values()) == 2 * sum(
        r.betti for r in rows.values()
    )
    c5 = all(
        r.rank_incl == r.h_ker_dc and r.rank_proj == r.h_coim_dc
        for r in rows.values()
    )
    c6 = e1 and pd <= 1

    verdicts = (c1, c2, c3, c4, c5, c6)
    if any(verdicts) != all(verdicts):
        raise CharacterizationMismatch(
            "ddc+3 characterizations disagree: "
            f"c1..c6 = {verdicts}"
        )

    witness = None
    if not c1:
        witness = _c3_witness(tc, rows)
        bad = next(
            s for s, _ in table if s.kind == "zigzag" and s.length != 3
        )
        witness["shape"] = shape_to_json(bad)
    return Ddc3Report(
        c1, c2, c3, c4, c5, c6,
        agree=True,
        witness=witness,
        pdef=pd,
        e1_degenerate=e1,
    )


# ---------------------------------------------------------------------------
# The dimension chain


@dataclass
class NumericReport:
    """The seven cohomology totals and the three inequality slacks."""

    h_bc: int
    h_a: int
    h_ker_dc: int
    h_coim_dc: int
    h_dolbeault: int
    h_conj_dolbeault: int
    sum_betti: int
    slacks: tuple
    equalities: tuple

    to_json = _encode


def numeric_report(A):
    """The chain h_BC + h_A >= h_ker + h_coim >= h_dol + h_conj >= 2 sum b.

    Each slack is cross-checked against the structural condition that
    characterizes its vanishing: purity defect 0 for the first, no
    zigzags longer than 3 for the middle, degeneration at the first
    page of both spectral sequences for the last.
    """
    tc = _tc(A)
    h_bc = cohomology(tc, "bott_chern").sum_dims()
    h_a = cohomology(tc, "aeppli").sum_dims()
    h_ker = cohomology(tc, "ker_dc").sum_dims()
    h_coim = cohomology(tc, "coim_dc").sum_dims()
    h_dol = cohomology(tc, "dolbeault").sum_dims()
    h_conj = cohomology(tc, "conj_dolbeault").sum_dims()
    sb = sum(tc.betti(k) for k in tc.degrees())

    slacks = (
        h_bc + h_a - h_ker - h_coim,
        h_ker + h_coim - h_dol - h_conj,
        h_dol + h_conj - 2 * sb,
    )
    if min(slacks) < 0:
        raise Inconsistent(f"dimension chain violated: slacks {slacks}")

    table = multiplicities(tc)
    structural = (
        purity_defect(tc)[1] == 0,
        all(s.kind != "zigzag" or s.length <= 3 for s, _ in table),
        _e1_degenerate_both(tc),
    )
    for slack, cond in zip(slacks, structural):
        if (slack == 0) != cond:
            raise Inconsistent(
                f"equality cases disagree with structure: slacks {slacks}, "
                f"structural {structural}"
            )
    return NumericReport(
        h_bc, h_a, h_ker, h_coim, h_dol, h_conj, sb,
        slacks=slacks,
        equalities=tuple(s == 0 for s in slacks),
    )


# ---------------------------------------------------------------------------
# Purity obstruction groups


@dataclass
class PurityReport:
    """Obstruction groups and the ranks of phi and psi per degree.

    phi: H_BC^k -> H^k(Ker dc) is onto with kernel the upper group;
    psi: H^k(A/Im dc) -> H_A^k is injective with cokernel the lower
    group.  `pure` is the common verdict of the four equivalent purity
    conditions.
    """

    upper: dict
    lower: dict
    phi_ranks: dict
    psi_ranks: dict
    pure: bool

    to_json = _encode


def _by_total_degree(dims):
    out = {}
    for (p, q), v in dims.items():
        out[p + q] = out.get(p + q, 0) + v
    return out


def purity_diagram(A):
    """Obstruction-group dims, phi/psi ranks, and the purity verdict."""
    tc = _tc(A)
    upper = cohomology(tc, "purity_upper").dims
    lower = cohomology(tc, "purity_lower").dims
    n1 = cohomology(tc, "ker_dc").dims
    n3 = cohomology(tc, "coim_dc").dims
    bc = _by_total_degree(cohomology(tc, "bott_chern").dims)
    ae = _by_total_degree(cohomology(tc, "aeppli").dims)

    for k in tc.degrees():
        if bc.get(k, 0) != upper.get(k, 0) + n1.get(k, 0):
            raise CharacterizationMismatch(
                f"h_BC^{k} != dim upper group + dim H^{k}(Ker dc)"
            )
        if ae.get(k, 0) != lower.get(k, 0) + n3.get(k, 0):
            raise CharacterizationMismatch(
                f"h_A^{k} != dim H^{k}(A/Im dc) + dim lower group"
            )

    verdicts = (
        purity_defect(tc)[1] == 0,
        all(p + q == k for (p, q, k) in refined_betti(tc)),
        not upper and not lower,
        bc == n1 and ae == n3,
    )
    if any(verdicts) != all(verdicts):
        raise CharacterizationMismatch(
            f"purity characterizations disagree: {verdicts}"
        )
    return PurityReport(upper, lower, n1, n3, pure=verdicts[0])


# ---------------------------------------------------------------------------
# j-controlled complexes and the kernel sizes ell_k


def ell(A):
    """dim Ker H^k(i) per degree, checked against dim Ker H^k(I.pi)."""
    tc = _tc(A)
    out = {}
    for k in tc.degrees():
        dk = tc.d_ker_dc(k)
        via_d = _mod_dim(_kd_cap_imd(tc, k), dk)
        via_dc = _mod_dim(_kd_cap_imdc(tc, k), dk)
        if via_d != via_dc:
            raise CharacterizationMismatch(
                f"kernel symmetry fails in degree {k}: "
                f"dim Ker H(i) = {via_d}, dim Ker H(I.pi) = {via_dc}"
            )
        out[k] = via_d
    return out


def _shape_allowed(shape, j):
    if shape.kind != "zigzag":
        return True
    lo = shape_degree_span(shape)[0]
    if lo > j:
        return True
    return lo == j and shape.length == 3 and shape.orientation == "out"


def j_controlled(A, j):
    """Whether H^s(i) is an isomorphism for s <= j and the pair
    (H^{j+1}(i), H^{j+1}(I.pi)) is jointly injective.

    Decided twice: literally on the maps, and by a census of the
    multiplicity table (no zigzags of length >= 2 below degree j, and
    at degree j only outgoing length-3 ones).
    """
    if j < 0:
        raise InvalidInput("j must be >= 0")
    tc = _tc(A)
    ells = ell(tc)
    degs = tc.degrees()

    by_maps = True
    if degs:
        for s in range(min(degs), min(j, max(degs)) + 1):
            if ells.get(s, 0) != 0 or tc.h_ker_dc(s) != tc.betti(s):
                by_maps = False
                break
        if by_maps and min(degs) <= j + 1 <= max(degs):
            dk = tc.d_ker_dc(j + 1)
            ker_i = subspace_sum(_kd_cap_imd(tc, j + 1), dk)
            ker_pi = subspace_sum(_kd_cap_imdc(tc, j + 1), dk)
            by_maps = subspace_intersect(ker_i, ker_pi).dim == dk.dim

    by_census = all(_shape_allowed(s, j) for s, _ in multiplicities(tc))
    if by_maps != by_census:
        raise CharacterizationMismatch(
            f"j-controlled routes disagree at j = {j}: "
            f"maps say {by_maps}, zigzag census says {by_census}"
        )
    return by_maps
