"""Cohomological functors of a bicomplex, computed exactly.

Everything here is derived from first-principles subspace formulas on
the total complex (or on single bidegrees for the bigraded functors),
never from a decomposition into indecomposables.  That independence is
what lets the decomposition module be checked against this one.

Total-degree functors and their defining formulas, all in degree k:

    deRham          Ker d / Im d
    ker_dc          (Ker d ∩ Ker dc) / d(Ker dc)
    coim_dc         d^{-1}(Im dc) / (Im d + Im dc)
    purity_upper    d(Ker dc) / Im ddc
    purity_lower    Ker ddc / d^{-1}(Im dc)

Bigraded functors at (p,q):

    dolbeault       Ker delbar / Im delbar
    conj_dolbeault  Ker del / Im del
    bott_chern      (Ker del ∩ Ker delbar) / Im del*delbar
    aeppli          Ker del*delbar / (Im del + Im delbar)

Here dc = i(delbar - del), so d dc = 2i del delbar and the total-degree
descriptions of Bott-Chern and Aeppli used elsewhere agree with the
bigraded ones.  Each bigraded dimension is dim A^{p,q} less the ranks
of the maps out and in, each cached once on the TotalComplex: del,
delbar, both stacked (kernel Ker del ∩ Ker delbar) and del*delbar and
delbar*del out of (p,q), and del and delbar into it side by side (image
Im del + Im delbar).  An absent block, or a product with one, has rank 0
and is never built.

The filtrations F^p (blocks with p >= level) and Fbar^q (q >= level)
are coordinate index lists.  Both spectral sequences and both Hodge
filtrations come from one persistence pairing of d per axis (p for the
column sequence, q for the row sequence, on the same total complex):
the columns of d, fed by falling level into one witness-carrying
elimination over the next degree's coordinates by rising level, each
end with a lead, the lowest level their reduced image reaches, or
reduce to 0.  A column of level a with lead at level t pairs two
coordinates and counts one rank of d_{t-a}; page r at a position is
its dimension less the pairs of jump below r that start or end there.
A column of level a that reduces to 0 leaves a cycle of level >= a,
its witness; those of level >= p span Ker d ∩ F^p modulo Im d.  One
elimination per degree turns the cycles of both axes into a basis of
H^k adapted to both Hodge filtrations (two filtrations of one space
always have one), so every filtration entry is a count of its classes.

Every report (here and in `conditions`) is a dataclass whose to_json is
one encoder: its fields by name, dict keys written as "k", "p,q" or
"p,q,k" by the key function of the bicomplex JSON, tuples as lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .bicomplex import (
    Bicomplex,
    _pq_key,
    dc as _dc_matrix,
    degree_blocks,
    total_d,
    transpose_bicomplex,  # unused here; bench/tracing.py rebinds this name
)
from .errors import Inconsistent, InvalidInput
from .linalg import (
    _Echelon,
    _as_pairs,
    _echelon,
    _is_pairs,
    _product,
    _tidy,
    apply_matrix,
    image_basis,
    kernel_basis,
    preimage,
    subspace_intersect,
    subspace_sum,
)

__all__ = [
    "BIGRADED_FUNCTORS",
    "TOTAL_FUNCTORS",
    "FUNCTORS",
    "CohomologyTable",
    "FiltrationTable",
    "SpectralPage",
    "TotalComplex",
    "cohomology",
    "betti",
    "hodge_filtration",
    "refined_betti",
    "spectral_page",
    "purity_defect",
    "star_condition",
]

BIGRADED_FUNCTORS = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")
TOTAL_FUNCTORS = ("deRham", "ker_dc", "coim_dc", "purity_upper", "purity_lower")
FUNCTORS = TOTAL_FUNCTORS + BIGRADED_FUNCTORS


class TotalComplex:
    """Cached total-degree view of a bicomplex.

    Blocks in degree k are ordered by increasing p.  All subspaces live
    in the block-coordinate ambient of their total degree.
    """

    def __init__(self, A):
        if not isinstance(A, Bicomplex):
            raise InvalidInput("expected a Bicomplex")
        self.A = A
        degs = A.degrees()
        self.min_deg = degs[0] if degs else 0
        self.max_deg = degs[-1] if degs else -1
        self._blocks = {}
        self._cache = {}

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)

    def blocks(self, k):
        if k not in self._blocks:
            self._blocks[k] = degree_blocks(self.A, k)
        return self._blocks[k]

    def dim(self, k):
        return sum(d for _, _, d in self.blocks(k))

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- matrices ----------------------------------------------------

    def d(self, k):
        return self._get(("d", k), lambda: total_d(self.A, k))

    def dc(self, k):
        return self._get(("dc", k), lambda: _dc_matrix(self.A, k))

    def ddc(self, k):
        return self._get(("ddc", k), lambda: self.d(k + 1) * self.dc(k))

    def rank(self, kind, p, q):
        """Rank of "del", "delbar", both stacked ("out"), "ddbar" =
        del*delbar or "dbard" = delbar*del out of A^{p,q}, or of del and
        delbar into it side by side ("in")."""
        return self._get(("rank", kind, p, q), lambda: _block_rank(self.A, kind, p, q))

    # -- basic subspaces in degree k ----------------------------------

    def ker_d(self, k):
        return self._get(("ker_d", k), lambda: kernel_basis(self.d(k)))

    def im_d(self, k):
        return self._get(("im_d", k), lambda: image_basis(self.d(k - 1)))

    def ker_dc(self, k):
        return self._get(("ker_dc", k), lambda: kernel_basis(self.dc(k)))

    def im_dc(self, k):
        return self._get(("im_dc", k), lambda: image_basis(self.dc(k - 1)))

    def ker_ddc(self, k):
        return self._get(("ker_ddc", k), lambda: kernel_basis(self.ddc(k)))

    def im_ddc(self, k):
        return self._get(("im_ddc", k), lambda: image_basis(self.ddc(k - 2)))

    # -- derived subspaces ---------------------------------------------

    def d_ker_dc(self, k):
        """d(Ker dc) landing in degree k."""
        return self._get(
            ("d_ker_dc", k),
            lambda: apply_matrix(self.d(k - 1), self.ker_dc(k - 1)),
        )

    def dinv_im_dc(self, k):
        """Preimage d^{-1}(Im dc) in degree k."""
        return self._get(
            ("dinv_im_dc", k),
            lambda: preimage(self.d(k), self.im_dc(k + 1)),
        )

    def kerd_cap_kerdc(self, k):
        return self._get(
            ("kk", k),
            lambda: subspace_intersect(self.ker_d(k), self.ker_dc(k)),
        )

    def imd_plus_imdc(self, k):
        return self._get(
            ("ii_sum", k),
            lambda: subspace_sum(self.im_d(k), self.im_dc(k)),
        )

    def imd_cap_imdc(self, k):
        return self._get(
            ("ii_cap", k),
            lambda: subspace_intersect(self.im_d(k), self.im_dc(k)),
        )

    # -- dimension shortcuts -------------------------------------------

    def betti(self, k):
        return self.ker_d(k).dim - self.im_d(k).dim

    def h_dc(self, k):
        return self.ker_dc(k).dim - self.im_dc(k).dim

    def h_ker_dc(self, k):
        return self.kerd_cap_kerdc(k).dim - self.d_ker_dc(k).dim

    def h_coim_dc(self, k):
        return self.dinv_im_dc(k).dim - self.imd_plus_imdc(k).dim

    def filtration(self):
        return self._get(("filtration",), lambda: _compute_filtration(self))


def _tc(A):
    return A if isinstance(A, TotalComplex) else TotalComplex(A)


def _encode(x):
    """The JSON form of a report: a dataclass as its fields by name, a
    dict with its keys as text ("k", "p,q" or "p,q,k"), a tuple as a
    list, and each part alike.  Every report's to_json is this."""
    if is_dataclass(x):
        return {f.name: _encode(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {_pq_key(key): _encode(v) for key, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_encode(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# Cohomology tables


@dataclass
class CohomologyTable:
    """Dimensions of one functor; only nonzero entries are stored.

    Keys are total degrees k for the total-graded functors and (p, q)
    pairs for the bigraded ones.
    """

    functor: str
    dims: dict

    to_json = _encode

    def sum_dims(self):
        return sum(self.dims.values())


def _block_rank(A, kind, p, q):
    de, db = A.del_maps.get, A.delbar_maps.get
    if kind == "in":
        rows = [c for M in (de((p - 1, q)), db((p, q - 1))) if M for c in M._columns()]
    elif kind in ("ddbar", "dbard"):
        M, N = (de((p, q + 1)), db((p, q))) if kind == "ddbar" else (db((p + 1, q)), de((p, q)))
        rows = _product(M.sparse, N.sparse) if M and N else []
    else:
        maps = {"del": (de,), "delbar": (db,), "out": (de, db)}[kind]
        rows = [r for get in maps if (M := get((p, q))) for r in M.sparse]
    return len(_echelon(rows)) if rows else 0  # blind to each block's denominator


def _bigraded_dims(tc, functor):
    """dim A^{p,q}, less the rank of the maps out and of the maps in."""
    rank = tc.rank
    dims = {}
    for (p, q), n in sorted(tc.A.spaces.items()):
        if functor == "dolbeault":
            d = n - rank("delbar", p, q) - rank("delbar", p, q - 1)
        elif functor == "conj_dolbeault":
            d = n - rank("del", p, q) - rank("del", p - 1, q)
        elif functor == "bott_chern":
            d = n - rank("out", p, q) - rank("ddbar", p - 1, q - 1)
        else:  # aeppli
            d = n - rank("ddbar", p, q) - rank("in", p, q)
        if d:
            dims[(p, q)] = d
    return dims


def _total_dims(tc, functor):
    dims = {}
    for k in tc.degrees():
        if functor == "deRham":
            d = tc.betti(k)
        elif functor == "ker_dc":
            d = tc.h_ker_dc(k)
        elif functor == "coim_dc":
            d = tc.h_coim_dc(k)
        elif functor == "purity_upper":
            d = tc.d_ker_dc(k).dim - tc.im_ddc(k).dim
        else:  # purity_lower
            d = tc.ker_ddc(k).dim - tc.dinv_im_dc(k).dim
        if d:
            dims[k] = d
    return dims


def cohomology(A, functor):
    """Dimension table of one cohomological functor of A."""
    if functor in FUNCTORS:
        dims = _bigraded_dims if functor in BIGRADED_FUNCTORS else _total_dims
        return CohomologyTable(functor, dims(_tc(A), functor))
    raise InvalidInput(
        f"unknown functor {functor!r}; expected one of {', '.join(FUNCTORS)}"
    )


def betti(A):
    """Nonzero de Rham dimensions by total degree."""
    return cohomology(A, "deRham").dims


# ---------------------------------------------------------------------------
# Hodge filtrations and refined Betti numbers


@dataclass
class FiltrationTable:
    """Both Hodge filtrations on de Rham cohomology and what they cut out.

    F[(p, k)] is dim F^p H^k, Fbar[(q, k)] the conjugate filtration,
    FcapFbar[(p, q, k)] their intersection, Ftot[(r, k)] the total
    filtration, refined[(p, q, k)] the refined Betti numbers.  Zero
    entries inside the reported window are kept so that descent to 0 is
    visible; nothing outside the window is stored.
    """

    F: dict = field(default_factory=dict)
    Fbar: dict = field(default_factory=dict)
    FcapFbar: dict = field(default_factory=dict)
    Ftot: dict = field(default_factory=dict)
    refined: dict = field(default_factory=dict)

    to_json = _encode

    def graded_total(self, k):
        """dim gr^r_{Ftot} H^k for each r, nonzero entries only."""
        out = {}
        rs = sorted(r for (r, kk) in self.Ftot if kk == k)
        for r in rs:
            g = self.Ftot[(r, k)] - self.Ftot.get((r + 1, k), 0)
            if g:
                out[r] = g
        return out


def hodge_filtration(A):
    """Filtration data of the de Rham cohomology of A.

    F^p H^k is the space of classes representable by elements of
    column-filtration level >= p; in subspace terms the image of
    Ker d ∩ F^p in Ker d / Im d.  Both filtrations have one adapted
    basis of H^k, its cells, and every entry of the table counts cells.
    """
    return _tc(A).filtration()


def _cells(tc, k):
    """A basis of H^k adapted to both Hodge filtrations, as the levels
    (a, t) of its classes: F^p ∩ Fbar^q is spanned by those with a >= p
    and t >= q.

    The Fbar cycles, by rising level, go through one _Echelon seeded
    with Im d, the t-th witnessed by {t: 1}; an F cycle reduced to 0
    through it has its class in their basis as its witness, less the
    entry -1.  These coordinates go by falling level a through a second
    _Echelon; its rows have distinct leads, so a combination's lowest
    column is the lowest lead it uses, and the cell of a row is a and
    the level t of its lead.  Pair rows throughout when any row is one."""
    V = _pairs(tc, 0)[1].get(k, [])
    W = _pairs(tc, 1)[1].get(k, [])[::-1]
    im = tc.im_d(k).rows
    gaussian = any(map(_is_pairs, im)) or any(_is_pairs(z) for _, z in V + W)
    one = (1, 0) if gaussian else 1

    def row(r):
        return _as_pairs(r) if gaussian else r

    ech = _Echelon({next(iter(r)): row(r) for r in im})
    for t, (b, z) in enumerate(W):
        wit = {t: one}
        if not (z := ech.reduce(row(z), wit)):
            raise Inconsistent(f"Fbar cycles of level <= {b} are dependent in H^{k}")
        c = min(z)
        ech.pivots[c], ech.wits[c] = z, wit
    if len(W) != (bk := tc.betti(k)):
        raise Inconsistent(f"{len(W)} Fbar cycles in degree {k}, not b_{k} = {bk}")
    coords, cells = _Echelon(), []
    for a, z in V:
        wit = {-1: one}
        if ech.reduce(row(z), wit):
            raise Inconsistent(f"a cycle of level {a} is outside the Fbar span in H^{k}")
        del wit[-1]
        if not (x := coords.reduce(wit)):
            raise Inconsistent(f"cycles of level >= {a} are dependent in H^{k}")
        c = min(x)
        coords.pivots[c] = x
        cells.append((a, W[c][0]))
    # b_k cells have b_k distinct leads, so their t are the Fbar cycles' levels
    if len(cells) != bk:
        raise Inconsistent(f"{len(cells)} F cycles in degree {k}, not b_{k} = {bk}")
    return cells


def _compute_filtration(tc):
    table = FiltrationTable()
    for k in tc.degrees():
        blocks = tc.blocks(k)
        if not blocks:
            continue
        ps = sorted({pq[0] for pq, _, _ in blocks})
        qs = sorted({pq[1] for pq, _, _ in blocks})
        cells = _cells(tc, k)
        for p in range(ps[0], ps[-1] + 2):
            table.F[(p, k)] = sum(a >= p for a, _ in cells)
        for q in range(qs[0], qs[-1] + 2):
            table.Fbar[(q, k)] = sum(t >= q for _, t in cells)
        for p in range(ps[0], ps[-1] + 1):
            for q in range(qs[0], qs[-1] + 1):
                table.FcapFbar[(p, q, k)] = sum(a >= p and t >= q for a, t in cells)
                if n := cells.count((p, q)):
                    table.refined[(p, q, k)] = n
        # total filtration, descending in r = p + q
        for r in reversed(range(ps[0] + qs[0], ps[-1] + qs[-1] + 2)):
            table.Ftot[(r, k)] = sum(a + t >= r for a, t in cells)
    return table


def refined_betti(A):
    """Map (p, q, k) -> b_k^{p,q}, nonzero entries only."""
    return hodge_filtration(A).refined


# ---------------------------------------------------------------------------
# Spectral sequences


@dataclass
class SpectralPage:
    which: str
    r: int
    dims: dict
    d_ranks: dict

    to_json = _encode

    def sum_dims(self):
        return sum(self.dims.values())


def _rising(tc, k, axis):
    """(coordinate, level) for each degree-k coordinate, by rising level."""
    blocks = sorted(tc.blocks(k), key=lambda block: block[0][axis])
    return [(i, pq[axis]) for pq, off, dim in blocks for i in range(off, off + dim)]


def _pairs(tc, axis):
    """The persistence pairing of d along one axis, as counts
    {(a, b, jump): n}: n pairs from position (a, b) to level a + jump,
    and its essential cycles {k: [(a, z), ...]}.

    In degree k the columns of d go by falling level through one
    _Echelon over the degree-(k+1) coordinates by rising level, column j
    witnessed by {j: 1}; a column of level a whose lead after reduction
    has level t pairs the two with jump t - a.  A lead's own column in
    degree k+1 is skipped (Chen and Kerber's clearing): d of it lies in
    the span of the columns fed before it, and its cycle is a boundary.
    So the witnesses z of the columns that reduce to 0 are the essential
    cycles, and those of level >= a span Ker d ∩ F^a modulo Im d.  A not
    real column puts the batch on pair rows (a unit would change z)."""

    def build():
        pairs, cycles = {}, {}
        cleared = set()
        up = _rising(tc, tc.min_deg, axis)
        for k in tc.degrees():
            src, up = up, _rising(tc, k + 1, axis)
            at = {i: t for t, (i, _) in enumerate(up)}
            cols = tc.d(k)._columns()
            live = [(j, a, {at[i]: v for i, v in cols[j].items()})
                    for j, a in reversed(src) if j not in cleared]
            gaussian = any(_is_pairs(col) for _, _, col in live)
            ech = _Echelon()
            cleared = set()
            for j, a, col in live:
                wit = {j: (1, 0) if gaussian else 1}
                z = ech.reduce(_as_pairs(col) if gaussian else col, wit)
                if not z:
                    cycles.setdefault(k, []).append((a, _tidy(wit)))
                    continue
                c = min(z)
                ech.pivots[c], ech.wits[c] = z, wit
                i, t = up[c]
                cleared.add(i)
                key = (a, k - a, t - a)
                pairs[key] = pairs.get(key, 0) + 1
        return pairs, cycles

    return tc._get(("pairs", axis), build)


def _page(tc, axis, r):
    """Dims and d_r ranks of page r, keyed by filtration position
    (level, other index); d_r goes from (a, b) to (a+r, b-r+1).

    A pair of jump r is one rank of d_r out of its start; from page
    r+1 on it takes one dimension off each of its two ends.
    """
    dims = {(pq[axis], pq[1 - axis]): n for pq, n in tc.A.spaces.items()}
    ranks = {}
    for (a, b, jump), n in _pairs(tc, axis)[0].items():
        if jump < r:
            dims[(a, b)] -= n
            dims[(a + jump, b - jump + 1)] -= n
        elif jump == r:
            ranks[(a, b)] = n
    return {pos: n for pos, n in dims.items() if n}, ranks


def spectral_page(A, which, r):
    """Page r of the column or row spectral sequence.

    The column sequence is that of the filtration by p, the row sequence
    that of the filtration by q, both on the same total complex, and
    every page of one is read off that filtration's persistence pairing
    of d.  Row positions come out as (q, p) and are swapped back, so the
    row page at (p,q) has its d_r pointing to (p-r+1, q+r).
    """
    if r < 1:
        raise InvalidInput("page index must be >= 1")
    if which not in ("column", "row"):
        raise InvalidInput(f"unknown spectral sequence {which!r}")
    dims, ranks = _page(_tc(A), 0 if which == "column" else 1, r)
    if which == "row":
        dims = {(p, q): v for (q, p), v in dims.items()}
        ranks = {(p, q): v for (q, p), v in ranks.items()}
    return SpectralPage(which, r, dims, ranks)


# ---------------------------------------------------------------------------
# Purity


def purity_defect(A):
    """Per-degree purity defects and their maximum.

    pdef_k is the largest |r - k| over r with gr^r_{Ftot} H^k nonzero,
    and 0 when H^k vanishes; the total defect is the maximum over all
    degrees (0 for the empty complex).
    """
    tc = _tc(A)
    table = hodge_filtration(tc)
    per_degree = {}
    for k in tc.degrees():
        graded = table.graded_total(k)
        per_degree[k] = max((abs(r - k) for r in graded), default=0)
    total = max(per_degree.values(), default=0)
    return per_degree, total


def star_condition(A):
    """True when each H^k lives in at most two adjacent graded pieces
    of the total filtration."""
    tc = _tc(A)
    table = hodge_filtration(tc)
    for k in tc.degrees():
        rs = sorted(table.graded_total(k))
        if rs and rs[-1] - rs[0] > 1:
            return False
    return True
