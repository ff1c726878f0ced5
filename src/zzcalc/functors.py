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
bigraded ones.

The filtrations F^p (blocks with p >= level) and Fbar^q (q >= level)
are coordinate index lists, and Ker d ∩ F^p is the kernel of d on the
columns of level >= p.  Both spectral sequences come from one
persistence pairing of d per axis (p for the column sequence, q for the
row sequence, on the same total complex): the columns of d, fed by
falling level into one elimination over the next degree's coordinates
by rising level, each end with a lead, the lowest level their reduced
image reaches.  A column of level a with lead at level t pairs two
coordinates and counts one rank of d_{t-a}; page r at a position is
its dimension less the pairs of jump below r that start or end there.
The Hodge filtrations are intersected and summed in H^k coordinates:
one linear map on degree-k cocycles, with kernel exactly Im d, carries
each Ker d ∩ F^p and Ker d ∩ Fbar^q to a subspace of Q(i)^{b_k}, and
every lattice operation runs there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bicomplex import (
    Bicomplex,
    dc as _dc_matrix,
    degree_blocks,
    total_d,
    transpose_bicomplex,  # unused here; bench/tracing.py rebinds this name
)
from .errors import Inconsistent, InvalidInput
from .linalg import (
    _echelon,
    _kernel_rows,
    _reduce,
    _span,
    _subspace,
    apply_matrix,
    image_basis,
    kernel_basis,
    preimage,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
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

    def sum_dims(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        return self.functor == other.functor and self.dims == other.dims

    def to_json(self):
        dims = {}
        for key in sorted(self.dims):
            name = f"{key[0]},{key[1]}" if isinstance(key, tuple) else str(key)
            dims[name] = self.dims[key]
        return {"functor": self.functor, "dims": dims}


def _bigraded_dims(A, functor):
    dims = {}
    for (p, q) in A.support():
        if functor == "dolbeault":
            ker = kernel_basis(A.delbar_at(p, q))
            im = image_basis(A.delbar_at(p, q - 1))
        elif functor == "conj_dolbeault":
            ker = kernel_basis(A.del_at(p, q))
            im = image_basis(A.del_at(p - 1, q))
        elif functor == "bott_chern":
            ker = subspace_intersect(kernel_basis(A.del_at(p, q)), kernel_basis(A.delbar_at(p, q)))
            im = image_basis(A.del_at(p - 1, q) * A.delbar_at(p - 1, q - 1))
        else:  # aeppli
            ker = kernel_basis(A.del_at(p, q + 1) * A.delbar_at(p, q))
            im = subspace_sum(image_basis(A.del_at(p - 1, q)), image_basis(A.delbar_at(p, q - 1)))
        d = ker.dim - im.dim
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
    if functor in BIGRADED_FUNCTORS:
        B = A.A if isinstance(A, TotalComplex) else A
        return CohomologyTable(functor, _bigraded_dims(B, functor))
    if functor in TOTAL_FUNCTORS:
        return CohomologyTable(functor, _total_dims(_tc(A), functor))
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

    def refined_at(self, p, q, k):
        return self.refined.get((p, q, k), 0)

    def graded_total(self, k):
        """dim gr^r_{Ftot} H^k for each r, nonzero entries only."""
        out = {}
        rs = sorted(r for (r, kk) in self.Ftot if kk == k)
        for r in rs:
            g = self.Ftot[(r, k)] - self.Ftot.get((r + 1, k), 0)
            if g:
                out[r] = g
        return out

    def to_json(self):
        def enc(d):
            return {",".join(map(str, key)): val for key, val in sorted(d.items())}

        return {
            "F": enc(self.F),
            "Fbar": enc(self.Fbar),
            "FcapFbar": enc(self.FcapFbar),
            "Ftot": enc(self.Ftot),
            "refined": enc(self.refined),
        }


def _kerd_F(tc, k, axis, level):
    """Ker d ∩ F^level in degree k (Fbar^level along axis 1): the kernel
    of d on the coordinates of level >= level, embedded back."""

    def build():
        cols = [i for pq, off, dim in tc.blocks(k) if pq[axis] >= level
                for i in range(off, off + dim)]
        at = {j: t for t, j in enumerate(cols)}
        sub = [{at[j]: v for j, v in row.items() if j in at} for row in tc.d(k).sparse]
        # an increasing embedding of coordinates keeps the rows canonical
        return _subspace(tc.dim(k), [
            {cols[t]: v for t, v in r.items()} for r in _kernel_rows(sub, len(cols))
        ])

    return tc._get(("kerd_F", k, axis, level), build)


def _h_map(tc, k):
    """h_k: degree-k cocycles to Q(i)^{b_k}, with kernel exactly Im d,
    on sparse integer rows.

    A row is reduced modulo the reduced echelon basis of Im d and kept
    on the columns that are not Im d pivots.  Ker d reduced the same way
    has a reduced echelon basis of b_k rows, and a reduced cocycle's
    entries at their pivot columns are its coordinates in that basis,
    each times that row's pivot entry, so h_k maps the subspaces between
    Im d and Ker d isomorphically, as a lattice, onto the subspaces of
    Q(i)^{b_k}.  Each image comes out up to a nonzero factor, which no
    span notices.
    """
    im = tc.im_d(k).rows
    pivots = {next(iter(row)) for row in im}
    free = {j: t for t, j in enumerate(j for j in range(tc.dim(k)) if j not in pivots)}

    def reduce(v):
        # every Im d pivot column is cleared, so each column left is free
        return {free[j]: x for j, x in _reduce(im, v).items()}

    quo = _span(len(free), [reduce(v) for v in tc.ker_d(k).rows])
    if quo.dim != tc.betti(k):
        raise Inconsistent(
            f"H^{k} coordinates have rank {quo.dim} on Ker d, not b_{k} = {tc.betti(k)}"
        )
    cols = {next(iter(row)): t for t, row in enumerate(quo.rows)}

    def h(v):
        return {cols[j]: x for j, x in reduce(v).items() if j in cols}

    return h


def hodge_filtration(A):
    """Filtration data of the de Rham cohomology of A.

    F^p H^k is the space of classes representable by elements of
    column-filtration level >= p; in subspace terms the image of
    Ker d ∩ F^p in Ker d / Im d.  Every intersection and sum of these
    images runs in H^k coordinates, on subspaces of Q(i)^{b_k}.
    """
    return _tc(A).filtration()


def _compute_filtration(tc):
    table = FiltrationTable()
    for k in tc.degrees():
        bk = tc.betti(k)
        blocks = tc.blocks(k)
        if not blocks:
            continue
        ps = sorted({pq[0] for pq, _, _ in blocks})
        qs = sorted({pq[1] for pq, _, _ in blocks})
        h = _h_map(tc, k)

        def coords(axis, level):
            return _span(bk, [h(v) for v in _kerd_F(tc, k, axis, level).rows])

        V = {p: coords(0, p) for p in range(ps[0], ps[-1] + 2)}
        W = {q: coords(1, q) for q in range(qs[0], qs[-1] + 2)}
        table.F.update({(p, k): V[p].dim for p in V})
        table.Fbar.update({(q, k): W[q].dim for q in W})
        VW = {(p, q): subspace_intersect(V[p], W[q]) for p in V for q in W}
        for p in range(ps[0], ps[-1] + 1):
            for q in range(qs[0], qs[-1] + 1):
                table.FcapFbar[(p, q, k)] = VW[(p, q)].dim
                upper = subspace_sum(VW[(p + 1, q)], VW[(p, q + 1)])
                r = VW[(p, q)].dim - upper.dim
                if r:
                    table.refined[(p, q, k)] = r

        # total filtration, descending in r = p + q
        rs = range(ps[0] + qs[0], ps[-1] + qs[-1] + 2)
        prev = zero_subspace(bk)  # Ftot^r for r beyond the top
        for r in reversed(rs):
            cur = prev
            for p in V:
                q = r - p
                if q in W:
                    cur = subspace_sum(cur, VW[(p, q)])
            table.Ftot[(r, k)] = cur.dim
            prev = cur
        if bk:
            refined_sum = sum(
                v for (_, _, kk), v in table.refined.items() if kk == k
            )
            if table.Ftot[(rs[0], k)] != bk or refined_sum != bk:
                raise Inconsistent(
                    f"filtration of degree {k} does not exhaust H^{k}"
                )
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

    def sum_dims(self):
        return sum(self.dims.values())

    def to_json(self):
        return {
            "which": self.which,
            "r": self.r,
            "dims": {f"{p},{q}": v for (p, q), v in sorted(self.dims.items())},
            "d_ranks": {
                f"{p},{q}": v for (p, q), v in sorted(self.d_ranks.items())
            },
        }


def _rising(tc, k, axis):
    """(coordinate, level) for each degree-k coordinate, by rising level."""
    blocks = sorted(tc.blocks(k), key=lambda block: block[0][axis])
    return [(i, pq[axis]) for pq, off, dim in blocks for i in range(off, off + dim)]


def _pairs(tc, axis):
    """The persistence pairing of d along one axis, as counts
    {(a, b, jump): n}: n pairs from position (a, b) to level a + jump.

    In degree k the columns of d go by falling level through one
    elimination over the degree-(k+1) coordinates by rising level; a
    column of level a whose lead after reduction has level t pairs the
    two with jump t - a.  A lead's own column in degree k+1 is skipped
    (Chen and Kerber's clearing): as d of the reduced column is 0, it
    lies in the span of the columns fed before it.
    """

    def build():
        pairs = {}
        cleared = set()
        up = _rising(tc, tc.min_deg, axis)
        for k in tc.degrees():
            src, up = up, _rising(tc, k + 1, axis)
            at = {i: t for t, (i, _) in enumerate(up)}
            cols = tc.d(k)._columns()
            live = [(j, a) for j, a in reversed(src) if j not in cleared]
            leads = []
            _echelon([{at[i]: v for i, v in cols[j].items()} for j, _ in live], leads)
            cleared = set()
            for (_, a), c in zip(live, leads):
                if c is not None:
                    i, t = up[c]
                    cleared.add(i)
                    key = (a, k - a, t - a)
                    pairs[key] = pairs.get(key, 0) + 1
        return pairs

    return tc._get(("pairs", axis), build)


def _page(tc, axis, r):
    """Dims and d_r ranks of page r, keyed by filtration position
    (level, other index); d_r goes from (a, b) to (a+r, b-r+1).

    A pair of jump r is one rank of d_r out of its start; from page
    r+1 on it takes one dimension off each of its two ends.
    """
    dims = {(pq[axis], pq[1 - axis]): n for pq, n in tc.A.spaces.items()}
    ranks = {}
    for (a, b, jump), n in _pairs(tc, axis).items():
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
