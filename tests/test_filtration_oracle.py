"""Index-list filtrations against the subspace formulas they replaced.

The oracle route builds F^p and Fbar^q as coordinate subspaces, reaches
Z_r^{p,q} = F^p ∩ d^{-1}(F^{p+r}) through a preimage and an
intersection, cuts the Hodge filtrations out of Ker d by intersection,
intersects them in the full degree-k ambient (each containing Im d),
and reads the row spectral sequence as the column sequence of the
transposed bicomplex.  The library route must give the same pages and
filtration tables.

The library reads Ker d ∩ F^p off the essential cycles of the pages'
persistence pairing, and counts the filtration table on one basis of
H^k adapted to both filtrations.  Two routes it replaced are kept here:
`kerd_F`, the per-level kernel, and `lattice_filtration`, which maps the
cycles into H^k coordinates through `h_map` and intersects and sums
F^p and Fbar^q there.  `h_map` must kill Im d and have rank b_k on
Ker d; the cycles of level >= p must be cycles in F^p that span
Ker d ∩ F^p modulo Im d, with the same images in H^k.  The same oracle
runs on sums whose classes have Fbar coordinates at several levels, and
on the sums with del replaced by i*del, whose d has real, purely
imaginary and genuinely complex columns.
"""

import json
import pathlib
import random

import pytest

from zzcalc import functors
from zzcalc.bicomplex import (
    Bicomplex,
    MultiplicityTable,
    dot_shape,
    realize_shape,
    scramble,
    square_shape,
    transpose_bicomplex,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.errors import Inconsistent
from zzcalc.functors import FiltrationTable, TotalComplex, hodge_filtration, spectral_page
from zzcalc.linalg import (
    I,
    Scalar,
    Subspace,
    _kernel_rows,
    _product,
    _reduce,
    _span,
    _subspace,
    apply_matrix,
    preimage,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)
from zzcalc.models import product_model, vaisman_model

from test_acceptance import random_table

GOLDEN = pathlib.Path(__file__).parent / "golden" / "even_zigzag_calibration.json"


def coordinate_filtration(tc, k, axis, level):
    """F^level (axis 0) or Fbar^level (axis 1) in degree k as a subspace."""
    idx = []
    for pq, off, dim in tc.blocks(k):
        if pq[axis] >= level:
            idx.extend(range(off, off + dim))
    return _subspace(tc.dim(k), [{i: 1} for i in idx])


class ColumnPages:
    """Column spectral sequence pages from the subspace formulas."""

    def __init__(self, A):
        self.tc = TotalComplex(A)
        self.Z = {}
        self.B = {}

    def z(self, r, p, q):
        if (r, p, q) not in self.Z:
            tc, k = self.tc, p + q
            dinv = preimage(tc.d(k), coordinate_filtration(tc, k + 1, 0, p + r))
            self.Z[(r, p, q)] = subspace_intersect(
                coordinate_filtration(tc, k, 0, p), dinv
            )
        return self.Z[(r, p, q)]

    def b(self, r, p, q):
        if (r, p, q) not in self.B:
            img = apply_matrix(self.tc.d(p + q - 1), self.z(r - 1, p - r + 1, q + r - 2))
            self.B[(r, p, q)] = subspace_sum(self.z(r - 1, p + 1, q - 1), img)
        return self.B[(r, p, q)]

    def page(self, r):
        dims = {}
        ranks = {}
        for (p, q) in self.tc.A.spaces:
            d = self.z(r, p, q).dim - self.b(r, p, q).dim
            if d:
                dims[(p, q)] = d
        for (p, q) in dims:
            if (p + r, q - r + 1) not in dims:
                continue
            tgt_b = self.b(r, p + r, q - r + 1)
            out = subspace_sum(apply_matrix(self.tc.d(p + q), self.z(r, p, q)), tgt_b)
            if out.dim - tgt_b.dim:
                ranks[(p, q)] = out.dim - tgt_b.dim
        return dims, ranks


def swapped(d):
    return {(p, q): v for (q, p), v in d.items()}


def assert_pages_agree(A):
    """Every page of both sequences, up to degeneration, on both routes."""
    tc = TotalComplex(A)
    total = sum(tc.betti(k) for k in tc.degrees())
    column, row = ColumnPages(A), ColumnPages(transpose_bicomplex(A))
    for which, oracle in (("column", column), ("row", row)):
        r = 1
        while True:
            page = spectral_page(tc, which, r)
            dims, ranks = oracle.page(r)
            if which == "row":
                dims, ranks = swapped(dims), swapped(ranks)
            assert (page.dims, page.d_ranks) == (dims, ranks), (which, r)
            if page.sum_dims() == total:
                break
            r += 1
            assert r <= 12, f"{which} sequence did not degenerate"


def old_kerd_F(tc, k, axis, level):
    """Ker d ∩ F^level by intersection with a coordinate subspace."""
    return subspace_intersect(tc.ker_d(k), coordinate_filtration(tc, k, axis, level))


def kerd_F(tc, k, axis, level):
    """Ker d ∩ F^level in degree k (Fbar^level along axis 1): the kernel
    of d on the coordinates of level >= level, embedded back.  This was
    the library route before the filtration read the pairing's cycles."""
    cols = [i for pq, off, dim in tc.blocks(k) if pq[axis] >= level
            for i in range(off, off + dim)]
    at = {j: t for t, j in enumerate(cols)}
    sub = [{at[j]: v for j, v in row.items() if j in at} for row in tc.d(k).sparse]
    # an increasing embedding of coordinates keeps the rows canonical
    return _subspace(tc.dim(k), [
        {cols[t]: v for t, v in r.items()} for r in _kernel_rows(sub, len(cols))
    ])


def old_compute_filtration(tc):
    """The filtration in the full degree-k ambient: V and W contain Im d,
    and every V[p] ∩ W[q] is a Zassenhaus intersection there."""
    table = FiltrationTable()
    for k in tc.degrees():
        bk = tc.betti(k)
        blocks = tc.blocks(k)
        if not blocks:
            continue
        ps = sorted({pq[0] for pq, _, _ in blocks})
        qs = sorted({pq[1] for pq, _, _ in blocks})
        im = tc.im_d(k)

        V = {p: subspace_sum(old_kerd_F(tc, k, 0, p), im) for p in range(ps[0], ps[-1] + 2)}
        W = {q: subspace_sum(old_kerd_F(tc, k, 1, q), im) for q in range(qs[0], qs[-1] + 2)}
        for p in V:
            table.F[(p, k)] = V[p].dim - im.dim
        for q in W:
            table.Fbar[(q, k)] = W[q].dim - im.dim

        VW = {}
        for p in V:
            for q in W:
                VW[(p, q)] = subspace_intersect(V[p], W[q])
        for p in range(ps[0], ps[-1] + 1):
            for q in range(qs[0], qs[-1] + 1):
                table.FcapFbar[(p, q, k)] = VW[(p, q)].dim - im.dim
                upper = subspace_sum(VW[(p + 1, q)], VW[(p, q + 1)])
                r = VW[(p, q)].dim - upper.dim
                if r:
                    table.refined[(p, q, k)] = r

        # total filtration, descending in r = p + q
        rs = range(ps[0] + qs[0], ps[-1] + qs[-1] + 2)
        prev = im  # Ftot^r for r beyond the top is just Im d
        for r in reversed(rs):
            cur = prev
            for p in V:
                q = r - p
                if q in W:
                    cur = subspace_sum(cur, VW[(p, q)])
            table.Ftot[(r, k)] = cur.dim - im.dim
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


def h_map(tc, k):
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


def lattice_filtration(tc):
    """The filtration in H^k coordinates: V[p] and W[q] are subspaces of
    Q(i)^{b_k} through h_map, every V[p] ∩ W[q] a Zassenhaus
    intersection, and the refined and total tables sums of those.  This
    was the library route before the filtration counted cells."""
    table = FiltrationTable()
    for k in tc.degrees():
        bk = tc.betti(k)
        blocks = tc.blocks(k)
        if not blocks:
            continue
        ps = sorted({pq[0] for pq, _, _ in blocks})
        qs = sorted({pq[1] for pq, _, _ in blocks})
        h = h_map(tc, k)

        def coords(axis, levels):
            hz = [(a, h(z)) for a, z in functors._pairs(tc, axis)[1].get(k, ())]
            out = {}
            for level in levels:
                rows = [v for a, v in hz if a >= level]
                if (S := _span(bk, rows)).dim != len(rows):
                    raise Inconsistent(f"cycles of level >= {level} are dependent in H^{k}")
                out[level] = S
            return out

        V = coords(0, range(ps[0], ps[-1] + 2))
        W = coords(1, range(qs[0], qs[-1] + 2))
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


def dense(row, n):
    """A sparse integer row as n entries the Subspace constructor takes."""
    return [Scalar(*v) if isinstance(v, tuple) else v
            for v in (row.get(j, 0) for j in range(n))]


def assert_h_map(tc):
    """h_k kills Im d and has rank b_k on Ker d, in every degree."""
    for k in tc.degrees():
        h, bk = h_map(tc, k), tc.betti(k)
        assert not any(h(v) for v in tc.im_d(k).rows), k
        images = [h(v) for v in tc.ker_d(k).rows]
        assert all(0 <= j < bk for x in images for j in x), k
        assert Subspace(bk, [dense(x, bk) for x in images]).dim == bk, k


def span(n, rows):
    return Subspace(n, [dense(x, n) for x in rows])


def assert_cycles_agree(tc):
    """For every degree, axis and level: the pairing's cycles of level
    >= level have d z = 0 and support in F^level, span Ker d ∩ F^level
    modulo Im d, and have the same images in H^k as the replaced route,
    itself equal to the intersection route."""
    for k in tc.degrees():
        n, bk, h, im = tc.dim(k), tc.betti(k), h_map(tc, k), tc.im_d(k)
        for axis in (0, 1):
            cycles = functors._pairs(tc, axis)[1].get(k, [])
            assert len(cycles) == bk, (k, axis)
            levels = {pq[axis] for pq, _, _ in tc.blocks(k)}
            for level in range(min(levels, default=0) - 1, max(levels, default=0) + 2):
                where = (k, axis, level)
                old = kerd_F(tc, k, axis, level)
                assert old == old_kerd_F(tc, k, axis, level), where
                support = coordinate_filtration(tc, k, axis, level)
                zs = [z for a, z in cycles if a >= level]
                assert not any(_product(zs, tc.d(k).transpose().sparse)), where
                assert support.contains_subspace(span(n, zs)), where
                assert subspace_sum(span(n, zs), im) == subspace_sum(old, im), where
                assert span(bk, map(h, zs)) == span(bk, map(h, old.rows)), where


def assert_filtrations_agree(A):
    tc = TotalComplex(A)
    assert_cycles_agree(tc)
    assert_h_map(tc)
    table = hodge_filtration(tc)
    assert table == old_compute_filtration(TotalComplex(A))
    assert table == lattice_filtration(TotalComplex(A))


def scrambled_sums(count, seed=20261018):
    """Sums drawn like acceptance criterion 3's, total dimension <= 45."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = realize(random_table(rng, max_pieces=12, span=7))
        if sum(A.spaces.values()) <= 45:
            out.append(scramble(A, rng.randrange(2**32)))
    return out


SUMS = scrambled_sums(8)


@pytest.mark.parametrize("A", SUMS, ids=[f"sum{i}" for i in range(len(SUMS))])
def test_scrambled_sums(A):
    assert_pages_agree(A)
    assert_filtrations_agree(A)


@pytest.mark.parametrize("key", sorted(json.loads(GOLDEN.read_text())))
def test_golden_calibration_shapes(key):
    length, first = key.split(",")
    A = realize_shape(zigzag_shape((0, 10), int(length), first))
    assert_pages_agree(A)
    assert_filtrations_agree(A)


def test_padded_product_filtration():
    """The 225-dimensional product of two padded duality-closed sums
    (degree width up to 86), as in the product purity-defect test."""

    def closed_sum(anchor):
        return realize(MultiplicityTable({
            zigzag_shape(anchor, 5, "horizontal"): 1,
            zigzag_shape(anchor, 5, "vertical"): 1,
            dot_shape(0, 0): 1,
            square_shape(1, 0): 1,
        }))

    P = product_model(closed_sum((0, 1)), closed_sum((1, 0)))
    assert P.total_dim() == 225
    assert_filtrations_agree(P)


def mixes(A):
    """Whether the class of some F cycle has coordinates on the Fbar
    cycles at two levels or more: its cell depends on which lead names
    it, and the second echelon has work to do."""
    tc = TotalComplex(A)
    for k in tc.degrees():
        h, bk = h_map(tc, k), tc.betti(k)
        W = functors._pairs(tc, 1)[1].get(k, [])
        for _, z in functors._pairs(tc, 0)[1].get(k, []):
            v = span(bk, [h(z)])
            q = max(b for b, _ in W
                    if span(bk, [h(w) for c, w in W if c >= b]).contains_subspace(v))
            if not span(bk, [h(w) for c, w in W if c == q]).contains_subspace(v):
                return True
    return False


MIXED = [A for A in scrambled_sums(40, seed=1) if mixes(A)]


def test_some_sums_mix_fbar_levels():
    assert len(MIXED) >= 2


@pytest.mark.parametrize("A", MIXED, ids=[f"mixed{i}" for i in range(len(MIXED))])
def test_mixed_sums(A):
    assert_filtrations_agree(A)


VAISMAN = [
    (1, {(0, 0): 1}),
    (2, {(0, 0): 1, (1, 0): 2, (0, 1): 2}),
    (3, {(0, 0): 2, (1, 1): 1}),
]


@pytest.mark.parametrize("n, P", VAISMAN, ids=[f"vaisman{i}" for i in range(len(VAISMAN))])
def test_vaisman_filtration(n, P):
    assert_filtrations_agree(vaisman_model(n, P))


def times_i_on_del(A):
    """A with del replaced by i*del: still a bicomplex, isomorphic to A
    by i^p on A^{p,q}, so its filtration table is A's."""
    return Bicomplex(A.spaces, {pq: m * I for pq, m in A.del_maps.items()}, A.delbar_maps)


def column_kinds(tc):
    """The kinds of the nonzero columns of every d: real, imaginary, complex."""
    kinds = set()
    for k in tc.degrees():
        for col in tc.d(k)._columns():
            values = [v if isinstance(v, tuple) else (v, 0) for v in col.values()]
            if values:
                kinds.add("imaginary" if not any(re for re, _ in values)
                          else "complex" if any(im for _, im in values) else "real")
    return kinds


def test_gaussian_sums_have_every_column_kind():
    kinds = [column_kinds(TotalComplex(times_i_on_del(A))) for A in SUMS]
    assert sum(k == {"real", "imaginary", "complex"} for k in kinds) >= 4


@pytest.mark.parametrize("A", SUMS, ids=[f"sum{i}" for i in range(len(SUMS))])
def test_gaussian_columns(A):
    G = times_i_on_del(A)
    assert_filtrations_agree(G)
    assert hodge_filtration(G) == hodge_filtration(A)


@pytest.mark.parametrize("axis, drop", [(0, False), (1, False), (1, True)],
                         ids=["axis0", "axis1", "axis1-dropped"])
def test_dependent_cycles_are_inconsistent(axis, drop):
    """The cycles of each axis must stay independent in H^k, and be b_k
    many: a repeated one is caught on either axis, each of which plays
    its own role, and a dropped one by the count against b_k."""
    tc = TotalComplex(SUMS[1])
    cycles = functors._pairs(tc, axis)[1]
    k = next(k for k, zs in sorted(cycles.items()) if zs)
    if drop:
        cycles[k].pop()
        match = f"not b_{k} = {tc.betti(k)}"
    else:
        cycles[k].append(cycles[k][0])
        match = f"dependent in H\\^{k}"
    with pytest.raises(Inconsistent, match=match):
        hodge_filtration(tc)


def test_filtration_makes_no_lattice_call(monkeypatch):
    seen = []

    def recorded(name, f):
        def call(*args):
            seen.append(name)
            return f(*args)
        return call

    for name in ("subspace_intersect", "subspace_sum"):
        monkeypatch.setattr(functors, name, recorded(name, getattr(functors, name)))
    hodge_filtration(SUMS[1])
    assert seen == []
