"""Index-list filtrations against the subspace formulas they replaced.

The oracle route builds F^p and Fbar^q as coordinate subspaces, reaches
Z_r^{p,q} = F^p ∩ d^{-1}(F^{p+r}) through a preimage and an
intersection, cuts the Hodge filtrations out of Ker d by intersection,
intersects them in the full degree-k ambient (each containing Im d),
and reads the row spectral sequence as the column sequence of the
transposed bicomplex.  The library route must give the same subspaces,
pages and filtration tables, and its H^k coordinate map must kill Im d
and have rank b_k on Ker d.
"""

import json
import pathlib
import random

import pytest

from zzcalc import functors
from zzcalc.bicomplex import (
    MultiplicityTable,
    dot_shape,
    make_zigzag,
    scramble,
    square_shape,
    transpose_bicomplex,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.errors import Inconsistent
from zzcalc.functors import FiltrationTable, TotalComplex, hodge_filtration, spectral_page
from zzcalc.linalg import (
    Scalar,
    Subspace,
    apply_matrix,
    coordinate_subspace,
    preimage,
    subspace_intersect,
    subspace_sum,
)
from zzcalc.models import product_model

from test_acceptance import random_table

GOLDEN = pathlib.Path(__file__).parent / "golden" / "even_zigzag_calibration.json"


def coordinate_filtration(tc, k, axis, level):
    """F^level (axis 0) or Fbar^level (axis 1) in degree k as a subspace."""
    idx = []
    for pq, off, dim in tc.blocks(k):
        if pq[axis] >= level:
            idx.extend(range(off, off + dim))
    return coordinate_subspace(tc.dim(k), idx)


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
    # the column route keeps the same coordinates, so its Z_r are equal
    # as subspaces, not only in dimension
    for key, Z in column.Z.items():
        assert functors._Z(tc, 0, *key) == Z, key


def old_kerd_F(tc, k, axis, level):
    """Ker d ∩ F^level by intersection with a coordinate subspace."""
    return subspace_intersect(tc.ker_d(k), coordinate_filtration(tc, k, axis, level))


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


def dense(row, n):
    """A sparse integer row as n entries the Subspace constructor takes."""
    return [Scalar(*v) if isinstance(v, tuple) else v
            for v in (row.get(j, 0) for j in range(n))]


def assert_h_map(tc):
    """h_k kills Im d and has rank b_k on Ker d, in every degree."""
    for k in tc.degrees():
        h, bk = functors._h_map(tc, k), tc.betti(k)
        assert not any(h(v) for v in tc.im_d(k).rows), k
        images = [h(v) for v in tc.ker_d(k).rows]
        assert all(0 <= j < bk for x in images for j in x), k
        assert Subspace(bk, [dense(x, bk) for x in images]).dim == bk, k


def assert_filtrations_agree(A):
    tc = TotalComplex(A)
    for k in tc.degrees():
        for axis in (0, 1):
            levels = {pq[axis] for pq, _, _ in tc.blocks(k)}
            for level in range(min(levels, default=0) - 1, max(levels, default=0) + 2):
                old = old_kerd_F(tc, k, axis, level)
                assert functors._kerd_F(tc, k, axis, level) == old, (k, axis, level)
    assert_h_map(tc)
    assert hodge_filtration(tc) == old_compute_filtration(TotalComplex(A))


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
    A = make_zigzag(zigzag_shape((0, 10), int(length), first))
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


def test_filtration_intersects_in_cohomology_coordinates(monkeypatch):
    seen = []
    intersect = functors.subspace_intersect

    def recorded(U, V):
        seen.append(U.ambient_dim)
        return intersect(U, V)

    monkeypatch.setattr(functors, "subspace_intersect", recorded)
    tc = TotalComplex(SUMS[1])
    hodge_filtration(tc)
    assert seen
    # sum1 has degree widths up to 10 and Betti numbers up to 2
    assert set(seen) <= {tc.betti(k) for k in tc.degrees()}
