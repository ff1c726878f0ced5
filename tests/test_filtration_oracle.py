"""Index-list filtrations against the subspace formulas they replaced.

The oracle route builds F^p and Fbar^q as coordinate subspaces, reaches
Z_r^{p,q} = F^p ∩ d^{-1}(F^{p+r}) through a preimage and an
intersection, cuts the Hodge filtrations out of Ker d by intersection,
and reads the row spectral sequence as the column sequence of the
transposed bicomplex.  The library route must give the same subspaces,
pages and filtration tables.
"""

import json
import pathlib
import random

import pytest

from zzcalc import functors
from zzcalc.bicomplex import make_zigzag, scramble, transpose_bicomplex, zigzag_shape
from zzcalc.decomposition import realize
from zzcalc.functors import TotalComplex, hodge_filtration, spectral_page
from zzcalc.linalg import (
    apply_matrix,
    coordinate_subspace,
    preimage,
    subspace_intersect,
    subspace_sum,
)

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


def assert_filtrations_agree(A, monkeypatch):
    tc = TotalComplex(A)
    for k in tc.degrees():
        for axis in (0, 1):
            levels = {pq[axis] for pq, _, _ in tc.blocks(k)}
            for level in range(min(levels, default=0) - 1, max(levels, default=0) + 2):
                old = subspace_intersect(
                    tc.ker_d(k), coordinate_filtration(tc, k, axis, level)
                )
                assert functors._kerd_F(tc, k, axis, level) == old, (k, axis, level)
    new = hodge_filtration(tc)
    with monkeypatch.context() as m:
        m.setattr(
            functors,
            "_kerd_F",
            lambda tc, k, axis, level: subspace_intersect(
                tc.ker_d(k), coordinate_filtration(tc, k, axis, level)
            ),
        )
        old = functors._compute_filtration(TotalComplex(A))
    assert new == old


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
def test_scrambled_sums(A, monkeypatch):
    assert_pages_agree(A)
    assert_filtrations_agree(A, monkeypatch)


@pytest.mark.parametrize("key", sorted(json.loads(GOLDEN.read_text())))
def test_golden_calibration_shapes(key, monkeypatch):
    length, first = key.split(",")
    A = make_zigzag(zigzag_shape((0, 10), int(length), first))
    assert_pages_agree(A)
    assert_filtrations_agree(A, monkeypatch)
