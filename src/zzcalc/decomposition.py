"""Decomposition of a bicomplex into dots, squares, and zigzags.

The multiplicity table is computed by rank formulas, never by an
explicit splitting:

  squares       rank of delbar∘del out of each bidegree (cross-checked
                against del∘delbar);
  odd zigzags   refined Betti numbers; b_k^{p,q} with p+q = k counts
                dots at (p,q), p+q < k counts incoming zigzags, and
                p+q > k outgoing ones, the shape pinned down by the
                extreme filtration levels of its de Rham class;
  even zigzags  page-r differential ranks; a horizontal-first zigzag of
                length 2r is the rank of the column d_r out of its
                anchor, a vertical-first one the rank of the row d_r
                out of its other extremal lower entry.

The even-zigzag assignment is fixed by a generated calibration table
(tests/golden/even_zigzag_calibration.json): every even zigzag shows a
single rank-1 page differential in exactly one of the two sequences.

Uniqueness of the table makes the rank approach sound; the dimension
audit (every basis vector of A accounted for) guards the arithmetic.
"""

from __future__ import annotations

from .bicomplex import (
    MultiplicityTable,
    _check_size,
    direct_sum,
    dot_shape,
    realize_shape,
    square_shape,
    zigzag_shape,
)
from .errors import Inconsistent
from .functors import TotalComplex, betti, refined_betti, spectral_page
from .linalg import rank

__all__ = [
    "multiplicities",
    "e1_isomorphic",
    "realize",
]


def _square_counts(A):
    counts = {}
    for (p, q) in A.support():
        down = rank(A.delbar_at(p + 1, q) * A.del_at(p, q))
        up = rank(A.del_at(p, q + 1) * A.delbar_at(p, q))
        if down != up:
            raise Inconsistent(
                f"square ranks disagree at {(p, q)}: {down} vs {up}"
            )
        if down:
            counts[square_shape(p, q)] = down
    return counts


def _odd_counts(tc):
    counts = {}
    for (p, q, k), v in refined_betti(tc).items():
        d = p + q - k
        if d == 0:
            shape = dot_shape(p, q)
        elif d < 0:
            shape = zigzag_shape((p, q - d), 2 * (-d) + 1, "horizontal")
        else:
            shape = zigzag_shape((p - d, q - 1), 2 * d + 1, "vertical")
        counts[shape] = counts.get(shape, 0) + v
    return counts


def _even_counts(tc):
    total_betti = sum(betti(tc).values())
    widths = []
    ps = [p for p, _ in tc.A.spaces]
    qs = [q for _, q in tc.A.spaces]
    if ps:
        widths = [max(ps) - min(ps) + 1, max(qs) - min(qs) + 1]
    cap = max(widths, default=0) + 2

    counts = {}
    for which in ("column", "row"):
        r = 1
        while True:
            page = spectral_page(tc, which, r)
            for (p, q), v in page.d_ranks.items():
                if which == "column":
                    anchor = (p, q)
                else:
                    anchor = (p - r + 1, q + r - 1)
                first = "horizontal" if which == "column" else "vertical"
                shape = zigzag_shape(anchor, 2 * r, first)
                counts[shape] = counts.get(shape, 0) + v
            if page.sum_dims() == total_betti:
                break
            r += 1
            if r > cap:
                raise Inconsistent(
                    f"{which} spectral sequence did not degenerate by page {cap}"
                )
    return counts


def multiplicities(A):
    """The unique multiplicity table of A, with dimension audit.

    Cached on the TotalComplex, so every condition asked of one tc
    shares one census.
    """
    tc = A if isinstance(A, TotalComplex) else TotalComplex(A)
    return tc._get(("multiplicities",), lambda: _census(tc))


def _census(tc):
    counts = _square_counts(tc.A)
    for shape, v in _odd_counts(tc).items():
        counts[shape] = counts.get(shape, 0) + v
    for shape, v in _even_counts(tc).items():
        counts[shape] = counts.get(shape, 0) + v
    table = MultiplicityTable(counts)
    if table.local_dims() != tc.A.spaces:
        raise Inconsistent(
            "multiplicity table does not account for every dimension: "
            f"table budget {table.local_dims()} vs spaces {tc.A.spaces}"
        )
    return table


def e1_isomorphic(A, B):
    """True when all zigzag multiplicities agree (squares ignored)."""
    return multiplicities(A).zigzag_part() == multiplicities(B).zigzag_part()


def realize(table):
    """A concrete bicomplex with the given multiplicity table."""
    _check_size(table.local_dims())
    return direct_sum(*(x for s, m in table for x in [realize_shape(s)] * m))
