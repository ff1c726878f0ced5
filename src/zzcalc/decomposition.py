"""Decomposition of a bicomplex into dots, squares, and zigzags.

The multiplicity table is computed by rank formulas, never by an
explicit splitting:

  squares       rank of delbar∘del out of each bidegree (cross-checked
                against del∘delbar), both cached on the TotalComplex;
  odd zigzags   refined Betti numbers; b_k^{p,q} with p+q = k counts
                dots at (p,q), p+q < k counts incoming zigzags, and
                p+q > k outgoing ones, the shape pinned down by the
                extreme filtration levels of its de Rham class;
  even zigzags  the persistence pairs of d of jump r >= 1; one from
                (a,b) is a horizontal-first zigzag of length 2r at
                (a,b) in the column pairing, a vertical-first one at
                (b-r+1, a+r-1) in the row pairing (where a is q).

The even-zigzag assignment is fixed by a generated calibration table
(tests/golden/even_zigzag_calibration.json): every even zigzag shows a
single rank-1 page differential in exactly one of the two sequences.
Each pairing leaves total dim - 2 * (its pairs) cycles, the Betti sum.

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
from .functors import TotalComplex, _pairs, betti, refined_betti, spectral_page
from .linalg import rank  # rank, spectral_page unused; bench/tracing.py rebinds them

__all__ = [
    "multiplicities",
    "e1_isomorphic",
    "realize",
]


def _square_counts(tc):
    counts = {}
    for (p, q) in tc.A.support():
        down, up = tc.rank("dbard", p, q), tc.rank("ddbar", p, q)
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
    counts = {}
    for axis, first in enumerate(("horizontal", "vertical")):
        pairs = _pairs(tc, axis)[0]
        if (left := tc.A.total_dim() - 2 * sum(pairs.values())) != total_betti:
            raise Inconsistent(f"the {('column', 'row')[axis]} pairing leaves "
                               f"{left} cycles, not the {total_betti} of the Betti numbers")
        for (a, b, r), v in pairs.items():
            if r:
                anchor = (a, b) if axis == 0 else (b - r + 1, a + r - 1)
                shape = zigzag_shape(anchor, 2 * r, first)
                counts[shape] = counts.get(shape, 0) + v
    return counts


def multiplicities(A):
    """The unique multiplicity table of A, with dimension audit.

    Cached on the TotalComplex, so every condition asked of one tc
    shares one census.
    """
    tc = A if isinstance(A, TotalComplex) else TotalComplex(A)
    return tc._get(("multiplicities",), lambda: _census(tc))


def _census(tc):
    counts = _square_counts(tc)
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
