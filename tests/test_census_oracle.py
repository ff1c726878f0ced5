"""The census's square and even-zigzag counts against the routes they replaced.

`decomposition._square_counts(tc)` reads the ranks of del∘delbar and
delbar∘del out of each bidegree from the ranks cached on the
TotalComplex, and `_even_counts(tc)` reads each even zigzag off one
persistence pair of jump r >= 1, with one check per pairing that
total dim - 2 * (its pairs) is the sum of the Betti numbers.  They used
to build every block through `del_at`/`delbar_at` (a missing one as
`Matrix.zeros`) and rank each product, and to rebuild every spectral
page up to a cap, reading the d_r ranks back.  Those two functions are
kept here unchanged as the oracle.  Both routes must give the same
counts on acceptance criterion 3's sums, the Gaussian sums of
`test_functors`, the benchmark's large tables and the Vaisman models
for n = 1..3.  A pairing short of one pair must be refused, and the
ddc+3 and numeric reports must build no zero matrix.
"""

import importlib.util
import pathlib

import pytest

import zzcalc
from zzcalc import decomposition
from zzcalc.bicomplex import (
    MultiplicityTable,
    dot_shape,
    dumps,
    loads,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.conditions import check_ddc3, numeric_report
from zzcalc.decomposition import multiplicities, realize
from zzcalc.errors import Inconsistent
from zzcalc.functors import TotalComplex, betti, spectral_page
from zzcalc.linalg import Matrix, rank
from zzcalc.models import vaisman_model

from test_acceptance import equivalence_sweep
from test_functors import BIGRADED_SUMS, gaussian

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The replaced routes, verbatim.


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


# ---------------------------------------------------------------------------
# Inputs


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def large_sums():
    """The benchmark's full-size deep and wide tables, realized and
    scrambled."""
    tables = _workloads()._large_tables(zzcalc, 50, 70)
    return [scramble(realize(t), seed) for seed, t in enumerate(tables.values(), 1)]


def vaisman_sums():
    return [vaisman_model(n, {(0, 0): 1}) for n in (1, 2, 3)] + [
        vaisman_model(2, {(0, 0): 2, (1, 0): 1, (0, 1): 1})]


def assert_same_counts(A):
    tc = TotalComplex(A)
    assert decomposition._square_counts(tc) == _square_counts(A)
    even = decomposition._even_counts(tc)
    assert even == _even_counts(TotalComplex(A))
    return even


def test_criterion_3_sums():
    for _, tc in equivalence_sweep():
        assert_same_counts(tc.A)


@pytest.mark.parametrize("i", range(len(BIGRADED_SUMS)))
def test_gaussian_sums(i):
    for A in (BIGRADED_SUMS[i], gaussian(BIGRADED_SUMS[i])):
        assert_same_counts(A)


def test_large_tables():
    deep, wide = large_sums()
    # the deep sum has even zigzags read off pairs of jump up to 4
    assert max(s.length for s in assert_same_counts(deep)) == 8
    assert assert_same_counts(wide) == {}


@pytest.mark.parametrize("A", vaisman_sums(), ids=["n1", "n2", "n3", "n2P"])
def test_vaisman(A):
    assert_same_counts(A)


# ---------------------------------------------------------------------------
# Guards


TABLE = MultiplicityTable({
    dot_shape(0, 0): 1,
    square_shape(0, 1): 1,
    zigzag_shape((1, 0), 2, "horizontal"): 1,
    zigzag_shape((1, 1), 4, "vertical"): 1,
    zigzag_shape((1, 1), 3, "vertical"): 2,
})


@pytest.mark.parametrize("axis", (0, 1))
def test_pairing_short_of_a_pair_is_refused(monkeypatch, axis):
    real = decomposition._pairs

    def dropped(tc, ax):
        pairs, cycles = real(tc, ax)
        if ax == axis:
            key = max(pairs)
            pairs = {**pairs, key: pairs[key] - 1}
        return pairs, cycles

    monkeypatch.setattr(decomposition, "_pairs", dropped)
    tc = TotalComplex(scramble(realize(TABLE), 3))
    which = ("column", "row")[axis]
    with pytest.raises(Inconsistent, match=f"the {which} pairing leaves"):
        multiplicities(tc)


def test_ddc3_and_numeric_report_build_no_zero_matrix(monkeypatch):
    tc = TotalComplex(loads(dumps(scramble(realize(TABLE), 5))))
    made = []
    zeros = Matrix.zeros

    def counted(rows, cols):
        made.append((rows, cols))
        return zeros(rows, cols)

    monkeypatch.setattr(Matrix, "zeros", staticmethod(counted))
    report = check_ddc3(tc)
    numbers = numeric_report(tc)
    monkeypatch.undo()
    assert not report.holds and numbers.h_bc > 0
    assert made == []
