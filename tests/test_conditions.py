"""Connecting-map ranks, ddc/ddc+3 verdicts, numerics, purity, j-control.

Single-shape oracles follow the zigzag tables: an even zigzag of length
2m has one connecting map of rank m at its lower degree, an odd zigzag
of length 2m+1 has rank m-1 there, and dots, squares and both L's have
none.  Kernel sizes of H(i) sit at the upper degree: m for even and
outgoing-odd shapes, m-1 for incoming-odd ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.bicomplex import (
    Bicomplex,
    direct_sum,
    dot_shape,
    dual,
    realize_shape,
    scramble,
    shape_degree_span,
    square_shape,
    zigzag_shape,
)
from zzcalc.conditions import (
    LesRow,
    check_ddc,
    check_ddc3,
    ell,
    j_controlled,
    les,
    numeric_report,
    purity_diagram,
)
from zzcalc import conditions, decomposition
from zzcalc.decomposition import realize
from zzcalc.functors import TotalComplex, purity_defect
from zzcalc.linalg import Scalar, subspace_intersect, subspace_sum
from zzcalc.models import surface_model, vaisman_model

from test_acceptance import equivalence_sweep
from test_bicomplex import small_complexes
from test_decomposition import tables_strategy

OUT_L = zigzag_shape((0, 0), 3, "vertical")
REV_L = zigzag_shape((0, 1), 3, "horizontal")


def delta_ranks(report):
    """The nonzero ranks of the connecting maps, by degree."""
    return {k: r.rank_delta for k, r in report.rows.items() if r.rank_delta}


def zigzag(anchor, length, first):
    return realize_shape(zigzag_shape(anchor, length, first))


class TestLes:
    def test_dot_splits(self):
        report = les(realize_shape(dot_shape(2, 1)))
        assert report.exact
        assert report.rows[3] == LesRow(1, 1, 1, 1, 0, 1, 1)

    def test_empty(self):
        report = les(Bicomplex({}))
        assert report.exact and not report.rows

    def test_even_zigzag_ranks(self):
        for m in (1, 2, 3):
            for first in ("horizontal", "vertical"):
                A = zigzag((0, 2), 2 * m, first)
                k0 = shape_degree_span(zigzag_shape((0, 2), 2 * m, first))[0]
                report = les(A)
                assert report.exact
                assert delta_ranks(report) == {k0: m}, (m, first)

    def test_odd_zigzag_ranks(self):
        for m in (1, 2, 3):
            for first in ("horizontal", "vertical"):
                A = zigzag((1, 3), 2 * m + 1, first)
                k0 = shape_degree_span(
                    zigzag_shape((1, 3), 2 * m + 1, first)
                )[0]
                report = les(A)
                assert report.exact
                expected = {} if m == 1 else {k0: m - 1}
                assert delta_ranks(report) == expected, (m, first)

    def test_dot_and_square_and_ls_have_no_delta(self):
        for A in (
            realize_shape(dot_shape(0, 0)),
            realize_shape(square_shape(1, 1)),
            realize_shape(OUT_L),
            realize_shape(REV_L),
        ):
            assert delta_ranks(les(A)) == {}


# ---------------------------------------------------------------------------
# rank(i + pi) against the route it replaced


def old_rank_incl(tc, k):
    """The replaced route: Im d ∩ Im d^c intersected once more with
    Ker d ∩ Ker d^c (a no-op) before the quotient by d(Ker d^c)."""
    joint = subspace_intersect(tc.kerd_cap_kerdc(k), tc.imd_cap_imdc(k))
    dk = tc.d_ker_dc(k)
    return tc.h_ker_dc(k) - (subspace_sum(joint, dk).dim - dk.dim)


def les_models(group):
    if group == "sweep":
        return [tc for _, tc in equivalence_sweep()]
    if group == "vaisman":
        return [TotalComplex(vaisman_model(n, P)) for n, P in (
            (1, {(0, 0): 1}), (2, {(0, 0): 2, (1, 0): 1, (0, 1): 1}),
            (3, {(0, 0): 1, (1, 1): 1}), (4, {(0, 0): 1, (2, 0): 1, (0, 2): 1}))]
    if group == "surface":
        return [TotalComplex(surface_model(*b)) for b in (
            (0, 0, 0, 2), (2, 1, 0, 3), (4, 2, 1, 6), (7, 3, 2, 8))]
    # Gaussian sums: del times 1 + 2i on the first sweep sums
    return [TotalComplex(Bicomplex(
        tc.A.spaces, {pq: m * Scalar(1, 2) for pq, m in tc.A.del_maps.items()},
        tc.A.delbar_maps)) for _, tc in equivalence_sweep()[:20]]


@pytest.mark.parametrize("group", ["sweep", "vaisman", "surface", "gaussian"])
def test_rank_incl_against_old_route(group):
    for tc in les_models(group):
        rows = les(tc).rows
        for k in tc.degrees():
            assert subspace_intersect(tc.kerd_cap_kerdc(k), tc.imd_cap_imdc(k)) \
                == tc.imd_cap_imdc(k), k
            assert rows[k].rank_incl == old_rank_incl(tc, k), k
            # the replaced route for delta: its own quotient in degree k + 1
            dk = tc.d_ker_dc(k + 1)
            assert rows[k].rank_delta == \
                subspace_sum(tc.imd_cap_imdc(k + 1), dk).dim - dk.dim, k


def test_les_takes_each_quotient_once(monkeypatch):
    """dim((Im d ∩ Im d^c + dK)/dK) in degree k is Ker(i + pi)_k and
    rank delta_{k-1}: one computation per degree, plus one above the top."""
    calls = []
    mod_dim = conditions._mod_dim

    def counted(space, denom):
        calls.append(1)
        return mod_dim(space, denom)

    monkeypatch.setattr(conditions, "_mod_dim", counted)
    for tc in les_models("vaisman"):
        calls.clear()
        les(TotalComplex(tc.A))
        assert len(calls) == len(tc.degrees()) + 1


class TestDdc3:
    def test_holds_on_small_pieces(self):
        for A in (
            realize_shape(dot_shape(0, 0)),
            realize_shape(square_shape(2, 0)),
            realize_shape(OUT_L),
            realize_shape(REV_L),
            direct_sum(realize_shape(dot_shape(1, 1)), realize_shape(square_shape(0, 0))),
        ):
            report = check_ddc3(A)
            assert report.holds and report.agree
            assert report.witness is None

    def test_even_length_two_fails(self):
        report = check_ddc3(zigzag((0, 0), 2, "horizontal"))
        assert not report.holds
        assert not report.e1_degenerate
        assert report.witness["shape"]["length"] == 2
        assert report.witness["degree"] == 1
        assert report.witness["element"]

    def test_incoming_five_fails_with_pdef_two(self):
        report = check_ddc3(zigzag((1, 2), 5, "horizontal"))
        assert not report.holds
        assert report.pdef == 2
        assert report.e1_degenerate

    def test_ddc_iff_ddc3_and_pure(self):
        pure = direct_sum(realize_shape(dot_shape(0, 0)), realize_shape(square_shape(1, 1)))
        assert check_ddc(pure)
        assert check_ddc3(pure).holds and check_ddc3(pure).pdef == 0

        L = realize_shape(OUT_L)
        assert not check_ddc(L)
        report = check_ddc3(L)
        assert report.holds and report.pdef == 1


class TestNumerics:
    def test_square_plus_dots_all_equalities(self):
        A = direct_sum(
            realize_shape(square_shape(0, 0)), direct_sum(realize_shape(dot_shape(1, 0)), realize_shape(dot_shape(0, 0)))
        )
        assert numeric_report(A).slacks == (0, 0, 0)

    def test_single_l(self):
        report = numeric_report(realize_shape(OUT_L))
        assert report.h_bc == 2 and report.h_a == 1
        assert report.slacks == (1, 0, 0)

    def test_even_two(self):
        report = numeric_report(zigzag((0, 0), 2, "horizontal"))
        assert report.h_dolbeault + report.h_conj_dolbeault == 2
        assert report.sum_betti == 0
        assert report.slacks == (0, 0, 2)

    def test_incoming_five(self):
        report = numeric_report(zigzag((1, 2), 5, "horizontal"))
        assert report.slacks == (1, 2, 0)
        assert report.equalities == (False, False, True)


    def test_census_shared_with_check_ddc3(self, monkeypatch):
        calls = []
        real = decomposition._square_counts

        def counted(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(decomposition, "_square_counts", counted)
        tc = TotalComplex(direct_sum(
            realize_shape(OUT_L), zigzag((1, 2), 5, "horizontal")))
        check_ddc3(tc)
        assert numeric_report(tc).slacks == (2, 2, 0)
        assert len(calls) == 1


class TestPurityDiagram:
    def test_dots_pure(self):
        report = purity_diagram(direct_sum(realize_shape(dot_shape(0, 0)), realize_shape(dot_shape(1, 1))))
        assert report.pure
        assert not report.upper and not report.lower
        assert report.phi_ranks == {0: 1, 2: 1}

    def test_square_pure(self):
        report = purity_diagram(realize_shape(square_shape(0, 0)))
        assert report.pure
        assert not report.phi_ranks and not report.psi_ranks

    def test_incoming_l(self):
        report = purity_diagram(realize_shape(REV_L))
        assert not report.pure
        assert report.upper == {2: 1} and not report.lower
        assert not report.phi_ranks
        assert report.psi_ranks == {1: 2}

    def test_outgoing_l(self):
        report = purity_diagram(realize_shape(OUT_L))
        assert not report.pure
        assert report.lower == {0: 1} and not report.upper
        assert report.phi_ranks == {1: 2}
        assert not report.psi_ranks

    def test_incoming_five(self):
        report = purity_diagram(zigzag((1, 2), 5, "horizontal"))
        assert report.upper == {4: 1} and not report.lower


class TestJControlled:
    def test_dots_always(self):
        A = direct_sum(realize_shape(dot_shape(0, 0)), realize_shape(dot_shape(2, 1)))
        for j in range(6):
            assert j_controlled(A, j)
        assert all(v == 0 for v in ell(A).values())

    def test_outgoing_l_at_j(self):
        A = direct_sum(realize_shape(OUT_L), realize_shape(dot_shape(1, 1)))
        assert j_controlled(A, 0)
        assert not j_controlled(A, 1)

    def test_reverse_l_below_j(self):
        A = realize_shape(REV_L)
        assert j_controlled(A, 0)
        assert not j_controlled(A, 1)
        assert not j_controlled(A, 2)

    def test_even_blocks_its_degree(self):
        assert not j_controlled(zigzag((0, 0), 2, "horizontal"), 0)

    def test_ell_censuses(self):
        assert ell(realize_shape(OUT_L)) == {0: 0, 1: 1}
        assert ell(realize_shape(REV_L)) == {1: 0, 2: 0}
        assert ell(zigzag((0, 0), 2, "horizontal")) == {0: 0, 1: 1}
        assert ell(zigzag((0, 0), 4, "horizontal")) == {0: 0, 1: 2}
        assert ell(zigzag((1, 2), 5, "horizontal")) == {3: 0, 4: 1}
        assert ell(zigzag((0, 2), 5, "vertical")) == {2: 0, 3: 2}


def _ell_prediction(table):
    out = {}
    for shape, mult in table:
        if shape.kind != "zigzag":
            continue
        hi = shape_degree_span(shape)[1]
        if shape.length % 2 == 0:
            v = shape.length // 2
        elif shape.orientation == "out":
            v = (shape.length - 1) // 2
        else:
            v = (shape.length - 1) // 2 - 1
        if v:
            out[hi] = out.get(hi, 0) + v * mult
    return out


@given(tables_strategy(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_ell_matches_shape_census(table, seed):
    A = scramble(realize(table), seed)
    computed = {k: v for k, v in ell(A).items() if v}
    assert computed == _ell_prediction(table)


@given(tables_strategy(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_verdict_matches_shape_census(table, seed):
    A = scramble(realize(table), seed)
    report = check_ddc3(A)
    assert report.agree
    assert report.holds == all(
        s.kind != "zigzag" or s.length == 3 for s, _ in table
    )
    assert check_ddc(A) == (report.holds and report.pdef == 0)


@given(small_complexes(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_les_exact_on_random_sums(A, seed):
    assert les(scramble(A, seed)).exact


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_numeric_chain_consistent(A):
    report = numeric_report(A)
    assert min(report.slacks) >= 0


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_purity_reports_do_not_disagree(A):
    report = purity_diagram(A)
    assert report.pure == (purity_defect(A)[1] == 0)


@given(small_complexes(), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_j_controlled_routes_agree(A, j):
    j_controlled(A, j)


@given(small_complexes(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_les_duality(A, n):
    mirror = les(dual(A, n))
    original = les(A)
    for k, row in original.rows.items():
        other = mirror.rows.get(2 * n - k)
        got = other.h_ker_dc if other else 0
        assert got == row.h_coim_dc
