"""Connecting-map ranks, ddc/ddc+3 verdicts, numerics, purity, j-control.

Single-shape oracles follow the zigzag tables: an even zigzag of length
2m has one connecting map of rank m at its lower degree, an odd zigzag
of length 2m+1 has rank m-1 there, and dots, squares and both L's have
none.  Kernel sizes of H(i) sit at the upper degree: m for even and
outgoing-odd shapes, m-1 for incoming-odd ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.bicomplex import (
    Bicomplex,
    direct_sum,
    dual,
    make_dot,
    make_square,
    make_zigzag,
    scramble,
    shape_degree_span,
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
from zzcalc import decomposition
from zzcalc.decomposition import realize
from zzcalc.functors import TotalComplex, purity_defect

from test_bicomplex import small_complexes
from test_decomposition import tables_strategy

OUT_L = zigzag_shape((0, 0), 3, "vertical")
REV_L = zigzag_shape((0, 1), 3, "horizontal")


def zigzag(anchor, length, first):
    return make_zigzag(zigzag_shape(anchor, length, first))


class TestLes:
    def test_dot_splits(self):
        report = les(make_dot((2, 1)))
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
                assert report.delta_ranks() == {k0: m}, (m, first)

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
                assert report.delta_ranks() == expected, (m, first)

    def test_dot_and_square_and_ls_have_no_delta(self):
        for A in (
            make_dot((0, 0)),
            make_square((1, 1)),
            make_zigzag(OUT_L),
            make_zigzag(REV_L),
        ):
            assert les(A).delta_ranks() == {}


class TestDdc3:
    def test_holds_on_small_pieces(self):
        for A in (
            make_dot((0, 0)),
            make_square((2, 0)),
            make_zigzag(OUT_L),
            make_zigzag(REV_L),
            direct_sum(make_dot((1, 1)), make_square((0, 0))),
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
        pure = direct_sum(make_dot((0, 0)), make_square((1, 1)))
        assert check_ddc(pure)
        assert check_ddc3(pure).holds and check_ddc3(pure).pdef == 0

        L = make_zigzag(OUT_L)
        assert not check_ddc(L)
        report = check_ddc3(L)
        assert report.holds and report.pdef == 1


class TestNumerics:
    def test_square_plus_dots_all_equalities(self):
        A = direct_sum(
            make_square((0, 0)), direct_sum(make_dot((1, 0)), make_dot((0, 0)))
        )
        assert numeric_report(A).slacks == (0, 0, 0)

    def test_single_l(self):
        report = numeric_report(make_zigzag(OUT_L))
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
            make_zigzag(OUT_L), zigzag((1, 2), 5, "horizontal")))
        check_ddc3(tc)
        assert numeric_report(tc).slacks == (2, 2, 0)
        assert len(calls) == 1


class TestPurityDiagram:
    def test_dots_pure(self):
        report = purity_diagram(direct_sum(make_dot((0, 0)), make_dot((1, 1))))
        assert report.pure
        assert not report.upper and not report.lower
        assert report.phi_ranks == {0: 1, 2: 1}

    def test_square_pure(self):
        report = purity_diagram(make_square((0, 0)))
        assert report.pure
        assert not report.phi_ranks and not report.psi_ranks

    def test_incoming_l(self):
        report = purity_diagram(make_zigzag(REV_L))
        assert not report.pure
        assert report.upper == {2: 1} and not report.lower
        assert not report.phi_ranks
        assert report.psi_ranks == {1: 2}

    def test_outgoing_l(self):
        report = purity_diagram(make_zigzag(OUT_L))
        assert not report.pure
        assert report.lower == {0: 1} and not report.upper
        assert report.phi_ranks == {1: 2}
        assert not report.psi_ranks

    def test_incoming_five(self):
        report = purity_diagram(zigzag((1, 2), 5, "horizontal"))
        assert report.upper == {4: 1} and not report.lower


class TestJControlled:
    def test_dots_always(self):
        A = direct_sum(make_dot((0, 0)), make_dot((2, 1)))
        for j in range(6):
            assert j_controlled(A, j)
        assert all(v == 0 for v in ell(A).values())

    def test_outgoing_l_at_j(self):
        A = direct_sum(make_zigzag(OUT_L), make_dot((1, 1)))
        assert j_controlled(A, 0)
        assert not j_controlled(A, 1)

    def test_reverse_l_below_j(self):
        A = make_zigzag(REV_L)
        assert j_controlled(A, 0)
        assert not j_controlled(A, 1)
        assert not j_controlled(A, 2)

    def test_even_blocks_its_degree(self):
        assert not j_controlled(zigzag((0, 0), 2, "horizontal"), 0)

    def test_ell_censuses(self):
        assert ell(make_zigzag(OUT_L)) == {0: 0, 1: 1}
        assert ell(make_zigzag(REV_L)) == {1: 0, 2: 0}
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
