"""Tests for the geometric model builders.

The Hopf-case oracles (dims, census, Betti numbers, expected
Bott-Chern/Aeppli tables) were expanded by hand from the eight-element
algebra x*Lambda<th10,th01,w>/(w^2).  The generic census prediction in
_predicted_census restates the structure theorem for the model: per
primitive generator at (p,q) with m = n-p-q >= 1 one gets a dot at
(p,q), a dot at (n+1-q,n+1-p), an incoming L with corner
(p+1,q+1), an outgoing L with valley (p+m,q+m) and m-1 squares on the
diagonal between them; m = 0 gives four dots.  The decomposition
machinery recomputes the census from the matrices, so the two routes
are independent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.bicomplex import (
    MultiplicityTable,
    dot_shape,
    realize_shape,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.conditions import check_ddc, check_ddc3
from zzcalc.decomposition import multiplicities, realize
from zzcalc.errors import InvalidInput
from zzcalc.functors import (
    TotalComplex,
    betti,
    cohomology,
    purity_defect,
    star_condition,
)
from zzcalc.models import (
    blowup_model,
    product_model,
    projective_bundle_model,
    surface_model,
    vaisman_expected_bc,
    vaisman_model,
)

HOPF_TABLE = MultiplicityTable({
    dot_shape(0, 0): 1,
    dot_shape(2, 2): 1,
    zigzag_shape((0, 1), 3, "horizontal"): 1,
    zigzag_shape((1, 1), 3, "vertical"): 1,
})


def _predicted_census(n, P):
    pred = {}

    def bump(shape, v):
        pred[shape] = pred.get(shape, 0) + v

    for (p, q), v in P.items():
        m = n - p - q
        if m == 0:
            for s in (
                dot_shape(p, q),
                dot_shape(p + 1, q),
                dot_shape(p, q + 1),
                dot_shape(p + 1, q + 1),
            ):
                bump(s, v)
        else:
            bump(dot_shape(p, q), v)
            bump(dot_shape(n + 1 - q, n + 1 - p), v)
            bump(zigzag_shape((p, q + 1), 3, "horizontal"), v)
            bump(zigzag_shape((p + m, q + m), 3, "vertical"), v)
            for c in range(1, m):
                bump(square_shape(p + c, q + c), v)
    return MultiplicityTable(pred)


class TestVaismanInput:
    def test_n_zero_rejected(self):
        with pytest.raises(InvalidInput):
            vaisman_model(0, {(0, 0): 1})
        with pytest.raises(InvalidInput):
            vaisman_expected_bc(0, {(0, 0): 1})

    def test_missing_unit_rejected(self):
        with pytest.raises(InvalidInput):
            vaisman_model(2, {(1, 0): 1, (0, 1): 1})

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            vaisman_model(2, {(0, 0): 1, (1, 0): 2, (0, 1): 1})

    def test_out_of_range_bidegree_rejected(self):
        with pytest.raises(InvalidInput):
            vaisman_model(1, {(0, 0): 1, (1, 1): 1})
        with pytest.raises(InvalidInput):
            vaisman_model(2, {(0, 0): 1, (-1, 0): 1})

    def test_negative_dimension_rejected(self):
        with pytest.raises(InvalidInput):
            vaisman_model(2, {(0, 0): 1, (1, 1): -1})


class TestHopf:
    def setup_method(self):
        self.H = vaisman_model(1, {(0, 0): 1})

    def test_dims(self):
        assert self.H.spaces == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2,
            (2, 1): 1, (1, 2): 1, (2, 2): 1,
        }

    def test_labels(self):
        assert self.H.labels[(1, 1)] == [
            "x(0,0)#0*w", "x(0,0)#0*th10*th01",
        ]
        assert self.H.labels[(2, 2)] == ["x(0,0)#0*th10*th01*w"]
        for pq, dim in self.H.spaces.items():
            assert len(self.H.labels[pq]) == dim

    def test_census(self):
        assert multiplicities(self.H) == HOPF_TABLE

    def test_betti(self):
        assert betti(self.H) == {0: 1, 1: 1, 3: 1, 4: 1}

    def test_expected_tables(self):
        ebc, eae = vaisman_expected_bc(1, {(0, 0): 1})
        assert ebc.functor == "bott_chern"
        assert eae.functor == "aeppli"
        assert ebc.dims == {(0, 0): 1, (1, 1): 1}
        assert ebc.dims.get((1, 0), 0) == 0
        assert eae.dims == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_computed_matches_expected_through_middle(self):
        ebc, eae = vaisman_expected_bc(1, {(0, 0): 1})
        bc = cohomology(self.H, "bott_chern").dims
        ae = cohomology(self.H, "aeppli").dims
        for (p, q), v in ebc.dims.items():
            assert bc.get((p, q), 0) == v
        for (p, q), v in eae.dims.items():
            assert ae.get((p, q), 0) == v
        for (p, q), v in bc.items():
            if p + q <= 2:
                assert ebc.dims.get((p, q), 0) == v
        for (p, q), v in ae.items():
            if p + q <= 2:
                assert eae.dims.get((p, q), 0) == v

    def test_pure_in_middle_degree(self):
        per_degree, total = purity_defect(self.H)
        assert total == 1
        assert per_degree.get(2, 0) == 0

    def test_ddc3_and_star(self):
        assert check_ddc3(self.H).holds
        assert star_condition(self.H)


class TestVaismanCensus:
    def test_multi_primitive(self):
        n = 3
        P = {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}
        A = vaisman_model(n, P)
        assert multiplicities(A) == _predicted_census(n, P)

    def test_top_degree_four_dots(self):
        n = 2
        P = {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 1}
        A = vaisman_model(n, P)
        assert multiplicities(A) == _predicted_census(n, P)
        tab = multiplicities(A)
        assert tab.get(dot_shape(2, 0)) == 1
        assert tab.get(dot_shape(3, 1)) == 1

    def test_squares_appear_for_deep_truncation(self):
        A = vaisman_model(3, {(0, 0): 1})
        tab = multiplicities(A)
        assert tab.get(square_shape(1, 1)) == 1
        assert tab.get(square_shape(2, 2)) == 1
        assert tab.get(dot_shape(4, 4)) == 1


class TestExpectedBc:
    def test_two_branches(self):
        ebc, eae = vaisman_expected_bc(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert ebc.dims == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1,
            (2, 1): 1, (1, 2): 1,
        }
        assert eae.dims == {
            (0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 2,
            (2, 0): 1, (0, 2): 1, (2, 1): 1, (1, 2): 1,
        }


@st.composite
def vaisman_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    P = {(0, 0): draw(st.integers(min_value=1, max_value=2))}
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n),
                st.integers(min_value=0, max_value=n),
                st.integers(min_value=1, max_value=2),
            ),
            max_size=2,
        )
    )
    for p, q, v in pairs:
        if p + q == 0 or p + q > n:
            continue
        P[(p, q)] = v
        P[(q, p)] = v
    return n, P


@given(vaisman_inputs())
@settings(max_examples=10, deadline=None)
def test_vaisman_invariants(inp):
    n, P = inp
    A = vaisman_model(n, P)
    tc = TotalComplex(A)
    for (p, q), dim in A.spaces.items():
        assert A.spaces.get((q, p)) == dim
    assert check_ddc3(tc).holds
    assert star_condition(tc)
    per_degree, total = purity_defect(tc)
    assert total <= 1
    assert per_degree.get(n + 1, 0) == 0
    ebc, eae = vaisman_expected_bc(n, P)
    bc = cohomology(tc, "bott_chern").dims
    ae = cohomology(tc, "aeppli").dims
    for table, expect in ((bc, ebc.dims), (ae, eae.dims)):
        for (p, q), v in expect.items():
            assert table.get((p, q), 0) == v
        for (p, q), v in table.items():
            if p + q <= n + 1:
                assert expect.get((p, q), 0) == v


@given(vaisman_inputs())
@settings(max_examples=10, deadline=None)
def test_vaisman_census_matches_prediction(inp):
    n, P = inp
    assert multiplicities(vaisman_model(n, P)) == _predicted_census(n, P)


class TestSurface:
    def test_hopf_parameters_match_vaisman(self):
        S = surface_model(1, 0, 0, 0)
        assert multiplicities(S) == HOPF_TABLE

    def test_k3_like(self):
        S = surface_model(0, 0, 1, 22)
        assert check_ddc(S)
        assert betti(S) == {0: 1, 2: 22, 4: 1}
        assert cohomology(S, "dolbeault").dims[(1, 1)] == 20
        assert purity_defect(S)[1] == 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInput):
            surface_model(2, 0, 0, 0)
        with pytest.raises(InvalidInput):
            surface_model(0, 0, 1, 1)
        with pytest.raises(InvalidInput):
            surface_model(-1, 0, 0, 0)

    def test_generic_hodge_numbers(self):
        S = surface_model(3, 1, 1, 5)
        tc = TotalComplex(S)
        dol = cohomology(tc, "dolbeault").dims
        assert dol[(0, 1)] == 2
        assert dol[(1, 1)] == 3
        b = betti(tc)
        assert b[1] == 3
        assert check_ddc3(tc).holds
        assert purity_defect(tc)[1] == 1


@st.composite
def surface_params(draw):
    b1 = draw(st.integers(min_value=0, max_value=5))
    h20 = draw(st.integers(min_value=0, max_value=2))
    b2 = 2 * h20 + draw(st.integers(min_value=0, max_value=5))
    return b1, b1 // 2, h20, b2


@given(surface_params())
@settings(max_examples=15, deadline=None)
def test_surface_invariants(params):
    b1, h10, h20, b2 = params
    S = surface_model(b1, h10, h20, b2)
    tc = TotalComplex(S)
    for (p, q), dim in S.spaces.items():
        assert S.spaces.get((q, p)) == dim
    b = betti(tc)
    for k in range(5):
        assert b.get(k, 0) == b.get(4 - k, 0)
    assert b.get(1, 0) == b1
    assert b.get(2, 0) == b2
    dol = cohomology(tc, "dolbeault").dims
    assert dol.get((0, 1), 0) == h10 + b1 % 2
    assert dol.get((1, 1), 0) == b2 - 2 * h20
    assert check_ddc3(tc).holds
    assert purity_defect(tc)[1] <= 1


class TestBlowup:
    def test_center_stays_ddc3(self):
        A = surface_model(1, 0, 0, 0)
        Z = realize_shape(dot_shape(0, 0))
        assert check_ddc3(blowup_model(A, Z, 2)).holds

    def test_long_zigzag_center_breaks_ddc3(self):
        A = realize_shape(dot_shape(0, 0))
        Z = realize_shape(zigzag_shape((1, 2), 5, "horizontal"))
        assert not check_ddc3(blowup_model(A, Z, 3)).holds

    def test_codimension_guard(self):
        with pytest.raises(InvalidInput):
            blowup_model(realize_shape(dot_shape(0, 0)), realize_shape(dot_shape(0, 0)), 1)

    def test_census_is_sum_of_shifts(self):
        A = realize_shape(square_shape(0, 0))
        Z = realize_shape(zigzag_shape((0, 1), 3, "horizontal"))
        B = blowup_model(A, Z, 3)
        expect = MultiplicityTable({
            square_shape(0, 0): 1,
            zigzag_shape((1, 2), 3, "horizontal"): 1,
            zigzag_shape((2, 3), 3, "horizontal"): 1,
        })
        assert multiplicities(B) == expect


class TestBundle:
    def test_rank_guard(self):
        with pytest.raises(InvalidInput):
            projective_bundle_model(realize_shape(dot_shape(0, 0)), 0)

    def test_rank_one_is_identity(self):
        A = realize_shape(zigzag_shape((0, 0), 4, "vertical"))
        B = projective_bundle_model(A, 1)
        assert multiplicities(B) == multiplicities(A)

    def test_betti_adds_up(self):
        A = surface_model(1, 0, 0, 0)
        B = projective_bundle_model(A, 3)
        bA = betti(A)
        bB = betti(B)
        expect = {}
        for i in range(3):
            for k, v in bA.items():
                expect[k + 2 * i] = expect.get(k + 2 * i, 0) + v
        assert bB == expect


class TestProduct:
    def test_ddc_times_ddc3(self):
        A = realize(MultiplicityTable({
            dot_shape(0, 0): 1, square_shape(0, 0): 1,
        }))
        B = surface_model(1, 0, 0, 0)
        assert check_ddc3(product_model(A, B)).holds

    def test_two_strict_factors_fail(self):
        H = surface_model(1, 0, 0, 0)
        P = product_model(H, H)
        report = check_ddc3(P)
        assert not report.holds
        assert purity_defect(P)[1] == 2


@st.composite
def odd_zigzag_pairs(draw):
    first = draw(st.sampled_from(["horizontal", "vertical"]))
    m1 = draw(st.integers(min_value=1, max_value=3))
    m2 = draw(st.integers(min_value=1, max_value=3))
    a1 = (draw(st.integers(min_value=0, max_value=2)),
          draw(st.integers(min_value=0, max_value=2)))
    a2 = (draw(st.integers(min_value=0, max_value=2)),
          draw(st.integers(min_value=0, max_value=2)))
    return (
        zigzag_shape(a1, 2 * m1 + 1, first),
        zigzag_shape(a2, 2 * m2 + 1, first),
        m1 + m2,
    )


@given(odd_zigzag_pairs())
@settings(max_examples=12, deadline=None)
def test_product_pdef_additive_on_matched_pairs(pair):
    s1, s2, expect = pair
    P = product_model(realize_shape(s1), realize_shape(s2))
    tc = TotalComplex(P)
    assert purity_defect(tc)[1] == expect
    table = multiplicities(tc)
    odd = [
        s.length for s, _ in table
        if s.kind == "zigzag" and s.length % 2 == 1
    ]
    assert odd, "tensor of odd zigzags lost its odd zigzags"
    assert max((L - 1) // 2 for L in odd) == expect


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_product_pdef_additive_on_duality_closed_sums(m1, m2, pad):
    def closed_sum(m, anchor):
        parts = {
            zigzag_shape(anchor, 2 * m + 1, "horizontal"): 1,
            zigzag_shape(anchor, 2 * m + 1, "vertical"): 1,
        }
        if pad:
            parts[dot_shape(0, 0)] = 1
            parts[square_shape(1, 0)] = 1
        return realize(MultiplicityTable(parts))

    A = closed_sum(m1, (0, 1))
    B = closed_sum(m2, (1, 0))
    assert purity_defect(A)[1] == m1
    assert purity_defect(B)[1] == m2
    assert purity_defect(product_model(A, B))[1] == m1 + m2


def test_product_betti_kunneth():
    A = surface_model(1, 0, 0, 0)
    B = realize_shape(square_shape(0, 0))
    P = product_model(A, B)
    assert betti(P) == {}


def test_scrambled_vaisman_census_is_stable():
    A = vaisman_model(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert multiplicities(scramble(A, seed=7)) == _predicted_census(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
