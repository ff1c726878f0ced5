"""Functor tables, filtrations, spectral pages, purity."""

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
    square_shape,
    transpose_bicomplex,
    zigzag_shape,
)
from zzcalc.errors import InvalidInput
from zzcalc.functors import (
    BIGRADED_FUNCTORS,
    FUNCTORS,
    TotalComplex,
    betti,
    cohomology,
    hodge_filtration,
    purity_defect,
    refined_betti,
    spectral_page,
    star_condition,
)

from zzcalc.linalg import (
    Scalar,
    image_basis,
    kernel_basis,
    subspace_intersect,
    subspace_sum,
)

from test_bicomplex import shapes_strategy, small_complexes
from test_filtration_oracle import scrambled_sums

# two length-2 zigzags into one bidegree: Im del and Im delbar there are
# distinct lines, so only [del | delbar] side by side has rank 2
BIGRADED_SUMS = scrambled_sums(8, seed=20261020) + [scramble(direct_sum(
    realize_shape(zigzag_shape((0, 1), 2, "horizontal")),
    realize_shape(zigzag_shape((1, 0), 2, "vertical"))), 3)]


OUT_L = zigzag_shape((0, 0), 3, "vertical")
REV_L = zigzag_shape((0, 1), 3, "horizontal")


class TestSingleShapes:
    def test_dot_has_everything_in_one_spot(self):
        A = realize_shape(dot_shape(1, 1))
        assert betti(A) == {2: 1}
        for f in ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli"):
            assert cohomology(A, f).dims == {(1, 1): 1}
        for f in ("ker_dc", "coim_dc"):
            assert cohomology(A, f).dims == {2: 1}
        for f in ("purity_upper", "purity_lower"):
            assert cohomology(A, f).dims == {}

    def test_square_is_invisible_to_every_functor(self):
        A = realize_shape(square_shape(0, 0))
        for f in FUNCTORS:
            assert cohomology(A, f).dims == {}, f

    def test_outgoing_l(self):
        # the quotient complex is an isomorphism, the kernel sits on top
        A = realize_shape(OUT_L)
        assert betti(A) == {1: 1}
        assert cohomology(A, "ker_dc").dims == {1: 2}
        assert cohomology(A, "coim_dc").dims == {}

    def test_incoming_l(self):
        A = realize_shape(REV_L)
        assert betti(A) == {1: 1}
        assert cohomology(A, "ker_dc").dims == {}
        assert cohomology(A, "coim_dc").dims == {1: 2}

    def test_incoming_length5_per_figure_row(self):
        # lower-diagonal entries (1,2),(2,1),(3,0); m = 2
        A = realize_shape(zigzag_shape((1, 2), 5, "horizontal"))
        assert cohomology(A, "coim_dc").dims == {3: 3}
        assert cohomology(A, "ker_dc").dims == {4: 1}

    def test_outgoing_length5_per_figure_row(self):
        # lower degree 2, upper degree 3; m = 2
        A = realize_shape(zigzag_shape((0, 2), 5, "vertical"))
        assert cohomology(A, "ker_dc").dims == {3: 3}
        assert cohomology(A, "coim_dc").dims == {2: 1}


class TestKerCoimOnLs:
    """Unreduced complexes Ker dc and A/Im dc, degreewise, for the L's.

    The outgoing L has Ker dc of dims (1,2) with zero differential; the
    incoming one mirrors it on A/Im dc.
    """

    def test_outgoing_l_term_dims(self):
        A = realize_shape(OUT_L)
        tc = TotalComplex(A)
        assert [tc.ker_dc(k).dim for k in (0, 1)] == [0, 2]
        assert [tc.dim(k) - tc.im_dc(k).dim for k in (0, 1)] == [1, 1]

    def test_incoming_l_term_dims(self):
        A = realize_shape(REV_L)
        tc = TotalComplex(A)
        assert [tc.ker_dc(k).dim for k in (1, 2)] == [1, 1]
        assert [tc.dim(k) - tc.im_dc(k).dim for k in (1, 2)] == [2, 0]


class TestRefinedBetti:
    def test_dot(self):
        assert refined_betti(realize_shape(dot_shape(2, 3))) == {(2, 3, 5): 1}

    def test_square(self):
        assert refined_betti(realize_shape(square_shape(1, 1))) == {}

    def test_incoming_length5_class_sits_at_extreme_levels(self):
        A = realize_shape(zigzag_shape((1, 2), 5, "horizontal"))
        assert refined_betti(A) == {(1, 0, 3): 1}

    def test_outgoing_length5_class_sits_at_extreme_levels(self):
        A = realize_shape(zigzag_shape((0, 2), 5, "vertical"))
        assert refined_betti(A) == {(2, 3, 3): 1}

    def test_ls_are_off_pure_by_one(self):
        assert refined_betti(realize_shape(OUT_L)) == {(1, 1, 1): 1}
        assert refined_betti(realize_shape(REV_L)) == {(0, 0, 1): 1}

    def test_filtration_is_descending(self):
        A = direct_sum(realize_shape(OUT_L), realize_shape(dot_shape(1, 0)))
        t = hodge_filtration(A)
        ps = sorted(p for (p, k) in t.F if k == 1)
        dims = [t.F[(p, 1)] for p in ps]
        assert dims == sorted(dims, reverse=True)
        assert dims[0] == 2 and dims[-1] == 0


class TestSpectralPages:
    def test_del_line_column_sequence(self):
        A = realize_shape(zigzag_shape((0, 0), 2, "horizontal"))
        p1 = spectral_page(A, "column", 1)
        assert p1.dims == {(0, 0): 1, (1, 0): 1}
        assert p1.d_ranks == {(0, 0): 1}
        assert spectral_page(A, "column", 2).dims == {}

    def test_delbar_line_column_vs_row(self):
        A = realize_shape(zigzag_shape((0, 0), 2, "vertical"))
        assert spectral_page(A, "column", 1).dims == {}
        r1 = spectral_page(A, "row", 1)
        assert r1.dims == {(0, 0): 1, (0, 1): 1}
        assert r1.d_ranks == {(0, 0): 1}

    def test_square_has_empty_first_pages(self):
        A = realize_shape(square_shape(0, 0))
        assert spectral_page(A, "column", 1).dims == {}
        assert spectral_page(A, "row", 1).dims == {}

    def test_length_four_zigzag_survives_to_page_two(self):
        # horizontal-first length 4: d_1 vanishes, a d_2 of rank 1 remains
        A = realize_shape(zigzag_shape((0, 0), 4, "horizontal"))
        p1 = spectral_page(A, "column", 1)
        assert p1.d_ranks == {}
        assert sum(p1.dims.values()) == 2
        p2 = spectral_page(A, "column", 2)
        assert sum(p2.d_ranks.values()) == 1
        assert spectral_page(A, "column", 3).dims == {}

    def test_page_index_validated(self):
        with pytest.raises(InvalidInput):
            spectral_page(realize_shape(dot_shape(0, 0)), "column", 0)
        with pytest.raises(InvalidInput):
            spectral_page(realize_shape(dot_shape(0, 0)), "diagonal", 1)


class TestPurity:
    def test_dot_is_pure(self):
        per, total = purity_defect(realize_shape(dot_shape(3, 1)))
        assert total == 0 and per[4] == 0

    def test_l_has_defect_one(self):
        assert purity_defect(realize_shape(OUT_L))[1] == 1
        assert purity_defect(realize_shape(REV_L))[1] == 1

    def test_length5_has_defect_two(self):
        assert purity_defect(realize_shape(zigzag_shape((1, 2), 5, "horizontal")))[1] == 2

    def test_empty_complex(self):
        from zzcalc.bicomplex import Bicomplex

        per, total = purity_defect(Bicomplex({}))
        assert per == {} and total == 0
        assert star_condition(Bicomplex({}))

    def test_star_true_for_adjacent_contributions(self):
        A = direct_sum(realize_shape(dot_shape(1, 0)), realize_shape(OUT_L))
        assert star_condition(A)

    def test_star_false_for_gapped_contributions(self):
        A = direct_sum(realize_shape(REV_L), realize_shape(OUT_L))
        assert not star_condition(A)

    def test_purity_groups_on_length5(self):
        # incoming odd zigzags feed the upper obstruction group at the
        # top degree, outgoing ones the lower group at the bottom degree
        A = realize_shape(zigzag_shape((1, 2), 5, "horizontal"))
        assert cohomology(A, "purity_upper").dims == {4: 1}
        assert cohomology(A, "purity_lower").dims == {}
        B = realize_shape(zigzag_shape((0, 2), 5, "vertical"))
        assert cohomology(B, "purity_lower").dims == {2: 1}
        assert cohomology(B, "purity_upper").dims == {}


@given(small_complexes(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_all_tables_are_scramble_invariant(A, seed):
    S = scramble(A, seed)
    for f in FUNCTORS:
        assert cohomology(A, f) == cohomology(S, f), f
    assert refined_betti(A) == refined_betti(S)
    assert purity_defect(A) == purity_defect(S)


@given(small_complexes(), small_complexes())
@settings(max_examples=25, deadline=None)
def test_tables_are_additive(A, B):
    S = direct_sum(A, B)
    for f in FUNCTORS:
        da, db = cohomology(A, f).dims, cohomology(B, f).dims
        merged = dict(da)
        for key, val in db.items():
            merged[key] = merged.get(key, 0) + val
        assert cohomology(S, f).dims == merged, f


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_euler_characteristic_is_conserved_across_pages(A):
    chi_h = sum((-1) ** k * b for k, b in betti(A).items())
    for which in ("column", "row"):
        for r in (1, 2, 3):
            page = spectral_page(A, which, r)
            chi_e = sum((-1) ** (p + q) * v for (p, q), v in page.dims.items())
            assert chi_e == chi_h, (which, r)


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_transpose_swaps_the_dolbeault_functors(A):
    T = transpose_bicomplex(A)
    left = cohomology(T, "dolbeault").dims
    right = {(q, p): v for (p, q), v in cohomology(A, "conj_dolbeault").dims.items()}
    assert left == right


@given(small_complexes(), st.integers(-1, 3))
@settings(max_examples=20, deadline=None)
def test_duality_pairs_kernel_and_coimage_functors(A, n):
    D = dual(A, n)
    ker = cohomology(A, "ker_dc").dims
    coim_of_dual = cohomology(D, "coim_dc").dims
    assert ker == {2 * n - k: v for k, v in coim_of_dual.items()}


@given(shapes_strategy())
@settings(max_examples=30, deadline=None)
def test_zigzag_purity_defect_is_half_length_rounded_down(s):
    A = realize_shape(s)
    _, total = purity_defect(A)
    if s.kind in ("dot", "square"):
        assert total == 0
    elif s.length % 2 == 0:
        # even zigzags have no de Rham cohomology at all
        assert betti(A) == {}
        assert total == 0
    else:
        assert total == (s.length - 1) // 2


def test_check_ddc3_caches_one_pairing_per_axis():
    """check_ddc3 reads every spectral page from one persistence pairing
    per axis, cached as ("pairs", axis), and caches no page subspaces."""
    from zzcalc.conditions import check_ddc3

    A = direct_sum(realize_shape(square_shape(1, 0)), realize_shape(dot_shape(0, 0)))
    for start, length, direction in (((0, 1), 5, "horizontal"), ((2, 0), 4, "vertical"),
                                     ((1, 1), 3, "horizontal"), ((3, 2), 7, "vertical")):
        A = direct_sum(A, realize_shape(zigzag_shape(start, length, direction)))
    tc = TotalComplex(scramble(A, 11))
    check_ddc3(tc)
    assert sorted(key for key in tc._cache if key[0] == "pairs") == [("pairs", 0), ("pairs", 1)]
    assert not [key for key in tc._cache if key[0] in ("Z", "pageB")]


# ---------------------------------------------------------------------------
# Bigraded dimensions against the subspace route they replaced


def old_bigraded_dims(A, functor):
    """The replaced route, verbatim: kernel and image subspaces, with a
    Zassenhaus intersection for Bott-Chern and a sum for Aeppli."""
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


def gaussian(A):
    """A with del times 1 + 2i: still a bicomplex, with Gaussian del
    beside real delbar, so both kinds of row meet in one rank."""
    return Bicomplex(A.spaces, {pq: m * Scalar(1, 2) for pq, m in A.del_maps.items()},
                     A.delbar_maps)


@pytest.mark.parametrize("i", range(len(BIGRADED_SUMS)))
def test_bigraded_dims_against_subspace_route(i):
    for A in (BIGRADED_SUMS[i], gaussian(BIGRADED_SUMS[i])):
        for functor in BIGRADED_FUNCTORS:
            dims = cohomology(A, functor).dims
            assert dims == old_bigraded_dims(A, functor), functor
            assert list(dims) == sorted(dims)
