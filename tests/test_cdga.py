"""Tests for cdga presentations and the homotopy obstruction.

The nilmanifold oracles are hand-computed from the structure
equations.  For the filiform algebra H^1 = <e1, e2> and the top class
survives to H^{2n}, so r_1^{2n} = 1 while the subalgebra generated in
degree one contributes nothing to the top; the slack there is exactly
one in every even dimension.  The Iwasawa-type algebra has
d(e5) = e1*e3 - e2*e4 and d(e6) = e2*e3 + e1*e4, leaving [e1*e2]
nonzero in H^2, which violates the cup hypothesis at j = 1.  The
six-dimensional ex_k2_M example has H^1 = <e1, e2> with all products
of degree-one classes exact, and b_2 = 2 gives slack two at k = 4.
"""

import itertools
import json
import time
from math import inf
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from zzcalc import cdga
from zzcalc.bicomplex import MultiplicityTable, dot_shape, zigzag_shape
from zzcalc.cdga import (
    CdgaPresentation,
    cdga_cohomology,
    cdga_from_json,
    cdga_to_json,
    compatibility,
    d_jk,
    format_poly,
    j_minimal_model,
    obstruction,
    parse_poly,
    preset,
    r_jk,
    _Engine,
    _identity_map,
    _tower_stage,
)
from zzcalc.decomposition import realize
from zzcalc.errors import (
    InfiniteDimensional,
    InvalidInput,
    NoPoincareDuality,
    NotStabilized,
    UnknownPreset,
)

from fractions import Fraction


def dfs_basis(degs, k):
    """The replaced route of _Engine.basis: depth first over the
    generators on an explicit stack, then sorted."""
    out = []
    # reach[i]: the largest degree generators i.. can fill; odd squares
    # vanish, so only an even generator leaves it unbounded
    reach = [0] * (len(degs) + 1)
    for i in reversed(range(len(degs))):
        reach[i] = inf if degs[i] % 2 == 0 else degs[i] + reach[i + 1]
    # each entry is (next generator, degree still to fill, monomial so far)
    stack = [(0, k, ())] if k >= 0 else []
    while stack:
        i, rem, mono = stack.pop()
        if rem == 0:
            out.append(mono)
            if len(out) > cdga.PIECE_CAP:
                raise InfiniteDimensional(
                    f"degree-{k} piece exceeds {cdga.PIECE_CAP} monomials")
        elif rem <= reach[i]:
            stack.append((i + 1, rem, mono))
            d = degs[i]
            top = min(rem // d, 1) if d % 2 else rem // d  # odd squares vanish
            for cnt in range(1, top + 1):
                stack.append((i + 1, rem - cnt * d, mono + (i,) * cnt))
    out.sort()
    return out


def outcome(f, *args):
    """f(*args), or the message of the InfiniteDimensional it raises."""
    try:
        return f(*args)
    except InfiniteDimensional as exc:
        return f"refused: {exc}"


def torus(k, dim):
    return CdgaPresentation([(f"a{i}", 1) for i in range(k)], {}, dim)


class TestPresentation:
    def test_degree_zero_generator_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("x", 0)], {}, 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("x", 1), ("x", 2)], {}, 2)

    def test_bad_name_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("2x", 1)], {}, 2)

    def test_differential_on_unknown_name(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("x", 1)], {"y": "x"}, 2)

    def test_inhomogeneous_differential_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation(
                [("x", 1), ("y", 2), ("z", 3)], {"x": "y+z"}, 4)

    def test_d_squared_nonzero_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("x", 1), ("y", 2)], {"x": "y", "y": "x*y"}, 4)

    @pytest.mark.parametrize("degrees", [
        (2, 1, 3, 2, 1, 3, 1),
        (1, 3, 1, 3, 1),
    ], ids=["mixed", "odd"])
    def test_basis_matches_brute_force(self, degrees):
        P = CdgaPresentation(
            [(f"g{i}", d) for i, d in enumerate(degrees)], {}, 4)
        eng = _Engine(P)
        # odd generators square to zero; an even one may repeat
        ranges = [range(2) if d % 2 else range(10 // d + 1) for d in degrees]
        for k in range(11):
            expected = sorted(
                sum(((i,) * e for i, e in enumerate(exps)), ())
                for exps in itertools.product(*ranges)
                if sum(e * d for e, d in zip(exps, degrees)) == k)
            assert eng.basis(k) == expected

    # a lowered cap makes the refusal reachable at these sizes
    @settings(max_examples=200, deadline=None)
    @given(degrees=st.lists(st.integers(1, 4), max_size=8), k=st.integers(-1, 14),
           cap=st.sampled_from([cdga.PIECE_CAP, 40, 3]))
    def test_basis_matches_dfs(self, degrees, k, cap):
        P = CdgaPresentation(
            [(f"g{i}", d) for i, d in enumerate(degrees)], {}, 0)
        with mock.patch.object(cdga, "PIECE_CAP", cap):
            assert outcome(_Engine(P).basis, k) == outcome(
                lambda k: dfs_basis(P.degrees, k), k)

    def test_huge_piece_refused_fast(self):
        # the degree-2 piece of filiform(2000) has C(2000, 2) monomials
        start = time.perf_counter()
        with pytest.raises(InfiniteDimensional, match="degree-2 piece exceeds"):
            _Engine(preset("filiform(2000)")).basis(2)
        assert time.perf_counter() - start < 2

    def test_empty_high_piece_is_fast(self):
        # odd degree 511 from generators of even degree: a DFS walks every
        # partial sum before it finds nothing
        P = CdgaPresentation([("a", 2), ("b", 2), ("c", 4)], {}, 0)
        start = time.perf_counter()
        assert _Engine(P).basis(511) == []
        assert time.perf_counter() - start < 0.5

    def test_negative_formal_dimension_rejected(self):
        with pytest.raises(InvalidInput):
            CdgaPresentation([("x", 1)], {}, -2)


class TestPolyGrammar:
    GENS = [("x", 1), ("y", 1), ("w", 2)]

    def _ctx(self):
        P = CdgaPresentation(self.GENS, {}, 4)
        return P.index, P.degrees, P.names

    def test_basic_terms(self):
        index, degrees, _ = self._ctx()
        assert parse_poly("x*y", index, degrees) == {(0, 1): Fraction(1)}
        assert parse_poly("-x*y", index, degrees) == {(0, 1): Fraction(-1)}
        assert parse_poly("y*x", index, degrees) == {(0, 1): Fraction(-1)}
        assert parse_poly("3/2*w", index, degrees) == {(2,): Fraction(3, 2)}

    def test_powers(self):
        index, degrees, _ = self._ctx()
        assert parse_poly("w^2", index, degrees) == {(2, 2): Fraction(1)}
        assert parse_poly("x^2", index, degrees) == {}
        assert parse_poly("2*w^3", index, degrees) == {
            (2, 2, 2): Fraction(2)}

    def test_cancellation(self):
        index, degrees, _ = self._ctx()
        assert parse_poly("x*y+y*x", index, degrees) == {}
        assert parse_poly("w-w", index, degrees) == {}

    def test_unknown_name(self):
        index, degrees, _ = self._ctx()
        with pytest.raises(InvalidInput):
            parse_poly("x*q", index, degrees)

    def test_bad_character(self):
        index, degrees, _ = self._ctx()
        with pytest.raises(InvalidInput):
            parse_poly("x(y)", index, degrees)

    def test_empty(self):
        index, degrees, _ = self._ctx()
        with pytest.raises(InvalidInput):
            parse_poly("", index, degrees)

    def test_dangling_operator(self):
        index, degrees, _ = self._ctx()
        with pytest.raises(InvalidInput):
            parse_poly("x+", index, degrees)

    def test_bad_exponent(self):
        index, degrees, _ = self._ctx()
        with pytest.raises(InvalidInput):
            parse_poly("w^x", index, degrees)

    def test_format_basics(self):
        _, _, names = self._ctx()
        assert format_poly({}, names) == "0"
        assert format_poly({(0, 1): Fraction(1)}, names) == "x*y"
        assert format_poly(
            {(0, 1): Fraction(-1), (2,): Fraction(1, 2)}, names
        ) == "1/2*w-x*y"
        assert format_poly({(2, 2): Fraction(1)}, names) == "w^2"

    @given(
        coeffs=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.fractions(
                    min_value=-4, max_value=4, max_denominator=6
                ).filter(bool),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_format_parse_round_trip(self, coeffs):
        monos = [
            (), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (2, 2), (0, 1, 2),
        ]
        poly = {}
        for which, c in coeffs:
            m = monos[which % len(monos)]
            nc = poly.get(m, Fraction(0)) + c
            if nc:
                poly[m] = nc
            else:
                poly.pop(m, None)
        index, degrees, names = self._ctx()
        text = format_poly(poly, names)
        assert parse_poly(text, index, degrees) == poly


class TestCohomology:
    def test_filiform_betti(self):
        H = cdga_cohomology(preset("filiform(6)"), 6)
        assert H.dims == {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 1}
        assert H.representatives(1) == ["e1", "e2"]

    def test_iwasawa_betti_and_cup(self):
        H = cdga_cohomology(preset("iwasawa"), 6)
        assert H.dims == {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}
        assert any(
            H.cup(1, i, 1, l)
            for i in range(4)
            for l in range(4)
        )

    def test_circle(self):
        H = cdga_cohomology(CdgaPresentation([("x", 1)], {}, 2), 3)
        assert H.dims == {0: 1, 1: 1}

    def test_contractible(self):
        P = CdgaPresentation([("x", 1), ("y", 2)], {"x": "y"}, 2)
        assert cdga_cohomology(P, 4).dims == {0: 1}

    def test_cup_sign_antisymmetric_in_odd_degree(self):
        H = cdga_cohomology(preset("iwasawa"), 6)
        for i in range(4):
            for l in range(4):
                ab = H.cup(1, i, 1, l)
                ba = H.cup(1, l, 1, i)
                assert ab == {k: -v for k, v in ba.items()}

    def test_structure_constants_torus(self):
        H = cdga_cohomology(torus(2, 2), 2)
        sc = H.structure_constants()
        assert (1, 0, 1, 1) in sc
        assert (1, 0, 1, 0) not in sc

    def test_unit_acts_trivially(self):
        H = cdga_cohomology(preset("nil_m1"), 6)
        for k in sorted(H.dims):
            for i in range(H.dims[k]):
                assert H.cup(0, 0, k, i) == {i: Fraction(1)}

    def test_piece_cap(self):
        wide = CdgaPresentation([(f"w{i}", 2) for i in range(20)], {}, 8)
        with pytest.raises(InfiniteDimensional):
            cdga_cohomology(wide, 8)


class TestSubalgebraDims:
    def test_below_j_is_betti(self):
        P = preset("filiform(6)")
        H = cdga_cohomology(P, 6)
        for k in range(2):
            assert d_jk(P, 1, k) == H.dims.get(k, 0)

    def test_filiform_top_vanishes(self):
        assert d_jk(preset("filiform(6)"), 1, 6) == 0
        assert d_jk(preset("filiform(4)"), 1, 4) == 0

    def test_ex_k2_degree_four_vanishes(self):
        assert d_jk(preset("ex_k2_M"), 2, 4) == 0

    def test_huge_j_gives_betti_everywhere(self):
        P = preset("filiform(6)")
        H = cdga_cohomology(P, 6)
        for k in range(7):
            assert d_jk(P, 6, k) == H.dims.get(k, 0)

    def test_monotone_in_j(self):
        P = preset("iwasawa")
        H = cdga_cohomology(P, 6)
        for k in range(7):
            d1 = d_jk(P, 1, k)
            d2 = d_jk(P, 2, k)
            assert 0 <= d1 <= d2 <= H.dims.get(k, 0)

    def test_torus_generated_in_degree_one(self):
        P = torus(3, 3)
        H = cdga_cohomology(P, 3)
        for k in range(4):
            assert d_jk(P, 1, k) == H.dims.get(k, 0)


class TestMinimalModel:
    def test_shortcut_on_nilmanifold_presets(self):
        for name, j in (
            ("filiform(6)", 1), ("iwasawa", 1), ("nil_m1", 1),
            ("ex_k2_M", 2),
        ):
            P = preset(name)
            model, psi, stabilized = j_minimal_model(P, j)
            assert model is P
            assert stabilized
            assert psi == {n: n for n in P.names}
            H = cdga_cohomology(P, P.formal_dimension)
            for k in range(P.formal_dimension + 1):
                assert r_jk(P, j, k) == H.dims.get(k, 0)

    def test_even_generator_needs_tower(self):
        P = CdgaPresentation([("y", 2)], {}, 4)
        model, psi, stabilized = j_minimal_model(P, 1)
        assert stabilized
        assert model.generators == ()
        assert r_jk(P, 1, 1) == 0
        assert r_jk(P, 1, 2) == 0
        assert r_jk(P, 1, 0) == 1

    def test_tower_kills_a_class_with_a_differential(self):
        # x^2 is a nonzero class of the free model on x alone, but
        # exact in P; the second stage adds v2 with d v2 = v1^2.  The
        # contractible pair s, t contributes nothing.
        P = CdgaPresentation([("x", 2), ("y", 3), ("s", 2), ("t", 3)],
                             {"y": "x^2", "s": "t"}, 2)
        model, psi, stabilized = j_minimal_model(P, 3)
        assert stabilized
        assert model.generators == (("v1", 2), ("v2", 3))
        assert format_poly(model.differential["v2"], model.names) == "v1^2"
        assert "v1" not in model.differential
        assert psi == {"v1": "x", "v2": "y"}
        assert [r_jk(P, 3, k) for k in range(7)] == [1, 0, 1, 0, 0, 0, 0]

    def test_contractible_model_is_trivial(self):
        P = CdgaPresentation([("x", 1), ("y", 2)], {"x": "y"}, 2)
        model, _, stabilized = j_minimal_model(P, 1)
        assert stabilized
        assert model.generators == ()

    def test_degree_two_generator_above_level(self):
        P = CdgaPresentation([("x", 1), ("y", 2)], {}, 2)
        model, psi, stabilized = j_minimal_model(P, 1)
        assert stabilized
        assert [d for _, d in model.generators] == [1]
        assert list(psi.values()) == ["x"]
        assert r_jk(P, 1, 1) == 1
        assert r_jk(P, 1, 2) == 0

    def test_stage_cap_raises_with_partial(self):
        P = CdgaPresentation([("x", 1), ("y", 2)], {}, 2)
        with pytest.raises(NotStabilized) as exc:
            j_minimal_model(P, 1, stage_cap=1)
        model, psi = exc.value.partial
        assert isinstance(model, CdgaPresentation)

    def test_caps_apply_after_a_cached_call(self):
        P = CdgaPresentation([("x", 1), ("y", 2)], {}, 2)
        assert j_minimal_model(P, 1)[2]
        with pytest.raises(NotStabilized):
            j_minimal_model(P, 1, stage_cap=1)

    def test_degree_cap_raises(self):
        P = CdgaPresentation(
            [("x", 1), ("y", 2), ("z", 2)], {"x": "y"}, 4)
        with pytest.raises(NotStabilized):
            j_minimal_model(P, 2, degree_cap=1)

    def test_invalid_level(self):
        with pytest.raises(InvalidInput):
            j_minimal_model(preset("iwasawa"), 0)

    def test_stage_on_shortcut_model_adds_nothing(self):
        for name, j in (("iwasawa", 1), ("ex_k2_M", 2)):
            P = preset(name)
            assert _tower_stage(P, P, _identity_map(P), j) == []


class TestObstruction:
    def test_filiform_family_blocked(self):
        for n2 in (4, 6, 8, 10):
            rep = obstruction(preset(f"filiform({n2})"), 1)
            assert rep.verdict == "blocked"
            assert rep.cup_hypothesis
            assert n2 in rep.blocked_at
            assert rep.rows[n2].r_jk - rep.rows[n2].d_jk == 1

    def test_iwasawa_hypothesis_failed(self):
        rep = obstruction(preset("iwasawa"), 1)
        assert rep.verdict == "hypothesis_failed"
        assert not rep.cup_hypothesis
        assert rep.blocked_at == ()
        assert rep.rows[6].slack == 1

    def test_ex_k2_blocked_with_slack_two(self):
        for name in ("ex_k2_M", "ex_k2_M_variant"):
            rep = obstruction(preset(name), 2)
            assert rep.verdict == "blocked"
            assert 4 in rep.blocked_at
            assert rep.rows[4].r_jk == 2
            assert rep.rows[4].d_jk == 0

    def test_nil_m1_blocked(self):
        rep = obstruction(preset("nil_m1"), 1)
        assert rep.verdict == "blocked"
        assert 6 in rep.blocked_at
        assert rep.rows[6].slack == 1

    def test_torus_fails_hypothesis_with_zero_slack(self):
        rep = obstruction(torus(2, 2), 1)
        assert rep.verdict == "hypothesis_failed"
        assert all(row.slack == 0 for row in rep.rows.values())

    def test_projective_plane_inconclusive(self):
        cp2 = CdgaPresentation([("y", 2)], {}, 4)
        rep = obstruction(cp2, 1)
        assert rep.verdict == "inconclusive"
        assert all(row.slack == 0 for row in rep.rows.values())

    def test_slack_never_negative(self):
        for name, j in (
            ("filiform(8)", 1), ("iwasawa", 1), ("nil_m1", 1),
            ("ex_k2_M", 2), ("ex_k2_M_variant", 2),
        ):
            rep = obstruction(preset(name), j)
            assert all(row.slack >= 0 for row in rep.rows.values())

    def test_no_poincare_duality(self):
        with pytest.raises(NoPoincareDuality):
            obstruction(CdgaPresentation([("x", 1)], {}, 2), 1)

    def test_degenerate_pairing(self):
        P = CdgaPresentation(
            [("x", 2), ("y", 2), ("z", 3), ("w", 3)],
            {"z": "x^2", "w": "x*y"}, 4)
        with pytest.raises(NoPoincareDuality) as info:
            obstruction(P, 1)
        assert str(info.value) == "cup pairing degenerate in degrees (2, 2)"

    def test_betti_mismatch(self):
        P = CdgaPresentation([("a", 1), ("x", 4)], {}, 4)
        with pytest.raises(NoPoincareDuality) as info:
            obstruction(P, 1)
        assert str(info.value) == "b_1 = 1 but b_3 = 0"

    def test_odd_formal_dimension_rejected(self):
        with pytest.raises(InvalidInput):
            obstruction(CdgaPresentation([("x", 1)], {}, 3), 1)

    def test_invalid_level(self):
        with pytest.raises(InvalidInput):
            obstruction(preset("iwasawa"), 0)


class TestCompatibility:
    def test_dot_candidate_excluded(self):
        A = realize(MultiplicityTable({dot_shape(0, 0): 1}))
        rep = compatibility(preset("filiform(4)"), 1, A)
        assert rep.verdict == "excluded"
        assert rep.excluded_at == (2, 3, 4)
        assert all(row.ell == 0 for row in rep.rows.values())

    def test_matched_zigzags_not_excluded(self):
        A = realize(MultiplicityTable({
            zigzag_shape((0, 1), 3, "vertical"): 2,
            zigzag_shape((0, 2), 3, "vertical"): 2,
            zigzag_shape((0, 3), 3, "vertical"): 1,
        }))
        rep = compatibility(preset("filiform(4)"), 1, A)
        assert rep.verdict == "not_excluded"
        assert rep.excluded_at == ()
        assert all(row.slack <= row.ell for row in rep.rows.values())

    def test_hypothesis_failure_passes_through(self):
        A = realize(MultiplicityTable({dot_shape(0, 0): 1}))
        rep = compatibility(preset("iwasawa"), 1, A)
        assert rep.verdict == "hypothesis_failed"
        assert rep.excluded_at == ()


class TestPresets:
    def test_filiform_dimension_parsing(self):
        P = preset("filiform(8)")
        assert len(P.generators) == 8
        assert P.formal_dimension == 8
        assert P.differential_text()["e3"] == "e1*e2"

    def test_bad_filiform_dimensions(self):
        for name in ("filiform(2)", "filiform(5)", "filiform(0)"):
            with pytest.raises(UnknownPreset):
                preset(name)

    def test_unknown_name(self):
        with pytest.raises(UnknownPreset):
            preset("torus")

    def test_fixed_presets_have_dimension_six(self):
        for name in ("iwasawa", "nil_m1", "ex_k2_M", "ex_k2_M_variant"):
            P = preset(name)
            assert P.formal_dimension == 6
            assert [d for _, d in P.generators] == [1] * 6

    def test_variant_differs_from_base(self):
        assert preset("ex_k2_M") != preset("ex_k2_M_variant")


class TestJson:
    def test_round_trip_presets(self):
        for name in ("filiform(6)", "iwasawa", "nil_m1", "ex_k2_M"):
            P = preset(name)
            blob = json.dumps(cdga_to_json(P))
            assert cdga_from_json(json.loads(blob)) == P

    def test_round_trip_mixed_degrees(self):
        P = CdgaPresentation(
            [("x", 1), ("y", 2), ("z", 3)], {"z": "y^2", "x": "y"}, 6)
        assert cdga_from_json(cdga_to_json(P)) == P

    def test_missing_generators_rejected(self):
        with pytest.raises(InvalidInput):
            cdga_from_json({"dim": 2})

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidInput):
            cdga_from_json([1, 2])

    def test_bad_generator_entry_rejected(self):
        with pytest.raises(InvalidInput):
            cdga_from_json({"dim": 2, "generators": [{"name": "x"}]})

    def test_non_string_differential_rejected(self):
        with pytest.raises(InvalidInput):
            cdga_from_json({
                "dim": 2,
                "generators": [{"name": "x", "degree": 1}],
                "d": {"x": 7},
            })

    def test_bad_dim_rejected(self):
        with pytest.raises(InvalidInput):
            cdga_from_json({
                "dim": "six",
                "generators": [{"name": "x", "degree": 1}],
            })

    def test_missing_d_means_zero(self):
        P = cdga_from_json({
            "dim": 2, "generators": [{"name": "x", "degree": 1}]})
        assert P.differential == {}


@st.composite
def free_presentations(draw):
    count = draw(st.integers(1, 4))
    degrees = draw(st.lists(
        st.integers(1, 3), min_size=count, max_size=count))
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    return CdgaPresentation(gens, {}, 2 * draw(st.integers(1, 3)))


@given(P=free_presentations(), j=st.integers(1, 3), k=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_subalgebra_dim_bounded_by_betti(P, j, k):
    H = cdga_cohomology(P, k)
    assert 0 <= d_jk(P, j, k) <= H.dims.get(k, 0)


@given(P=free_presentations())
@settings(max_examples=25, deadline=None)
def test_json_round_trip_random(P):
    assert cdga_from_json(json.loads(json.dumps(cdga_to_json(P)))) == P


@st.composite
def low_degree_presentations(draw):
    count = draw(st.integers(1, 4))
    degrees = draw(st.lists(
        st.integers(1, 2), min_size=count, max_size=count))
    return CdgaPresentation([(f"g{i}", d) for i, d in enumerate(degrees)],
                            {}, 6)


@given(P=low_degree_presentations(), j=st.integers(1, 2),
       k=st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_model_rank_bounded(P, j, k):
    H = cdga_cohomology(P, k)
    r = r_jk(P, j, k)
    assert 0 <= r <= H.dims.get(k, 0)
    assert d_jk(P, j, k) <= r
