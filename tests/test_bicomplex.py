"""Shape encoding, constructors, constructions, and JSON round-trips.

`shape_from_entries` below decodes an entry set back to its shape; it
checks that the shape walk is canonical and that a dual reflects a shape."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.bicomplex import (
    DEGREE_CAP,
    Bicomplex,
    MultiplicityTable,
    _degree_dim,
    _shape_arrows,
    _shape_entries,
    dc,
    degree_blocks,
    direct_sum,
    dot_shape,
    dual,
    dumps,
    from_json,
    loads,
    realize_shape,
    scramble,
    shift,
    square_shape,
    tensor,
    to_json,
    total_d,
    transpose_bicomplex,
    validate,
    zigzag_shape,
    ZigzagShape,
)
from zzcalc.errors import (
    InvalidInput,
    InvalidShape,
    NotABicomplex,
    ShapeMismatch,
)
from zzcalc.linalg import I, Matrix, Scalar


def shape_from_entries(entries):
    """Rebuild the canonical shape from an entry collection.

    Inverse of _shape_entries up to ordering; the arrows of a zigzag are
    forced by its entry set.
    """
    ents = set(map(tuple, entries))
    if not ents:
        raise InvalidShape("empty entry set")
    n = len(ents)
    degs = sorted({p + q for p, q in ents})
    if n == 1:
        (a, b), = ents
        return dot_shape(a, b)
    if len(degs) == 3:
        # only squares span three total degrees
        a = min(p for p, _ in ents)
        b = min(q for _, q in ents)
        if ents != {(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)} or n != 4:
            raise InvalidShape(f"entries {sorted(ents)} form no known shape")
        return square_shape(a, b)
    if len(degs) != 2 or degs[1] - degs[0] != 1:
        raise InvalidShape(f"entries {sorted(ents)} form no known shape")
    lower = sorted((pq for pq in ents if pq[0] + pq[1] == degs[0]))
    anchor = lower[0]
    a, b = anchor
    first = "vertical" if (a, b + 1) in ents else "horizontal"
    s = zigzag_shape(anchor, n, first)
    if set(_shape_entries(s)) != ents:
        raise InvalidShape(f"entries {sorted(ents)} form no staircase")
    return s


class TestShapeEncoding:
    def test_reverse_l_walk(self):
        s = zigzag_shape((0, 1), 3, "horizontal")
        assert s.orientation == "in"
        assert _shape_entries(s) == [(0, 1), (1, 1), (1, 0)]

    def test_outgoing_l_walk(self):
        s = zigzag_shape((0, 0), 3, "vertical")
        assert s.orientation == "out"
        assert _shape_entries(s) == [(0, 1), (0, 0), (1, 0)]

    def test_length_two_walks(self):
        h = zigzag_shape((2, 3), 2, "horizontal")
        assert h.orientation == "out"
        assert _shape_entries(h) == [(2, 3), (3, 3)]
        v = zigzag_shape((2, 3), 2, "vertical")
        assert v.orientation == "in"
        assert _shape_entries(v) == [(2, 4), (2, 3)]

    def test_length_five_incoming_spans_lower_diagonal(self):
        s = zigzag_shape((1, 2), 5, "horizontal")
        assert _shape_entries(s) == [(1, 2), (2, 2), (2, 1), (3, 1), (3, 0)]
        lower = [e for e in _shape_entries(s) if sum(e) == 3]
        assert lower == [(1, 2), (2, 1), (3, 0)]

    def test_length_four_vertical_walk(self):
        s = zigzag_shape((0, 2), 4, "vertical")
        assert s.orientation == "in"
        assert _shape_entries(s) == [(0, 3), (0, 2), (1, 2), (1, 1)]

    def test_arrows_point_the_right_way(self):
        for s in (
            zigzag_shape((0, 3), 6, "horizontal"),
            zigzag_shape((-1, 4), 7, "vertical"),
            square_shape(2, -1),
        ):
            ents = _shape_entries(s)
            for si, ti, which in _shape_arrows(s):
                step = (1, 0) if which == "del" else (0, 1)
                assert ents[ti][0] - ents[si][0] == step[0]
                assert ents[ti][1] - ents[si][1] == step[1]

    def test_anchor_is_min_degree_then_min_p(self):
        s = zigzag_shape((1, 2), 5, "horizontal")
        ents = _shape_entries(s)
        lo = min(sum(e) for e in ents)
        cands = sorted(e for e in ents if sum(e) == lo)
        assert cands[0] == s.anchor

    def test_rejects_inconsistent_orientation(self):
        with pytest.raises(InvalidShape):
            ZigzagShape("zigzag", (0, 0), 3, "horizontal", "out")
        with pytest.raises(InvalidShape):
            ZigzagShape("zigzag", (0, 0), 4, "vertical", "out")

    def test_rejects_malformed(self):
        with pytest.raises(InvalidShape):
            ZigzagShape("dot", (0, 0), 2)
        with pytest.raises(InvalidShape):
            ZigzagShape("square", (0, 0), 4, "horizontal", "out")
        with pytest.raises(InvalidShape):
            ZigzagShape("zigzag", (0, 0), 1, "horizontal", "in")
        with pytest.raises(InvalidShape):
            ZigzagShape("blob", (0, 0), 1)
        with pytest.raises(InvalidShape):
            zigzag_shape((0,), 2, "horizontal")

    def test_decode_square_and_dot(self):
        assert shape_from_entries([(3, 4)]) == dot_shape(3, 4)
        sq = square_shape(1, 1)
        assert shape_from_entries(_shape_entries(sq)) == sq

    def test_decode_rejects_non_staircase(self):
        with pytest.raises(InvalidShape):
            shape_from_entries([(0, 0), (2, 0)])
        with pytest.raises(InvalidShape):
            shape_from_entries([(0, 0), (1, 0), (1, 1)])
        with pytest.raises(InvalidShape):
            shape_from_entries([(0, 0), (1, 0), (3, -2)])

    def test_local_dims(self):
        assert MultiplicityTable({square_shape(0, 0): 1}).local_dims() == {
            (0, 0): 1,
            (1, 0): 1,
            (0, 1): 1,
            (1, 1): 1,
        }


def shapes_strategy():
    anchors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    dots = st.builds(lambda a: dot_shape(*a), anchors)
    squares = st.builds(lambda a: square_shape(*a), anchors)
    zigzags = st.builds(
        zigzag_shape,
        anchors,
        st.integers(2, 9),
        st.sampled_from(["horizontal", "vertical"]),
    )
    return st.one_of(dots, squares, zigzags)


@given(shapes_strategy())
def test_shape_roundtrips_through_entries(s):
    assert shape_from_entries(_shape_entries(s)) == s


@given(shapes_strategy())
def test_realized_shape_is_a_bicomplex_of_the_right_size(s):
    A = validate(realize_shape(s))
    assert A.spaces == MultiplicityTable({s: 1}).local_dims()


class TestValidate:
    def test_square_constructor_signs(self):
        validate(realize_shape(square_shape(0, 0)))

    def test_square_with_unsigned_top_fails(self):
        one = Matrix([[Scalar(1)]])
        A = Bicomplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            del_maps={(0, 0): one, (0, 1): one},
            delbar_maps={(0, 0): one, (1, 0): one},
        )
        with pytest.raises(NotABicomplex) as exc:
            validate(A)
        assert "anticommute" in str(exc.value)

    def test_del_squared_detected(self):
        one = Matrix([[Scalar(1)]])
        A = Bicomplex(
            {(0, 0): 1, (1, 0): 1, (2, 0): 1},
            del_maps={(0, 0): one, (1, 0): one},
        )
        with pytest.raises(NotABicomplex) as exc:
            validate(A)
        assert "del^2" in str(exc.value)

    def test_wrong_matrix_shape(self):
        A = Bicomplex(
            {(0, 0): 2, (1, 0): 1},
            del_maps={(0, 0): Matrix([[Scalar(1)]])},
        )
        with pytest.raises(ShapeMismatch):
            validate(A)


class TestConstructions:
    def test_direct_sum_dims_add(self):
        A = realize_shape(square_shape(0, 0))
        B = realize_shape(zigzag_shape((0, 1), 3, "horizontal"))
        S = validate(direct_sum(A, B))
        assert S.dim(0, 1) == 2
        assert S.total_dim() == 7
        assert _degree_dim(S, 1) == A.total_dim() and _degree_dim(S, 1) == 4

    def test_direct_sum_keeps_labels_when_both_sides_have_them(self):
        A = Bicomplex({(0, 0): 1}, labels={(0, 0): ["u"]})
        B = Bicomplex({(0, 0): 1}, labels={(0, 0): ["v"]})
        assert direct_sum(A, B).labels == {(0, 0): ["u", "v"]}
        assert direct_sum(A, realize_shape(dot_shape(0, 0))).labels is None

    def test_shift_moves_both_degrees(self):
        A = realize_shape(zigzag_shape((0, 0), 2, "horizontal"))
        B = shift(A, 2)
        assert B.support() == [(2, 2), (3, 2)]
        validate(B)

    def test_tensor_with_dot_is_shift(self):
        A = direct_sum(
            realize_shape(square_shape(0, 0)),
            realize_shape(zigzag_shape((0, 1), 3, "horizontal")),
        )
        assert tensor(A, realize_shape(dot_shape(1, 1))) == shift(A, 1)
        assert tensor(realize_shape(dot_shape(1, 1)), A) == shift(A, 1)

    def test_tensor_needs_the_koszul_sign(self):
        # two horizontal segments: d^2 on the tensor cancels only with the sign
        L = realize_shape(zigzag_shape((0, 0), 2, "horizontal"))
        validate(tensor(L, L))
        V = realize_shape(zigzag_shape((0, 0), 2, "vertical"))
        validate(tensor(L, V))
        validate(tensor(V, V))

    def test_tensor_dims_convolve(self):
        L = realize_shape(zigzag_shape((0, 1), 3, "horizontal"))
        T = tensor(L, L)
        assert T.total_dim() == 9
        assert T.dim(1, 2) == 2 and T.dim(2, 1) == 2
        assert T.dim(0, 2) == 1 and T.dim(2, 0) == 1
        assert T.dim(2, 2) == 1 and T.dim(1, 1) == 2

    def test_dual_reflects_an_l(self):
        A = realize_shape(zigzag_shape((0, 0), 3, "vertical"))
        D = validate(dual(A, 1))
        assert shape_from_entries(D.support()) == zigzag_shape(
            (0, 1), 3, "horizontal"
        )

    def test_dual_is_an_involution_on_supports(self):
        A = direct_sum(realize_shape(square_shape(0, 0)), realize_shape(dot_shape(2, 2)))
        D = dual(dual(A, 2), 2)
        assert D.spaces == A.spaces
        validate(D)

    def test_transpose_swaps_gradings(self):
        A = realize_shape(zigzag_shape((0, 0), 2, "horizontal"))
        T = validate(transpose_bicomplex(A))
        assert T.support() == [(0, 0), (0, 1)]
        assert T.delbar_maps and not T.del_maps

    def test_scramble_is_deterministic_and_valid(self):
        A = direct_sum(
            realize_shape(square_shape(0, 0)),
            realize_shape(zigzag_shape((0, 1), 5, "horizontal")),
        )
        S1 = scramble(A, 7)
        S2 = scramble(A, 7)
        assert S1 == S2
        validate(S1)
        assert S1.spaces == A.spaces
        S3 = scramble(A, 8)
        validate(S3)
        assert S3.spaces == A.spaces

    def test_scramble_of_a_dot_is_the_dot(self):
        A = realize_shape(dot_shape(1, 1))
        assert scramble(A, 3) == A


class TestTotalOperators:
    def test_total_d_and_dc_on_outgoing_l(self):
        A = realize_shape(zigzag_shape((0, 0), 3, "vertical"))
        blocks = [pq for pq, _, _ in degree_blocks(A, 1)]
        assert blocks == [(0, 1), (1, 0)]
        d0 = total_d(A, 0)
        assert d0.data == [[Scalar(1)], [Scalar(1)]]
        c0 = dc(A, 0)
        assert c0.data == [[I], [Scalar(0, -1)]]

    def test_d_squares_to_zero_in_block_coordinates(self):
        A = direct_sum(
            realize_shape(square_shape(0, 0)),
            realize_shape(zigzag_shape((0, 1), 4, "vertical")),
        )
        for k in range(-1, 4):
            m = total_d(A, k + 1) * total_d(A, k)
            assert m.is_zero()
            m = dc(A, k + 1) * dc(A, k)
            assert m.is_zero()


class TestJson:
    def test_roundtrip_with_labels(self):
        A = Bicomplex(
            {(0, 0): 1, (1, 0): 1},
            del_maps={(0, 0): Matrix([[Scalar(1, 1)]])},
            labels={(0, 0): ["x"], (1, 0): ["dx"]},
        )
        B = loads(dumps(A))
        assert B == A
        assert B.labels == A.labels

    def test_canonical_text_is_stable(self):
        A = realize_shape(square_shape(0, 0))
        text = dumps(A)
        assert dumps(loads(text)) == text
        assert "\n" not in text

    def test_zero_maps_are_omitted(self):
        obj = to_json(realize_shape(dot_shape(0, 0)))
        assert set(obj) == {"spaces"}
        assert obj["spaces"] == {"0,0": 1}

    def test_load_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            loads("{not json")
        with pytest.raises(InvalidInput):
            from_json({"spaces": {"0,0": -1}})
        with pytest.raises(InvalidInput):
            from_json({"spaces": {"zero": 1}})
        with pytest.raises(ShapeMismatch):
            from_json(
                {"spaces": {"0,0": 1}, "del": {"0,0": [["1"]]}}
            )

    def test_degree_cap(self):
        from_json({"spaces": {"0,0": DEGREE_CAP}})
        for k, spaces in (
            (0, {"0,0": DEGREE_CAP + 1}),
            (1, {"0,1": DEGREE_CAP // 2, "1,0": DEGREE_CAP // 2 + 1, "0,0": 1}),
        ):
            with pytest.raises(InvalidInput, match=f"total degree {k} has dimension"):
                from_json({"spaces": spaces})

    def test_degree_cap_guards_the_constructor(self):
        Bicomplex({(0, 0): 1, (DEGREE_CAP - 1, 0): 1})
        with pytest.raises(InvalidInput, match="span more than the cap"):
            Bicomplex({(0, 0): 1, (10**8, 0): 1})
        with pytest.raises(InvalidInput, match="total degree 0 has dimension"):
            Bicomplex({(0, 0): DEGREE_CAP, (1, -1): 1})

    def test_degree_cap_guards_the_builders(self):
        from zzcalc.models import vaisman_model

        vaisman_model(254, {(0, 0): 1})
        with pytest.raises(InvalidInput, match="span more than the cap"):
            vaisman_model(255, {(0, 0): 1})

    def test_load_validates_the_identities(self):
        obj = {
            "spaces": {"0,0": 1, "1,0": 1, "2,0": 1},
            "del": {"0,0": [["1"]], "1,0": [["1"]]},
        }
        with pytest.raises(NotABicomplex):
            from_json(obj)


class TestMultiplicityTable:
    def test_add_and_compare(self):
        t1 = MultiplicityTable({dot_shape(0, 0): 1})
        t2 = MultiplicityTable({dot_shape(0, 0): 2, square_shape(0, 0): 1})
        assert (t1 + t1 + MultiplicityTable({square_shape(0, 0): 1})) == t2

    def test_zigzag_part_drops_squares(self):
        t = MultiplicityTable(
            {square_shape(0, 0): 3, zigzag_shape((0, 1), 3, "horizontal"): 1}
        )
        assert t.zigzag_part() == MultiplicityTable(
            {zigzag_shape((0, 1), 3, "horizontal"): 1}
        )

    def test_local_dims_accumulate(self):
        t = MultiplicityTable(
            {square_shape(0, 0): 2, dot_shape(1, 1): 1}
        )
        assert t.local_dims()[(1, 1)] == 3
        assert t.local_dims()[(0, 0)] == 2

    def test_json_roundtrip(self):
        t = MultiplicityTable(
            {
                dot_shape(0, 0): 1,
                zigzag_shape((0, 1), 3, "horizontal"): 2,
                zigzag_shape((1, 1), 6, "vertical"): 1,
            }
        )
        back = {}
        for row in t.to_json():
            obj = row["shape"]
            anchor = tuple(int(c) for c in obj["anchor"].split(","))
            shape = ZigzagShape(obj["kind"], anchor, obj["length"],
                                obj.get("first_arrow"), obj.get("orientation"))
            back[shape] = row["multiplicity"]
        assert MultiplicityTable(back) == t

    def test_zero_multiplicities_are_dropped(self):
        t = MultiplicityTable({dot_shape(0, 0): 0})
        assert len(t) == 0


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 4))
    A = realize_shape(draw(shapes_strategy()))
    for _ in range(n - 1):
        A = direct_sum(A, realize_shape(draw(shapes_strategy())))
    return A


@given(small_complexes(), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_scramble_preserves_validity_and_json_roundtrips(A, seed):
    S = scramble(A, seed)
    validate(S)
    assert loads(dumps(S)) == S


@given(small_complexes())
@settings(max_examples=20, deadline=None)
def test_tensor_of_random_sums_validates(A):
    B = realize_shape(zigzag_shape((0, 1), 3, "horizontal"))
    T = tensor(A, B)
    validate(T)
    assert T.total_dim() == A.total_dim() * B.total_dim()


@given(small_complexes(), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_dual_support_reflects(A, n):
    D = dual(A, n)
    validate(D)
    assert sorted(D.spaces) == sorted(
        (n - p, n - q) for (p, q) in A.spaces
    )
    assert D.total_dim() == A.total_dim()
