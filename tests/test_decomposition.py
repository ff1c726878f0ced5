"""Multiplicity tables: rank rules, calibration, round-trips."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.bicomplex import (
    Bicomplex,
    MultiplicityTable,
    direct_sum,
    dot_shape,
    realize_shape,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.decomposition import e1_isomorphic, multiplicities, realize
from zzcalc.functors import FUNCTORS, cohomology, spectral_page

from test_bicomplex import shapes_strategy

GOLDEN = pathlib.Path(__file__).parent / "golden" / "even_zigzag_calibration.json"

OUT_L = zigzag_shape((0, 0), 3, "vertical")
REV_L = zigzag_shape((0, 1), 3, "horizontal")


def even_zigzag_rule(length, first_arrow):
    """Where the rank-1 page differential of an even zigzag sits, as
    `decomposition._even_counts` reads it off the persistence pairs.

    Returns (which_sequence, page_r, anchor_offset): the zigzag of the
    given length anchored at (a,b) contributes rank 1 to the d_r of
    that sequence out of position (a,b) + anchor_offset.
    """
    r = length // 2
    if first_arrow == "horizontal":
        return ("column", r, (0, 0))
    return ("row", r, (r - 1, -r + 1))


def calibrate_even_zigzags(max_length=8):
    """Locate the unique page-differential of every even zigzag.

    For each length and walk direction, builds the zigzag, runs both
    spectral sequences past degeneration, and records the single
    position where a nonzero d_r occurs.  The result is committed as a
    golden file; the decomposition rank rule must match it.
    """
    anchor = (0, 10)
    out = {}
    for length in range(2, max_length + 1, 2):
        for first in ("horizontal", "vertical"):
            A = realize_shape(zigzag_shape(anchor, length, first))
            hits = []
            for which in ("column", "row"):
                for r in range(1, length // 2 + 3):
                    page = spectral_page(A, which, r)
                    for (p, q), v in page.d_ranks.items():
                        hits.append(
                            {
                                "which": which,
                                "r": r,
                                "offset": [p - anchor[0], q - anchor[1]],
                                "rank": v,
                            }
                        )
            assert len(hits) == 1 and hits[0]["rank"] == 1, (length, first, hits)
            del hits[0]["rank"]
            out[f"{length},{first}"] = hits[0]
    return out


class TestCalibration:
    def test_golden_file_matches_recomputation(self):
        fresh = calibrate_even_zigzags()
        committed = json.loads(GOLDEN.read_text())
        assert fresh == committed

    def test_rank_rule_matches_golden(self):
        committed = json.loads(GOLDEN.read_text())
        for key, hit in committed.items():
            length, first = key.split(",")
            which, r, (dp, dq) = even_zigzag_rule(int(length), first)
            assert which == hit["which"]
            assert r == hit["r"]
            assert [dp, dq] == hit["offset"]


class TestMultiplicities:
    def test_empty(self):
        assert multiplicities(Bicomplex({})) == MultiplicityTable()

    def test_constructed_sum_survives_scramble(self):
        A = direct_sum(
            direct_sum(realize_shape(square_shape(0, 0)), realize_shape(dot_shape(0, 0))),
            realize_shape(OUT_L),
        )
        expected = MultiplicityTable(
            {square_shape(0, 0): 1, dot_shape(0, 0): 1, OUT_L: 1}
        )
        assert multiplicities(scramble(A, 11)) == expected

    def test_stacked_squares(self):
        A = scramble(direct_sum(realize_shape(square_shape(1, 1)), realize_shape(square_shape(1, 1))), 5)
        assert multiplicities(A) == MultiplicityTable({square_shape(1, 1): 2})

    def test_long_zigzags_both_directions(self):
        for s in (
            zigzag_shape((0, 3), 7, "horizontal"),
            zigzag_shape((0, 3), 7, "vertical"),
            zigzag_shape((0, 3), 8, "horizontal"),
            zigzag_shape((0, 3), 8, "vertical"),
        ):
            A = scramble(realize_shape(s), 23)
            assert multiplicities(A) == MultiplicityTable({s: 1}), s


class TestE1Isomorphic:
    def test_scramble_is_e1_trivial(self):
        A = direct_sum(realize_shape(REV_L), realize_shape(dot_shape(2, 2)))
        assert e1_isomorphic(A, scramble(A, 99))

    def test_squares_are_ignored(self):
        A = realize_shape(OUT_L)
        assert e1_isomorphic(A, direct_sum(A, realize_shape(square_shape(3, 3))))

    def test_dots_are_not_ignored(self):
        A = realize_shape(OUT_L)
        assert not e1_isomorphic(A, direct_sum(A, realize_shape(dot_shape(0, 0))))


class TestRealize:
    def test_dots_only(self):
        A = realize(MultiplicityTable({dot_shape(0, 0): 3}))
        assert A.spaces == {(0, 0): 3}
        assert not A.del_maps and not A.delbar_maps

    def test_empty_table(self):
        assert realize(MultiplicityTable()).spaces == {}


@st.composite
def tables_strategy(draw):
    shapes = draw(st.lists(shapes_strategy(), min_size=1, max_size=5))
    mults = {}
    for s in shapes:
        mults[s] = mults.get(s, 0) + draw(st.integers(1, 2))
    return MultiplicityTable(mults)


@given(tables_strategy(), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_roundtrip_through_realize_and_scramble(table, seed):
    A = scramble(realize(table), seed)
    assert multiplicities(A) == table


@given(tables_strategy(), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_table_predicts_every_functor(table, seed):
    A = scramble(realize(table), seed)
    for functor in FUNCTORS:
        predicted = {}
        for shape, mult in table:
            for key, v in cohomology(realize_shape(shape), functor).dims.items():
                predicted[key] = predicted.get(key, 0) + mult * v
        assert cohomology(A, functor).dims == predicted, functor
