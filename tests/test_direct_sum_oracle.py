"""The one-pass direct sum against the pairwise fold it replaced.

`bicomplex.direct_sum(*parts)` sums every part in one pass, one block
matrix per map, and `decomposition.realize`, `models.blowup_model` and
`models.projective_bundle_model` each call it once.  They used to fold a
two-argument `direct_sum(A, B)` once per piece, copying every block
built so far at each step; that `direct_sum` and the three fold bodies
are kept here unchanged as the oracle.  Outputs must be byte-identical
(`dumps`, which writes the labels, and `.labels` itself) on every sweep
and large bench set-up at seeds 1-8, the realized wide and deep tables
at 500 and 1003, the Vaisman models with their blow-ups and bundles,
surface models, a partly labelled complex and the empty table; an n-ary
sum must equal the fold of its parts.
"""

import functools
import importlib.util
import json
import pathlib

import pytest

import zzcalc
from zzcalc import decomposition, models
from zzcalc.bicomplex import (
    Bicomplex,
    MultiplicityTable,
    direct_sum,
    dot_shape,
    dumps,
    loads,
    realize_shape,
    scramble,
    shift,
    square_shape,
    validate,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.errors import InvalidInput
from zzcalc.linalg import _block_matrix
from zzcalc.models import (
    blowup_model,
    projective_bundle_model,
    surface_model,
    vaisman_model,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The replaced routes: the pairwise sum and the three folds over it.


def pairwise_direct_sum(A, B):
    spaces = dict(A.spaces)
    for pq, d in B.spaces.items():
        spaces[pq] = spaces.get(pq, 0) + d

    def block(which):
        amaps = A.del_maps if which == "del" else A.delbar_maps
        bmaps = B.del_maps if which == "del" else B.delbar_maps
        step = (1, 0) if which == "del" else (0, 1)
        out = {}
        for pq in set(amaps) | set(bmaps):
            p, q = pq
            tp, tq = p + step[0], q + step[1]
            r0, c0 = A.dim(tp, tq), A.dim(p, q)
            blocks = []
            if pq in amaps:
                blocks.append((0, 0, amaps[pq], (1, 0)))
            if pq in bmaps:
                blocks.append((r0, c0, bmaps[pq], (1, 0)))
            out[pq] = _block_matrix(r0 + B.dim(tp, tq), c0 + B.dim(p, q), blocks)
        return out

    labels = None
    if A.labels is not None and B.labels is not None:
        labels = {}
        for pq in spaces:
            la = A.labels.get(pq, [f"a{i}" for i in range(A.dim(*pq))])
            lb = B.labels.get(pq, [f"b{i}" for i in range(B.dim(*pq))])
            labels[pq] = la + lb
    return Bicomplex(spaces, block("del"), block("delbar"), labels)


def fold_realize(table):
    """A concrete bicomplex with the given multiplicity table."""
    out = Bicomplex({})
    for shape, mult in table:
        piece = realize_shape(shape)
        for _ in range(mult):
            out = pairwise_direct_sum(out, piece)
    return out


def fold_blowup_model(A, Z, d):
    """A plus d-1 shifted copies of the center Z."""
    if d < 2:
        raise InvalidInput("blow-up codimension d must be >= 2")
    out = validate(A)
    validate(Z)
    for i in range(1, d):
        out = pairwise_direct_sum(out, shift(Z, i))
    return out


def fold_projective_bundle_model(A, r):
    """r shifted copies of A, one per fiber cohomology class."""
    if r < 1:
        raise InvalidInput("fiber rank r must be >= 1")
    out = validate(A)
    for i in range(1, r):
        out = pairwise_direct_sum(out, shift(A, i))
    return out


# ---------------------------------------------------------------------------
# Inputs


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

VAISMAN = [
    (1, {(0, 0): 1}),
    (2, {(0, 0): 2, (1, 0): 1, (0, 1): 1}),
    (3, {(0, 0): 1, (1, 1): 1}),
]

ZIGZAGS = MultiplicityTable({
    square_shape(0, 0): 1,
    zigzag_shape((0, 1), 4, "horizontal"): 1,
    zigzag_shape((1, 0), 5, "vertical"): 1,
})


def partly_labelled():
    """The n = 2 Vaisman model read from JSON with the labels of one
    bidegree deleted."""
    obj = json.loads(dumps(vaisman_model(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})))
    del obj["labels"]["1,1"]
    return loads(json.dumps(obj))


def assert_same(new, old):
    assert dumps(new) == dumps(old)
    assert new.labels == old.labels


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("workload", ["sweep", "large"])
def test_bench_setups(monkeypatch, workload, seed):
    items = workloads.make_items(zzcalc, workload, seed)
    with monkeypatch.context() as m:
        m.setattr(decomposition, "realize", fold_realize)
        oracle = workloads.make_items(zzcalc, workload, seed)
    assert [(it.key, it.text) for it in items] == [(it.key, it.text) for it in oracle]


@pytest.mark.parametrize("dim", [500, 1003])
def test_realized_wide_and_deep_tables(dim):
    for table in workloads._large_tables(zzcalc, dim, dim).values():
        assert_same(realize(table), fold_realize(table))


def test_empty_table():
    assert_same(realize(MultiplicityTable()), fold_realize(MultiplicityTable()))


@pytest.mark.parametrize("invariants", [
    (0, 0, 0, 0), (1, 0, 0, 0), (4, 2, 1, 6), (7, 3, 2, 8), (0, 0, 0, 40),
])
def test_surface_models(monkeypatch, invariants):
    new = surface_model(*invariants)
    monkeypatch.setattr(models, "realize", fold_realize)
    assert_same(new, surface_model(*invariants))


@pytest.mark.parametrize("n, P", VAISMAN)
def test_vaisman_blowups_and_bundles(n, P):
    A = vaisman_model(n, P)
    unlabelled = [realize(ZIGZAGS), scramble(realize(ZIGZAGS), 5)]
    for Z in [A, vaisman_model(1, {(0, 0): 1})] + unlabelled:
        for d in (2, 3, 4):
            assert_same(blowup_model(A, Z, d), fold_blowup_model(A, Z, d))
            assert_same(blowup_model(Z, A, d), fold_blowup_model(Z, A, d))
    for r in (1, 2, 3):
        assert_same(projective_bundle_model(A, r), fold_projective_bundle_model(A, r))


def test_partly_labelled_complex():
    P = partly_labelled()
    assert (1, 1) not in P.labels
    assert projective_bundle_model(P, 1) is P
    for r in (1, 2, 3):
        assert_same(projective_bundle_model(P, r), fold_projective_bundle_model(P, r))
    hopf = vaisman_model(1, {(0, 0): 1})
    for d in (2, 3):
        assert_same(blowup_model(P, hopf, d), fold_blowup_model(P, hopf, d))
        assert_same(blowup_model(hopf, P, d), fold_blowup_model(hopf, P, d))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_empty_center_and_empty_base(d):
    hopf, empty = vaisman_model(1, {(0, 0): 1}), Bicomplex({})
    assert_same(blowup_model(hopf, empty, d), fold_blowup_model(hopf, empty, d))
    assert_same(blowup_model(empty, hopf, d), fold_blowup_model(empty, hopf, d))
    assert_same(projective_bundle_model(empty, d), fold_projective_bundle_model(empty, d))


def test_no_parts_is_the_zero_complex():
    S = direct_sum()
    assert S == Bicomplex({})
    assert dumps(S) == '{"spaces":{}}'
    assert S.labels is None


@pytest.mark.parametrize("A", [
    realize_shape(square_shape(0, 0)),
    vaisman_model(1, {(0, 0): 1}),
    partly_labelled(),
    Bicomplex({}),
], ids=["unlabelled", "labelled", "partly-labelled", "empty"])
def test_one_part_is_returned_as_given(A):
    assert direct_sum(A) is A


@pytest.mark.parametrize("parts", [
    # every part labelled, one of them only partly
    [partly_labelled(), vaisman_model(1, {(0, 0): 1}), shift(partly_labelled(), 1)],
    [vaisman_model(1, {(0, 0): 1})] * 4,
    # labelled and unlabelled parts mixed, in either order
    [vaisman_model(1, {(0, 0): 1}), realize(ZIGZAGS), partly_labelled()],
    [realize(ZIGZAGS), vaisman_model(2, {(0, 0): 1}), vaisman_model(1, {(0, 0): 1})],
    # empty and one-dimensional parts in between
    [realize_shape(dot_shape(0, 0)), Bicomplex({}), realize_shape(dot_shape(0, 0)),
     scramble(realize(ZIGZAGS), 3), realize_shape(dot_shape(2, 2))],
    [Bicomplex({}, labels={}), vaisman_model(1, {(0, 0): 1}), Bicomplex({})],
], ids=["labelled", "repeated", "mixed", "unlabelled-first", "empty-between",
        "empty-ends"])
def test_n_ary_sum_is_the_fold(parts):
    assert_same(direct_sum(*parts), functools.reduce(pairwise_direct_sum, parts))
