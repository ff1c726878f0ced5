"""Four bicomplex constructions and the Vaisman model against the bodies
they replaced.

Each construction now states its layout once.  `tensor` builds one table
{((r, s), (u, v)): ((p, q), offset)} in a single pass, over the first
factor's spaces in sorted order, and reads source and target offsets
from it; it used to keep a second, per-target offset layout
(`blocks_at`).
`_shape_arrows` joins each two consecutive entries of `_shape_entries`'
staircase walk, where it used to be a second table of indices.  `dual`
transposes each stored map once, with the sign of its source degree,
where it used to walk the dual's bidegrees in two copied blocks.
`validate` multiplies only maps that are present and compares del*delbar
with -delbar*del, where it used to build a zero block for every absent
map (`del_at`/`delbar_at`), multiply it and add the two products.
`_assemble` reads the two degrees' block layouts once.
`models.vaisman_model` writes each +-i/2 as (0, +-1) in sparse rows over
denominator 2, where it used to fill dense lists of `Scalar`s.

The replaced bodies are kept here unchanged (renamed `old_*`) as the
oracle; outputs must be identical: `dumps` and `==` (equal `Matrix`
representations) of tensor products on 42 seeded pairs with Gaussian
sums, Vaisman models and the empty complex, and of duals at n = 0, 1, 3
on 60 seeded sums, Gaussian sums and Vaisman models; the `validate`
outcome on 400 seeded corruptions, which cover all three identities and
an anticommutator with one product present; the walk and arrow set of
every zigzag of length 2-40 with either first arrow; the d and d^c
matrices; `vaisman_model` on 18 (n, P).  Loading the seed-1 bench items
builds no zero matrix.
"""

import importlib.util
import pathlib
import random
from ast import literal_eval
from fractions import Fraction
from itertools import product

import pytest

import zzcalc
from zzcalc.bicomplex import (
    Bicomplex,
    _assemble,
    _check_size,
    _check_span,
    _shape_arrows,
    _shape_entries,
    degree_blocks,
    dot_shape,
    dual,
    dumps,
    loads,
    realize_shape,
    scramble,
    square_shape,
    tensor,
    validate,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.errors import NotABicomplex, ShapeMismatch
from zzcalc.linalg import Matrix, Scalar, _block_matrix, _kron
from zzcalc.models import (
    _checked_primitives,
    _element_label,
    vaisman_model,
)

from test_acceptance import random_table
from test_functors import gaussian

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The replaced bodies, verbatim but for their names.


def old_shape_entries(s):
    """The ordered entry walk of a shape.

    For squares the order is (p,q), (p+1,q), (p,q+1), (p+1,q+1).
    For zigzags the walk alternates between the two total degrees,
    starting at the canonical end.
    """
    a, b = s.anchor
    if s.kind == "dot":
        return [(a, b)]
    if s.kind == "square":
        return [(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)]
    out = []
    if s.first_arrow == "horizontal":
        for j in range(1, s.length + 1):
            i, r = divmod(j, 2)
            if r:  # odd position, lower diagonal
                out.append((a + i, b - i))
            else:
                out.append((a + i, b - i + 1))
    else:
        out.append((a, b + 1))
        for j in range(2, s.length + 1):
            i, r = divmod(j, 2)
            if r:  # odd position, upper diagonal
                out.append((a + i, b - i + 1))
            else:
                out.append((a + i - 1, b - i + 1))
    return out


def old_shape_arrows(s):
    """Arrows as (source_index, target_index, which) into old_shape_entries.

    which is 'del' for the horizontal differential and 'delbar' for the
    vertical one.  Sign conventions live in realize_shape, not here.
    """
    if s.kind == "dot":
        return []
    if s.kind == "square":
        return [(0, 1, "del"), (0, 2, "delbar"), (1, 3, "delbar"), (2, 3, "del")]
    arrows = []
    if s.first_arrow == "horizontal":
        # odd positions are sources: del to the next, delbar to the previous
        for j in range(1, s.length + 1, 2):
            if j + 1 <= s.length:
                arrows.append((j - 1, j, "del"))
            if j - 1 >= 1:
                arrows.append((j - 1, j - 2, "delbar"))
    else:
        # even positions are sources: delbar to the previous, del to the next
        for j in range(2, s.length + 1, 2):
            arrows.append((j - 1, j - 2, "delbar"))
            if j + 1 <= s.length:
                arrows.append((j - 1, j, "del"))
    return arrows


def old_validate(A):
    """Check shapes and the three differential identities.

    Returns the complex itself so calls can be chained.
    """
    for (p, q), dim in A.spaces.items():
        if dim <= 0:
            raise ShapeMismatch((p, q), "non-positive dimension")
    for which, maps, step in (
        ("del", A.del_maps, (1, 0)),
        ("delbar", A.delbar_maps, (0, 1)),
    ):
        for (p, q), m in maps.items():
            src = A.dim(p, q)
            tgt = A.dim(p + step[0], q + step[1])
            if m.cols != src or m.rows != tgt:
                raise ShapeMismatch(
                    (p, q),
                    f"{which} is {m.rows}x{m.cols}, expected {tgt}x{src}",
                )
    for (p, q) in A.spaces:
        if A.dim(p + 2, q) and not (A.del_at(p + 1, q) * A.del_at(p, q)).is_zero():
            raise NotABicomplex((p, q), "del^2")
        if A.dim(p, q + 2) and not (
            A.delbar_at(p, q + 1) * A.delbar_at(p, q)
        ).is_zero():
            raise NotABicomplex((p, q), "delbar^2")
        if A.dim(p + 1, q + 1):
            mixed = A.del_at(p, q + 1) * A.delbar_at(p, q) + A.delbar_at(
                p + 1, q
            ) * A.del_at(p, q)
            if not mixed.is_zero():
                raise NotABicomplex((p, q), "anticommute")
    return A


def old_realize_shape(s):
    """Realize a shape with 1-dimensional entries and unit arrows; a
    square's top del carries the -1 so that del*delbar + delbar*del = 0."""
    if s.kind == "dot":
        return Bicomplex({s.anchor: 1})
    one = Matrix([[1]])
    if s.kind == "square":
        p, q = s.anchor
        spaces = {(p, q): 1, (p + 1, q): 1, (p, q + 1): 1, (p + 1, q + 1): 1}
        return Bicomplex(
            spaces,
            del_maps={(p, q): one, (p, q + 1): Matrix([[-1]])},
            delbar_maps={(p, q): one, (p + 1, q): one},
        )
    ents = old_shape_entries(s)
    spaces = {e: 1 for e in ents}
    del_maps = {}
    delbar_maps = {}
    for si, ti, which in old_shape_arrows(s):
        src, tgt = ents[si], ents[ti]
        if which == "del":
            del_maps[src] = one
        else:
            delbar_maps[src] = one
        assert (
            tgt[0] - src[0],
            tgt[1] - src[1],
        ) == ((1, 0) if which == "del" else (0, 1))
    return Bicomplex(spaces, del_maps, delbar_maps)


def old_tensor(A, B):
    """Tensor product with the Koszul sign rule.

    On a basis element x (x) y with x of total degree t,
    del(x (x) y) = del x (x) y + (-1)^t x (x) del y, likewise delbar.
    """

    def blocks_at(p, q):
        out = []
        for (r, s), da in A.spaces.items():
            u, v = p - r, q - s
            db = B.spaces.get((u, v), 0)
            if db:
                out.append(((r, s), (u, v), da, db))
        out.sort()
        return out

    spaces = {}
    for (r, s), da in A.spaces.items():
        for (u, v), db in B.spaces.items():
            pq = (r + u, s + v)
            spaces[pq] = spaces.get(pq, 0) + da * db
    _check_size(spaces)

    offsets = {}
    for pq in spaces:
        off = {}
        pos = 0
        for rs, uv, da, db in blocks_at(*pq):
            off[(rs, uv)] = pos
            pos += da * db
        offsets[pq] = off

    def build(which):
        step = (1, 0) if which == "del" else (0, 1)
        amaps = A.del_maps if which == "del" else A.delbar_maps
        bmaps = B.del_maps if which == "del" else B.delbar_maps
        maps = {}
        for (p, q), dim_src in spaces.items():
            tp, tq = p + step[0], q + step[1]
            dim_tgt = spaces.get((tp, tq), 0)
            if not dim_tgt:
                continue
            tgt_off = offsets[(tp, tq)]
            blocks = []
            for (rs, uv), base in offsets[(p, q)].items():
                (r, s), (u, v) = rs, uv
                # differential on the A factor
                key = ((r + step[0], s + step[1]), uv)
                if rs in amaps and key in tgt_off:
                    fa = _kron(amaps[rs], Matrix.identity(B.dim(u, v)))
                    blocks.append((tgt_off[key], base, fa, (1, 0)))
                # differential on the B factor, with the Koszul sign
                key = (rs, (u + step[0], v + step[1]))
                if uv in bmaps and key in tgt_off:
                    fb = _kron(Matrix.identity(A.dim(r, s)), bmaps[uv])
                    sign = 1 if (r + s) % 2 == 0 else -1
                    blocks.append((tgt_off[key], base, fb, (sign, 0)))
            if blocks:
                maps[(p, q)] = _block_matrix(dim_tgt, dim_src, blocks)
        return maps

    return Bicomplex(spaces, build("del"), build("delbar"))


def old_dual(A, n):
    """Formal Serre dual: (DA)^{p,q} = dual of A^{n-p,n-q}.

    The differential sends a functional f of total degree t to
    (-1)^{t-1} f composed with d, split into its two components; in
    matrix terms each component is a signed transpose.
    """
    spaces = {(n - p, n - q): d for (p, q), d in A.spaces.items()}
    del_maps = {}
    delbar_maps = {}
    for (p, q) in spaces:
        t = p + q
        sign = -1 if (t - 1) % 2 else 1
        src = A.del_maps.get((n - p - 1, n - q))
        if src is not None and A.dim(n - p - 1, n - q):
            m = src.transpose() * sign
            if not m.is_zero():
                del_maps[(p, q)] = m
        src = A.delbar_maps.get((n - p, n - q - 1))
        if src is not None and A.dim(n - p, n - q - 1):
            m = src.transpose() * sign
            if not m.is_zero():
                delbar_maps[(p, q)] = m
    return Bicomplex(spaces, del_maps, delbar_maps)


def old_degree_dim(A, k):
    return sum(d for _, _, d in degree_blocks(A, k))


def old_assemble(A, k, unit_del, unit_delbar):
    """d-type matrix from degree k to k+1: each del block times the
    Gaussian integer unit_del = (re, im), each delbar block times
    unit_delbar."""
    tgt_pos = {pq: off for pq, off, _ in degree_blocks(A, k + 1)}
    blocks = []
    for (p, q), off, _ in degree_blocks(A, k):
        for mat, unit, tpq in (
            (A.del_maps.get((p, q)), unit_del, (p + 1, q)),
            (A.delbar_maps.get((p, q)), unit_delbar, (p, q + 1)),
        ):
            if mat is not None and tpq in tgt_pos:
                blocks.append((tgt_pos[tpq], off, mat, unit))
    return _block_matrix(old_degree_dim(A, k + 1), old_degree_dim(A, k), blocks)


_HALF_I = Scalar(0, Fraction(1, 2))
_NEG_HALF_I = Scalar(0, Fraction(-1, 2))


def old_vaisman_model(n, P):
    """The model complex with primitive dims P on a manifold of
    complex dimension n+1.

    Basis elements are x*th10^a*th01^b*w^c with a,b in {0,1} and
    0 <= c <= n-p-q; th10 has bidegree (1,0), th01 (0,1), w (1,1).
    """
    P = _checked_primitives(n, P)
    # sized by counting first: n and each P[(p, q)] may be far past the cap
    _check_span([0, 2 * n + 2])
    spaces = {}
    for (p, q), v in P.items():
        for a, b, c in product((0, 1), (0, 1), range(n - p - q + 1)):
            spaces[p + a + c, q + b + c] = spaces.get((p + a + c, q + b + c), 0) + v
    _check_size(spaces)
    keys = sorted((p, q, i, a, b, c) for (p, q) in P for i in range(P[p, q])
                  for a, b, c in product((0, 1), (0, 1), range(n - p - q + 1)))
    basis, index = {}, {}
    for key in keys:
        p, q, i, a, b, c = key
        lst = basis.setdefault((p + a + c, q + b + c), [])
        index[key] = ((p + a + c, q + b + c), len(lst))
        lst.append(key)

    del_maps = {}
    delbar_maps = {}

    def put(maps, src_key, tgt_key, coeff):
        src_pq, si = index[src_key]
        tgt_pq, ti = index[tgt_key]
        rows = maps.get(src_pq)
        if rows is None:
            rows = [[0] * len(basis[src_pq]) for _ in basis[tgt_pq]]
            maps[src_pq] = rows
        rows[ti][si] = coeff

    for key in keys:
        p, q, i, a, b, c = key
        if c + 1 > n - p - q:
            continue
        even = (p + q) % 2 == 0
        if b:
            if a:
                put(del_maps, key, (p, q, i, 1, 0, c + 1),
                    _NEG_HALF_I if even else _HALF_I)
            else:
                put(del_maps, key, (p, q, i, 0, 0, c + 1),
                    _HALF_I if even else _NEG_HALF_I)
        if a:
            tgt = (p, q, i, 0, 1, c + 1) if b else (p, q, i, 0, 0, c + 1)
            put(delbar_maps, key, tgt, _NEG_HALF_I if even else _HALF_I)

    del_maps = {pq: Matrix(rows) for pq, rows in del_maps.items()}
    delbar_maps = {pq: Matrix(rows) for pq, rows in delbar_maps.items()}
    labels = {pq: [_element_label(k) for k in lst] for pq, lst in basis.items()}
    return validate(Bicomplex(spaces, del_maps, delbar_maps, labels))


# ---------------------------------------------------------------------------
# Inputs


def small_sums(seed, count, max_dim, span=4):
    """count scrambled sums of total dimension at most max_dim, their
    pieces anchored in [0, span]^2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = realize(random_table(rng, max_pieces=5, span=span))
        if A.total_dim() <= max_dim:
            out.append(scramble(A, rng.randrange(2**32)))
    return out


VAISMAN = [
    vaisman_model(1, {(0, 0): 1}),
    vaisman_model(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
]
EMPTY = Bicomplex({})


def tensor_pairs():
    sums = small_sums(20261022, 64, 12)
    pairs = list(zip(sums[:30], sums[30:60]))
    pairs += [(gaussian(sums[60]), sums[61]), (sums[62], gaussian(sums[63]))]
    V1, V2 = VAISMAN
    pairs += [(V1, V1), (V1, sums[0]), (sums[1], V1), (V2, sums[2]), (V1, V2),
              (EMPTY, sums[3]), (sums[4], EMPTY), (EMPTY, EMPTY), (EMPTY, V1),
              (gaussian(sums[5]), V1)]
    return pairs


def dual_inputs():
    sums = small_sums(1022, 60, 30)
    return sums + [gaussian(A) for A in sums[:6]] + VAISMAN + [EMPTY]


def assert_same(new, old):
    assert new == old
    assert dumps(new) == dumps(old)


# ---------------------------------------------------------------------------
# tensor and dual


def test_tensor_matches_old_body():
    pairs = tensor_pairs()
    assert len(pairs) >= 40
    for A, B in pairs:
        assert_same(tensor(A, B), old_tensor(A, B))


@pytest.mark.parametrize("n", (0, 1, 3))
def test_dual_matches_old_body(n):
    inputs = dual_inputs()
    assert len(inputs) >= 60
    for A in inputs:
        assert_same(dual(A, n), old_dual(A, n))


# ---------------------------------------------------------------------------
# validate


def random_matrix(rng, rows, cols):
    return Matrix([[Scalar(rng.randint(-2, 2), rng.choice((0, 0, 1))) for _ in range(cols)]
                   for _ in range(rows)])


def corruptions(seed, count):
    """count complexes, each a small sum with one map replaced, perturbed,
    scaled or dropped, or two maps in a row replaced; some of them are
    still bicomplexes."""
    rng = random.Random(seed)
    sums = small_sums(seed, 40, 20, span=1)
    out = []
    while len(out) < count:
        A = rng.choice(sums)
        maps = {"del": dict(A.del_maps), "delbar": dict(A.delbar_maps)}
        which = rng.choice(("del", "delbar"))
        dp, dq = (1, 0) if which == "del" else (0, 1)
        sources = [(p, q) for p, q in A.spaces if A.dim(p + dp, q + dq)]
        how = rng.randrange(5)
        if how == 4:
            sources = [(p, q) for p, q in sources if A.dim(p + 2 * dp, q + 2 * dq)]
        if not sources:
            continue
        pq = rng.choice(sources)
        rows, cols = A.dim(pq[0] + dp, pq[1] + dq), A.dim(*pq)
        old = maps[which].get(pq)
        after = (pq[0] + 2 * dp, pq[1] + 2 * dq)
        if how == 4:
            # two maps in a row, so that their square can fail
            maps[which][pq] = random_matrix(rng, rows, cols)
            maps[which][pq[0] + dp, pq[1] + dq] = random_matrix(rng, A.dim(*after), rows)
        elif how == 0 or old is None:
            maps[which][pq] = random_matrix(rng, rows, cols)
        elif how == 1:
            data = [list(row) for row in old.data]
            i, j = rng.randrange(rows), rng.randrange(cols)
            data[i][j] = data[i][j] + rng.choice((1, -1, Scalar(0, 1)))
            maps[which][pq] = Matrix(data)
        elif how == 2:
            maps[which][pq] = old * rng.choice((-1, 2, Scalar(0, 1)))
        else:
            del maps[which][pq]
        out.append(Bicomplex(A.spaces, maps["del"], maps["delbar"]))
    return out


def outcome(check, A):
    try:
        check(A)
    except (NotABicomplex, ShapeMismatch) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def lone_anticommutator(A, message):
    """Whether an anticommute failure at the bidegree in message has only
    one of its two products present."""
    (p, q), D, B = literal_eval(message.rpartition(" at bidegree ")[2]), A.del_maps, A.delbar_maps
    one = (p, q + 1) in D and (p, q) in B
    other = (p + 1, q) in B and (p, q) in D
    return one != other


def test_validate_matches_old_body():
    seen = {"ok": 0, "del^2": 0, "delbar^2": 0, "anticommute": 0, "lone": 0}
    for A in corruptions(30, 400):
        got = outcome(validate, A)
        assert got == outcome(old_validate, A)
        for identity in ("del^2", "delbar^2", "anticommute"):
            if f"identity {identity} fails" in got:
                seen[identity] += 1
        if got == "ok":
            seen["ok"] += 1
        elif "anticommute" in got and lone_anticommutator(A, got):
            seen["lone"] += 1
    assert all(seen.values()), seen


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ("sweep", "large"))
def test_loads_builds_no_zero_matrix(monkeypatch, workload):
    texts = [item.text for item in _workloads().make_items(zzcalc, workload, 1)]
    made = []
    zeros = Matrix.zeros

    def counted(rows, cols):
        made.append((rows, cols))
        return zeros(rows, cols)

    monkeypatch.setattr(Matrix, "zeros", staticmethod(counted))
    complexes = [loads(text) for text in texts]
    assert made == []
    # the old body builds zero blocks on the same complexes
    for A in complexes:
        old_validate(A)
    assert made


# ---------------------------------------------------------------------------
# The zigzag walk


def shapes():
    out = [dot_shape(0, 0), dot_shape(-1, 3), square_shape(0, 0), square_shape(2, -1)]
    for length in range(2, 41):
        for first in ("horizontal", "vertical"):
            for anchor in ((0, 0), (-2, 3)):
                out.append(zigzag_shape(anchor, length, first))
    return out


def test_walk_and_arrows_match_old_tables():
    for s in shapes():
        assert _shape_entries(s) == old_shape_entries(s), s
        arrows = _shape_arrows(s)
        assert len(set(arrows)) == len(arrows)
        assert set(arrows) == set(old_shape_arrows(s)), s
        assert_same(realize_shape(s), old_realize_shape(s))


# ---------------------------------------------------------------------------
# d and d^c


def test_assemble_matches_old_body():
    for A in small_sums(77, 20, 30) + [gaussian(small_sums(78, 1, 30)[0])] + VAISMAN:
        degs = A.degrees()
        for k in range(degs[0] - 1, degs[-1] + 1):
            for units in (((1, 0), (1, 0)), ((0, -1), (0, 1))):
                assert _assemble(A, k, *units) == old_assemble(A, k, *units)


# ---------------------------------------------------------------------------
# The Vaisman model


VAISMAN_CASES = [
    (1, {(0, 0): 1}), (1, {(0, 0): 2}), (1, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
    (1, {(0, 0): 3, (1, 0): 2, (0, 1): 2}),
    (2, {(0, 0): 1}), (2, {(0, 0): 1, (1, 1): 1}), (2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
    (2, {(0, 0): 2, (2, 0): 1, (0, 2): 1}), (2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}),
    (2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 3}),
    (3, {(0, 0): 1}), (3, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
    (3, {(0, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1}),
    (3, {(0, 0): 2, (3, 0): 1, (0, 3): 1}),
    (3, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 1}),
    (4, {(0, 0): 1}), (4, {(0, 0): 1, (2, 2): 1}),
    (4, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 1): 1, (1, 2): 1}),
]


@pytest.mark.parametrize("n, P", VAISMAN_CASES)
def test_vaisman_model_matches_old_body(n, P):
    new, old = vaisman_model(n, P), old_vaisman_model(n, P)
    assert_same(new, old)
    assert new.labels == old.labels
