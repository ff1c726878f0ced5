"""Bounded double complexes over Q(i) and their basic constructions.

A bicomplex holds finite-dimensional spaces A^{p,q} with differentials
del of bidegree (1,0) and delbar of bidegree (0,1) satisfying

    del^2 = 0,   delbar^2 = 0,   del*delbar + delbar*del = 0,

equivalently d^2 = 0 for the total differential d = del + delbar.

Indecomposables are dots, squares, and zigzags.  A zigzag's entries
form a staircase across two adjacent total degrees; its length is its
dimension as a vector space.  Shapes are coded canonically: the anchor
is the entry of minimal total degree, and of minimal p among those, and
the walk starting there is either horizontal-first or vertical-first.
Orientation is determined by length parity and first arrow: an odd
horizontal-first zigzag has its arrows converging on the upper diagonal
(incoming), an odd vertical-first zigzag has them leaving the lower
diagonal (outgoing); for even length the labels are the committed
convention out = horizontal-first, in = vertical-first.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import lcm

from .errors import (
    InvalidInput,
    InvalidShape,
    NotABicomplex,
    ShapeMismatch,
)
from .linalg import Matrix, _block_matrix, _kron, _product, _scale

__all__ = [
    "Bicomplex",
    "ZigzagShape",
    "MultiplicityTable",
    "dot_shape",
    "square_shape",
    "zigzag_shape",
    "shape_degree_span",
    "shape_to_json",
    "validate",
    "realize_shape",
    "direct_sum",
    "shift",
    "tensor",
    "dual",
    "scramble",
    "transpose_bicomplex",
    "degree_blocks",
    "total_d",
    "dc",
    "to_json",
    "from_json",
    "dumps",
    "loads",
    "DEGREE_CAP",
]

# Size guard for every bicomplex, from JSON (before any matrix is parsed),
# a builder or the API: a total degree of larger dimension is refused, and
# so are total degrees spread over more than this many (every degree in
# between is computed and reported, empty or not).  Exact elimination
# over Q(i) on a few hundred coordinates already takes tens of seconds,
# and every input the package's tests and benchmark build stays below 100
# on both counts.  cdga refuses a degree walk that would pass it.
DEGREE_CAP = 512


# ---------------------------------------------------------------------------
# Shapes


@dataclass(frozen=True, order=True)
class ZigzagShape:
    """Canonical code for an indecomposable bicomplex.

    kind 'dot' has length 1, kind 'square' length 4 (its dimension),
    and kind 'zigzag' any length >= 2.  first_arrow and orientation are
    set only for zigzags.
    """

    kind: str
    anchor: tuple
    length: int
    first_arrow: str = None
    orientation: str = None

    def __post_init__(self):
        _check_shape(self)


def _expected_orientation(length, first_arrow):
    if length % 2 == 1:
        return "in" if first_arrow == "horizontal" else "out"
    return "out" if first_arrow == "horizontal" else "in"


def _check_shape(s):
    if (
        not isinstance(s.anchor, tuple)
        or len(s.anchor) != 2
        or not all(isinstance(c, int) for c in s.anchor)
    ):
        raise InvalidShape(f"anchor must be an integer pair, got {s.anchor!r}")
    if s.kind == "dot":
        if s.length != 1 or s.first_arrow is not None or s.orientation is not None:
            raise InvalidShape("a dot has length 1 and no arrow data")
    elif s.kind == "square":
        if s.length != 4 or s.first_arrow is not None or s.orientation is not None:
            raise InvalidShape("a square has length 4 and no arrow data")
    elif s.kind == "zigzag":
        if not isinstance(s.length, int) or s.length < 2:
            raise InvalidShape(f"zigzag length must be >= 2, got {s.length!r}")
        if s.first_arrow not in ("horizontal", "vertical"):
            raise InvalidShape(f"bad first_arrow {s.first_arrow!r}")
        expected = _expected_orientation(s.length, s.first_arrow)
        if s.orientation != expected:
            raise InvalidShape(
                f"length-{s.length} {s.first_arrow}-first zigzag must have "
                f"orientation {expected!r}, got {s.orientation!r}"
            )
    else:
        raise InvalidShape(f"unknown kind {s.kind!r}")


def dot_shape(p, q):
    return ZigzagShape("dot", (p, q), 1)


def square_shape(p, q):
    return ZigzagShape("square", (p, q), 4)


def zigzag_shape(anchor, length, first_arrow):
    """Zigzag shape with the orientation filled in canonically."""
    return ZigzagShape(
        "zigzag",
        tuple(anchor),
        length,
        first_arrow,
        _expected_orientation(length, first_arrow),
    )


def _shape_entries(s):
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


def _shape_arrows(s):
    """Arrows as (source_index, target_index, which) into _shape_entries.

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


def shape_degree_span(s):
    """(min, max) total degree occupied by the shape."""
    degs = [p + q for p, q in _shape_entries(s)]
    return min(degs), max(degs)


def shape_to_json(s):
    obj = {"kind": s.kind, "anchor": f"{s.anchor[0]},{s.anchor[1]}", "length": s.length}
    if s.kind == "zigzag":
        obj["first_arrow"] = s.first_arrow
        obj["orientation"] = s.orientation
    return obj


# ---------------------------------------------------------------------------
# Multiplicity tables


class MultiplicityTable:
    """Finite multiset of shapes: shape -> positive multiplicity."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for shape, mult in dict(entries).items():
                if not isinstance(shape, ZigzagShape):
                    raise InvalidShape(f"table key {shape!r} is not a shape")
                if mult < 0:
                    raise InvalidShape("negative multiplicity")
                if mult:
                    self.entries[shape] = int(mult)

    def __eq__(self, other):
        if not isinstance(other, MultiplicityTable):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __iter__(self):
        return iter(sorted(self.entries.items()))

    def __len__(self):
        return len(self.entries)

    def get(self, shape):
        return self.entries.get(shape, 0)

    def __add__(self, other):
        merged = dict(self.entries)
        for shape, mult in other.entries.items():
            merged[shape] = merged.get(shape, 0) + mult
        return MultiplicityTable(merged)

    def zigzag_part(self):
        """The table without its squares (the E1-isomorphism type)."""
        return MultiplicityTable(
            {s: m for s, m in self.entries.items() if s.kind != "square"}
        )

    def local_dims(self):
        """Pointwise dimension budget: bidegree -> total dimension."""
        dims = {}
        for shape, mult in self.entries.items():
            for pq in _shape_entries(shape):
                dims[pq] = dims.get(pq, 0) + mult
        return dims

    def to_json(self):
        rows = []
        for shape, mult in sorted(self.entries.items()):
            rows.append({"shape": shape_to_json(shape), "multiplicity": mult})
        return rows

    def __repr__(self):
        return f"MultiplicityTable({len(self.entries)} shapes)"


# ---------------------------------------------------------------------------
# The Bicomplex type


def _check_size(spaces):
    """Refuse {(p, q): dim} beyond DEGREE_CAP in dimension or degree span."""
    by_degree = {}
    for (p, q), dim in spaces.items():
        by_degree[p + q] = by_degree.get(p + q, 0) + dim
    for k, n in sorted(by_degree.items()):
        if n > DEGREE_CAP:
            raise InvalidInput(
                f"total degree {k} has dimension {n}, above the cap of {DEGREE_CAP}"
            )
    _check_span([k for k, n in by_degree.items() if n])


def _check_span(degs):
    """Refuse total degrees degs spread over DEGREE_CAP or more."""
    if degs and max(degs) - min(degs) >= DEGREE_CAP:
        raise InvalidInput(
            f"total degrees {min(degs)}..{max(degs)} span more than the cap of {DEGREE_CAP}"
        )


class Bicomplex:
    """Bounded bigraded space with del and delbar matrices.

    spaces maps (p, q) to a positive dimension; del_maps and
    delbar_maps map a source bidegree to the matrix of the differential
    leaving it (absent means zero).  labels optionally names the basis
    of each bidegree for human-readable reports.
    """

    __slots__ = ("spaces", "del_maps", "delbar_maps", "labels")

    def __init__(self, spaces, del_maps=None, delbar_maps=None, labels=None):
        clean = {}
        for pq, dim in dict(spaces).items():
            pq = (int(pq[0]), int(pq[1]))
            if dim < 0:
                raise InvalidInput(f"negative dimension at {pq}")
            if dim:
                clean[pq] = int(dim)
        _check_size(clean)
        self.spaces = clean
        self.del_maps = {
            tuple(k): v for k, v in (del_maps or {}).items() if not v.is_zero()
        }
        self.delbar_maps = {
            tuple(k): v for k, v in (delbar_maps or {}).items() if not v.is_zero()
        }
        self.labels = (
            {tuple(k): list(v) for k, v in labels.items()} if labels else None
        )

    def dim(self, p, q):
        return self.spaces.get((p, q), 0)

    def support(self):
        return sorted(self.spaces)

    def degrees(self):
        return sorted({p + q for p, q in self.spaces})

    def total_dim(self):
        return sum(self.spaces.values())

    def del_at(self, p, q):
        m = self.del_maps.get((p, q))
        if m is not None:
            return m
        return Matrix.zeros(self.dim(p + 1, q), self.dim(p, q))

    def delbar_at(self, p, q):
        m = self.delbar_maps.get((p, q))
        if m is not None:
            return m
        return Matrix.zeros(self.dim(p, q + 1), self.dim(p, q))

    def __eq__(self, other):
        if not isinstance(other, Bicomplex):
            return NotImplemented
        return (
            self.spaces == other.spaces
            and self.del_maps == other.del_maps
            and self.delbar_maps == other.delbar_maps
        )

    def __repr__(self):
        return f"Bicomplex({len(self.spaces)} bidegrees, total dim {self.total_dim()})"


def validate(A):
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


# ---------------------------------------------------------------------------
# Constructors for indecomposables


def realize_shape(s):
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
    ents = _shape_entries(s)
    spaces = {e: 1 for e in ents}
    del_maps = {}
    delbar_maps = {}
    for si, ti, which in _shape_arrows(s):
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


# ---------------------------------------------------------------------------
# Constructions


def direct_sum(*parts):
    """The direct sum of any number of complexes, in one pass: each del
    and delbar is one block matrix with a block per part.  The sum is
    labelled when every part is; a bidegree a part leaves unlabelled
    reads a0, a1, ... on the first part and b0, b1, ... on the others.
    One part is returned as given."""
    if len(parts) == 1:
        return parts[0]
    spaces, offsets = {}, []
    labels = {} if all(P.labels is not None for P in parts) else None
    for i, P in enumerate(parts):
        offsets.append({pq: spaces.get(pq, 0) for pq in P.spaces})
        for pq, d in P.spaces.items():
            spaces[pq] = spaces.get(pq, 0) + d
            if labels is not None:
                default = [("b" if i else "a") + str(j) for j in range(d)]
                labels.setdefault(pq, []).extend(P.labels.get(pq, default))

    def block(which, s, t):
        out = {}
        for P, off in zip(parts, offsets):
            for (p, q), m in getattr(P, which).items():
                out.setdefault((p, q), []).append((off[p + s, q + t], off[p, q], m, (1, 0)))
        return {(p, q): _block_matrix(spaces[p + s, q + t], spaces[p, q], blocks)
                for (p, q), blocks in out.items()}

    return Bicomplex(spaces, block("del_maps", 1, 0), block("delbar_maps", 0, 1), labels)


def shift(A, i):
    """Shift by bidegree (i, i); matrices are carried unchanged.

    The shift is by an even total degree, so no signs appear.
    """
    spaces = {(p + i, q + i): d for (p, q), d in A.spaces.items()}
    dels = {(p + i, q + i): m for (p, q), m in A.del_maps.items()}
    delbars = {(p + i, q + i): m for (p, q), m in A.delbar_maps.items()}
    labels = (
        {(p + i, q + i): v for (p, q), v in A.labels.items()} if A.labels else None
    )
    return Bicomplex(spaces, dels, delbars, labels)


def tensor(A, B):
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


def dual(A, n):
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


def transpose_bicomplex(A):
    """Swap the two gradings and the two differentials.

    The row spectral sequence of A is the column sequence of the
    transpose; the identities are symmetric so no signs are needed.
    """
    spaces = {(q, p): d for (p, q), d in A.spaces.items()}
    dels = {(q, p): m for (p, q), m in A.delbar_maps.items()}
    delbars = {(q, p): m for (p, q), m in A.del_maps.items()}
    return Bicomplex(spaces, dels, delbars)


_SCRAMBLE_DIAG = [(1, 1), (-1, 1), (2, 1), (1, 2), (-2, 1), (3, 1), (-1, 2), (1, 3)]


def _random_change_of_basis(rng, n):
    """Invertible T = L D U with unit triangular L, U and its inverse.

    The rng draws are part of the output, so their order is fixed and old
    seeds reproduce old scrambles: for each row i and each j < i, L[i][j]
    and then U[j][i], each from -2..2; then D's n entries, each a
    (numerator, denominator) of _SCRAMBLE_DIAG.
    """
    L = [{i: 1} for i in range(n)]
    U = [{i: 1} for i in range(n)]
    for i in range(n):
        for j in range(i):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if a:
                L[i][j] = a
            if b:
                U[j][i] = b
    D = [rng.choice(_SCRAMBLE_DIAG) for _ in range(n)]
    # integer inverses by substitution, L^-1 from the first row down and
    # U^-1 from the last row up: row i is e_i - sum over j != i of M[i][j]
    # times row j of the inverse
    Linv, Uinv = [None] * n, [None] * n
    for M, inv, order in ((L, Linv, range(n)), (U, Uinv, reversed(range(n)))):
        for i in order:
            row = {i: 1}
            for j, x in M[i].items():
                if j != i:
                    for k, y in inv[j].items():
                        row[k] = row.get(k, 0) - x * y
            inv[i] = {k: v for k, v in row.items() if v}
    # T = L (D U) and T^-1 = U^-1 (D^-1 L^-1), each over one denominator
    den, num = lcm(*(d for _, d in D)), lcm(*(a for a, _ in D))
    DU = [_scale(r, a * den // d) for r, (a, d) in zip(U, D)]
    DLinv = [_scale(r, d * num // a) for r, (a, d) in zip(Linv, D)]
    return (Matrix._of(n, n, den, _product(L, DU)),
            Matrix._of(n, n, num, _product(Uinv, DLinv)))


def scramble(A, seed):
    """Conjugate all differentials by a seeded bidegree-preserving
    change of basis; the result is isomorphic to the input."""
    rng = random.Random(seed)
    T = {}
    Tinv = {}
    for pq in sorted(A.spaces):
        T[pq], Tinv[pq] = _random_change_of_basis(rng, A.spaces[pq])

    def conj(maps, step):
        out = {}
        for (p, q), m in maps.items():
            tgt = (p + step[0], q + step[1])
            out[(p, q)] = Tinv[tgt] * m * T[(p, q)]
        return out

    return Bicomplex(
        dict(A.spaces), conj(A.del_maps, (1, 0)), conj(A.delbar_maps, (0, 1))
    )


# ---------------------------------------------------------------------------
# Total-degree block structure


def degree_blocks(A, k):
    """Sorted (by p) list of ((p, q), offset, dim) for total degree k."""
    blocks = []
    pos = 0
    for (p, q) in sorted(pq for pq in A.spaces if pq[0] + pq[1] == k):
        d = A.spaces[(p, q)]
        blocks.append(((p, q), pos, d))
        pos += d
    return blocks


def _degree_dim(A, k):
    return sum(d for _, _, d in degree_blocks(A, k))


def _assemble(A, k, unit_del, unit_delbar):
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
    return _block_matrix(_degree_dim(A, k + 1), _degree_dim(A, k), blocks)


def total_d(A, k):
    """Matrix of d = del + delbar from degree k to k+1 in block bases."""
    return _assemble(A, k, (1, 0), (1, 0))


def dc(A, k):
    """Matrix of d^c = i(delbar - del) from degree k to k+1."""
    return _assemble(A, k, (0, -1), (0, 1))


# ---------------------------------------------------------------------------
# JSON serialization


def _parse_pq(key):
    try:
        p, q = key.split(",")
        return (int(p), int(q))
    except (ValueError, AttributeError) as exc:
        raise InvalidInput(f"bad bidegree key {key!r}; expected 'p,q'") from exc


def _pq_key(key):
    """A JSON object key as text: a tuple such as (p, q) or (p, q, k) as
    "p,q" or "p,q,k", anything else as its str."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def to_json(A):
    obj = {"spaces": {_pq_key(pq): A.spaces[pq] for pq in sorted(A.spaces)}}
    if A.del_maps:
        obj["del"] = {
            _pq_key(pq): A.del_maps[pq].to_json() for pq in sorted(A.del_maps)
        }
    if A.delbar_maps:
        obj["delbar"] = {
            _pq_key(pq): A.delbar_maps[pq].to_json() for pq in sorted(A.delbar_maps)
        }
    if A.labels:
        obj["labels"] = {_pq_key(pq): A.labels[pq] for pq in sorted(A.labels)}
    return obj


def _json_object(obj, key):
    """obj[key] as a dict; an absent key reads as empty."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise InvalidInput(f"'{key}' must be an object keyed by 'p,q'")
    return value


def from_json(obj):
    if not isinstance(obj, dict) or "spaces" not in obj:
        raise InvalidInput("bicomplex JSON must be an object with 'spaces'")
    spaces = {}
    for key, dim in _json_object(obj, "spaces").items():
        if type(dim) is not int or dim < 0:
            raise InvalidInput(f"bad dimension {dim!r} at {key!r}")
        spaces[_parse_pq(key)] = dim
    _check_size(spaces)

    def read(which, step):
        maps = {}
        for key, rows in _json_object(obj, which).items():
            pq = _parse_pq(key)
            src = spaces.get(pq, 0)
            tgt = spaces.get((pq[0] + step[0], pq[1] + step[1]), 0)
            if src == 0 or tgt == 0:
                raise ShapeMismatch(pq, f"{which} given on a zero space")
            maps[pq] = Matrix.from_json(rows, tgt, src)
        return maps

    labels = {}
    for key, names in _json_object(obj, "labels").items():
        pq = _parse_pq(key)
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise InvalidInput(f"labels at {key!r} must be a list of strings")
        if len(names) != spaces.get(pq, 0):
            raise InvalidInput(f"label count at {key!r} does not match dimension")
        labels[pq] = names

    A = Bicomplex(spaces, read("del", (1, 0)), read("delbar", (0, 1)), labels)
    return validate(A)


def dumps(A):
    """Canonical one-line JSON text (sorted keys, reduced scalars)."""
    return json.dumps(to_json(A), sort_keys=True, separators=(",", ":"))


def loads(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return from_json(obj)
