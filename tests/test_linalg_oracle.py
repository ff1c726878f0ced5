"""The sparse integer route of linalg against the Scalar route it replaced.

The replaced route is copied below verbatim from the last version that
ran it: the dense Scalar Matrix, `_to_int_rows` and `_canonical_rows`
with their integer RREF, `Subspace`, `kernel_basis`, `image_basis`,
`subspace_sum`, `subspace_intersect`, `contains`, `apply_matrix`,
`preimage`, the total-degree matrix assembly and `TotalComplex.d_kernel`.
Every Scalar and Fraction in it is made and combined entry by entry, so
it shares no arithmetic with the integer rows it checks.  The library
route must give the same subspaces (as Scalar bases and pivot lists),
ranks, echelon forms and matrices on fixed-seed real, Gaussian-integer
and rational matrices, and the same value in every TotalComplex cache
family on scrambled sums drawn like acceptance criterion 3's (each
persistence pairing is held to the ranks of d that it must give).  Its own
checks of the ddc+3 condition make no Scalar at all.
"""

import math
import random
from fractions import Fraction

import pytest

from zzcalc import linalg
from zzcalc.bicomplex import (
    MultiplicityTable,
    degree_blocks,
    dot_shape,
    dumps,
    loads,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.conditions import check_ddc3, ell, numeric_report, purity_diagram
from zzcalc.decomposition import realize
from zzcalc.errors import AmbientMismatch, InvalidInput
from zzcalc.functors import TotalComplex, spectral_page
from zzcalc.linalg import I, ONE, ZERO, Scalar, _coerce, format_scalar, parse_scalar

from test_acceptance import random_table
from test_filtration_oracle import old_compute_filtration, old_kerd_F


# ---------------------------------------------------------------------------
# The replaced route, verbatim.


class Matrix:
    """Dense row-major matrix of Scalars.

    The zero-row and zero-column cases are legal; maps in and out of
    zero-dimensional spaces occur constantly at the boundary of a
    bounded bicomplex.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        self.rows = rows
        self.cols = cols
        self.data = [[_coerce(x) for x in row] for row in data]
        for row in self.data:
            if len(row) != cols:
                raise InvalidInput("ragged matrix rows")
        if len(self.data) != rows:
            raise InvalidInput("row count mismatch")

    @staticmethod
    def zeros(rows, cols):
        return Matrix([[ZERO] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(n):
        return Matrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n, n
        )

    def is_zero(self):
        return all(x.is_zero() for row in self.data for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise InvalidInput(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}"
                )
            out = []
            ot = other.transpose().data
            for row in self.data:
                out.append(
                    [
                        sum((a * b for a, b in zip(row, col)), ZERO)
                        for col in ot
                    ]
                )
            return Matrix(out, self.rows, other.cols)
        s = _coerce(other)
        return Matrix(
            [[x * s for x in row] for row in self.data], self.rows, self.cols
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InvalidInput("matrix size mismatch in addition")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            self.rows,
            self.cols,
        )

    def transpose(self):
        return Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    def apply(self, vec):
        """Multiply by a column vector given as a sequence of Scalars."""
        if len(vec) != self.cols:
            raise InvalidInput("vector length mismatch")
        vec = [_coerce(b) for b in vec]
        live = [
            j for j, b in enumerate(vec) if b.re or b.im
        ]
        out = []
        for row in self.data:
            acc = ZERO
            for j in live:
                a = row[j]
                if a.re or a.im:
                    acc = acc + a * vec[j]
            out.append(acc)
        return tuple(out)

    def to_json(self):
        return [[format_scalar(x) for x in row] for row in self.data]

    @staticmethod
    def from_json(obj, rows, cols):
        if not isinstance(obj, list) or len(obj) != rows:
            raise InvalidInput(f"expected {rows} matrix rows, got {obj!r}")
        data = []
        for row in obj:
            if not isinstance(row, list) or len(row) != cols:
                raise InvalidInput(f"expected {cols} entries per row")
            data.append([parse_scalar(x) for x in row])
        return Matrix(data, rows, cols)


def _row_gcd_reduce(row):
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for t, v in enumerate(row):
            row[t] = v // g


def _to_int_rows(scalar_rows):
    """Clear denominators; normalize purely imaginary rows to real.

    Returns (int_rows, mixed) where int_rows are plain-int rows when
    mixed is False and interleaved (re, im) rows when mixed is True.
    """
    normalized = []
    mixed = False
    for row in scalar_rows:
        den = 1
        for x in row:
            dr = x.re.denominator
            if dr != 1:
                den = den * dr // math.gcd(den, dr)
            di = x.im.denominator
            if di != 1:
                den = den * di // math.gcd(den, di)
        res = [
            x.re.numerator * (den // x.re.denominator) if x.re else 0
            for x in row
        ]
        ims = [
            x.im.numerator * (den // x.im.denominator) if x.im else 0
            for x in row
        ]
        if any(ims):
            if any(res):
                mixed = True
                normalized.append((res, ims))
                continue
            # purely imaginary row: multiply by -i
            res, ims = ims, [0] * len(ims)
        normalized.append((res, ims))
    if mixed:
        out = []
        for res, ims in normalized:
            row = []
            for a, b in zip(res, ims):
                row.append(a)
                row.append(b)
            _row_gcd_reduce(row)
            out.append(row)
        return out, True
    out = []
    for res, _ in normalized:
        row = list(res)
        _row_gcd_reduce(row)
        out.append(row)
    return out, False


def _rref_int_real(rows, ncols):
    rows = [r for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for j in range(r, len(rows)):
            if rows[j][c]:
                piv = j
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for j in range(len(rows)):
            if j == r:
                continue
            b = rows[j][c]
            if not b:
                continue
            row = rows[j]
            new = [p * row[t] - b * prow[t] for t in range(ncols)]
            _row_gcd_reduce(new)
            rows[j] = new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rref_int_complex(rows, ncols):
    rows = [r for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for j in range(r, len(rows)):
            if rows[j][2 * c] or rows[j][2 * c + 1]:
                piv = j
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pr, pi = prow[2 * c], prow[2 * c + 1]
        for j in range(len(rows)):
            if j == r:
                continue
            row = rows[j]
            br, bi = row[2 * c], row[2 * c + 1]
            if not br and not bi:
                continue
            new = [0] * (2 * ncols)
            for t in range(ncols):
                xr, xi = row[2 * t], row[2 * t + 1]
                yr, yi = prow[2 * t], prow[2 * t + 1]
                new[2 * t] = pr * xr - pi * xi - br * yr + bi * yi
                new[2 * t + 1] = pr * xi + pi * xr - br * yi - bi * yr
            _row_gcd_reduce(new)
            rows[j] = new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _canonical_rows(scalar_rows, ncols):
    """Reduced echelon Scalar rows (pivot 1) and pivot columns."""
    int_rows, mixed = _to_int_rows(scalar_rows)
    if mixed:
        ech, pivots = _rref_int_complex(int_rows, ncols)
        out = []
        for row, c in zip(ech, pivots):
            pr, pi = row[2 * c], row[2 * c + 1]
            n = pr * pr + pi * pi
            canon = []
            for t in range(ncols):
                xr, xi = row[2 * t], row[2 * t + 1]
                canon.append(
                    Scalar(Fraction(xr * pr + xi * pi, n), Fraction(xi * pr - xr * pi, n))
                )
            out.append(tuple(canon))
        return out, pivots
    ech, pivots = _rref_int_real(int_rows, ncols)
    out = []
    for row, c in zip(ech, pivots):
        p = row[c]
        out.append(tuple(Scalar(Fraction(v, p)) for v in row))
    return out, pivots


class Subspace:
    """A subspace of Q(i)^n held as its unique reduced echelon basis.

    Equal subspaces compare equal regardless of how they were built.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis=(), _canonical=False):
        if not _canonical:
            canon, _ = _canonical_rows([[_coerce(x) for x in v] for v in basis], ambient_dim)
            basis = canon
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(v) for v in basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return Subspace(ambient_dim, vectors)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains(self, vec):
        return contains(self, vec)

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return all(contains(self, v) for v in other.basis)


def full_subspace(n):
    return coordinate_subspace(n, range(n))


def coordinate_subspace(ambient_dim, indices):
    """Span of the given standard basis vectors."""
    idx = sorted(set(indices))
    basis = []
    for i in idx:
        if not 0 <= i < ambient_dim:
            raise AmbientMismatch(f"coordinate {i} outside ambient {ambient_dim}")
        v = [ZERO] * ambient_dim
        v[i] = ONE
        basis.append(tuple(v))
    return Subspace(ambient_dim, basis, _canonical=True)


def kernel_basis(M):
    """Canonical kernel subspace; dim kernel + rank = cols.

    >>> kernel_basis(Matrix([[Scalar(1), Scalar(1)]])).basis
    ((Scalar('1'), Scalar('-1')),)
    """
    rows, pivots = _canonical_rows(M.data, M.cols)
    pivset = set(pivots)
    free = [c for c in range(M.cols) if c not in pivset]
    vectors = []
    for f in free:
        v = [ZERO] * M.cols
        v[f] = ONE
        for row, p in zip(rows, pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        vectors.append(v)
    return Subspace(M.cols, vectors)


def image_basis(M):
    """Canonical column-space subspace."""
    return Subspace(M.rows, [tuple(col) for col in M.transpose().data])


def subspace_sum(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    return Subspace(U.ambient_dim, U.basis + V.basis)


def subspace_intersect(U, V):
    """Intersection via the Zassenhaus double-width elimination."""
    if U.ambient_dim != V.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    n = U.ambient_dim
    stacked = []
    for u in U.basis:
        stacked.append(list(u) + list(u))
    for v in V.basis:
        stacked.append(list(v) + [ZERO] * n)
    rows, _ = _canonical_rows(stacked, 2 * n)
    inter = []
    for row in rows:
        if all(x.is_zero() for x in row[:n]):
            inter.append(row[n:])
    return Subspace(n, inter)


def contains(U, vec):
    """Membership test by reduction against the echelon basis."""
    if len(vec) != U.ambient_dim:
        raise AmbientMismatch(
            f"vector of length {len(vec)} in ambient dimension {U.ambient_dim}"
        )
    v = [_coerce(x) for x in vec]
    for row in U.basis:
        lead = next(i for i, x in enumerate(row) if not x.is_zero())
        if not v[lead].is_zero():
            c = v[lead]
            for i in range(lead, U.ambient_dim):
                v[i] = v[i] - c * row[i]
    return all(x.is_zero() for x in v)


def apply_matrix(M, U):
    """The image subspace M(U)."""
    if U.ambient_dim != M.cols:
        raise AmbientMismatch("subspace ambient does not match matrix columns")
    return Subspace(M.rows, [M.apply(v) for v in U.basis])


def preimage(M, W):
    """The subspace {x : M x lies in W}.

    Computed as the kernel of (annihilator of W) composed with M: a
    vector y lies in W exactly when every functional vanishing on W
    vanishes on y, and those functionals form the kernel of W's basis
    matrix.
    """
    if W.ambient_dim != M.rows:
        raise AmbientMismatch("subspace ambient does not match matrix rows")
    if W.dim == W.ambient_dim:
        return full_subspace(M.cols)
    ann = kernel_basis(Matrix([list(v) for v in W.basis], W.dim, W.ambient_dim))
    if ann.dim == 0:
        return full_subspace(M.cols)
    C = Matrix([list(f) for f in ann.basis], ann.dim, W.ambient_dim)
    return kernel_basis(C * M)


def _assemble(A, k, coeff_del, coeff_delbar):
    src = degree_blocks(A, k)
    tgt = degree_blocks(A, k + 1)
    tgt_pos = {pq: (off, d) for pq, off, d in tgt}
    rows = sum(d for _, _, d in tgt)
    cols = sum(d for _, _, d in src)
    m = [[ZERO] * cols for _ in range(rows)]
    for (p, q), off, d in src:
        for mat, coeff, tpq in (
            (A.del_maps.get((p, q)), coeff_del, (p + 1, q)),
            (A.delbar_maps.get((p, q)), coeff_delbar, (p, q + 1)),
        ):
            if mat is None or tpq not in tgt_pos:
                continue
            toff, _ = tgt_pos[tpq]
            for i in range(mat.rows):
                for j in range(mat.cols):
                    c = mat.data[i][j]
                    if not c.is_zero():
                        m[toff + i][off + j] = c * coeff
    return Matrix(m, rows, cols)



class OldRoute:
    """TotalComplex's cache families on the replaced route.  `d_kernel`
    is the old method verbatim; the rest are the old formulas."""

    def __init__(self, tc):
        self.tc = tc
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def dim(self, k):
        return self.tc.dim(k)

    def d(self, k):
        return self._get(("d", k), lambda: _assemble(self.tc.A, k, ONE, ONE))

    def dc(self, k):
        return self._get(("dc", k), lambda: _assemble(self.tc.A, k, Scalar(0, -1), I))

    def ddc(self, k):
        return self._get(("ddc", k), lambda: self.d(k + 1) * self.dc(k))

    def ker_d(self, k):
        return self._get(("ker_d", k), lambda: kernel_basis(self.d(k)))

    def im_d(self, k):
        return self._get(("im_d", k), lambda: image_basis(self.d(k - 1)))

    def ker_dc(self, k):
        return self._get(("ker_dc", k), lambda: kernel_basis(self.dc(k)))

    def im_dc(self, k):
        return self._get(("im_dc", k), lambda: image_basis(self.dc(k - 1)))

    def ker_ddc(self, k):
        return kernel_basis(self.ddc(k))

    def im_ddc(self, k):
        return image_basis(self.ddc(k - 2))

    def d_ker_dc(self, k):
        return apply_matrix(self.d(k - 1), self.ker_dc(k - 1))

    def dinv_im_dc(self, k):
        return preimage(self.d(k), self.im_dc(k + 1))

    def kk(self, k):
        return self._get(("kk", k), lambda: subspace_intersect(self.ker_d(k), self.ker_dc(k)))

    def ii_sum(self, k):
        return subspace_sum(self.im_d(k), self.im_dc(k))

    def ii_cap(self, k):
        return subspace_intersect(self.im_d(k), self.im_dc(k))

    def kd_imd(self, k):
        return subspace_intersect(self.kk(k), self.im_d(k))

    def kd_imdc(self, k):
        return subspace_intersect(self.kk(k), self.im_dc(k))

    def d_kernel(self, k, cols, rows):
        """Vectors on the degree-k coordinates cols whose d vanishes on
        the degree-(k+1) coordinates rows: the kernel of that submatrix
        of d, embedded back into degree k."""
        cols, rows = tuple(cols), tuple(rows)

        def build():
            d = self.d(k).data
            ker = kernel_basis(
                Matrix([[d[i][j] for j in cols] for i in rows], len(rows), len(cols))
            )
            at = {j: t for t, j in enumerate(cols)}
            n = self.dim(k)
            basis = [[v[at[j]] if j in at else ZERO for j in range(n)] for v in ker.basis]
            # an increasing embedding of coordinates keeps the basis reduced
            return Subspace(n, basis, _canonical=True)

        return self._get(("d_kernel", k, cols, rows), build)

    def kerd_F(self, k, axis, level):
        cols = [i for pq, off, dim in degree_blocks(self.tc.A, k) if pq[axis] >= level
                for i in range(off, off + dim)]
        return self.d_kernel(k, cols, range(self.dim(k + 1)))

    def d_rank(self, k, cols, rows):
        """Rank of d(k) on the degree-k coordinates cols and the
        degree-(k+1) coordinates rows."""
        d = self.d(k).data
        return len(_canonical_rows([[d[i][j] for j in cols] for i in rows], len(cols))[1])


def assert_pairing_lemma(old, axis, pairs):
    """The pairs of degree k with source level >= a and target level < b
    are as many as the rank of d(k) from the coordinates of level >= a
    to those of level < b, for every a and b."""
    tc = old.tc

    def levels(deg):
        return [(i, pq[axis]) for pq, off, dim in tc.blocks(deg) for i in range(off, off + dim)]

    for k in tc.degrees():
        src, tgt = levels(k), levels(k + 1)
        span = [lv for _, lv in src + tgt] or [0]
        for a in range(min(span), max(span) + 2):
            for b in range(min(span), max(span) + 2):
                count = sum(n for (s, o, jump), n in pairs.items()
                            if s + o == k and s >= a and s + jump < b)
                rank = old.d_rank(k, [i for i, lv in src if lv >= a],
                                  [i for i, lv in tgt if lv < b])
                assert count == rank, (axis, k, a, b)


# ---------------------------------------------------------------------------
# Comparisons


def lead(vec):
    return next(i for i, x in enumerate(vec) if not x.is_zero())


def assert_canonical_rows(S):
    """Columns increasing, primitive, first entry the positive denominator."""
    for row in S.rows:
        keys = list(row)
        assert keys == sorted(keys) and keys[0] < S.ambient_dim
        values = list(row.values())
        if isinstance(values[0], tuple):
            assert values[0][0] > 0 and values[0][1] == 0
            assert any(v[1] for v in values)
            assert math.gcd(*(x for v in values for x in v)) == 1
        else:
            assert values[0] > 0 and math.gcd(*values) == 1


def assert_same_subspace(new, old):
    assert isinstance(new, linalg.Subspace) and isinstance(old, Subspace)
    assert new.ambient_dim == old.ambient_dim
    assert new.basis == old.basis
    assert [next(iter(r)) for r in new.rows] == [lead(v) for v in old.basis]
    assert_canonical_rows(new)


def old_matrix(M):
    return Matrix([list(row) for row in M.data], M.rows, M.cols)


def assert_same_matrix(new, old):
    assert (new.rows, new.cols) == (old.rows, old.cols)
    assert new.data == old.data
    assert math.gcd(new.den, *(x for r in new.sparse for v in r.values()
                               for x in (v if isinstance(v, tuple) else (v,)))) == 1


def random_entry(rng, kind):
    if rng.random() < 0.4:
        return Scalar(0)
    if kind == "real":
        return Scalar(rng.randint(-3, 3))
    if kind == "gaussian":
        return Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
    if kind == "imaginary":
        return Scalar(0, rng.randint(-3, 3))
    return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.3 else 0)


def random_matrix(rng, kind, rows, cols):
    data = [[random_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        data[rng.randrange(rows)] = [Scalar(0)] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = Scalar(0)
    if rows > 1 and rng.random() < 0.3:
        # a dependent row: a Q(i)-multiple of another
        a, b = rng.sample(range(rows), 2)
        c = random_entry(rng, "gaussian") or Scalar(0, 1)
        data[a] = [x * c for x in data[b]]
    return linalg.Matrix(data, rows, cols)


def random_subspaces(rng, kind, n):
    dim = rng.randint(0, n)
    M = random_matrix(rng, kind, dim, n)
    return linalg.Subspace(n, M.data), Subspace(n, old_matrix(M).data)


KINDS = ("real", "gaussian", "imaginary", "rational")
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 3), (4, 6), (6, 4), (7, 7)]


@pytest.mark.parametrize("kind", KINDS)
def test_matrices_against_old_route(kind):
    rng = random.Random(f"linalg-oracle-{kind}")
    for rows, cols in SHAPES * 4:
        M = random_matrix(rng, kind, rows, cols)
        O = old_matrix(M)
        assert_same_matrix(M, O)
        old_rows, old_pivots = _canonical_rows(O.data, O.cols)
        R, pivots = linalg.rref(M)
        assert pivots == old_pivots
        assert R.data == [list(r) for r in old_rows]
        assert linalg.rank(M) == len(old_pivots)
        assert_same_subspace(linalg.kernel_basis(M), kernel_basis(O))
        assert_same_subspace(linalg.image_basis(M), image_basis(O))
        assert_same_matrix(M.transpose(), O.transpose())

        U, oU = random_subspaces(rng, kind, cols)
        assert_same_subspace(U, oU)
        assert_same_subspace(linalg.apply_matrix(M, U), apply_matrix(O, oU))
        W, oW = random_subspaces(rng, kind, rows)
        assert_same_subspace(linalg.preimage(M, W), preimage(O, oW))

        V, oV = random_subspaces(rng, kind, cols)
        assert_same_subspace(linalg.subspace_sum(U, V), subspace_sum(oU, oV))
        assert_same_subspace(linalg.subspace_intersect(U, V), subspace_intersect(oU, oV))
        probes = list(oV.basis) + [random_matrix(rng, kind, 1, cols).data[0] for _ in range(3)]
        for v in probes:
            assert linalg.contains(U, v) == contains(oU, v)
            assert M.apply(v) == O.apply(v)
        N = random_matrix(rng, kind, cols, rng.randint(0, 5))
        assert_same_matrix(M * N, O * old_matrix(N))
        c = random_entry(rng, kind)
        assert_same_matrix(M * c, O * c)
        M2 = random_matrix(rng, kind, rows, cols)
        assert_same_matrix(M + M2, O + old_matrix(M2))


def test_ambient_checks_kept():
    with pytest.raises(AmbientMismatch):
        linalg.subspace_intersect(linalg.zero_subspace(2), linalg.zero_subspace(3))
    with pytest.raises(AmbientMismatch):
        linalg.contains(linalg.full_subspace(2), (1, 0, 0))
    with pytest.raises(InvalidInput):
        linalg.Matrix([[1, 2], [3]])


def test_json_text_against_old_route():
    rng = random.Random("linalg-oracle-json")
    for kind in KINDS:
        M = random_matrix(rng, kind, 4, 5)
        text = old_matrix(M).to_json()
        assert M.to_json() == text
        assert linalg.Matrix.from_json(text, 4, 5) == M
        for row in text:
            for entry in row:
                assert linalg.parse_scalar(entry) == parse_scalar(entry)


# ---------------------------------------------------------------------------
# TotalComplex cache families


def scrambled_tables(count, seed=20261019):
    """(table, sum) pairs drawn like acceptance criterion 3's, total
    dimension <= 45."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        table = random_table(rng, max_pieces=12, span=7)
        A = realize(table)
        if sum(A.spaces.values()) <= 45:
            out.append((table, scramble(A, rng.randrange(2**32))))
    return out


SUMS = scrambled_tables(8)


@pytest.mark.parametrize("table, A", SUMS, ids=[f"sum{i}" for i in range(len(SUMS))])
def test_cache_families_against_old_route(table, A):
    tc = TotalComplex(A)
    check_ddc3(tc)
    numeric_report(tc)
    ell(tc)
    purity_diagram(tc)
    for which in ("column", "row"):
        for r in (1, 2, 3):
            spectral_page(tc, which, r)
    old = OldRoute(tc)
    families = set()
    for key, value in list(tc._cache.items()):
        name, args = key[0], key[1:]
        families.add(name)
        if name == "multiplicities":
            assert value == table
        elif name == "filtration":
            assert value == old_compute_filtration(TotalComplex(A))
        elif name in ("d", "dc", "ddc"):
            assert_same_matrix(value, getattr(old, name)(*args))
        elif name == "pairs":
            assert_pairing_lemma(old, *args, value)
        elif name == "kerd_F":
            assert_same_subspace(value, old.kerd_F(*args))
            assert value == old_kerd_F(tc, *args)
        else:
            method = {"ii_sum": old.ii_sum, "ii_cap": old.ii_cap}.get(name) or getattr(old, name)
            assert_same_subspace(value, method(*args))
    assert families >= {"d", "dc", "ddc", "ker_d", "im_d", "ker_dc", "im_dc", "ker_ddc",
                        "im_ddc", "d_ker_dc", "dinv_im_dc", "kk", "ii_sum", "ii_cap",
                        "kd_imd", "kd_imdc", "pairs", "kerd_F", "filtration",
                        "multiplicities"}


# ---------------------------------------------------------------------------
# No Scalar inside the engine


def test_ddc3_and_numeric_report_make_no_scalar(monkeypatch):
    table = MultiplicityTable({
        dot_shape(0, 0): 1,
        square_shape(0, 1): 1,
        zigzag_shape((1, 0), 3, "horizontal"): 1,
        zigzag_shape((1, 1), 3, "vertical"): 2,
    })
    tc = TotalComplex(loads(dumps(scramble(realize(table), 5))))
    made = []
    init = Scalar.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counted)
    report = check_ddc3(tc)
    numbers = numeric_report(tc)
    monkeypatch.undo()
    assert report.holds and numbers.slacks[1] == 0
    assert made == []
