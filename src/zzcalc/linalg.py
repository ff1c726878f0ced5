"""Exact linear algebra over Q(i), the field of Gaussian rationals.

Everything downstream (differentials, filtrations, spectral pages,
cohomology) reduces to three primitives implemented here: reduced row
echelon form, kernels, and subspace arithmetic.  All computations are
exact; no floating point appears anywhere in the package.

Elimination strategy: rows are cleared of denominators and reduced with
integer arithmetic only (fraction-free, with a gcd pull-out after every
row operation to bound growth).  Matrices whose rows are all real or all
purely imaginary travel a plain-integer fast path; genuinely mixed rows
use interleaved (re, im) integer pairs.  Fractions reappear only when a
canonical echelon basis is emitted, where each pivot is normalized to 1.
Reduced row echelon form is unique per row space, so the emitted basis
is a canonical representative of the subspace no matter which path ran.

>>> rank(Matrix([[Scalar(1), Scalar(0, 1)], [Scalar(0, 1), Scalar(-1)]]))
1
>>> kernel_basis(Matrix([[Scalar(1), Scalar(1)]])).dim
1
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

from .errors import AmbientMismatch, InvalidInput, NotASubspace

__all__ = [
    "Scalar",
    "Matrix",
    "Subspace",
    "rank",
    "rref",
    "kernel_basis",
    "image_basis",
    "subspace_sum",
    "subspace_intersect",
    "subspace_quotient_dim",
    "contains",
    "preimage",
    "apply_matrix",
    "coordinate_subspace",
    "zero_subspace",
    "full_subspace",
]


class Scalar:
    """An element a + b*i of Q(i) with exact Fraction parts.

    Instances are immutable and hashable.

    >>> Scalar(1, 2) * Scalar(0, 1)
    Scalar('-2+i')
    >>> str(Scalar(Fraction(1, 2), Fraction(-3, 4)))
    '1/2-3/4*i'
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def is_zero(self):
        return not self.re and not self.im

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Scalar({str(self)!r})"

    def __str__(self):
        return format_scalar(self)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _fmt_frac(f):
    return str(f)


def format_scalar(s):
    """Canonical text form: 'a/b', 'a/b+c/d*i', with 'i'/'-i' shorthand.

    Whitespace-free, reduced, the form used in all JSON files.
    """
    re_, im_ = s.re, s.im
    if not im_:
        return _fmt_frac(re_)
    if im_ == 1:
        ipart = "i"
    elif im_ == -1:
        ipart = "-i"
    elif im_ > 0:
        ipart = f"{_fmt_frac(im_)}*i"
    else:
        ipart = f"-{_fmt_frac(-im_)}*i"
    if not re_:
        return ipart
    sign = "" if ipart.startswith("-") else "+"
    return f"{_fmt_frac(re_)}{sign}{ipart}"


_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_REAL = _re.compile(rf"^({_RAT})$")
_RE_IMAG = _re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?i$")
_RE_BOTH = _re.compile(rf"^({_RAT})([+-])(?:(\d+(?:/\d+)?)\*)?i$")


def parse_scalar(text):
    """Parse the scalar grammar.

    >>> parse_scalar("-3/4") == Scalar(Fraction(-3, 4))
    True
    >>> parse_scalar("1/2-3/4*i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    True
    >>> parse_scalar("-i") == Scalar(0, -1)
    True
    """
    if not isinstance(text, str):
        raise InvalidInput(f"scalar must be a string, got {type(text).__name__}")
    t = text.strip()
    m = _RE_REAL.match(t)
    if m:
        return Scalar(Fraction(m.group(1)))
    m = _RE_IMAG.match(t)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return Scalar(0, sign * coeff)
    m = _RE_BOTH.match(t)
    if m:
        re_ = Fraction(m.group(1))
        sign = -1 if m.group(2) == "-" else 1
        coeff = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        return Scalar(re_, sign * coeff)
    raise InvalidInput(f"cannot parse scalar {text!r}")


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


# ---------------------------------------------------------------------------
# Fraction-free elimination engine.
#
# A scalar row is converted to integers by clearing the lcm of all
# denominators.  Rows that are purely imaginary are multiplied by -i
# first (a unit, so row space and kernel are untouched); after that, a
# matrix whose every row is real runs on plain int lists.  Mixed rows
# interleave (re, im) integer pairs and row operations use Gaussian
# integer arithmetic.


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


def rref(M):
    """Reduced row echelon form of a Matrix and its pivot columns."""
    rows, pivots = _canonical_rows(M.data, M.cols)
    return Matrix([list(r) for r in rows], len(rows), M.cols), pivots


def rank(M):
    """Exact rank.

    >>> rank(Matrix.identity(2))
    2
    >>> rank(Matrix.zeros(3, 5))
    0
    """
    _, pivots = _canonical_rows(M.data, M.cols)
    return len(pivots)


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


def zero_subspace(n):
    return Subspace(n, (), _canonical=True)


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


def subspace_quotient_dim(sub, sup):
    """dim(sup / sub); verifies sub is contained in sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    if not sup.contains_subspace(sub):
        raise NotASubspace("first argument is not contained in the second")
    return sup.dim - sub.dim


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
