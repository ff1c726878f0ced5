"""Exact linear algebra over Q(i), the field of Gaussian rationals.

Everything downstream (differentials, filtrations, spectral pages,
cohomology) reduces to three primitives implemented here: reduced row
echelon form, kernels, and subspace arithmetic.  All computations are
exact; no floating point appears anywhere in the package.

Elimination strategy: every matrix, subspace and elimination holds
sparse integer rows, dicts {column: int}, or {column: (re, im)} for a
row with an entry that is not real; a row is all one kind or the other.
A Matrix is one positive common denominator over such rows.  A Subspace
holds its reduced row echelon basis, each row (pivot 1) scaled by the
lcm of its denominators: a primitive integer row, columns increasing,
whose first entry is the pivot and equals that denominator.  Reduced
echelon form is unique per row space, so equal subspaces hold equal
rows however they were built.

Every elimination in the package is one _Echelon keyed by pivot column:
rows are reduced fraction-free (cross-multiplication in the manner of
Bareiss, with a gcd pull-out after every row operation to bound growth),
each step also acting on a row's witness when it carries one.  A
canonical echelon then back-substitutes once, from the last pivot; it
multiplies a purely imaginary row by -i first (a unit, so row space and
kernel are untouched), and a batch with no genuinely complex row runs on
plain ints, any other on Gaussian integer pairs.

Scalar and Fraction objects appear only at the edges: the Matrix and
Subspace constructors, parse_scalar, Matrix.from_json/to_json, and the
Matrix.data and Subspace.basis views, built on demand and cached.

>>> rank(Matrix([[Scalar(1), Scalar(0, 1)], [Scalar(0, 1), Scalar(-1)]]))
1
>>> kernel_basis(Matrix([[Scalar(1), Scalar(1)]])).dim
1
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

from .errors import AmbientMismatch, InvalidInput

__all__ = [
    "Scalar",
    "Matrix",
    "Subspace",
    "rank",
    "kernel_basis",
    "image_basis",
    "subspace_sum",
    "subspace_intersect",
    "preimage",
    "apply_matrix",
    "zero_subspace",
    "full_subspace",
]


class Scalar:
    """An element a + b*i of Q(i) with exact Fraction parts.

    Instances are immutable and hashable; a real Scalar hashes like its
    Fraction, so it is found in sets and dicts of ints and Fractions.

    >>> Scalar(1, 2) * Scalar(0, 1)
    Scalar('-2+i')
    >>> str(Scalar(Fraction(1, 2), Fraction(-3, 4)))
    '1/2-3/4*i'
    >>> 1 in {Scalar(1)}
    True
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

    def __reduce__(self):
        return Scalar, (self.re, self.im)

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
            return not self.im and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

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


def _entry(x):
    """(re, im, den) integers of an int, Fraction or Scalar x, with
    x == (re + im*i)/den and den > 0, without making a Scalar."""
    if isinstance(x, Scalar):
        re_, im_ = x.re, x.im
    elif isinstance(x, (int, Fraction)):
        re_, im_ = x, 0
    else:
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
    den = lcm(re_.denominator, im_.denominator)
    return re_.numerator * (den // re_.denominator), im_.numerator * (den // im_.denominator), den


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _rat(n, d):
    """Reduced text of n/d for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _format(re_, im_, den):
    """Canonical text of (re_ + im_*i)/den."""
    if not im_:
        return _rat(re_, den)
    if im_ == den:
        ipart = "i"
    elif im_ == -den:
        ipart = "-i"
    elif im_ > 0:
        ipart = f"{_rat(im_, den)}*i"
    else:
        ipart = f"-{_rat(-im_, den)}*i"
    if not re_:
        return ipart
    sign = "" if ipart.startswith("-") else "+"
    return f"{_rat(re_, den)}{sign}{ipart}"


def format_scalar(s):
    """Canonical text form: 'a/b', 'a/b+c/d*i', with 'i'/'-i' shorthand.

    Whitespace-free, reduced, the form used in all JSON files.
    """
    return _format(*_entry(s))


_RAT = r"([+-]?\d+)(?:/(\d+))?"
_COEFF = r"(?:(\d+)(?:/(\d+))?\*)?i"
_RE_REAL = _re.compile(_RAT)
_RE_IMAG = _re.compile(rf"([+-]?){_COEFF}")
_RE_BOTH = _re.compile(rf"{_RAT}([+-]){_COEFF}")


def _parse(text):
    """(re, im, den) integers with text == (re + im*i)/den and den > 0."""
    if text == "0":
        return 0, 0, 1
    if not isinstance(text, str):
        raise InvalidInput(f"scalar must be a string, got {type(text).__name__}")
    t = text.strip()
    m = _RE_REAL.fullmatch(t)
    if m:
        a, b, sign, c, d = m.group(1), m.group(2), "", "0", None
    else:
        m = _RE_IMAG.fullmatch(t)
        if m:
            a, b, sign, c, d = "0", None, m.group(1), m.group(2) or "1", m.group(3)
        else:
            m = _RE_BOTH.fullmatch(t)
            if not m:
                raise InvalidInput(f"cannot parse scalar {text!r}")
            a, b, sign, c, d = m.group(1), m.group(2), m.group(3), m.group(4) or "1", m.group(5)
    try:
        a, b, c, d = int(a), int(b or 1), int(c), int(d or 1)
    except ValueError as exc:  # past the interpreter's digit limit
        raise InvalidInput(f"scalar of {len(t)} characters: {exc}") from exc
    if not b or not d:
        raise InvalidInput(f"zero denominator in scalar {text!r}")
    den = lcm(b, d)
    im_ = c * (den // d)
    return a * (den // b), -im_ if sign == "-" else im_, den


def parse_scalar(text):
    """Parse the scalar grammar.

    >>> parse_scalar("-3/4") == Scalar(Fraction(-3, 4))
    True
    >>> parse_scalar("1/2-3/4*i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    True
    >>> parse_scalar("-i") == Scalar(0, -1)
    True
    """
    re_, im_, den = _parse(text)
    return Scalar(Fraction(re_, den), Fraction(im_, den))


# ---------------------------------------------------------------------------
# Sparse integer rows.
#
# A row is a dict {column: int}, or {column: (re, im)} when some entry is
# not real (then at least one im is nonzero).  Zero entries are absent.


def _is_pairs(row):
    for v in row.values():
        return type(v) is tuple
    return False


def _as_pairs(row):
    if _is_pairs(row):
        return row
    return {k: (v, 0) for k, v in row.items()}


def _tidy(row):
    """row with ints or pairs as its entries call for."""
    if all(type(v) is int for v in row.values()):
        return row
    row = {k: v if type(v) is tuple else (v, 0) for k, v in row.items()}
    if any(v[1] for v in row.values()):
        return row
    return {k: v[0] for k, v in row.items()}


def _scale(row, s):
    """row times the nonzero int s."""
    if s == 1:
        return row
    if _is_pairs(row):
        return {k: (a * s, b * s) for k, (a, b) in row.items()}
    return {k: v * s for k, v in row.items()}


def _times(row, a, b):
    """row times the Gaussian integer a + b*i (not zero)."""
    if not b:
        return _scale(row, a)
    return _tidy({k: (a * x - b * y, a * y + b * x) for k, (x, y) in _as_pairs(row).items()})


def _content(rows):
    """gcd of every integer in rows."""
    g = 0
    for row in rows:
        if _is_pairs(row):
            g = gcd(g, *(x for v in row.values() for x in v))
        else:
            g = gcd(g, *row.values())
        if g == 1:
            return 1
    return g


def _product(A, B):
    """Rows of A times the matrix with rows B (denominators left out)."""
    if any(map(_is_pairs, A)) or any(map(_is_pairs, B)):
        return _gauss_product(A, B)
    out = []
    for row in A:
        acc = {}
        for j, x in row.items():
            for k, y in B[j].items():
                acc[k] = acc.get(k, 0) + x * y
        out.append({k: v for k, v in acc.items() if v})
    return out


def _gauss_product(A, B):
    B = [_as_pairs(r) for r in B]
    out = []
    for row in A:
        acc = {}
        for j, (xr, xi) in _as_pairs(row).items():
            for k, (yr, yi) in B[j].items():
                ar, ai = acc.get(k, (0, 0))
                acc[k] = (ar + xr * yr - xi * yi, ai + xr * yi + xi * yr)
        out.append(_tidy({k: v for k, v in acc.items() if v[0] or v[1]}))
    return out


def _transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    if any(map(_is_pairs, rows)):
        out = [_tidy(r) for r in out]
    return out


# ---------------------------------------------------------------------------
# Fraction-free elimination: one echelon, with witnesses.


def _combine(a, r, b, s):
    """a*r - b*s for real rows."""
    new = {k: a * v for k, v in r.items()} if a != 1 else dict(r)
    for k, v in s.items():
        x = new.get(k, 0) - b * v
        if x:
            new[k] = x
        else:
            del new[k]
    return new


def _sub(r, prow, c, w=None, pw=None):
    """r with column c cleared by the echelon row prow: the fraction-free
    step a*r - b*prow, a/b = prow[c]/r[c] in lowest terms (_gsub's step
    for pair rows), with the gcd of the result pulled out.  Given a
    witness w, the step also takes w to a*w - b*pw (pw is prow's witness,
    None for zero), the pull-out covers both, and both are returned."""
    if type(prow[c]) is tuple:
        return _gsub(r, prow, c, w, pw)
    a, b = prow[c], r[c]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    new = _combine(a, r, b, prow)
    if w is None:
        g = gcd(*new.values())
        return {k: v // g for k, v in new.items()} if g > 1 else new
    w = _combine(a, w, b, pw or {})
    g = gcd(*new.values(), *w.values())
    if g > 1:
        return {k: v // g for k, v in new.items()}, {k: v // g for k, v in w.items()}
    return new, w


def _gsub(r, prow, c, w=None, pw=None):
    """_sub for pair rows: the step prow[c]*r - r[c]*prow, the same on a
    given witness, and the gcd of every integer in the results pulled out."""
    ar, ai = prow[c]
    br, bi = r[c]
    out = []
    for x_row, p_row in ((r, prow),) if w is None else ((r, prow), (w, pw or {})):
        new = {k: (ar * x - ai * y, ar * y + ai * x) for k, (x, y) in x_row.items()}
        for k, (x, y) in p_row.items():
            nr, ni = new.get(k, (0, 0))
            nr -= br * x - bi * y
            ni -= br * y + bi * x
            if nr or ni:
                new[k] = (nr, ni)
            else:
                del new[k]
        out.append(new)
    g = gcd(*(x for row in out for v in row.values() for x in v))
    if g > 1:
        out = [{k: (x // g, y // g) for k, (x, y) in row.items()} for row in out]
    return out[0] if w is None else tuple(out)


def _canon(row):
    """The canonical form of an echelon row: columns increasing, primitive,
    first entry positive (real rows)."""
    keys = sorted(row)
    g = gcd(*row.values())
    if row[keys[0]] < 0:
        g = -g
    if g == 1:
        return {k: row[k] for k in keys}
    return {k: row[k] // g for k in keys}


def _gcanon(row):
    """The canonical form of an echelon row of pairs: scaled by the
    conjugate of its pivot, so the pivot is real and positive, then made
    primitive; real rows come back as ints."""
    keys = sorted(row)
    pr, pi = row[keys[0]]
    out = {}
    for k in keys:
        x, y = row[k]
        out[k] = (x * pr + y * pi, y * pr - x * pi)
    g = gcd(*(x for v in out.values() for x in v))
    if any(v[1] for v in out.values()):
        return {k: (x // g, y // g) for k, (x, y) in out.items()}
    return {k: x // g for k, (x, _) in out.items()}


class _Echelon:
    """Row space in (non-reduced) echelon form, with witnesses.

    pivots maps each lead column c to its row (all int or all pair rows);
    wits may hold its witness, a row at the same scale: both divided by
    pivots[c][c] give the lead-1 pivot and witness.  reduce(row, wit)
    clears pivot columns, lowest first, by _sub and applies each step to
    wit too (a pivot without a witness has witness zero); insert makes a
    pivot primitive with its witness, lead > 0.  Pivot rows given to the
    constructor are shared, not copied."""

    __slots__ = ("pivots", "wits")

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)
        self.wits = {}

    def reduce(self, row, wit=None):
        """The remainder of row; wit is updated in place."""
        z, w = row, wit
        while z:
            c = min(z)
            p = self.pivots.get(c)
            if p is None:
                break
            if w is None:
                z = _sub(z, p, c)
            else:
                z, w = _sub(z, p, c, w, self.wits.get(c))
        if w is not wit:
            wit.clear()
            wit.update(w)
        return z

    def insert(self, row, wit=None):
        """Lead column of the new pivot (int rows), or None when row reduces to 0."""
        z = self.reduce(row, wit)
        if not z:
            return None
        lead = min(z)
        g = gcd(*z.values(), *(wit or {}).values())
        if z[lead] < 0:
            g = -g
        if g != 1:
            z = {c: v // g for c, v in z.items()}
            wit = wit and {c: v // g for c, v in wit.items()}
        self.pivots[lead] = z
        if wit is not None:
            self.wits[lead] = wit
        return lead

    @property
    def rank(self):
        return len(self.pivots)


def _kernel(rows, ech=None):
    """Int relations w, sum of w[i] * rows[i] zero, one per row that
    reduces to zero; the largest index is the row's own, and w divided
    by its coefficient is the rational relation.  The other rows become
    pivots of ech, the i-th witnessed by {i: 1} as reduced.  A row given
    as None is skipped (no relation, no pivot) but keeps its index."""
    if ech is None:
        ech = _Echelon()
    out = []
    for i, row in enumerate(rows):
        if row is None:
            continue
        wit = {i: 1}
        if ech.insert(row, wit) is None:
            out.append(wit)
    return out


def _echelon(rows):
    """Canonical reduced echelon rows spanning the same space, by pivot:
    each row reduced through an _Echelon, then one back-substitution
    from the last pivot.  A purely imaginary row is taken times -i."""
    live = []
    pairs = False
    for row in rows:
        if _is_pairs(row):
            if not any(v[0] for v in row.values()):
                row = {k: v[1] for k, v in row.items()}  # times -i
            else:
                pairs = True
        live.append(row)
    ech = _Echelon()
    piv = ech.pivots
    for r in live:
        if z := ech.reduce(_as_pairs(r) if pairs else r):
            piv[min(z)] = z
    # back-substitution from the last pivot: the rows done are canonical and
    # zero at one another's pivots, so clearing one pivot fills no other
    done = []
    for lead in sorted(piv, reverse=True):
        r = _reduce(done, piv[lead])
        done.append(_gcanon(_as_pairs(r)) if pairs else _canon(r))
    return done[::-1]


def _reduce(rows, r):
    """r (up to a nonzero factor) minus its part along the canonical rows:
    zero exactly when r lies in their span."""
    for row in rows:
        c = next(iter(row))
        if c in r:
            if _is_pairs(row) or _is_pairs(r):
                r = _tidy(_sub(_as_pairs(r), _as_pairs(row), c))
            else:
                r = _sub(r, row, c)
    return r


def _kernel_rows(rows, ncols):
    """Canonical rows of {x : row . x = 0 for each row} in Q(i)^ncols."""
    ech = _echelon(rows)
    pivots = {next(iter(r)) for r in ech}
    # free column f: x_f = 1 and x_p = -(row at f)/den for each pivot row
    entries = {f: [] for f in range(ncols) if f not in pivots}
    for row in ech:
        items = iter(row.items())
        p, den = next(items)
        if type(den) is tuple:
            den = den[0]
        for f, v in items:
            entries[f].append((p, v, den))
    vecs = []
    for f, ents in entries.items():
        if not ents:
            vecs.append({f: 1})
            continue
        L = lcm(*(den for _, _, den in ents))
        vec = {f: L}
        for p, v, den in ents:
            s = -(L // den)
            vec[p] = (v[0] * s, v[1] * s) if type(v) is tuple else v * s
        vecs.append(_tidy(vec))
    return _echelon(vecs)


# ---------------------------------------------------------------------------
# Matrices


def _rows_of(data, entry=_entry):
    """(den, rows): a table of values as sparse integer rows over their
    least common denominator; entry(value) gives (re, im, den)."""
    parsed = []
    den = 1
    for row in data:
        ents = []
        for j, x in enumerate(row):
            re_, im_, d = entry(x)
            if re_ or im_:
                ents.append((j, re_, im_, d))
                den = lcm(den, d)
        parsed.append(ents)
    rows = []
    for ents in parsed:
        if any(im_ for _, _, im_, _ in ents):
            rows.append({j: (re_ * (den // d), im_ * (den // d)) for j, re_, im_, d in ents})
        else:
            rows.append({j: re_ * (den // d) for j, re_, _, d in ents})
    return den, rows


def _scalars(row, n, den):
    """Row of n Scalars from a sparse row over den."""
    out = [ZERO] * n
    if _is_pairs(row):
        for k, (a, b) in row.items():
            out[k] = Scalar(Fraction(a, den), Fraction(b, den))
    else:
        for k, a in row.items():
            out[k] = Scalar(Fraction(a, den))
    return out


class Matrix:
    """Row-major matrix over Q(i): sparse integer rows over one positive
    common denominator, with gcd(den, every entry) = 1.

    The zero-row and zero-column cases are legal; maps in and out of
    zero-dimensional spaces occur constantly at the boundary of a
    bounded bicomplex.  `data` is the dense Scalar view, built on demand
    and cached; it is read-only (editing it does not change the matrix).
    """

    __slots__ = ("rows", "cols", "den", "sparse", "_data", "_t")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise InvalidInput("ragged matrix rows")
        if len(data) != rows:
            raise InvalidInput("row count mismatch")
        self.rows = rows
        self.cols = cols
        self.den, self.sparse = _rows_of(data)
        self._data = self._t = None

    @staticmethod
    def _of(rows, cols, den, sparse):
        """A matrix from sparse rows over den, brought to lowest terms."""
        g = gcd(den, _content(sparse))
        if g > 1:
            den //= g
            sparse = [
                {k: (a // g, b // g) for k, (a, b) in r.items()} if _is_pairs(r)
                else {k: v // g for k, v in r.items()}
                for r in sparse
            ]
        M = object.__new__(Matrix)
        M.rows, M.cols, M.den, M.sparse = rows, cols, den, sparse
        M._data = M._t = None
        return M

    @staticmethod
    def zeros(rows, cols):
        return Matrix._of(rows, cols, 1, [{} for _ in range(rows)])

    @staticmethod
    def identity(n):
        return Matrix._of(n, n, 1, [{i: 1} for i in range(n)])

    @property
    def data(self):
        if self._data is None:
            self._data = [_scalars(r, self.cols, self.den) for r in self.sparse]
        return self._data

    def _columns(self):
        """The transposed sparse rows (cached)."""
        if self._t is None:
            self._t = _transpose(self.sparse, self.cols)
        return self._t

    def is_zero(self):
        return not any(self.sparse)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.sparse == other.sparse
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den,
                     tuple(tuple(sorted(r.items())) for r in self.sparse)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise InvalidInput(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}"
                )
            return Matrix._of(self.rows, other.cols, self.den * other.den,
                              _product(self.sparse, other.sparse))
        den, (row,) = _rows_of([[other]])
        if not row:
            return Matrix.zeros(self.rows, self.cols)
        a, b = (row[0], 0) if type(row[0]) is int else row[0]
        return Matrix._of(self.rows, self.cols, self.den * den,
                          [_times(r, a, b) for r in self.sparse])

    __rmul__ = __mul__

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InvalidInput("matrix size mismatch in addition")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = []
        for r1, r2 in zip(self.sparse, other.sparse):
            acc = dict(_as_pairs(_scale(r1, sa)))
            for k, (x, y) in _as_pairs(_scale(r2, sb)).items():
                u, v = acc.get(k, (0, 0))
                acc[k] = (u + x, v + y)
            out.append(_tidy({k: v for k, v in acc.items() if v != (0, 0)}))
        return Matrix._of(self.rows, self.cols, den, out)

    def transpose(self):
        return Matrix._of(self.cols, self.rows, self.den, self._columns())

    def to_json(self):
        out = []
        den = self.den
        for r in self.sparse:
            line = ["0"] * self.cols
            for k, v in r.items():
                line[k] = _format(v[0], v[1], den) if type(v) is tuple else _rat(v, den)
            out.append(line)
        return out

    @staticmethod
    def from_json(obj, rows, cols):
        if not isinstance(obj, list) or len(obj) != rows:
            raise InvalidInput(f"expected {rows} matrix rows, got {obj!r}")
        for row in obj:
            if not isinstance(row, list) or len(row) != cols:
                raise InvalidInput(f"expected {cols} entries per row")
        return Matrix._of(rows, cols, *_rows_of(obj, _parse))


def _block_matrix(rows, cols, blocks):
    """The rows x cols Matrix holding each (r0, c0, M, (a, b)) of blocks
    at row r0, column c0, times the Gaussian integer a + b*i; blocks do
    not overlap."""
    den = lcm(*(M.den for _, _, M, _ in blocks))
    out = [{} for _ in range(rows)]
    for r0, c0, M, (a, b) in blocks:
        s = den // M.den
        for i, row in enumerate(M.sparse):
            target = out[r0 + i]
            for j, v in _times(row, a * s, b * s).items():
                target[c0 + j] = v
    return Matrix._of(rows, cols, den, [_tidy(r) for r in out])


def _kron(A, B):
    """The Kronecker product: entry (ia*B.rows + ib, ja*B.cols + jb) is
    A[ia][ja] * B[ib][jb]."""
    out = []
    for row_a in A.sparse:
        for row_b in B.sparse:
            row = {}
            for ja, x in row_a.items():
                a, b = x if type(x) is tuple else (x, 0)
                for jb, v in _times(row_b, a, b).items():
                    row[ja * B.cols + jb] = v
            out.append(_tidy(row))
    return Matrix._of(A.rows * B.rows, A.cols * B.cols, A.den * B.den, out)


def rank(M):
    """Exact rank.

    >>> rank(Matrix.identity(2))
    2
    >>> rank(Matrix.zeros(3, 5))
    0
    """
    return len(_echelon(M.sparse))


# ---------------------------------------------------------------------------
# Subspaces


class Subspace:
    """A subspace of Q(i)^n held as its unique reduced echelon basis.

    `rows` are the canonical sparse integer rows (see the module
    docstring); `basis` is the same basis as tuples of Scalars, built on
    demand and cached.  Equal subspaces compare equal regardless of how
    they were built.
    """

    __slots__ = ("ambient_dim", "rows", "_basis")

    def __init__(self, ambient_dim, basis=()):
        basis = list(basis)
        for v in basis:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        _init_subspace(self, ambient_dim, _echelon(_rows_of(basis)[1]))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return _subspace, (self.ambient_dim, self.rows)

    @property
    def basis(self):
        if self._basis is None:
            b = tuple(tuple(_scalars(r, self.ambient_dim, _pivot_value(r))) for r in self.rows)
            object.__setattr__(self, "_basis", b)
        return self._basis

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return not any(_reduce(self.rows, r) for r in other.rows)


def _pivot_value(row):
    v = next(iter(row.values()))
    return v[0] if type(v) is tuple else v


def _init_subspace(S, n, rows):
    object.__setattr__(S, "ambient_dim", n)
    object.__setattr__(S, "rows", rows)
    object.__setattr__(S, "_basis", None)


def _subspace(n, rows):
    """The Subspace whose canonical rows are rows (not checked)."""
    S = object.__new__(Subspace)
    _init_subspace(S, n, rows)
    return S


def _span(n, rows):
    """The Subspace of Q(i)^n spanned by sparse integer rows."""
    return _subspace(n, _echelon(rows))


def zero_subspace(n):
    return _subspace(n, [])


def full_subspace(n):
    return _subspace(n, [{i: 1} for i in range(n)])


def kernel_basis(M):
    """Canonical kernel subspace; dim kernel + rank = cols.

    >>> kernel_basis(Matrix([[Scalar(1), Scalar(1)]])).basis
    ((Scalar('1'), Scalar('-1')),)
    """
    return _subspace(M.cols, _kernel_rows(M.sparse, M.cols))


def image_basis(M):
    """Canonical column-space subspace."""
    return _span(M.rows, M._columns())


def subspace_sum(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    if not V.rows:
        return U
    if not U.rows:
        return V
    return _span(U.ambient_dim, U.rows + V.rows)


def subspace_intersect(U, V):
    """Intersection via the Zassenhaus double-width elimination: the
    echelon of the rows (u | u) and (v | 0) has the intersection as the
    right halves of its rows that vanish on the left half."""
    if U.ambient_dim != V.ambient_dim:
        raise AmbientMismatch("ambient dimensions differ")
    n = U.ambient_dim
    if not U.rows or not V.rows:
        return zero_subspace(n)
    stacked = [{**u, **{k + n: x for k, x in u.items()}} for u in U.rows]
    ech = _echelon(stacked + V.rows)
    return _subspace(n, [{k - n: x for k, x in r.items()} for r in ech if next(iter(r)) >= n])


def apply_matrix(M, U):
    """The image subspace M(U)."""
    if U.ambient_dim != M.cols:
        raise AmbientMismatch("subspace ambient does not match matrix columns")
    return _span(M.rows, _product(U.rows, M._columns()))


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
    ann = _kernel_rows(W.rows, W.ambient_dim)
    return _subspace(M.cols, _kernel_rows(_product(ann, M.sparse), M.cols))
