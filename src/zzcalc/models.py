"""Model bicomplexes with known structure.

vaisman_model expands, per primitive bidegree (p,q) and basis element
x, the finite algebra x * Lambda<th10, th01, w> truncated at
w^{n-p-q+1} = 0, with dth01 = (i/2) w = -dbar th10 extended as an odd
derivation.  The zigzag census of the result (dots, two L's and a
ladder of squares per generator) is therefore computed by the
decomposition machinery rather than asserted here.

vaisman_expected_bc holds the matching closed forms through middle
degree.  In total degree n+1 both tables carry the term P_{p-1,q-1}
alongside P_{p-1,q} and P_{p,q-1}; the n = 1, P_{0,0} = 1 case already
requires it (its H_BC at (1,1) is one-dimensional).
"""

from itertools import product

from .bicomplex import (
    Bicomplex,
    MultiplicityTable,
    _check_size,
    _check_span,
    direct_sum,
    dot_shape,
    shift,
    tensor,
    validate,
    zigzag_shape,
)
from .decomposition import realize
from .errors import InvalidInput
from .functors import CohomologyTable
from .linalg import Matrix

__all__ = [
    "vaisman_model",
    "vaisman_expected_bc",
    "surface_model",
    "blowup_model",
    "projective_bundle_model",
    "product_model",
]

def _checked_primitives(n, P):
    if n < 1:
        raise InvalidInput("n must be >= 1")
    clean = {}
    for (p, q), v in P.items():
        if v < 0:
            raise InvalidInput(f"negative dimension for P({p},{q})")
        if p < 0 or q < 0 or p + q > n:
            raise InvalidInput(
                f"primitive bidegree ({p},{q}) outside 0 <= p+q <= {n}"
            )
        if v:
            clean[(p, q)] = int(v)
    if clean.get((0, 0), 0) < 1:
        raise InvalidInput("P(0,0) must be at least 1")
    for (p, q), v in clean.items():
        if clean.get((q, p), 0) != v:
            raise InvalidInput(f"P not symmetric at ({p},{q})")
    return clean


def _element_label(key):
    p, q, i, a, b, c = key
    parts = [f"x({p},{q})#{i}"]
    if a:
        parts.append("th10")
    if b:
        parts.append("th01")
    if c:
        parts.append("w" if c == 1 else f"w^{c}")
    return "*".join(parts)


def vaisman_model(n, P):
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

    # every entry is +-i/2: (0, +-1) in sparse rows over denominator 2
    del_maps = {}
    delbar_maps = {}

    def put(maps, src_key, tgt_key, sign):
        src_pq, si = index[src_key]
        tgt_pq, ti = index[tgt_key]
        rows = maps.get(src_pq)
        if rows is None:
            rows = maps[src_pq] = [{} for _ in basis[tgt_pq]]
        rows[ti][si] = (0, sign)

    for key in keys:
        p, q, i, a, b, c = key
        if c + 1 > n - p - q:
            continue
        sign = 1 if (p + q) % 2 == 0 else -1
        if b:
            if a:
                put(del_maps, key, (p, q, i, 1, 0, c + 1), -sign)
            else:
                put(del_maps, key, (p, q, i, 0, 0, c + 1), sign)
        if a:
            tgt = (p, q, i, 0, 1, c + 1) if b else (p, q, i, 0, 0, c + 1)
            put(delbar_maps, key, tgt, -sign)

    def matrices(maps):
        return {pq: Matrix._of(len(rows), len(basis[pq]), 2, rows)
                for pq, rows in maps.items()}

    labels = {pq: [_element_label(k) for k in lst] for pq, lst in basis.items()}
    return validate(Bicomplex(spaces, matrices(del_maps), matrices(delbar_maps), labels))


def vaisman_expected_bc(n, P):
    """Closed-form Bott-Chern and Aeppli tables through degree n+1."""
    P = _checked_primitives(n, P)

    def g(p, q):
        return P.get((p, q), 0)

    bc = {}
    ae = {}
    for p in range(n + 2):
        for q in range(n + 2 - p):
            if p + q <= n:
                vb = g(p, q) + g(p - 1, q - 1)
                va = g(p, q) + g(p - 1, q) + g(p, q - 1)
            else:
                vb = va = g(p - 1, q - 1) + g(p - 1, q) + g(p, q - 1)
            if vb:
                bc[(p, q)] = vb
            if va:
                ae[(p, q)] = va
    return CohomologyTable("bott_chern", bc), CohomologyTable("aeppli", ae)


def surface_model(b1, h10, h20, b2):
    """A compact-surface bicomplex with the given invariants.

    Dots carry the Hodge numbers; odd first Betti number adds one
    incoming L at (1,1) and one outgoing L from (1,1).
    """
    if min(b1, h10, h20, b2) < 0:
        raise InvalidInput("surface invariants must be non-negative")
    eps = b1 % 2
    if b1 != 2 * h10 + eps:
        raise InvalidInput(f"b1 = {b1} incompatible with h10 = {h10}")
    if b2 < 2 * h20:
        raise InvalidInput(f"b2 = {b2} smaller than 2*h20 = {2 * h20}")
    mults = {
        dot_shape(0, 0): 1,
        dot_shape(2, 2): 1,
        dot_shape(1, 0): h10,
        dot_shape(0, 1): h10,
        dot_shape(2, 1): h10,
        dot_shape(1, 2): h10,
        dot_shape(2, 0): h20,
        dot_shape(0, 2): h20,
        dot_shape(1, 1): b2 - 2 * h20,
    }
    if eps:
        mults[zigzag_shape((0, 1), 3, "horizontal")] = 1
        mults[zigzag_shape((1, 1), 3, "vertical")] = 1
    return realize(MultiplicityTable(mults))


def _with_copies(A, B, count):
    """A plus shift(B, i) for i = 1..count, refused before any copy is
    built when the degrees pass DEGREE_CAP (each copy adds 2 to both ends
    of B's).  An empty B adds no space, but one copy drops the labels."""
    if not (B.spaces and count):
        return direct_sum(A, B) if count else A
    _check_span(A.degrees() + [B.degrees()[0] + 2, B.degrees()[-1] + 2 * count])
    return direct_sum(A, *(shift(B, i) for i in range(1, count + 1)))


def blowup_model(A, Z, d):
    """A plus d-1 shifted copies of the center Z."""
    if d < 2:
        raise InvalidInput("blow-up codimension d must be >= 2")
    return _with_copies(validate(A), validate(Z), d - 1)


def projective_bundle_model(A, r):
    """r shifted copies of A, one per fiber cohomology class."""
    if r < 1:
        raise InvalidInput("fiber rank r must be >= 1")
    return _with_copies(validate(A), A, r - 1)


def product_model(A, B):
    return tensor(validate(A), validate(B))
