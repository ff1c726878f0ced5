"""bicomplex.scramble's change of basis against the route it replaced.

`bicomplex._random_change_of_basis` builds T = L D U and its inverse on
sparse integer rows.  The route it replaced built L, U and D as dense
Fraction lists, inverted L and U by Fraction substitution and multiplied
dense matrices; it and its Fraction `_SCRAMBLE_DIAG` are kept here
unchanged as the oracle.  Both draw the same rng values in the same
order, so a seed must give the same T and T^-1, leave the rng in the same
state, and so give byte-identical `dumps(scramble(A, seed))`: on
criterion-3-style sums, sweep- and large-style realized sums, the
Vaisman models (Gaussian entries), surface models, a Gaussian sum, a
scramble of a scramble, the empty bicomplex and one-dimensional spaces.
"""

import random
from fractions import Fraction

import pytest

from zzcalc import bicomplex
from zzcalc.bicomplex import (
    Bicomplex,
    MultiplicityTable,
    dot_shape,
    dumps,
    scramble,
    square_shape,
    zigzag_shape,
)
from zzcalc.decomposition import realize
from zzcalc.linalg import Matrix, Scalar
from zzcalc.models import surface_model, vaisman_model

from test_acceptance import random_table


# ---------------------------------------------------------------------------
# The replaced route, on dense Fraction lists.


_SCRAMBLE_DIAG = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(-2),
    Fraction(3),
    Fraction(-1, 2),
    Fraction(1, 3),
]


def _random_change_of_basis(rng, n):
    """Invertible T = L D U with unit triangular L, U and its inverse."""
    L = [[Fraction(0)] * n for _ in range(n)]
    U = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        L[i][i] = Fraction(1)
        U[i][i] = Fraction(1)
        for j in range(i):
            L[i][j] = Fraction(rng.randint(-2, 2))
            U[j][i] = Fraction(rng.randint(-2, 2))
    D = [rng.choice(_SCRAMBLE_DIAG) for _ in range(n)]

    def mat(rows):
        return Matrix(rows, n, n)

    def inv_unit_lower(M):
        # forward substitution on columns of the identity
        inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for j in range(n):
            for i in range(n):
                s = inv[i][j] - sum(M[i][k] * inv[k][j] for k in range(i))
                inv[i][j] = s
        return inv

    Linv = inv_unit_lower(L)
    Ut = [[U[j][i] for j in range(n)] for i in range(n)]
    Uinv_t = inv_unit_lower(Ut)
    Uinv = [[Uinv_t[j][i] for j in range(n)] for i in range(n)]
    T = mat(L) * mat([[D[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]) * mat(U)
    Tinv = (
        mat(Uinv)
        * mat([[1 / D[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])
        * mat(Linv)
    )
    return T, Tinv


# ---------------------------------------------------------------------------
# Inputs


def criterion_3_sums(seed, count):
    """Sums drawn as criterion 3 draws them, total dimension <= 45."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = realize(random_table(rng, max_pieces=12, span=7))
        if sum(A.spaces.values()) <= 45:
            out.append(A)
    return out


def _fill(rng, target, draw):
    mults = {}
    total = 0
    while total < target:
        s, dim = draw()
        mults[s] = mults.get(s, 0) + 1
        total += dim
    return realize(MultiplicityTable(mults))


def large_sums(seed, deep_dim=57, wide_dim=70):
    """A deep sum of zigzags of length 4-9 and a wide one of dots,
    squares and length-3 zigzags, anchored in a small window."""
    rng = random.Random(seed)
    side = lambda: rng.choice(("horizontal", "vertical"))

    def deep():
        length = rng.randint(4, 9)
        a = (rng.randint(0, 3), rng.randint(0, 3))
        return zigzag_shape(a, length, side()), length

    def wide():
        kind = rng.randrange(3)
        a = (rng.randint(0, 2), rng.randint(0, 2))
        if kind == 0:
            return dot_shape(*a), 1
        if kind == 1:
            return square_shape(*a), 4
        return zigzag_shape(a, 3, side()), 3

    return [_fill(rng, deep_dim, deep), _fill(rng, wide_dim, wide)]


def oracle_scramble(monkeypatch, A, seed):
    with monkeypatch.context() as m:
        m.setattr(bicomplex, "_random_change_of_basis", _random_change_of_basis)
        return scramble(A, seed)


def assert_same_scramble(monkeypatch, A, seed):
    assert dumps(scramble(A, seed)) == dumps(oracle_scramble(monkeypatch, A, seed))


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("n", range(41))
def test_change_of_basis_matches_oracle(n):
    rng, old = random.Random(n), random.Random(n)
    T, Tinv = bicomplex._random_change_of_basis(rng, n)
    assert T * Tinv == Matrix.identity(n)
    assert (T, Tinv) == _random_change_of_basis(old, n)
    assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_criterion_3_sums(monkeypatch, seed):
    for i, A in enumerate(criterion_3_sums(seed, 15)):
        assert_same_scramble(monkeypatch, A, seed * 100 + i)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_and_large_style_sums(monkeypatch, seed):
    rng = random.Random(seed)
    for A in criterion_3_sums(seed, 10) + large_sums(seed):
        assert_same_scramble(monkeypatch, A, rng.randrange(2**32))


@pytest.mark.parametrize("n, P", [
    (1, {(0, 0): 1}),
    (2, {(0, 0): 2, (1, 0): 1, (0, 1): 1}),
    (3, {(0, 0): 1, (1, 1): 1}),
])
def test_vaisman_models_and_their_scrambles(monkeypatch, n, P):
    A = vaisman_model(n, P)
    assert_same_scramble(monkeypatch, A, 7)
    assert_same_scramble(monkeypatch, scramble(A, 8), 9)


@pytest.mark.parametrize("invariants", [(4, 2, 1, 6), (7, 3, 2, 8)])
def test_surface_models(monkeypatch, invariants):
    assert_same_scramble(monkeypatch, surface_model(*invariants), 5)


def test_gaussian_sum_and_scramble_of_scramble(monkeypatch):
    A = criterion_3_sums(17, 1)[0]
    G = Bicomplex(A.spaces, {pq: m * Scalar(1, 2) for pq, m in A.del_maps.items()},
                  A.delbar_maps)
    assert_same_scramble(monkeypatch, G, 4)
    twice = oracle_scramble(monkeypatch, oracle_scramble(monkeypatch, A, 1), 2)
    assert dumps(scramble(scramble(A, 1), 2)) == dumps(twice)


def test_empty_and_one_dimensional_spaces(monkeypatch):
    assert_same_scramble(monkeypatch, Bicomplex({}), 0)
    for shape in (dot_shape(0, 0), square_shape(1, 2),
                  zigzag_shape((0, 0), 3, "vertical")):
        assert_same_scramble(monkeypatch, realize(MultiplicityTable({shape: 2})), 6)
        assert_same_scramble(monkeypatch, realize(MultiplicityTable({shape: 1})), 6)
