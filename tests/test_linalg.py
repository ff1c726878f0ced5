import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzcalc.errors import AmbientMismatch, InvalidInput
from zzcalc.linalg import (
    Matrix,
    Scalar,
    Subspace,
    _product,
    apply_matrix,
    format_scalar,
    full_subspace,
    image_basis,
    kernel_basis,
    parse_scalar,
    preimage,
    rank,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)

I = Scalar(0, 1)


class TestScalar:
    def test_arithmetic(self):
        a = Scalar(Fraction(1, 2), Fraction(3, 4))
        b = Scalar(Fraction(-1, 3), 2)
        assert a + b == Scalar(Fraction(1, 6), Fraction(11, 4))
        assert a * I == Scalar(Fraction(-3, 4), Fraction(1, 2))
        assert I * I == Scalar(-1)
        assert (a / b) * b == a

    def test_hash_agrees_with_equality(self):
        assert Scalar(1) == 1 and hash(Scalar(1)) == hash(1)
        assert 1 in {Scalar(1)} and Scalar(1) in {1}
        half = Fraction(1, 2)
        assert hash(Scalar(half)) == hash(half) and half in {Scalar(half)}
        assert Scalar(0, 1) not in {0, 1}
        assert len({Scalar(2), 2, Fraction(4, 2)}) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / Scalar(0)

    @pytest.mark.parametrize("value", [
        Scalar(Fraction(-3, 4)), Scalar(Fraction(1, 2), Fraction(-3, 4)),
        Scalar(0, 5), Scalar(0)])
    def test_pickle_round_trip(self, value):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value)
        assert (type(back.re), type(back.im)) == (Fraction, Fraction)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", Scalar(3)),
            ("-2", Scalar(-2)),
            ("1/2", Scalar(Fraction(1, 2))),
            ("-3/4", Scalar(Fraction(-3, 4))),
            ("i", Scalar(0, 1)),
            ("-i", Scalar(0, -1)),
            ("2*i", Scalar(0, 2)),
            ("1/2*i", Scalar(0, Fraction(1, 2))),
            ("1/2+3/4*i", Scalar(Fraction(1, 2), Fraction(3, 4))),
            ("1/2-3/4*i", Scalar(Fraction(1, 2), Fraction(-3, 4))),
            ("1+i", Scalar(1, 1)),
            ("-1-i", Scalar(-1, -1)),
            ("0", Scalar(0)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize(
        "bad", ["", "1 + i", "x", "1/", "i*2", "++1", "1/0*i", "1/0", "0/0", "1+1/0*i", 5])
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidInput):
            parse_scalar(bad)

    def test_format_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            s = Scalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            assert parse_scalar(format_scalar(s)) == s


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(3, 5)) == 0

    def test_complex_dependent_rows(self):
        # second row is i times the first
        M = Matrix([[Scalar(1), I], [I, Scalar(-1)]])
        assert rank(M) == 1

    def test_mixed_entries(self):
        M = Matrix([[Scalar(1, 1), Scalar(2)], [Scalar(0, 2), Scalar(1, 1)]])
        # det = (1+i)^2 - 2*2i = 2i - 4i = -2i, nonzero
        assert rank(M) == 2

    def test_rref_pivots_normalized(self):
        M = Matrix([[Scalar(0, 2), Scalar(0, 2)], [Scalar(3), Scalar(5)]])
        R = Subspace(M.cols, M.data)
        assert [next(iter(r)) for r in R.rows] == [0, 1]
        assert R.basis[0][0] == Scalar(1)
        assert R.basis[1][1] == Scalar(1)
        assert R.basis[0][1] == Scalar(0)


class TestKernelImage:
    def test_identity_kernel(self):
        assert kernel_basis(Matrix.identity(3)).dim == 0
        assert image_basis(Matrix.identity(3)).dim == 3

    def test_zero_map(self):
        M = Matrix.zeros(2, 4)
        assert kernel_basis(M).dim == 4
        assert image_basis(M).dim == 0

    def test_one_one(self):
        ker = kernel_basis(Matrix([[Scalar(1), Scalar(1)]]))
        assert ker.dim == 1
        assert ker.basis == ((Scalar(1), Scalar(-1)),)

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(3)
        for _ in range(25):
            M = _random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
            ker = kernel_basis(M)
            assert ker.dim + rank(M) == M.cols
            assert not any(_product(ker.rows, M.transpose().sparse))


class TestSubspace:
    def test_intersection_example(self):
        U = Subspace(3, [(1, 0, 0), (0, 1, 0)])
        V = Subspace(3, [(0, 1, 0), (0, 0, 1)])
        W = subspace_intersect(U, V)
        assert W.dim == 1
        assert contains(W, (0, 1, 0))

    def test_sum_and_quotient(self):
        U = Subspace(2, [(1, 0)])
        V = Subspace(2, [(0, 1)])
        assert subspace_sum(U, V).dim == 2
        assert subspace_intersect(U, V).dim == 0
        assert subspace_sum(U, V).contains_subspace(U)
        assert subspace_sum(U, V).dim - U.dim == 1
        assert U.contains_subspace(U)

    def test_quotient_requires_inclusion(self):
        U = Subspace(2, [(1, 0)])
        V = Subspace(2, [(0, 1)])
        assert not V.contains_subspace(U)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_sum(zero_subspace(2), zero_subspace(3))
        with pytest.raises(AmbientMismatch):
            zero_subspace(2).contains_subspace(zero_subspace(3))

    @pytest.mark.parametrize("vectors", [[(1, 0, 5)], [(1, 0), (1,)], [()]])
    def test_vector_length_must_match_ambient(self, vectors):
        with pytest.raises(AmbientMismatch):
            Subspace(2, vectors)

    @pytest.mark.parametrize("S", [
        Subspace(3, [(1, 2, 3), (0, Fraction(1, 2), 1)]),
        Subspace(2, [(Scalar(1), Scalar(Fraction(1, 3), -2))]),
        zero_subspace(4), full_subspace(2)], ids=["real", "gaussian", "zero", "full"])
    def test_pickle_round_trip(self, S):
        S.basis  # a built view is not part of the pickle
        back = pickle.loads(pickle.dumps(S))
        assert back == S and hash(back) == hash(S)
        assert back.basis == S.basis and back.dim == S.dim

    def test_canonical_form_is_basis_independent(self):
        A = Subspace(3, [(1, 2, 3), (0, 1, 1)])
        B = Subspace(3, [(1, 3, 4), (2, 5, 7)])
        assert A == B

    def test_preimage(self):
        # projection (x, y, z) -> (x, y); preimage of the x-axis
        M = Matrix([[1, 0, 0], [0, 1, 0]])
        W = Subspace(2, [(1, 0)])
        P = preimage(M, W)
        assert P.dim == 2
        assert contains(P, (1, 0, 0))
        assert contains(P, (0, 0, 1))
        assert not contains(P, (0, 1, 0))

    def test_preimage_of_full_space(self):
        M = Matrix([[1, 2], [3, 4]])
        assert preimage(M, full_subspace(2)).dim == 2

    def test_apply_matrix(self):
        M = Matrix([[1, 1], [0, 0]])
        U = full_subspace(2)
        img = apply_matrix(M, U)
        assert img.dim == 1
        assert contains(img, (1, 0))

    def test_coordinate_subspace(self):
        C = Subspace(4, [(0, 1, 0, 0), (0, 0, 0, 1)])
        assert C.dim == 2
        assert contains(C, (0, 1, 0, 5))


def contains(U, vec):
    """Whether vec lies in U: the line it spans is contained in U."""
    return U.contains_subspace(Subspace(U.ambient_dim, [vec]))


def _random_scalar(rng, complex_ok=True):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_ok and rng.random() < 0.4 else Fraction(0)
    return Scalar(re, im)


def _random_matrix(rng, rows, cols):
    return Matrix(
        [[_random_scalar(rng) for _ in range(cols)] for _ in range(rows)],
        rows,
        cols,
    )


small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)
scalars = st.builds(Scalar, small_frac, small_frac)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(scalars, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(data, rows, cols)


@st.composite
def subspace_pairs(draw, ambient=4):
    def vecs():
        return st.lists(
            st.lists(scalars, min_size=ambient, max_size=ambient),
            min_size=0,
            max_size=ambient,
        )

    U = Subspace(ambient, draw(vecs()))
    V = Subspace(ambient, draw(vecs()))
    return U, V


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert kernel_basis(M).dim + rank(M) == M.cols
    assert image_basis(M).dim == rank(M)


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4), st.randoms(use_true_random=False))
def test_echelon_canonicality(M, rnd):
    """Row-shuffled and row-recombined generating sets give one canonical basis."""
    U = Subspace(M.cols, [tuple(row) for row in M.data])
    shuffled = [list(row) for row in M.data]
    rnd.shuffle(shuffled)
    if len(shuffled) >= 2:
        a, b = rnd.sample(range(len(shuffled)), 2)
        shuffled[a] = [x + y for x, y in zip(shuffled[a], shuffled[b])]
    V = Subspace(M.cols, shuffled)
    assert U == V


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_modular_dimension_law(pair):
    U, V = pair
    s = subspace_sum(U, V)
    t = subspace_intersect(U, V)
    assert s.dim + t.dim == U.dim + V.dim
    assert s.contains_subspace(U)
    assert U.contains_subspace(t)
