"""Property-based tests of the GF(2^8) field axioms and matrix algebra."""

from hypothesis import given, settings, strategies as st

from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix

elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(elements, elements)
    def test_addition_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elements, elements, elements)
    def test_addition_associative(self, a, b, c):
        assert GF256.add(GF256.add(a, b), c) == GF256.add(a, GF256.add(b, c))

    @given(elements, elements)
    def test_multiplication_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert GF256.mul(a, GF256.add(b, c)) == GF256.add(GF256.mul(a, b), GF256.mul(a, c))

    @given(nonzero_elements)
    def test_multiplicative_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1


class TestVectorisedConsistency:
    @given(st.lists(elements, min_size=1, max_size=40), elements)
    def test_scale_vec_matches_scalar_mul(self, vector, scalar):
        expected = [GF256.mul(scalar, value) for value in vector]
        assert list(GF256.scale_vec(scalar, vector)) == expected

    @given(st.lists(st.tuples(elements, elements), min_size=1, max_size=40))
    def test_mul_vec_matches_scalar_mul(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        expected = [GF256.mul(x, y) for x, y in pairs]
        assert list(GF256.mul_vec(a, b)) == expected


def identity(size):
    return GFMatrix([[int(i == j) for j in range(size)] for i in range(size)])


@st.composite
def invertible_matrices(draw, max_size=5):
    size = draw(st.integers(min_value=1, max_value=max_size))
    attempts = 0
    while True:
        data = draw(
            st.lists(st.lists(elements, min_size=size, max_size=size),
                     min_size=size, max_size=size)
        )
        matrix = GFMatrix(data)
        if matrix.rank() == size:
            return matrix
        attempts += 1
        if attempts > 10:
            # Fall back to a guaranteed invertible perturbation of the identity.
            return identity(size)


class TestMatrixProperties:
    @settings(max_examples=30, deadline=None)
    @given(invertible_matrices())
    def test_inverse_roundtrip(self, matrix):
        assert matrix @ matrix.inverse() == identity(matrix.rows)
        assert matrix.inverse() @ matrix == identity(matrix.rows)

    @settings(max_examples=30, deadline=None)
    @given(invertible_matrices(), st.lists(elements, min_size=1, max_size=5))
    def test_solve_finds_the_preimage(self, matrix, vector):
        vector = (vector * matrix.cols)[: matrix.cols]
        rhs = matrix.matvec(vector)
        solution = matrix.solve(rhs)
        assert matrix.matvec(solution) == rhs

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_rank_never_exceeds_dimensions(self, rows, cols):
        matrix = GFMatrix([[(r * cols + c) % 256 for c in range(cols)] for r in range(rows)])
        assert matrix.rank() <= min(rows, cols)
