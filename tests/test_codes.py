import numpy as np
import pytest

from toric3.codes import DistanceResult, build_code
from toric3.errors import (
    ExponentCollision,
    InvalidParams,
    ShapeMismatch,
    Toric3Error,
    ZeroPolynomial,
)
from toric3.galois import make_field
from toric3.polytopes import (
    LatticePolytope,
    embedded_polygon,
    empty_tetrahedron,
    width1_representative,
)

from oracle import projective_reference


def test_build_code_shape_and_ones_row():
    code = build_code(make_field(5), empty_tetrahedron(1, 1))
    assert code.G.shape == (4, 64)
    assert np.all(code.G[0] == 1)
    assert code.n == 64 and code.k == 4


def test_build_code_intro_example_gf11():
    # monomials 1, x, z, xyz over GF(11)
    code = build_code(make_field(11), empty_tetrahedron(1, 1))
    assert code.n == 1000
    cols = code.columns()
    for j in (0, 1, 17, 999):
        x, y, z = cols[j]
        assert tuple(int(v) for v in code.G[:, j]) == (
            1, x, z, x * y * z % 11,
        )


def test_exponent_collision():
    # (1,0,0) and (3,0,0) coincide mod q-1 = 2 over GF(3)
    poly = LatticePolytope(((1, 0, 0), (3, 0, 0)))
    with pytest.raises(ExponentCollision):
        build_code(make_field(3), poly)


@pytest.mark.parametrize("points", [((0, 0, 0), (0, 0, 0, 1)), ((0, 0), (1, 0, 0)), ()])
def test_exponent_vectors_of_unequal_length_or_none(points):
    with pytest.raises(ShapeMismatch):
        build_code(make_field(5), LatticePolytope(points))


def test_column_order_is_lex_in_log_indices():
    f = make_field(5)
    code = build_code(f, empty_tetrahedron(1, 1))
    cols = code.columns()
    assert cols[0] == (1, 1, 1)
    assert cols[1] == (1, 1, f.alpha)
    assert cols[4] == (1, f.alpha, 1)
    assert cols[16] == (f.alpha, 1, 1)


class TestCountZeros:
    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("s,t", [(1, 1), (1, 2), (1, 3)])
    def test_one_plus_x(self, q, s, t):
        if t > q - 2:
            pytest.skip("does not fit the field")
        code = build_code(make_field(q), empty_tetrahedron(s, t))
        # f = 1 + x vanishes at x = -1, y and z free
        assert code.count_zeros([1, 1, 0, 0]) == (q - 1) ** 2

    def test_monomial_never_vanishes(self):
        code = build_code(make_field(5), empty_tetrahedron(1, 2))
        assert code.count_zeros([0, 1, 0, 0]) == 0

    def test_zero_polynomial_raises(self):
        code = build_code(make_field(5), empty_tetrahedron(1, 1))
        with pytest.raises(ZeroPolynomial):
            code.count_zeros([0, 0, 0, 0])

    def test_scaling_invariance(self):
        f = make_field(7)
        code = build_code(f, empty_tetrahedron(1, 3))
        u = [1, 2, 0, 5]
        base = code.count_zeros(u)
        for c in f.units():
            assert code.count_zeros([f.mul(c, x) for x in u]) == base


class TestMaxZeros:
    def test_examples(self):
        assert build_code(make_field(5), empty_tetrahedron(1, 1)).max_zeros() == 16
        assert build_code(make_field(5), empty_tetrahedron(1, 2)).max_zeros() == 18
        assert build_code(make_field(7), empty_tetrahedron(1, 3)).max_zeros() == 45


class TestMinDistanceBrute:
    def test_examples(self):
        assert build_code(make_field(5), empty_tetrahedron(1, 1)).min_distance_brute().value == 48
        assert build_code(make_field(7), empty_tetrahedron(1, 3)).min_distance_brute().value == 171

    def test_p32_pinned(self):
        # the (3,2) bounds give [45, 46]; brute force pins 45
        res = build_code(make_field(5), width1_representative((3, 2), 1, 1)).min_distance_brute()
        assert res.exact and res.value == 45

    @pytest.mark.parametrize("q,s,t", [(5, 1, 2), (7, 2, 3), (8, 1, 3)])
    def test_three_way_agreement(self, q, s, t):
        code = build_code(make_field(q), empty_tetrahedron(s, t))
        d = code.min_distance_brute().value  # internally cross-checked
        assert d == code.n - code.max_zeros()
        enum = code.weight_enumerator()
        assert min(w for w in enum if w > 0) == d


class TestWeightEnumerator:
    def test_constant_code(self):
        q = 5
        code = build_code(make_field(q), LatticePolytope(((0, 0, 0),)))
        assert code.weight_enumerator() == {0: 1, code.n: q - 1}

    def test_t11_min_key(self):
        enum = build_code(make_field(5), empty_tetrahedron(1, 1)).weight_enumerator()
        assert min(w for w in enum if w > 0) == 48

    def test_equivalent_pair_identical(self):
        f = make_field(5)
        e1 = build_code(f, empty_tetrahedron(1, 2)).weight_enumerator()
        e2 = build_code(f, empty_tetrahedron(3, 2)).weight_enumerator()
        assert e1 == e2

    @pytest.mark.parametrize("q,s,t", [(5, 1, 2), (7, 1, 4)])
    def test_counts_and_divisibility(self, q, s, t):
        code = build_code(make_field(q), empty_tetrahedron(s, t))
        enum = code.weight_enumerator()
        assert enum[0] == 1
        assert sum(enum.values()) == q**code.k
        for w, c in enum.items():
            if w:
                assert c % (q - 1) == 0


def test_product_theorem_embeddings():
    # 3D distance of an embedded polygon is (q-1) times its 2D distance
    for q in (5, 7):
        f = make_field(q)
        for i in range(1, 5):
            poly = embedded_polygon(i)
            d3 = build_code(f, poly).min_distance_brute().value
            planar = LatticePolytope(tuple(p[:2] for p in poly.points))
            d2 = projective_reference(build_code(f, planar))[1]
            assert d3 == (q - 1) * d2


def test_encode_shape_mismatch():
    code = build_code(make_field(5), empty_tetrahedron(1, 1))
    with pytest.raises(ShapeMismatch):
        code.encode([1, 0])


@pytest.mark.parametrize(
    "u", [[-1, 0, 0, 0], [5, 0, 0, 0], [1.5, 0, 0, 0], [1.0, 0, 0, 0], ["1", 0, 0, 0]]
)
def test_encode_rejects_coefficients_outside_the_field(u):
    # GF(5): -1 used to wrap to 4, 5 raised a bare IndexError, 1.5 truncated to 1
    code = build_code(make_field(5), empty_tetrahedron(1, 1))
    with pytest.raises(InvalidParams):
        code.encode(u)
    with pytest.raises(InvalidParams):
        code.count_zeros(u)


def test_encode_takes_numpy_coefficients():
    code = build_code(make_field(5), empty_tetrahedron(1, 1))
    u = np.array([4, 0, 1, 0])
    assert code.encode(u).tolist() == code.encode([4, 0, 1, 0]).tolist()


def test_distance_result_validation():
    with pytest.raises(ValueError):
        DistanceResult(5, 4, "brute")
    with pytest.raises(ValueError):
        DistanceResult(0, 4, "brute")
    assert DistanceResult(3, 3, "brute").exact


def test_distance_result_errors_are_invalid_params():
    # still ValueErrors, and Toric3Errors, so the CLI exits 1 on them
    for lower, upper in ((5, 4), (0, 4)):
        with pytest.raises(InvalidParams, match="bad distance interval"):
            DistanceResult(lower, upper, "brute")
    with pytest.raises(InvalidParams, match="no single value"):
        DistanceResult(3, 5, "bound").value
    assert issubclass(InvalidParams, ValueError) and issubclass(InvalidParams, Toric3Error)


def test_dump_log_matrix_marks_zero():
    f = make_field(5)
    code = build_code(f, empty_tetrahedron(1, 1))
    dump = code.dump_log_matrix()
    assert dump[0] == [0] * 64  # all-ones row has log 0
    assert all(isinstance(v, int) for row in dump for v in row)
