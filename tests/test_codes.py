import random
import tracemalloc

import numpy as np
import pytest

from toric3 import codes
from toric3.classify import census
from toric3.codes import DistanceResult, build_code, build_generator_matrix
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

from oracle import generator_matrix_reference, projective_reference, torus_points
from test_column_match import ALL_ORDERS


def test_build_code_shape_and_ones_row():
    code = build_code(make_field(5), empty_tetrahedron(1, 1))
    assert code.G.shape == (4, 64)
    assert np.all(code.G[0] == 1)
    assert code.n == 64 and code.k == 4


def test_build_code_intro_example_gf11():
    # monomials 1, x, z, xyz over GF(11)
    code = build_code(make_field(11), empty_tetrahedron(1, 1))
    assert code.n == 1000
    cols = torus_points(code.field, code.m)
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


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_a_non_integer_exponent_is_invalid(bad):
    # each exponent used to be read through int(): 1.5 gave a [216, 3] code
    # of distance 180.  A polytope checks its own coordinates (the guard
    # test of tests/test_source_rules.py), so the points go in directly
    points = ((0, 0, 0), (bad, 0, 0), (0, 0, 1))
    with pytest.raises(InvalidParams):
        build_generator_matrix(make_field(7), points)


def test_numpy_integers_and_bools_are_integer_exponents():
    points = [(np.int64(1), True, 0), (0, np.uint8(2), False)]
    expected = build_generator_matrix(make_field(7), [(1, 1, 0), (0, 2, 0)])
    assert np.array_equal(build_generator_matrix(make_field(7), points), expected)
    # a generator is read once: its length check used to use it up
    assert np.array_equal(build_generator_matrix(make_field(7), (p for p in points)), expected)


@pytest.mark.parametrize("points", [((0, 0, 0), (0, 0, 0, 1)), ((0, 0), (1, 0, 0)), (), ((),)])
def test_exponent_vectors_of_unequal_length_or_none(points):
    with pytest.raises(ShapeMismatch):
        build_code(make_field(5), LatticePolytope(points))


def _exponent_vectors(q, m, seed):
    """Up to 6 exponent vectors of length m, distinct mod q-1.  With
    (1, ..., 1) or (-1, ..., -1), the per-axis logs of two axes sum to
    exactly q-1 and to 2(q-1)-2, the fold boundaries; the random ones
    run from -3(q-1) to 3(q-1)."""
    n1, rng = q - 1, random.Random(seed)
    vectors = [(0,) * m, (1,) * m, (-1,) * m, (n1,) + (n1 - 1,) * (m - 1)]
    vectors += [tuple(rng.randint(-3 * n1, 3 * n1) for _ in range(m)) for _ in range(6)]
    kept = {}
    for e in vectors:
        kept.setdefault(tuple(a % n1 for a in e), e)
    return list(kept.values())[:6]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", ALL_ORDERS)
def test_generator_matrix_matches_the_log_grid_product(q, m):
    field = make_field(q)
    vectors = _exponent_vectors(q, m, seed=q * 10 + m)
    G = build_code(field, LatticePolytope(tuple(vectors))).G
    assert G.dtype == np.uint8 and not G.flags.writeable
    assert G.shape == (len(vectors), (q - 1) ** m)
    assert np.array_equal(G, generator_matrix_reference(field, vectors))


def test_a_stacked_build_equals_the_matrices_built_alone():
    # one build of the rows of a mixed stack of one k and m, a tetrahedron,
    # a width-1 configuration bordered to k = 4 points and random vectors,
    # writes each set's G, over a field of each kind
    for q in (7, 8, 9, 16):
        field = make_field(q)
        sets = [empty_tetrahedron(1, 3).points, width1_representative((2, 1), 1, 2).points[:4],
                tuple(_exponent_vectors(q, 3, seed=q)[:4])]
        points = [p for vectors in sets for p in codes._reduced_points(field, vectors)]
        out = np.empty((12, (q - 1) ** 3), dtype=np.uint8)
        stack = codes._monomial_rows(points, 0, field.exp_u8, out).reshape(3, 4, -1)
        for G, vectors in zip(stack, sets):
            assert np.array_equal(G, build_generator_matrix(field, vectors))
            assert np.array_equal(G, generator_matrix_reference(field, vectors))
    field = make_field(5)
    with pytest.raises(ExponentCollision):
        build_generator_matrix(field, ((0, 0, 0), (1, 0, 0), (4, 0, 0)))
    with pytest.raises(ShapeMismatch):
        build_generator_matrix(field, ((0, 0, 0), (1, 0)))


def test_g_is_built_on_first_read_only(monkeypatch):
    # the census enumerates its kept codes from their points
    entries = census(make_field(16), 4)
    assert entries and not any("G" in vars(e.code) for e in entries)
    code = entries[0].code
    assert np.array_equal(code.G, build_generator_matrix(code.field, code.polytope.points))
    assert "G" in vars(code) and not code.G.flags.writeable

    def unread(*args):
        raise AssertionError("G was built")

    monkeypatch.setattr(codes, "build_generator_matrix", unread)
    with pytest.raises(ExponentCollision):
        build_code(make_field(3), LatticePolytope(((1, 0, 0), (3, 0, 0))))


def test_no_kernel_pass_builds_a_g(monkeypatch):
    # a census pass and the pass of a code asked alone write their tables
    # from the points, so neither needs build_generator_matrix
    field = make_field(7)
    want = projective_reference(build_code(field, empty_tetrahedron(1, 3)))[1]

    def unread(*args):
        raise AssertionError("G was built")

    monkeypatch.setattr(codes, "build_generator_matrix", unread)
    assert census(make_field(16), 4)
    code = build_code(field, empty_tetrahedron(1, 3))
    assert code.min_distance_brute().value == want and "G" not in vars(code)


def test_generator_matrix_peak_memory():
    # G is k n bytes; an int64 array of G's shape alone would be 8 k n
    field = make_field(64)
    points = empty_tetrahedron(1, 4).points
    tracemalloc.start()
    try:
        G = build_generator_matrix(field, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * G.size


def test_column_order_is_lex_in_log_indices():
    # the rows of G for e1, e2, e3 are the torus points' coordinates
    f = make_field(5)
    cols = build_generator_matrix(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]).T.tolist()
    assert cols[0] == [1, 1, 1]
    assert cols[1] == [1, 1, f.alpha]
    assert cols[4] == [1, f.alpha, 1]
    assert cols[16] == [f.alpha, 1, 1]


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

    def test_iterator_coefficients(self):
        # the zero test must not consume the iterator before encoding
        code = build_code(make_field(5), empty_tetrahedron(1, 1))
        assert code.count_zeros(iter([1, 1, 0, 0])) == code.count_zeros([1, 1, 0, 0]) == 16

    def test_non_integer_zero_vector_is_invalid(self):
        code = build_code(make_field(5), empty_tetrahedron(1, 1))
        with pytest.raises(InvalidParams):
            code.count_zeros([0, 0, 0, 0.0])

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

