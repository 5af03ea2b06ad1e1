import random
from itertools import combinations, permutations, product
from math import gcd, prod

import numpy as np
import pytest
from oracle import affine_volumes_reference, hull_reference, volume_reference

from toric3.errors import DegenerateConfiguration, InvalidParams, OutOfRange, ParseError
from toric3.polytopes import (
    WIDTH1_VOLUMES,
    WIDTH2_VOLUMES,
    AffineUnimodularMap,
    LatticePolytope,
    affine_dependence,
    apply_map,
    det,
    det4,
    embedded_polygon,
    empty_tetrahedron,
    hull_lattice_points,
    is_empty_tetrahedron,
    lattice_width,
    normalized_volume_tetra,
    parameter_sweep,
    parse_polytope_spec,
    white_canonical,
    white_equivalence_map,
    width1_representative,
    width2_representative,
)


def coprime_pairs(t_max):
    for t in range(1, t_max + 1):
        for s in range(t + 1):
            if gcd(s, t) == 1:
                yield s, t


class TestEmptyTetrahedron:
    def test_unit_example(self):
        p = empty_tetrahedron(1, 1)
        assert p.points == ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))

    def test_invalid_gcd(self):
        with pytest.raises(InvalidParams):
            empty_tetrahedron(2, 4)
        with pytest.raises(InvalidParams):
            empty_tetrahedron(1, 0)

    def test_emptiness_by_scan(self):
        # no fifth lattice point in the hull, checked by box scan
        for s, t in [(3, 7), (1, 1), (2, 5), (5, 12)]:
            assert is_empty_tetrahedron(empty_tetrahedron(s, t))

    def test_nonempty_counterexample(self):
        # doubling a vertex direction introduces interior points
        fat = LatticePolytope(((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)))
        assert not is_empty_tetrahedron(fat)
        assert len(hull_lattice_points(fat.points)) == 10


class TestWidth1Representatives:
    def test_rows(self):
        assert width1_representative((2, 2)).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
        )
        assert width1_representative((3, 2), 1, 1).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
        )
        assert width1_representative((3, 1)).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1),
        )
        assert width1_representative((2, 1), 1, 2).points == (
            (0, 0, 0), (1, 0, 0), (0, 0, 1), (-1, 0, 0), (1, 2, 1),
        )

    def test_param_constraints(self):
        with pytest.raises(InvalidParams):
            width1_representative((2, 1), 2, 3)  # needs s <= t/2
        with pytest.raises(InvalidParams):
            width1_representative((3, 2), 0, 1)  # needs s > 0
        with pytest.raises(InvalidParams):
            width1_representative((3, 2), 2, 4)  # gcd


class TestWidth2Representatives:
    def test_row1(self):
        assert width2_representative(1).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 2, 3),
        )

    def test_row2_signature(self):
        sig = affine_dependence(width2_representative(2))
        assert sig.pair == (4, 1)
        assert sig.dependence == (-4, 1, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            width2_representative(10)
        with pytest.raises(OutOfRange):
            width2_representative(0)


class TestEmbeddedPolygons:
    def test_points(self):
        assert embedded_polygon(1).points == (
            (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0),
        )
        assert embedded_polygon(3).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
        )
        assert embedded_polygon(4).points == (
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0),
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            embedded_polygon(5)


class TestAffineDependence:
    @pytest.mark.parametrize("s,t", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
    def test_sig21_volume_vector(self, s, t):
        if 2 * s > t:
            pytest.skip("outside table constraint")
        sig = affine_dependence(width1_representative((2, 1), s, t))
        assert sig.volumes == WIDTH1_VOLUMES[(2, 1)](s, t)
        assert sig.pair == (2, 1)
        assert sig.dependence == (-2, 1, 0, 1, 0)

    def test_sig22(self):
        sig = affine_dependence(width1_representative((2, 2)))
        assert sig.volumes == (-1, 1, 1, -1, 0)
        assert sig.pair == (2, 2)

    @pytest.mark.parametrize("s,t", [(1, 1), (1, 2), (2, 3), (3, 5)])
    def test_sig32(self, s, t):
        sig = affine_dependence(width1_representative((3, 2), s, t))
        assert sig.volumes == (-s - t, s, t, 1, -1)
        assert sig.pair == (3, 2)

    def test_dependence_sums_are_exact(self):
        for poly in [
            width1_representative((2, 1), 2, 5),
            width1_representative((3, 2), 3, 4),
            width2_representative(7),
        ]:
            sig = affine_dependence(poly)
            for vec in (sig.volumes, sig.dependence):
                assert sum(vec) == 0
                for axis in range(3):
                    assert sum(c * p[axis] for c, p in zip(vec, poly.points)) == 0

    def test_dependence_is_primitive_and_sign_normalized(self):
        for row in range(1, 10):
            sig = affine_dependence(width2_representative(row))
            nz = [c for c in sig.dependence if c]
            g = 0
            for c in nz:
                g = gcd(g, c)
            assert g == 1
            assert nz[0] < 0

    def test_degenerate(self):
        coplanar = LatticePolytope(
            ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0))
        )
        with pytest.raises(DegenerateConfiguration):
            affine_dependence(coplanar)


class TestLatticeWidth:
    def test_examples(self):
        assert lattice_width(width1_representative((2, 2))) == 1
        assert lattice_width(width2_representative(1)) == 2
        assert lattice_width(LatticePolytope(((3, 1, 4),))) == 0

    def test_width1_families(self):
        assert lattice_width(width1_representative((2, 1), 1, 3)) == 1
        assert lattice_width(width1_representative((3, 1))) == 1
        assert lattice_width(width1_representative((3, 2), 2, 3)) == 1

    def test_certificate(self):
        w, u = lattice_width(width1_representative((2, 2)), with_direction=True)
        assert w == 1
        pts = width1_representative((2, 2)).points
        dots = [sum(a * b for a, b in zip(u, p)) for p in pts]
        assert max(dots) - min(dots) == 1


class TestNormalizedVolume:
    @pytest.mark.parametrize("s,t", list(coprime_pairs(9)))
    def test_tetra_volume_is_t(self, s, t):
        assert normalized_volume_tetra(*empty_tetrahedron(s, t).points) == t

    def test_unit_and_coplanar(self):
        assert normalized_volume_tetra((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
        assert normalized_volume_tetra((0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)) == 0

    def test_unimodular_invariance(self):
        m = AffineUnimodularMap(((1, 2, 0), (0, 1, 3), (0, 0, 1)), (5, -1, 2))
        for s, t in [(1, 1), (2, 3), (3, 7)]:
            poly = empty_tetrahedron(s, t)
            image = apply_map(m, poly)
            assert normalized_volume_tetra(*image.points) == t


class TestWhiteCanonical:
    def test_examples(self):
        assert white_canonical(5, 7) == 2  # orbit {2,3,4,5}
        assert white_canonical(6, 7) == 1  # orbit {1,6}
        assert white_canonical(0, 1) == 0

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            white_canonical(2, 4)

    @pytest.mark.parametrize("s, t", [(1.0, 2), (1, 2.0), ("1", 2), (None, 3)])
    def test_non_integer_params_raise_invalid_params(self, s, t):
        with pytest.raises(InvalidParams):
            white_canonical(s, t)

    @pytest.mark.parametrize("t", range(1, 21))
    def test_idempotent_and_orbit_constant(self, t):
        for s in range(t + 1):
            if gcd(s, t) != 1:
                continue
            c = white_canonical(s, t)
            assert white_canonical(c, t) == c
            orbit = {s % t, (-s) % t}
            if t > 1:
                inv = pow(s, -1, t)
                orbit |= {inv, (-inv) % t}
            for r in orbit:
                if gcd(r, t) == 1 or t == 1:
                    assert white_canonical(r, t) == c


class TestWhiteEquivalenceMap:
    @pytest.mark.parametrize("s1, s2, t", [(1, 2.0, 3), (1.0, 2, 3), (1, 2, 3.0), (1, "2", 3)])
    def test_non_integer_params_raise_invalid_params(self, s1, s2, t):
        with pytest.raises(InvalidParams):
            white_equivalence_map(s1, s2, t)

    def test_identity_case(self):
        m = white_equivalence_map(2, 2, 5)
        assert m.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert m.shift == (0, 0, 0)

    def test_case2_example(self):
        # 3 = 5^-1 mod 7
        m = white_equivalence_map(3, 5, 7)
        assert m.matrix == ((3, -2, 0), (7, -5, 0), (0, 0, -1))
        assert m.shift == (0, 0, 1)
        image = apply_map(m, empty_tetrahedron(5, 7))
        assert set(image.points) == set(empty_tetrahedron(3, 7).points)

    @pytest.mark.parametrize("s1, s2, matrix, shift", [
        # 5 = -2 mod 7: the reflection
        (2, 5, ((-1, 1, -1), (0, 1, 0), (0, 0, 1)), (1, 0, 0)),
        # 2 = -3^-1 mod 7: the reflection after the inversion
        (2, 3, ((2, -1, 1), (7, -3, 0), (0, 0, -1)), (0, 0, 1)),
    ])
    def test_case3_and_case4_examples(self, s1, s2, matrix, shift):
        m = white_equivalence_map(s1, s2, 7)
        assert (m.matrix, m.shift) == (matrix, shift)
        image = apply_map(m, empty_tetrahedron(s2, 7))
        assert set(image.points) == set(empty_tetrahedron(s1, 7).points)

    def test_none_case(self):
        # {+-2^(+-1)} mod 5 = {2, 3}, does not contain 1
        assert white_equivalence_map(1, 2, 5) is None

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            white_equivalence_map(2, 1, 4)


class TestApplyMap:
    def test_identity(self):
        poly = width2_representative(3)
        ident = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        assert apply_map(ident, poly).points == poly.points

    def test_translation_preserves_width(self):
        shift = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1))
        for poly in [width1_representative((3, 1)), width2_representative(4)]:
            assert lattice_width(apply_map(shift, poly)) == lattice_width(poly)

    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidParams):
            AffineUnimodularMap(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))

    @pytest.mark.parametrize("make", [
        lambda ident: apply_map(ident, LatticePolytope(((0, 0), (1, 0)))),
        lambda ident: apply_map(ident, LatticePolytope(((0, 0, 0, 0), (1, 0, 0, 5)))),
        lambda ident: AffineUnimodularMap(((1, 0), (0, 1)), (0, 0, 0)),
        lambda ident: AffineUnimodularMap(ident.matrix, (0, 0)),
    ])
    def test_non_3d_data_rejected(self, make):
        # these used to fail on an index or in a determinant, or drop a coordinate
        ident = AffineUnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
        with pytest.raises(DegenerateConfiguration):
            make(ident)


def test_integer_types_are_integer_coordinates():
    # the non-integer ones are in the guard test of tests/test_source_rules.py
    tetra = ((np.int64(0), False, 0), (1, 0, 0), (0, True, 0), (0, 0, np.int8(1)))
    assert det4(*tetra) == 1 and lattice_width(LatticePolytope(tetra)) == 1


def test_parameter_sweep_needs_an_integer_dim():
    # 4.0 used to pass as the dict key 4 and give the dim-4 sweep
    with pytest.raises(InvalidParams):
        parameter_sweep(7, 4.0)


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("T(1,2)", empty_tetrahedron(1, 2)),
            ("P21(1,3)", width1_representative((2, 1), 1, 3)),
            ("P22", width1_representative((2, 2))),
            ("P31", width1_representative((3, 1))),
            ("P32(2,3)", width1_representative((3, 2), 2, 3)),
            ("W2:4", width2_representative(4)),
            ("E:2", embedded_polygon(2)),
        ],
    )
    def test_named_forms(self, text, expected):
        assert parse_polytope_spec(text).points == expected.points

    def test_explicit_points(self):
        poly = parse_polytope_spec("[(0,0,0);(1,0,0);(-1,-1,0)]")
        assert poly.points == ((0, 0, 0), (1, 0, 0), (-1, -1, 0))

    @pytest.mark.parametrize(
        "bad",
        [
            "T(2,4)", "P21(2,3)", "W2:10", "E:0", "Q(1,2)", "[]", "nope",
            "[(0,0,0);(1,0,0);(0,1)]", "[(0,0,0);junk;(1,0,0)]", "[(0,0,0)(1,0,0)]",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_polytope_spec(bad)

    @pytest.mark.parametrize(
        "points,text",
        [
            (((0, 0), (1, 0), (-1, 2)), "[(0,0);(1,0);(-1,2)]"),
            (((0,), (3,)), "[(0);(3)]"),
            (((0, 0, 0), (1, 0, -2)), "[(0,0,0);(1,0,-2)]"),
        ],
    )
    def test_describe_point_lists_of_any_length(self, points, text):
        assert LatticePolytope(points).describe() == text


class TestOrientation:
    """One orientation determinant behind the dependence, the hull and the
    volume, checked against the cofactor expansions it replaced."""

    CUBE = list(product(range(-3, 4), repeat=3))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_cofactor_expansions(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            pts = tuple(rng.sample(self.CUBE, 5))
            volumes = affine_volumes_reference(pts)
            if any(volumes):
                assert affine_dependence(LatticePolytope(pts)).volumes == volumes
            else:
                with pytest.raises(DegenerateConfiguration):
                    affine_dependence(LatticePolytope(pts))
            tetra = pts[:4]
            assert normalized_volume_tetra(*tetra) == volume_reference(*tetra)
            hull = hull_reference(tetra)
            if hull is None:
                with pytest.raises(DegenerateConfiguration):
                    hull_lattice_points(tetra)
            else:
                assert hull_lattice_points(tetra) == hull

    def test_is_the_determinant_of_the_homogeneous_rows(self):
        e = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert det4(*e) == 1
        assert det4(e[1], e[0], e[2], e[3]) == -1
        assert det4(*empty_tetrahedron(3, 7).points) == -7


def test_det_of_every_order_is_the_leibniz_sum():
    # one determinant for the exponent maps of every torus dimension m = 1..3
    rng = random.Random(0)
    for m in (1, 2, 3):
        for _ in range(50):
            rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
            leibniz = 0
            for perm in permutations(range(m)):
                inversions = sum(a > b for a, b in combinations(perm, 2))
                leibniz += (-1) ** inversions * prod(rows[i][j] for i, j in enumerate(perm))
            assert det(rows) == leibniz == det([list(c) for c in zip(*rows)])


FLAT5 = LatticePolytope(((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)))
FLAT4 = LatticePolytope(((0, 0), (1, 0), (0, 1), (2, 3)))
DEEP4 = LatticePolytope(((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))


@pytest.mark.parametrize("fn,args", [
    (lattice_width, (FLAT5,)),
    (lattice_width, (DEEP4,)),
    (lattice_width, (LatticePolytope(()),)),
    (affine_dependence, (FLAT5,)),
    (is_empty_tetrahedron, (FLAT4,)),
    (is_empty_tetrahedron, (DEEP4,)),
    (hull_lattice_points, (FLAT4.points,)),
    (hull_lattice_points, (empty_tetrahedron(1, 2).points[:3],)),
    (hull_lattice_points, (empty_tetrahedron(1, 2).points + ((1, 1, 1),),)),
    (normalized_volume_tetra, FLAT4.points),
    (det4, DEEP4.points),
], ids=lambda v: getattr(v, "__name__", None))
def test_3d_geometry_rejects_points_of_another_length(fn, args):
    # code points may have any length; the 3-D geometry names the problem
    # instead of failing on an index
    with pytest.raises(DegenerateConfiguration):
        fn(*args)
