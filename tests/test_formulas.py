import pytest

from toric3.codes import build_code
from toric3.errors import InvalidField, InvalidParams, OutOfRange
from toric3.formulas import degenerate_distance, dim4_distance, dim5_distance
from toric3.galois import make_field
from toric3.polytopes import width1_representative


class TestDim4:
    @pytest.mark.parametrize(
        "q,t,expected",
        [
            (5, 1, 48),   # gcd 1 branch: 64 - 16
            (5, 2, 46),   # 64 - 8 - 10
            (5, 3, 48),
            (7, 6, 150),  # 216 - 24 - 42
            (7, 2, 178),
            (8, 7, 252),  # gcd(7,7)=7: 343 - 35 - 56
        ],
    )
    def test_values(self, q, t, expected):
        res = dim4_distance(q, t)
        assert res.exact and res.value == expected

    def test_independent_of_s(self):
        import inspect

        # the formula takes no s parameter at all
        assert "s" not in inspect.signature(dim4_distance).parameters

    def test_invalid(self):
        with pytest.raises(InvalidField):
            dim4_distance(6, 1)
        with pytest.raises(InvalidParams):
            dim4_distance(5, 0)

    @pytest.mark.parametrize("t", [2.0, "2", None])
    def test_non_integer_t_raises_invalid_params(self, t):
        with pytest.raises(InvalidParams):
            dim4_distance(7, t)


class TestDegenerate:
    @pytest.mark.parametrize(
        "i,q,expected",
        [(1, 5, 16), (2, 5, 32), (3, 5, 36), (1, 7, 108), (2, 7, 144), (3, 7, 150)],
    )
    def test_exact_cases(self, i, q, expected):
        res = degenerate_distance(i, q)
        assert res.exact and res.value == expected

    def test_exceptional_triangle_bound(self):
        res = degenerate_distance(4, 5)
        assert not res.exact
        assert res.lower == 23  # strict integer version of 64 - (6 + 2*sqrt(5))*4

    def test_exceptional_bound_perfect_square(self):
        # q = 9: 2*sqrt(q)*(q-1) is an integer, strictness adds one
        res = degenerate_distance(4, 9)
        assert res.lower == 8**3 - 10 * 8 - 48 + 1

    def test_range_and_field_checks(self):
        with pytest.raises(OutOfRange):
            degenerate_distance(5, 5)
        with pytest.raises(InvalidField):
            degenerate_distance(1, 4)  # needs q >= 5 for the x^3 exponent
        with pytest.raises(InvalidField):
            degenerate_distance(2, 6)


class TestDim5:
    def test_sig21(self):
        res = dim5_distance((2, 1), 5, 0, 1)
        assert res.exact and res.value == 32

    def test_sig22(self):
        res = dim5_distance((2, 2), 5)
        assert res.exact and res.value == 36

    def test_sig22_pyramid_consistency(self):
        # the (2,2) polytope is the unit pyramid over the unit square, so
        # its distance is (q-1) times the square's planar distance, which
        # is also what the embedded-square formula E:3 evaluates to
        for q in (5, 7, 8, 9):
            assert dim5_distance((2, 2), q).value == (q - 1) * (q - 2) ** 2
            assert dim5_distance((2, 2), q).value == degenerate_distance(3, q).value

    def test_sig31_bound(self):
        res = dim5_distance((3, 1), 5)
        assert not res.exact
        assert res.lower == 64 - 24 - 17  # floor version, non-strict

    def test_sig32_interval(self):
        res = dim5_distance((3, 2), 5, 1, 1)
        assert (res.lower, res.upper) == (45, 46)

    def test_sig32_vacuous_lower_clamped(self):
        res = dim5_distance((3, 2), 5, 4, 5)
        assert res.lower >= 1

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            dim5_distance((2, 1), 7, 2, 3)
        with pytest.raises(InvalidParams):
            dim5_distance((3, 2), 7, 0, 1)
        with pytest.raises(InvalidParams):
            dim5_distance((9, 9), 7)
        with pytest.raises(InvalidField):
            dim5_distance((2, 2), 4)

    def test_field_is_checked_before_the_parameters(self):
        with pytest.raises(InvalidField):
            dim5_distance((2, 1), 4, 2, 4)
        with pytest.raises(InvalidField):
            dim5_distance((9, 9), 6)


class TestFormulaVersusBrute:
    """Spot checks; the full sweeps live in the acceptance suite."""

    @pytest.mark.parametrize("q,s,t", [(5, 1, 2), (7, 1, 3), (8, 1, 5), (9, 1, 4)])
    def test_dim4(self, q, s, t):
        from toric3.polytopes import empty_tetrahedron

        brute = build_code(make_field(q), empty_tetrahedron(s, t)).min_distance_brute()
        assert brute.value == dim4_distance(q, t).value

    def test_sig21_q5(self):
        brute = build_code(
            make_field(5), width1_representative((2, 1), 1, 2)
        ).min_distance_brute()
        assert brute.value == dim5_distance((2, 1), 5, 1, 2).value
