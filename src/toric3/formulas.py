"""Closed-form minimum distances and bounds.

Exact values exist for the empty tetrahedra T(s,t), the degenerate
(embedded polygon) codes 1-3, and the width-1 signatures (2,1) and
(2,2).  Signatures (3,1) and (3,2) only admit bounds; the irrational
sqrt(q) bound is evaluated in exact integer arithmetic (isqrt) so the
acceptance tests are bit-exact.
"""

from __future__ import annotations

from math import gcd, isqrt

from .codes import DistanceResult
from .errors import InvalidField, NoFormulaForFamily
from .galois import _check_t, _factor_prime_power
from .polytopes import (
    EMBEDDED_POLYGON, EMPTY_TETRA, WIDTH1_SIGNATURES, LatticePolytope, embedded_polygon,
    width1_representative,
)


def _check_q(q: int, minimum: int = 3) -> None:
    if _factor_prime_power(q) is None:
        raise InvalidField(f"q={q} is not a prime power")
    if q < minimum:
        raise InvalidField(f"formula needs q >= {minimum}; got {q}")


def dim4_distance(q: int, t: int) -> DistanceResult:
    """Exact distance of C_T(s,t); independent of s.

    (q-1)^3 - (q-1)^2 when gcd(t, q-1) = 1, otherwise
    (q-1)^3 - (q-1)(q-3) - q*gcd(t, q-1).
    """
    _check_q(q)
    _check_t(t)
    g = gcd(t, q - 1)
    if g == 1:
        d = (q - 1) ** 3 - (q - 1) ** 2
    else:
        d = (q - 1) ** 3 - (q - 1) * (q - 3) - q * g
    return DistanceResult(d, d, "formula")


def _sqrt_bound_floor(q: int) -> int:
    """floor(2*sqrt(q)*(q-1)), exactly."""
    return isqrt(4 * q * (q - 1) ** 2)


def _sqrt_bound_ceil(q: int) -> int:
    r2 = 4 * q * (q - 1) ** 2
    f = isqrt(r2)
    return f if f * f == r2 else f + 1


def degenerate_distance(i: int, q: int) -> DistanceResult:
    """Distance of the embedded-polygon code E:i.

    Exact for i in {1, 2, 3}; for the exceptional triangle (i = 4) only
    a strict lower bound d > (q-1)^3 - (1+q+2*sqrt(q))(q-1) is known.
    """
    embedded_polygon(i)  # raises OutOfRange unless i is a row of E
    _check_q(q, 5 if i == 1 else 3)
    n = (q - 1) ** 3
    if i == 1:
        d = n - 3 * (q - 1) ** 2
    elif i == 2:
        d = n - 2 * (q - 1) ** 2
    elif i == 3:
        d = n - (2 * q - 3) * (q - 1)
    else:
        # smallest integer strictly above n - (1+q)(q-1) - 2*sqrt(q)(q-1)
        lower = n - (1 + q) * (q - 1) - _sqrt_bound_ceil(q) + 1
        return DistanceResult(max(1, lower), n, "bound")
    return DistanceResult(d, d, "formula")


def dim5_distance(sig: tuple[int, int], q: int, s: int = 0, t: int = 0) -> DistanceResult:
    """Distance (or bound interval) for the width-1 five-point codes; the
    representative it builds checks (s, t) against the signature's rule."""
    _check_q(q, 5)
    return _width1_distance(width1_representative(sig, s, t), q)


def _width1_distance(poly: LatticePolytope, q: int) -> DistanceResult:
    """Closed forms for a width-1 representative, whose (s, t) met its
    family's rule when it was made; q is checked by the caller."""
    n = (q - 1) ** 3
    sig = WIDTH1_SIGNATURES[poly.family]
    if sig == (2, 1):
        d = n - 2 * (q - 1) ** 2
        return DistanceResult(d, d, "formula")
    if sig == (2, 2):
        d = n - (2 * q * q - 5 * q + 3)
        return DistanceResult(d, d, "formula")
    if sig == (3, 1):
        # d >= (q-1)^3 - (q-1)(1+q+2*sqrt(q)), non-strict
        lower = n - (1 + q) * (q - 1) - _sqrt_bound_floor(q)
        return DistanceResult(max(1, lower), n, "bound")
    # (3, 2)
    s, t = poly.params
    lower = n - (q - 2) ** 2 - (s + t) * q
    upper = n - (q - 1) * (q - 3) - q * gcd(s + t, q - 1)
    # distances of nonzero codes are >= 1; a nonpositive lower bound
    # is vacuous but the interval stays valid
    return DistanceResult(max(1, min(lower, upper)), min(n, upper), "bound")


def distance_formula(poly: LatticePolytope, q: int) -> DistanceResult:
    """Closed-form distance or bounds for the code of a family
    representative; W2 and explicit point lists have none."""
    if poly.family == EMPTY_TETRA:
        return dim4_distance(q, poly.params[1])
    if poly.family == EMBEDDED_POLYGON:
        return degenerate_distance(poly.params[0], q)
    if poly.family in WIDTH1_SIGNATURES:
        _check_q(q, 5)
        return _width1_distance(poly, q)
    raise NoFormulaForFamily(f"no closed-form distance for family {poly.family}")
