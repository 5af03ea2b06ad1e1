"""Lattice geometry in Z^3: the polytope families under study, affine
dependences and signatures, lattice width, normalized volumes, and the
explicit affine unimodular maps between equivalent empty tetrahedra.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from itertools import product
from math import gcd
from numbers import Integral

from .errors import (
    DegenerateConfiguration,
    InvalidParams,
    OutOfRange,
    ParseError,
)

Point = tuple[int, int, int]


def det(rows) -> int:
    """Exact determinant of a square integer matrix of order 1 to 3, given
    as rows or as columns; a smaller order is bordered by a diagonal 1."""
    if len(rows) < 3:
        return det([(1,) + (0,) * len(rows), *((0, *r) for r in rows)])
    r0, r1, r2 = rows
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _require_integers(points) -> None:
    """Raise InvalidParams unless every coordinate is an integer; a bool
    counts as its int."""
    if not all(isinstance(a, Integral) for p in points for a in p):
        raise InvalidParams(f"lattice points need integer coordinates; got {points}")


def _require_3d(points) -> None:
    if not points or any(len(p) != 3 for p in points):
        raise DegenerateConfiguration("3-D geometry needs points, each with 3 coordinates")
    _require_integers(points)


def det4(p0: Point, p1: Point, p2: Point, p3: Point) -> int:
    """Orientation of four points of Z^3: the determinant of their
    homogeneous rows (1, p), which is det(p1 - p0, p2 - p0, p3 - p0), the
    signed normalized volume of their tetrahedron; 0 iff coplanar."""
    _require_3d((p0, p1, p2, p3))
    return _det4(p0, p1, p2, p3)


def _det4(p0: Point, p1: Point, p2: Point, p3: Point) -> int:
    """``det4`` of points that a caller has checked."""
    return det([(a - p0[0], b - p0[1], c - p0[2]) for a, b, c in (p1, p2, p3)])


# Family tags
EMPTY_TETRA = "EMPTY_TETRA"
SIG21 = "SIG21"
SIG22 = "SIG22"
SIG31 = "SIG31"
SIG32 = "SIG32"
WIDTH2 = "WIDTH2"
EMBEDDED_POLYGON = "EMBEDDED_POLYGON"
CUSTOM = "CUSTOM"

_FROM_ROW = object()  # the points of a polytope that ``Family.make`` leaves to its row


@dataclass(frozen=True)
class LatticePolytope:
    """Ordered list of lattice points plus family metadata.

    The point order is fixed by the defining family and determines the
    generator-matrix row order downstream.  ``params`` is a tuple of
    integers, and ``family`` a ``FAMILIES`` tag or CUSTOM, the untagged.
    A tagged polytope reads its ``FAMILIES`` row here, the one place that
    does: its params are checked against the row's arity, then its table
    range or its (s, t) rule, and it keeps the row's points for them, which
    its own must equal.  An untagged one has its points checked to be a
    tuple of distinct tuples of integers, and takes no params.
    """

    points: tuple[Point, ...]
    family: str = CUSTOM
    params: tuple[int, ...] = ()

    def __post_init__(self):
        params, family = self.params, self.family
        if not (isinstance(params, tuple) and all(isinstance(a, Integral) for a in params)):
            raise InvalidParams(f"params must be a tuple of integers; got {params!r}")
        if not isinstance(family, str) or family != CUSTOM and family not in FAMILIES:
            raise InvalidParams(f"family must be a FAMILIES tag or CUSTOM; got {family!r}")
        fam = FAMILIES.get(family)
        if fam is None:
            points = self.points
            if not (isinstance(points, tuple) and all(isinstance(p, tuple) for p in points)):
                raise InvalidParams(f"points must be a tuple of tuples; got {points!r}")
            _require_integers(points)
            if len(set(points)) != len(points):
                raise InvalidParams("polytope points must be pairwise distinct")
            if params:  # they would split == and hash between equal point lists
                raise InvalidParams(f"an untagged polytope takes no parameters; got {params}")
            return
        arity = fam.spec.count("%d")
        if self.points is _FROM_ROW and not arity and params == (0, 0):
            params = ()  # what parameter_sweep gives a family without parameters
        if len(params) != arity:
            raise InvalidParams(f"{self.family} takes {arity} parameters; got {params}")
        if fam.admits and not fam.admits(*params):
            raise InvalidParams(f"{fam.needs}; got ({params[0]},{params[1]})")
        if fam.table and not 1 <= params[0] <= len(fam.table):
            raise OutOfRange(f"{fam.needs} 1..{len(fam.table)}; got {params[0]}")
        points = fam.table[params[0] - 1] if fam.table else fam.points(*params)
        if self.points is not _FROM_ROW and self.points != points:
            raise InvalidParams(
                f"{self.family} {params} has the points {points}; got {self.points}")
        object.__setattr__(self, "points", points)  # equal floats become the row's ints
        object.__setattr__(self, "params", params)

    @property
    def k(self) -> int:
        return len(self.points)

    def describe(self) -> str:
        """Spec string of the family, or the point list; only family
        specs and lists of 3-D points are read back by
        ``parse_polytope_spec``."""
        fam = FAMILIES.get(self.family)
        if fam is not None:
            return fam.spec % self.params
        return "[" + ";".join("(" + ",".join(map(str, p)) + ")" for p in self.points) + "]"


@dataclass(frozen=True)
class AffineUnimodularMap:
    """p -> M p + b with det(M) = +-1."""

    matrix: tuple[tuple[int, int, int], ...]
    shift: Point

    def __post_init__(self):
        if len(self.matrix) != 3:
            raise DegenerateConfiguration(f"a map of Z^3 needs 3 matrix rows; got {len(self.matrix)}")
        _require_3d((*self.matrix, self.shift))
        if abs(det(self.matrix)) != 1:
            raise InvalidParams("matrix must have determinant +-1")

    def apply_point(self, p: Point) -> Point:
        _require_3d((p,))
        m = self.matrix
        return tuple(
            m[r][0] * p[0] + m[r][1] * p[1] + m[r][2] * p[2] + self.shift[r]
            for r in range(3)
        )


@dataclass(frozen=True)
class Signature:
    """Affine-dependence data of a 5-point configuration.

    ``volumes`` is the signed-minor vector (the raw tetrahedron volumes,
    matching the printed tables), ``dependence`` its primitive scaling;
    both are sign-normalized so the first nonzero entry is negative.
    ``pos``/``neg`` hold the unordered count pair as (max, min).
    """

    pos: int
    neg: int
    dependence: tuple[int, ...]
    volumes: tuple[int, ...]

    @property
    def pair(self) -> tuple[int, int]:
        return (self.pos, self.neg)


# -- families -----------------------------------------------------------------


# Printed volume vectors for the width-2 rows, in row order.
WIDTH2_VOLUMES: tuple[tuple[int, ...], ...] = (
    (-9, 3, 3, 3, 0),
    (-4, 1, 1, 1, 1),
    (-5, 1, 1, 1, 2),
    (-7, 1, 1, 2, 3),
    (-11, 1, 3, 2, 5),
    (-13, 3, 4, 1, 5),
    (-17, 3, 5, 2, 7),
    (-19, 5, 4, 3, 7),
    (-20, 5, 5, 5, 5),
)

# Printed volume vectors for the width-1 rows, as functions of (s, t).
WIDTH1_VOLUMES = {
    (2, 1): lambda s, t: (-2 * t, t, 0, t, 0),
    (2, 2): lambda s, t: (-1, 1, 1, -1, 0),
    (3, 1): lambda s, t: (-3, 1, 1, 1, 0),
    (3, 2): lambda s, t: (-s - t, s, t, 1, -1),
}


@dataclass(frozen=True)
class Family:
    """One row of ``FAMILIES``, all that is stated of a family: its tag, its
    spec format, whose ``%d``s are its parameters, and its points for
    them.  Those are ``points``, a function of the parameters, a formula
    of (s, t) or a constant, or, for a parameter i, row i of ``table``,
    counted from 1.  ``admits`` is the rule of (s, t), and ``needs`` states
    the rule or names the table's rows in words.  ``signature`` is that of
    a width-1 family.  The row is read only by ``LatticePolytope``, once
    for every polytope with the tag as it is made."""

    tag: str
    spec: str
    points: Callable[..., tuple[Point, ...]] | None = None
    signature: tuple[int, int] | None = None
    admits: Callable[[int, int], bool] | None = None
    needs: str = ""
    table: tuple[tuple[Point, ...], ...] = ()

    def make(self, *params) -> LatticePolytope:
        """The family's polytope for params, which ``LatticePolytope`` checks
        and reads the row's points for; (0, 0), what ``parameter_sweep``
        gives a family without parameters, is none."""
        return LatticePolytope(_FROM_ROW, self.tag, params)


FAMILIES: dict[str, Family] = {f.tag: f for f in (
    Family(
        EMPTY_TETRA, "T(%d,%d)", lambda s, t: ((0, 0, 0), (1, 0, 0), (0, 0, 1), (s, t, 1)), None,
        lambda s, t: t >= 1 and gcd(s, t) == 1, "empty tetrahedron needs t >= 1, gcd(s,t)=1",
    ),
    Family(
        SIG21, "P21(%d,%d)", lambda s, t: ((0, 0, 0), (1, 0, 0), (0, 0, 1), (-1, 0, 0), (s, t, 1)),
        (2, 1), lambda s, t: 0 <= 2 * s <= t and gcd(s, t) == 1,
        "(2,1) needs 0 <= s <= t/2, gcd(s,t)=1",
    ),
    Family(SIG22, "P22", lambda: ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)), (2, 2)),
    Family(SIG31, "P31", lambda: ((0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)), (3, 1)),
    Family(
        SIG32, "P32(%d,%d)", lambda s, t: ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (s, t, 1)),
        (3, 2), lambda s, t: 0 < s <= t and gcd(s, t) == 1, "(3,2) needs 0 < s <= t, gcd(s,t)=1",
    ),
    Family(WIDTH2, "W2:%d", needs="width-2 table rows are", table=(
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 2, 3)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (-2, -1, -2)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 2, 1), (-1, -1, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 3, 1), (-1, -2, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1), (-1, -2, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1), (-1, -1, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 7, 1), (-1, -2, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (3, 7, 1), (-2, -3, -1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 5, 1), (-3, -5, -2)),
    )),
    # i=1 is the segment of length 3, i=2 the triangle with a length-2
    # edge, i=3 the unit square, i=4 the exceptional triangle
    Family(EMBEDDED_POLYGON, "E:%d", needs="embedded polygons are", table=(
        ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)),
        ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)),
    )),
)}

WIDTH1_SIGNATURES = {tag: f.signature for tag, f in FAMILIES.items() if f.signature}
_SIGNATURE_TAGS = {sig: tag for tag, sig in WIDTH1_SIGNATURES.items()}


def empty_tetrahedron(s: int, t: int) -> LatticePolytope:
    """T(s,t) = Conv{(0,0,0),(1,0,0),(0,0,1),(s,t,1)}, gcd(s,t)=1."""
    return FAMILIES[EMPTY_TETRA].make(s, t)


def width1_representative(sig: tuple[int, int], s: int = 0, t: int = 0) -> LatticePolytope:
    """Width-1 five-point representative for signature (2,1), (2,2), (3,1) or
    (3,2); (s, t) = (0, 0), the default, for the two without parameters."""
    try:
        tag = _SIGNATURE_TAGS[sig]
    except (KeyError, TypeError):  # TypeError: a list or other unhashable sig
        raise InvalidParams(f"unknown width-1 signature {sig}") from None
    return FAMILIES[tag].make(s, t)


def width2_representative(row: int) -> LatticePolytope:
    return FAMILIES[WIDTH2].make(row)


def embedded_polygon(i: int) -> LatticePolytope:
    """Representative i of the 4-point polygon classes, embedded at z=0."""
    return FAMILIES[EMBEDDED_POLYGON].make(i)

# The families of each census, in row order.
CENSUS_FAMILIES = {4: (EMPTY_TETRA,), 5: (SIG21, SIG22, SIG31, SIG32)}


def parameter_sweep(q: int, dim: int) -> list[tuple[str, int, int]]:
    """(family, s, t) for every polytope of the dim's census over GF(q):
    each (s, t) with 1 <= t <= q-2 and 0 <= s <= t that the family's rule
    admits, or (0, 0) once for a family without parameters."""
    if not isinstance(q, Integral):
        raise InvalidParams(f"q must be an integer; got {q!r}")
    if not (isinstance(dim, Integral) and dim in CENSUS_FAMILIES):
        raise InvalidParams(f"dim must be 4 or 5; got {dim!r}")
    out = []
    for tag in CENSUS_FAMILIES[dim]:
        admits = FAMILIES[tag].admits
        if admits is None:
            out.append((tag, 0, 0))
        else:
            out += [(tag, s, t) for t in range(1, q - 1) for s in range(t + 1) if admits(s, t)]
    return out


# -- affine dependence / signature --------------------------------------------


def affine_dependence(poly: LatticePolytope) -> Signature:
    """Unique (up to scale) affine dependence among 5 points.

    The coefficient at position k is (-1)^k times the orientation of the
    points without point k, the signed minor of the homogeneous 4x5
    coordinate matrix, so the vector is exactly the alternating-volume
    vector of the table rows.
    Sign-normalized to make the first nonzero entry negative.
    """
    if poly.k != 5:
        raise DegenerateConfiguration("affine dependence needs exactly 5 points")
    pts = poly.points
    _require_3d(pts)
    coeffs = [(-1) ** k * _det4(*pts[:k], *pts[k + 1 :]) for k in range(5)]
    if all(c == 0 for c in coeffs):
        raise DegenerateConfiguration("points do not affinely span R^3")
    first = next(c for c in coeffs if c != 0)
    if first > 0:
        coeffs = [-c for c in coeffs]
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    primitive = tuple(c // g for c in coeffs)
    pos = sum(1 for c in coeffs if c > 0)
    neg = sum(1 for c in coeffs if c < 0)
    return Signature(
        pos=max(pos, neg),
        neg=min(pos, neg),
        dependence=primitive,
        volumes=tuple(coeffs),
    )


# -- width, volume, hull ------------------------------------------------------


def lattice_width(poly: LatticePolytope, with_direction: bool = False):
    """min over nonzero integer u of max<u,p> - min<u,p>.

    Search box: |u_i| <= 1 + coordinate spread of P along axis i, which
    covers every 5-point polytope in scope; the achieving direction is
    returned on request as a certificate.
    """
    pts = poly.points
    _require_3d(pts)
    if len(pts) == 1:
        return (0, (0, 0, 1)) if with_direction else 0
    bounds = []
    for axis in range(3):
        vals = [p[axis] for p in pts]
        bounds.append(1 + max(vals) - min(vals))
    best, best_u = None, None
    for u in product(*(range(-b, b + 1) for b in bounds)):
        if u == (0, 0, 0):
            continue
        dots = [u[0] * p[0] + u[1] * p[1] + u[2] * p[2] for p in pts]
        spread = max(dots) - min(dots)
        if best is None or spread < best:
            best, best_u = spread, u
    return (best, best_u) if with_direction else best


def normalized_volume_tetra(p0: Point, p1: Point, p2: Point, p3: Point) -> int:
    """|det(p1-p0, p2-p0, p3-p0)|; 0 iff the four points are coplanar."""
    return abs(det4(p0, p1, p2, p3))


def hull_lattice_points(vertices: tuple[Point, ...]) -> list[Point]:
    """All lattice points inside the tetrahedron spanned by 4 vertices.

    Exact integer orientation tests over a bounding-box scan; no
    dependence on any classification theorem.
    """
    v = vertices
    if len(v) != 4:
        raise DegenerateConfiguration(f"a tetrahedron has 4 vertices; got {len(v)}")
    _require_3d(v)
    vol = _det4(*v)
    if vol == 0:
        raise DegenerateConfiguration("vertices are coplanar")
    box = (range(min(p[i] for p in v), max(p[i] for p in v) + 1) for i in range(3))
    # p is in the hull iff putting it in place of any one vertex never
    # flips the orientation
    return [p for p in product(*box)
            if all(vol * _det4(*v[:i], p, *v[i + 1 :]) >= 0 for i in range(4))]


def is_empty_tetrahedron(poly: LatticePolytope) -> bool:
    """True iff the 4 vertices are the only lattice points of their hull."""
    if poly.k != 4:
        return False
    return set(hull_lattice_points(poly.points)) == set(poly.points)


# -- White normal form ---------------------------------------------------------


def white_canonical(s: int, t: int) -> int:
    """Minimum of {s, -s, s^-1, -s^-1} mod t; 0 when t = 1."""
    if not (isinstance(s, Integral) and isinstance(t, Integral)) or t < 1 or gcd(s, t) != 1:
        raise InvalidParams(f"need t >= 1 and gcd(s,t)=1; got ({s},{t})")
    if t == 1:
        return 0
    inv = pow(s, -1, t)
    return min(s % t, (-s) % t, inv, (-inv) % t)


def white_equivalence_map(s1: int, s2: int, t: int) -> AffineUnimodularMap | None:
    """Explicit unimodular map sending T(s2,t) vertices onto T(s1,t) ones.

    By White's theorem one exists exactly when s1 is congruent to s2,
    s2^-1, -s2 or -s2^-1 mod t, that is when the two share
    ``white_canonical``; returns None otherwise.  The map is, in that
    order of the congruences:

    1. s1 = s2:     ((1, (s1-s2)/t, 0), (0, 1, 0), (0, 0, 1)), shift 0;
    2. s1*s2 = 1:   ((s1, (1-s1*s2)/t, 0), (t, -s2, 0), (0, 0, -1)), shift (0, 0, 1);
    3. s1 = -s2:    ((-1, (s1+s2)/t, -1), (0, 1, 0), (0, 0, 1)), shift (1, 0, 0);
    4. s1*s2 = -1:  ((s1, -(1+s1*s2)/t, 1), (t, -s2, 0), (0, 0, -1)), shift (0, 0, 1),
       which is map 3 after map 2 through T(s2^-1,t), written out; no
       entry depends on the choice of s2^-1.
    """
    if white_canonical(s1, t) != white_canonical(s2, t):
        return None
    if (s1 - s2) % t == 0:
        return AffineUnimodularMap(((1, (s1 - s2) // t, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
    if (s1 * s2 - 1) % t == 0:
        return AffineUnimodularMap(((s1, (1 - s1 * s2) // t, 0), (t, -s2, 0), (0, 0, -1)), (0, 0, 1))
    if (s1 + s2) % t == 0:
        return AffineUnimodularMap(((-1, (s1 + s2) // t, -1), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
    return AffineUnimodularMap(((s1, (-1 - s1 * s2) // t, 1), (t, -s2, 0), (0, 0, -1)), (0, 0, 1))


def apply_map(f: AffineUnimodularMap, poly: LatticePolytope) -> LatticePolytope:
    return LatticePolytope(tuple(f.apply_point(p) for p in poly.points), CUSTOM)


# -- spec string grammar --------------------------------------------------------

_POINT_RE = re.compile(r"\((-?\d+),(-?\d+),(-?\d+)\)")


def parse_polytope_spec(text: str) -> LatticePolytope:
    """Parse 'T(s,t)', 'P21(s,t)', 'P22', 'P31', 'P32(s,t)', 'W2:i',
    'E:i', or an explicit '[(x,y,z);...]' point list."""
    s = text.strip().replace(" ", "")
    try:
        if s.startswith("[") and s.endswith("]"):
            pts = []
            for part in s[1:-1].split(";"):
                m = _POINT_RE.fullmatch(part)
                if not m:
                    raise ParseError(f"bad point {part!r} in {text!r}")
                pts.append(tuple(map(int, m.groups())))
            return LatticePolytope(tuple(pts), CUSTOM)
        for fam in FAMILIES.values():
            m = re.fullmatch(re.escape(fam.spec).replace("%d", r"(-?\d+)"), s)
            if m:
                return fam.make(*map(int, m.groups()))
        raise ParseError(f"unrecognized polytope spec {text!r}")
    except (ValueError, OutOfRange) as e:
        raise ParseError(f"bad polytope spec {text!r}: {e}") from e
