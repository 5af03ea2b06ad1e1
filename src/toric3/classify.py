"""Monomial-equivalence decisions.

Two routes are kept deliberately independent and cross-checked:

* theorem verdicts — the gcd / residue criteria for empty tetrahedra
  and the width-1 five-point propositions, all reached through
  ``theorem_verdict``, by ``equiv``, the census and both parameter entries
  alike; a tagged polytope met its family's (s, t) rule when it was made,
  so no criterion checks it again.  Two families, or two distinct (3,2)
  parameter pairs, get INCONCLUSIVE: over GF(5), exponent maps mod 4 with
  unit determinant send P32(1,1) onto P32(1,2) and P22 onto P32(1,3);
* a constructive witness test — equal column keys (the Hermite normal
  form of each code's exponent lattice), so equal column multisets, give an
  exponent map E2 = E1*A mod q-1 and from it, with no sort, the column
  permutation a stable sort of both column lists would give (the
  rank-in-fiber argument is in ``_lattice_perm``), checked on G with the
  diagonal fixed to the identity; separating invariants (minimum
  distance, weight enumerator) back it when the keys differ.

Because the identity-diagonal reduction is argued rather than proved in
full generality, a failed column match alone yields INCONCLUSIVE; only
a differing invariant upgrades it to INEQUIVALENT.

The census keys each parameter tuple by its points alone (``_lattice_key``)
and builds a code only for the first tuple with a key.  A later tuple with
that key is proved to be the first code with its columns permuted, by an
integer certificate when it holds (``_certifies``: E2 = E1*A mod q-1 with
det A a unit mod q-1, no G read) and else by one witness checked on G.  The
kept codes are enumerated together, one kernel pass per batch
(``codes._fill_invariants``), and theorems are checked on every pair that
shares a family and s or t, the only pairs they can decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import gcd, prod

import numpy as np

from .codes import ToricCode, _fill_invariants, _lattice_key, _log_sums, build_code
from .errors import (
    InternalCheckFailed,
    InvalidParams,
    ShapeMismatch,
    TheoremWitnessMismatch,
)
from .formulas import distance_formula
from .galois import FieldSpec
from .polytopes import (
    EMPTY_TETRA,
    FAMILIES,
    SIG32,
    WIDTH1_SIGNATURES,
    LatticePolytope,
    det3,
    empty_tetrahedron,
    parameter_sweep,
    white_canonical,
    width1_representative,
)

EQUIVALENT = "EQUIVALENT"
INEQUIVALENT = "INEQUIVALENT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str
    evidence_kind: str  # "THEOREM" | "WITNESS" | "INVARIANT" | "NONE"
    detail: object = None

    def to_dict(self) -> dict:
        d = {"status": self.status, "evidence": self.evidence_kind}
        if self.evidence_kind == "THEOREM":
            d["criterion"] = self.detail
        elif self.evidence_kind == "INVARIANT":
            name, va, vb = self.detail
            d["invariant"] = {"name": name, "a": va, "b": vb}
        return d


def _lattice_perm(c1: ToricCode, c2: ToricCode) -> np.ndarray | None:
    """perm[x] = the column of G1 that column x of G2 equals, the one a
    stable sort of both column lists would pair it with; None when no
    integer A has E2 = E1*A mod q-1 (E the points as rows).

    Column x of G2 holds alpha^(E2*x) = alpha^(E1*(A*x)), so z = A*x mod
    q-1 is a column of G1 equal to it.  A column repeats once per point of
    its fiber, a coset of ker(E mod q-1) in the torus; a stable sort pairs
    the j-th point of an E2-fiber with the j-th point of the E1-fiber of
    z.  With ker(E mod q-1) + (q-1)*Z^m in triangular form (the kernel of
    ``_tracked_basis``, pivots d_j dividing q-1), a point's lexicographic
    rank in its fiber is the mixed-radix number of digits x_j div d_j,
    radices (q-1)/d_j: given the earlier axes, axis j runs over one
    residue class mod d_j.  So x's rank in its E2-fiber is read off x, and
    z is moved to the point of that rank in its E1-fiber one axis at a
    time, axis j along the kernel row with pivot j, which keeps the earlier
    axes and the column.  A need not be invertible.
    """
    n1 = c1.field.q - 1
    kernel1 = c1._tracked_basis[1]
    A = _exponent_map(c1, c2.polytope.points)
    if A is None:
        return None
    units = np.arange(n1, dtype=np.uint16)
    steps = np.array(A, dtype=np.uint16)[:, :, None] * units % n1
    z = _log_sums(steps, n1)  # (m, n): z = A*x at every column x
    radix = [n1 // h[j] for j, h in enumerate(kernel1)]
    if prod(radix) > 1:
        rank = _fiber_rank(c2._tracked_basis[1], n1)
        for j, h in enumerate(kernel1):
            if radix[j] > 1:
                r = radix[j]
                high = rank // prod(radix[j + 1 :])
                digit = (high - high // r * r).astype(np.uint16)
                # steps along h that bring z_j's digit to digit, taken mod
                # r: r steps move z by (q-1)/d_j * h, inside its fiber
                turn = digit + np.uint16(r) - z[j] // np.uint16(h[j])
                np.minimum(turn, turn - np.uint16(r), out=turn)
                z[j:] += turn * np.array(h[j:], dtype=np.uint16)[:, None]
                z[j:] -= z[j:] // np.uint16(n1) * np.uint16(n1)
    perm = z[0].astype(np.intp)
    for axis in z[1:]:
        perm *= n1
        perm += axis
    return perm


def _exponent_map(c1: ToricCode, points) -> list[list[int]] | None:
    """An integer m x m matrix A with E2 = E1*A mod q-1, E2 the k points
    ``points`` as rows and E1 those of c1, or None when none exists.

    Each column of E2 is back-substituted into the triangular basis of
    c1's ``_tracked_basis``, whose pairs (b, c) have b = E1*c mod q-1: the
    column is a sum of a_i * b_i, so E1 times the sum of a_i * c_i."""
    n1, m = c1.field.q - 1, c1.m
    columns = []  # of A
    for v in map(list, zip(*points)):
        column = [0] * m
        for i, (b, c) in enumerate(c1._tracked_basis[0]):
            a, rest = divmod(v[i], b[i])
            if rest:
                return None
            if a:
                v = [x - a * y for x, y in zip(v, b)]
                column = [x + a * y for x, y in zip(column, c)]
        columns.append([x % n1 for x in column])
    return [list(row) for row in zip(*columns)]


def _certifies(c1: ToricCode, points, A: list[list[int]] | None) -> bool:
    """True when A proves in integers that the code of ``points`` (k and m
    as c1's) is c1 with its columns permuted: E2 = E1*A mod q-1, checked
    entry by entry, and gcd(det3(A), q-1) = 1; every census code is 3-D, so
    another A leaves its merge to the witness.  A is ``_exponent_map``'s,
    None when there is none.

    Column x of G2 is alpha^(E2*x) = alpha^(E1*(A*x)), column A*x of G1,
    and x -> A*x mod q-1 is a bijection of the torus when det A is a unit
    mod q-1.  So G2 = G1[:, A*x], and neither G is read: this is the
    lattice-map argument of Little & Schwarz (2007).  The permutation may
    differ from the witness's where columns repeat."""
    if A is None:
        return False
    n1 = c1.field.q - 1
    columns = list(zip(*A))
    for e1, e2 in zip(c1.polytope.points, points):
        for column, e in zip(columns, e2):
            if (sum(a * b for a, b in zip(e1, column)) - e) % n1:
                return False
    return len(A) == 3 and gcd(det3(*A), n1) == 1


def _fiber_rank(kernel: list, n1: int) -> np.ndarray:
    """Each torus point's rank in its fiber, in column order, from the
    fiber lattice's triangular basis ``kernel`` (see ``_lattice_perm``)."""
    pivots = [h[j] for j, h in enumerate(kernel)]
    radix = [n1 // d for d in pivots]
    units = np.arange(n1, dtype=np.int32)
    tables = [units // d * prod(radix[j + 1 :]) for j, d in enumerate(pivots)]
    return reduce(np.add.outer, tables).reshape(-1)


def witness_equivalence(c1: ToricCode, c2: ToricCode) -> EquivalenceVerdict:
    """Constructive test: equal column keys, so equal column multisets,
    give an explicit permutation witness from the exponent lattice
    (``_lattice_perm``, the one a stable sort of both column lists would
    give), checked to be a bijection and checked on G; unequal keys are
    INEQUIVALENT only when a separating invariant corroborates, else
    INCONCLUSIVE."""
    if c1.field.q != c2.field.q:
        raise ShapeMismatch("codes live over different fields")
    if c1.n != c2.n or c1.k != c2.k:
        raise ShapeMismatch(
            f"parameter mismatch: [{c1.n},{c1.k}] vs [{c2.n},{c2.k}]"
        )
    if c1._column_key == c2._column_key:

        def failed(why):
            names = f"q={c1.field.q}: {c1.polytope.describe()} vs {c2.polytope.describe()}"
            return InternalCheckFailed(
                f"{names}: column multisets match, yet G1[:, perm] != G2 ({why})"
            )

        perm = _lattice_perm(c1, c2)
        if perm is None:
            raise failed("no exponent map E2 = E1*A mod q-1")
        hit = np.zeros(c1.n, dtype=bool)
        hit[perm] = True
        if not hit.all():
            raise failed("perm is not a bijection")
        # G1 and G2 as read through each code's one view of its columns
        g1, g2 = c1.column_tuples().T, c2.column_tuples().T
        if not np.array_equal(g1.take(perm, axis=1), g2):
            raise failed("columns differ")
        return EquivalenceVerdict(EQUIVALENT, "WITNESS", perm)
    if todo := [c for c in (c1, c2) if c._enumerated is None]:
        _fill_invariants(todo)  # both codes in one kernel pass
    d1 = c1.min_distance_brute().value
    d2 = c2.min_distance_brute().value
    if d1 != d2:
        return EquivalenceVerdict(INEQUIVALENT, "INVARIANT", ("min_distance", d1, d2))
    w1 = c1.weight_enumerator()
    w2 = c2.weight_enumerator()
    if w1 != w2:
        return EquivalenceVerdict(
            INEQUIVALENT, "INVARIANT", ("weight_enumerator", w1, w2)
        )
    return EquivalenceVerdict(INCONCLUSIVE, "NONE")


def dim4_theorem_verdict(
    q: int, s1: int, t1: int, s2: int, t2: int
) -> EquivalenceVerdict:
    """Criteria for empty-tetrahedron codes.

    Same t, with g = gcd(t, q-1): equivalent iff s1 = +-s2^(+-1) mod g.
    Three branches report it, tried in this order:

    * ``same-t:residue-mod-gcd``: s1 = s2 mod g;
    * ``same-t:lattice-orbit``: s1 = +-s2^(+-1) mod t (White's orbit);
    * ``same-t:orbit-mod-gcd``: s1 = +-s2^(+-1) mod g, the transitive
      closure of the first two (1 ~ 8 by the orbit and 8 ~ 2 by the
      residue mod 3 over GF(13) at t=9, so 1 ~ 2).

    The "if" half is proved by explicit maps of exponents mod q-1: a
    shear x -> x + a*y with a*t = s1 - s2 mod q-1 covers the residue
    mod g, White's unimodular map covers the orbit mod t, and their
    composite covers the closure.  Such a map permutes the torus
    columns and scales them by the values of a monomial, so it is a
    monomial equivalence (Little & Schwarz 2007).  The "only if" half,
    INEQUIVALENT for every other same-t pair, rests on the paper's
    stated theorem and is not checked in this library: GF(11) T(1,5)
    and T(2,5), for instance, have equal weight enumerators.

    Same s: equivalent iff gcd(t1, q-1) = gcd(t2, q-1).  When both
    parameters differ no combined criterion is stated; the caller falls
    back to the witness test.
    """
    return theorem_verdict(q, empty_tetrahedron(s1, t1), empty_tetrahedron(s2, t2))


def _dim4_criterion(q: int, pa: LatticePolytope, pb: LatticePolytope) -> EquivalenceVerdict:
    """``dim4_theorem_verdict`` on two empty tetrahedra."""
    (s1, t1), (s2, t2) = pa.params, pb.params
    if t1 == t2:
        t = t1
        g = gcd(t, q - 1)
        if (s1 - s2) % g == 0:
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "same-t:residue-mod-gcd")
        if white_canonical(s1, t) == white_canonical(s2, t):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "same-t:lattice-orbit")
        if white_canonical(s1, g) == white_canonical(s2, g):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "same-t:orbit-mod-gcd")
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "same-t:neither-condition")
    if s1 == s2:
        if gcd(t1, q - 1) == gcd(t2, q - 1):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "same-s:equal-gcd")
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "same-s:distinct-gcd")
    return EquivalenceVerdict(INCONCLUSIVE, "NONE")


def dim4_gcd_corollary(q: int, t: int) -> bool:
    """True iff every s gives one and the same code class: gcd(t, q-1) = 1."""
    if t < 1:
        raise InvalidParams(f"t must be >= 1; got {t}")
    return gcd(t, q - 1) == 1


def dim5_theorem_verdict(
    q: int,
    sig_a: tuple[int, int],
    params_a: tuple[int, int],
    sig_b: tuple[int, int],
    params_b: tuple[int, int],
) -> EquivalenceVerdict:
    """Criteria for width-1 five-point codes of one signature.

    P22 and P31 have no parameters, and (3,2) decides only equal (s, t):
    EQUIVALENT, by the identity.  Signature (2,1): with equal s, equivalent
    iff gcd(ta, q-1) = gcd(tb, q-1); with equal t and g = gcd(t, q-1), iff
    sa = +-sb mod g (``residue`` for sa = sb, ``reflection`` for sa = -sb).
    Any other pair is INCONCLUSIVE.  The "if" halves are proved by exponent
    maps mod q-1 that fix 0, e3 and {e1, -e1} and so need no diagonal:
    p -> (p1, u*p2, p3) with u a unit and u*ta = tb, p -> (+-p1 + k*p2, p2,
    p3) with k*t = sb -+ sa.  The "only if" halves rest on the paper's
    stated theorem and are not checked in this library.  A signature or
    parameter pair that names no polytope raises InvalidParams.
    """
    pa = width1_representative(sig_a, *params_a)
    return theorem_verdict(q, pa, width1_representative(sig_b, *params_b))


def _dim5_criterion(q: int, pa: LatticePolytope, pb: LatticePolytope) -> EquivalenceVerdict:
    """``dim5_theorem_verdict`` on two width-1 representatives of one
    signature."""
    if not pa.params:  # P22 and P31, the families without parameters
        return EquivalenceVerdict(EQUIVALENT, "THEOREM", "single-class-signature")
    (sa, ta), (sb, tb) = pa.params, pb.params
    if pa.family == SIG32:
        if (sa, ta) == (sb, tb):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "(3,2):identical-params")
        return EquivalenceVerdict(INCONCLUSIVE, "NONE")
    # (2,1)
    if sa == sb:
        if gcd(ta, q - 1) == gcd(tb, q - 1):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "(2,1):equal-gcd")
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "(2,1):distinct-gcd")
    if ta == tb:
        if (sa - sb) % gcd(ta, q - 1) == 0:
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "(2,1):residue-mod-gcd")
        if (sa + sb) % gcd(ta, q - 1) == 0:
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "(2,1):reflection-mod-gcd")
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "(2,1):distinct-residue")
    return EquivalenceVerdict(INCONCLUSIVE, "NONE")


def theorem_verdict(q: int, pa: LatticePolytope, pb: LatticePolytope) -> EquivalenceVerdict:
    """The theorem verdict for two polytopes, the one dispatch to the
    criteria: two families get INCONCLUSIVE, as no stated criterion spans
    two; two empty tetrahedra get ``dim4_theorem_verdict``'s, two width-1
    representatives ``dim5_theorem_verdict``'s, whose docstrings say which
    half a map proves; any other pair, W2 or E, INCONCLUSIVE.  A tagged
    polytope met its family's rule when it was made.  Every criterion needs
    equal s or equal t, so the verdict is INCONCLUSIVE unless both polytopes
    are of one family and share s or t (P22 and P31 as s = t = 0)."""
    if pa.family != pb.family:
        return EquivalenceVerdict(INCONCLUSIVE, "NONE")
    if pa.family == EMPTY_TETRA:
        return _dim4_criterion(q, pa, pb)
    if pa.family in WIDTH1_SIGNATURES:
        return _dim5_criterion(q, pa, pb)
    return EquivalenceVerdict(INCONCLUSIVE, "NONE")


# -- census --------------------------------------------------------------------


@dataclass
class CensusEntry:
    family: str
    s: int
    t: int
    polytope: LatticePolytope
    code: ToricCode = None  # first code with this column key; its kernel batch gives d_brute
    formula: object = None
    class_id: int = -1

    def row(self, q: int) -> dict:
        return {
            "q": q,
            "family": self.family,
            "s": self.s,
            "t": self.t,
            "n": self.code.n,
            "k": self.code.k,
            "d_formula_lower": self.formula.lower,
            "d_formula_upper": self.formula.upper,
            "d_brute": self.code.min_distance_brute().value,
            "class_id": self.class_id,
            # a theorem/witness disagreement raises before any row exists
            "theorem_agrees": True,
        }


def _census_entries(field: FieldSpec, dim: int):
    """One entry per in-scope parameter tuple.  A tuple's column key is read
    off its points (``_lattice_key``); only the first tuple with a key gets
    a code.  A later tuple is that code with its columns permuted, proved
    by an integer certificate, or else by one witness checked on its own
    code; it then shares the first code.  One kernel pass per batch of the
    kept codes gives every entry its distance and weight enumerator."""
    q = field.q
    first, entries = {}, []
    for family, s, t in parameter_sweep(q, dim):
        poly = FAMILIES[family].make(s, t)
        kept = first.get(key := _lattice_key(poly.points, q - 1))
        if kept is None:
            kept = first[key] = build_code(field, poly)
        elif not _certifies(kept, poly.points, _exponent_map(kept, poly.points)):
            witness_equivalence(kept, build_code(field, poly))
        entries.append(CensusEntry(family, s, t, poly, kept, distance_formula(poly, q)))
    _fill_invariants(list(first.values()))
    return entries


def _group_classes(q: int, entries: list[CensusEntry]) -> list[CensusEntry]:
    """Set each entry's class_id by union-find, seeded with each entry's
    parent the first entry with its code (entries share a code once their
    merge is certified or witnessed); a theorem EQUIVALENT joins two
    classes.  The theorem is asked once of each pair of entries of one
    family that share s or t, the earlier entry first: no other pair can
    get a verdict but INCONCLUSIVE (``theorem_verdict``)."""
    first: dict = {}
    parent = [first.setdefault(e.code, i) for i, e in enumerate(entries)]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def mismatch(a, b, said):
        names = f"{a.polytope.describe()} vs {b.polytope.describe()}"
        d1, d2 = (e.code.min_distance_brute().value for e in (a, b))
        return TheoremWitnessMismatch(f"q={q}: {names}: {said}; d_brute={d1},{d2}")

    # the sweep's (family, s, t) are distinct, so no pair shares both buckets
    buckets: dict = {}
    for i, e in enumerate(entries):
        buckets.setdefault((e.family, "s", e.s), []).append(i)
        buckets.setdefault((e.family, "t", e.t), []).append(i)
    for members in buckets.values():
        for i, j in combinations(members, 2):
            a, b = entries[i], entries[j]
            thm = theorem_verdict(q, a.polytope, b.polytope)
            if thm.status == INEQUIVALENT and a.code is b.code:
                raise mismatch(a, b, f"theorem says {thm.status} ({thm.detail}), "
                               f"witness says {EQUIVALENT}")
            if thm.status == EQUIVALENT:
                parent[find(i)] = find(j)

    roots: dict[int, int] = {}
    for i, e in enumerate(entries):
        r = find(i)
        if e.code.weight_enumerator() != entries[r].code.weight_enumerator():
            raise mismatch(e, entries[r], "joined, yet their weight enumerators differ")
        e.class_id = roots.setdefault(r, len(roots))
    return entries


def census(field: FieldSpec, dim: int):
    """Group every in-scope parameter tuple into monomial-equivalence
    classes: a tuple with an earlier tuple's column key by an integer
    certificate or else one witness checked on G, after which both
    entries share the first code; any pair by a theorem EQUIVALENT
    verdict.  A theorem
    INEQUIVALENT between entries sharing a code, or a class whose weight
    enumerators differ, raises TheoremWitnessMismatch with reproduction data.
    """
    return _group_classes(field.q, _census_entries(field, dim))
