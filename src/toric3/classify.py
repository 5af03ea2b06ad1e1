"""Monomial-equivalence decisions.

Two routes are kept deliberately independent and cross-checked:

* theorem verdicts — the gcd / residue criteria for empty tetrahedra
  and the width-1 five-point propositions, each stated once, as keys per
  polytope (``_criteria``) that ``theorem_verdict`` and the census compare;
  a tagged polytope was checked against its family's row, its (s, t) rule
  and its points, when it was made, so no criterion checks it again.  Two
  families, or two distinct (3,2) parameter pairs, get INCONCLUSIVE: over
  GF(5), exponent maps mod 4 with unit determinant send P32(1,1) onto
  P32(1,2) and P22 onto P32(1,3);
* a constructive witness test — equal column keys (the Hermite normal
  form of each code's exponent lattice), so equal column multisets, give an
  exponent map E2 = E1*A mod q-1 with det A a unit mod q-1
  (``_unit_exponent_map``), and from it the column permutation x -> A*x,
  checked on G with the diagonal fixed to the identity; separating
  invariants (minimum distance, weight enumerator) back it when the keys
  differ.

Because the identity-diagonal reduction is argued rather than proved in
full generality, a failed column match alone yields INCONCLUSIVE; only
a differing invariant upgrades it to INEQUIVALENT.

The census keys each parameter tuple by its points alone (``_orbit_box``)
and builds a code only for the first tuple with a key.  A later tuple with
that key is proved to be the first code with its columns permuted by the
same exponent map, an integer certificate with no G read; equal keys with
no such map raise InternalCheckFailed.  The kept codes are enumerated
together, one kernel pass per batch (``codes._fill_invariants``), and
one pass joins the entries that a theorem calls EQUIVALENT, by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .codes import ToricCode, _fill_invariants, _monomial_rows, _orbit_box, build_code
from .errors import (
    InternalCheckFailed,
    ShapeMismatch,
    TheoremWitnessMismatch,
)
from .formulas import _check_q, distance_formula
from .galois import FieldSpec, _check_t
from .polytopes import (
    EMPTY_TETRA,
    FAMILIES,
    SIG21,
    WIDTH1_SIGNATURES,
    LatticePolytope,
    det,
    empty_tetrahedron,
    parameter_sweep,
    white_canonical,
    width1_representative,
)

EQUIVALENT = "EQUIVALENT"
INEQUIVALENT = "INEQUIVALENT"
INCONCLUSIVE = "INCONCLUSIVE"
_NO_UNIT_MAP = "no exponent map E2 = E1*A mod q-1 has det A a unit"


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


def _unit_exponent_map(c1: ToricCode, points) -> list[list[int]] | None:
    """An m x m matrix A, entries mod q-1, with E2 = E1*A mod q-1, checked
    entry by entry, and gcd(det A, q-1) = 1, E2 the k points ``points`` as
    rows and E1 those of c1; None when the column keys differ.

    Such an A proves that the code of ``points`` is c1 with its columns
    permuted, G2 = G1[:, A*x], with no G read: column x of G2 is
    alpha^(E2*x) = alpha^(E1*(A*x)), and x -> A*x is a bijection of the
    torus as det A is a unit mod q-1 (Little & Schwarz 2007).

    A0 comes from back-substituting each column of E2 into the triangular
    basis of c1's ``_tracked_basis``, whose pairs (b, c) have b = E1*c mod
    q-1: the column is a sum of a_i * b_i, so E1 times the sum of a_i * c_i.
    Every other solution is A0 + K, the columns of K in ker(E1 mod q-1),
    whose basis rows h_i are the kernel of ``_tracked_basis``.  When
    gcd(det A0, q-1) = 1, A0 is the answer.  Otherwise, for each prime p
    dividing gcd(det A0, q-1), 0/1 multiples of the h_i are added to A0's
    columns until det is nonzero mod p.  The primes' choices are joined by
    CRT: each is scaled by a number that is 1 mod p and 0 mod every other
    prime of q-1, so it leaves det mod those primes as it was.

    Why the search cannot miss when the keys are equal: over Z/p^e, E1 and
    E2 map the free module (Z/p^e)^m onto one image, and two such maps
    differ by an automorphism (projective covers over a local ring), so
    some A0 + K is invertible mod p.  det(A0 + K) mod p is multilinear in
    the m^2 coefficients of the h_i, since each coefficient enters one
    column linearly, and a multilinear polynomial over F_p that is nonzero
    somewhere is nonzero at a 0/1 point.  So the 2^(m^2) <= 512 0/1 points
    are all the candidates: their determinants mod p are one int64 step per
    prime, and the first hit in product order is taken.  A0 is reduced mod
    q-1 first, which changes no determinant mod p.  When the keys differ,
    no A0 exists, or no unit A does, as one would make the lattices equal.
    """
    n1, m, (basis, kernel) = c1.field.q - 1, c1.m, c1._tracked_basis
    columns = []  # of A
    for v in map(list, zip(*points)):
        column = [0] * m
        for i, (b, c) in enumerate(basis):
            a, rest = divmod(v[i], b[i])
            if rest:
                return None
            if a:
                v = [x - a * y for x, y in zip(v, b)]
                column = [x + a * y for x, y in zip(column, c)]
        columns.append([x % n1 for x in column])

    if (d := gcd(det(columns), n1)) > 1:
        primes = [p for p in range(2, n1 + 1) if n1 % p == 0 and all(p % r for r in range(2, p))]
        kernel = np.array(kernel)
        # one column's 0/1 choices in product order; column j's 2^m shifts lie
        # along axis j, so det broadcasts, exactly in int64, to all 2^(m*m)
        # choices at once, flat in the order of product((0, 1), repeat=m*m)
        bits = np.indices((2,) * m).reshape(m, -1).T
        axes = 1 + (2**m - 1) * np.eye(m, dtype=int)
        grid = [(col + bits @ kernel).T.reshape(m, *ax) for col, ax in zip(columns, axes)]
        coef = np.zeros((m, m), dtype=np.int64)  # coef[j, i] times h_i added to column j
        for p in (p for p in primes if d % p == 0):
            hits = np.flatnonzero(det(grid) % p)
            if not hits.size:
                return None
            others = prod(primes) // p
            coef += others * pow(others, -1, p) * bits[[*np.unravel_index(hits[0], (2**m,) * m)]]
        columns = (columns + coef @ kernel).tolist()
        if gcd(det(columns), n1) > 1:
            return None
    for e1, e2 in zip(c1.polytope.points, points):
        for column, e in zip(columns, e2):
            if (sum(a * b for a, b in zip(e1, column)) - e) % n1:
                return None
    return [[x % n1 for x in row] for row in zip(*columns)]


def witness_equivalence(c1: ToricCode, c2: ToricCode) -> EquivalenceVerdict:
    """Constructive test: equal column keys, so equal column multisets,
    give an explicit permutation witness, perm[x] = A*x mod q-1 for the
    unit-determinant exponent map A of ``_unit_exponent_map``, checked to
    be a bijection and checked on G; unequal keys are INEQUIVALENT only
    when a separating invariant corroborates, else INCONCLUSIVE.

    The column index of A*x is summed in Horner form from the uint16 logs
    of ``_monomial_rows``, in the narrowest unsigned type that holds n-1
    (uint32 at q=64), and widened to np.intp once; G is checked row by
    row, each row of G1 gathered by one 1-D take and compared with G2's,
    up to the first row that differs."""
    if c1.field.q != c2.field.q:
        raise ShapeMismatch("codes live over different fields")
    if c1.n != c2.n or c1.k != c2.k:
        raise ShapeMismatch(f"parameter mismatch: [{c1.n},{c1.k}] vs [{c2.n},{c2.k}]")
    n1 = c1.field.q - 1
    if _orbit_box(c1.polytope.points, n1) == _orbit_box(c2.polytope.points, n1):

        def failed(why):
            names = f"q={c1.field.q}: {c1.polytope.describe()} vs {c2.polytope.describe()}"
            return InternalCheckFailed(
                f"{names}: column multisets match, yet G1[:, perm] != G2 ({why})"
            )

        if (A := _unit_exponent_map(c1, c2.polytope.points)) is None:
            raise failed(_NO_UNIT_MAP)
        # G1 and G2 as read through each code's one view of its columns; a G
        # not yet read is built here, before the permutation's temporaries,
        # which made its build about 0.2 ms slower at q=64
        g1, g2 = c1.column_tuples().T, c2.column_tuples().T
        # z[i]: the log of x^(row i of A), so z = A*x at every column x
        z = _monomial_rows(A, 0, np.arange(n1, dtype=np.uint16),
                           np.empty((c1.m, c1.n), dtype=np.uint16))
        # every partial sum of the Horner form is below n, so it is exact
        perm = z[0].astype(np.min_scalar_type(c1.n - 1))
        for axis in z[1:]:
            perm *= n1
            perm += axis
        perm = perm.astype(np.intp)
        hit = np.zeros(c1.n, dtype=bool)
        hit[perm] = True
        if not hit.all():
            raise failed("perm is not a bijection")
        # a 1-D take per row, not one take(axis=1), numpy's strided path
        if not all(np.array_equal(r1.take(perm), r2) for r1, r2 in zip(g1, g2)):
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


def dim4_gcd_corollary(q: int, t: int) -> bool:
    """True iff every s gives one and the same code class: gcd(t, q-1) = 1;
    q must be a prime power >= 3."""
    _check_q(q)
    _check_t(t)
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


def _criteria(q: int, poly: LatticePolytope) -> list:
    """One polytope's criteria, in the order they are tried: (bucket,
    [(criterion, key), ...], otherwise), the bucket the s or t (for P22,
    P31 and P32 the params) that the criteria need equal, and ``otherwise``
    the INEQUIVALENT one, None where shared buckets have equal keys.  Each
    last key is the closure of those before it, so any equal key makes it
    equal.  W2, E and point lists have no criterion."""
    if poly.family == EMPTY_TETRA:
        (s, t), g = poly.params, gcd(poly.params[1], q - 1)
        return [
            (("t", t), [("same-t:residue-mod-gcd", s % g),
                        ("same-t:lattice-orbit", white_canonical(s, t)),
                        ("same-t:orbit-mod-gcd", white_canonical(s, g))],
             "same-t:neither-condition"),
            (("s", s), [("same-s:equal-gcd", g)], "same-s:distinct-gcd"),
        ]
    if poly.family == SIG21:
        (s, t), g = poly.params, gcd(poly.params[1], q - 1)
        return [
            (("s", s), [("(2,1):equal-gcd", g)], "(2,1):distinct-gcd"),
            (("t", t), [("(2,1):residue-mod-gcd", s % g),
                        ("(2,1):reflection-mod-gcd", min(s % g, -s % g))],
             "(2,1):distinct-residue"),
        ]
    if poly.family in WIDTH1_SIGNATURES:  # equal params only; P22 and P31 have none
        name = "(3,2):identical-params" if poly.params else "single-class-signature"
        return [(poly.params, [(name, poly.params)], None)]
    return []


def theorem_verdict(q: int, pa: LatticePolytope, pb: LatticePolytope) -> EquivalenceVerdict:
    """The theorem verdict for two polytopes, the one dispatch to the
    criteria (``_criteria``; ``dim4_theorem_verdict`` and
    ``dim5_theorem_verdict`` state and prove them), decided at the first
    bucket both have: EQUIVALENT named by the first equal key, else
    INEQUIVALENT named by ``otherwise``.  Two families, or no shared bucket,
    get INCONCLUSIVE.  q must be a prime power >= 3."""
    _check_q(q)
    if pa.family == pb.family:
        theirs = {bucket: keys for bucket, keys, _ in _criteria(q, pb)}
        for bucket, keys, otherwise in _criteria(q, pa):
            if bucket in theirs:
                for (name, a), (_, b) in zip(keys, theirs[bucket]):
                    if a == b:
                        return EquivalenceVerdict(EQUIVALENT, "THEOREM", name)
                if otherwise:
                    return EquivalenceVerdict(INEQUIVALENT, "THEOREM", otherwise)
                break
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
    off its points (``_orbit_box``); only the first tuple with a key gets
    a code.  A later tuple is that code with its columns permuted, proved
    by an integer certificate (``_unit_exponent_map``), and shares it;
    equal keys with no certificate raise InternalCheckFailed naming both
    polytopes.  One kernel pass per batch of the kept codes gives every
    entry its distance and weight enumerator."""
    q = field.q
    if dim == 5:
        _check_q(q, 5)  # the width-1 formulas need it; checked before any tuple
    first, entries = {}, []
    for family, s, t in parameter_sweep(q, dim):
        poly = FAMILIES[family].make(s, t)
        kept = first.get(key := _orbit_box(poly.points, q - 1))
        if kept is None:
            kept = first[key] = build_code(field, poly)
        elif _unit_exponent_map(kept, poly.points) is None:
            names = f"{kept.polytope.describe()} vs {poly.describe()}"
            raise InternalCheckFailed(f"q={q}: {names}: column keys match, yet {_NO_UNIT_MAP}")
        entries.append(CensusEntry(family, s, t, poly, kept, distance_formula(poly, q)))
    _fill_invariants(list(first.values()))
    return entries


def _group_classes(q: int, entries: list[CensusEntry]) -> list[CensusEntry]:
    """Set each entry's class_id by union-find, seeded with each entry's
    parent the first entry with its code (entries share a code once their
    merge is certified).  One pass joins each entry, per bucket of its
    ``_criteria``, to the first with its family, bucket and last key: as
    each last key is the closure of the keys before it, these are the pairs
    ``theorem_verdict`` calls EQUIVALENT.  A shared code and bucket with
    different last keys (a theorem INEQUIVALENT) raises."""
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

    joined, by_code = {}, {}  # first entry per (family, bucket, last key), (code, family, bucket)
    for i, e in enumerate(entries):
        for bucket, keys, otherwise in _criteria(q, e.polytope):
            last = keys[-1][1]
            parent[find(i)] = find(joined.setdefault((e.family, bucket, last), i))
            j, its_last = by_code.setdefault((e.code, e.family, bucket), (i, last))
            if its_last != last:
                raise mismatch(entries[j], e, f"theorem says {INEQUIVALENT} ({otherwise}), "
                               f"witness says {EQUIVALENT}")

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
    certificate, after which both entries share the first code; any pair
    by a theorem EQUIVALENT verdict.  A theorem INEQUIVALENT between
    entries sharing a code, or a class whose weight enumerators differ,
    raises TheoremWitnessMismatch with reproduction data.
    """
    return _group_classes(field.q, _census_entries(field, dim))
