"""Monomial-equivalence decisions.

Two routes are kept deliberately independent and cross-checked:

* theorem verdicts — the gcd / residue criteria for empty tetrahedra
  and the width-1 five-point propositions;
* a constructive witness test — equal column multisets of the generator
  matrices, read from each code's column key (the Hermite basis of its
  exponent lattice), give a permutation with the diagonal fixed to the
  identity; separating invariants (minimum distance, weight enumerator)
  back it when the keys differ.

Because the identity-diagonal reduction is argued rather than proved in
full generality, a failed column match alone yields INCONCLUSIVE; only
a differing invariant upgrades it to INEQUIVALENT.  The census checks
one witness per code, against the first code with its column key; only
the theorem check runs on every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .codes import ToricCode, _torus_logs, build_code
from .errors import (
    InternalCheckFailed,
    InvalidParams,
    ShapeMismatch,
    TheoremWitnessMismatch,
    UnsupportedFamily,
)
from .formulas import distance_formula
from .galois import FieldSpec
from .polytopes import (
    EMPTY_TETRA,
    FAMILIES,
    SIG21,
    SIG22,
    SIG31,
    SIG32,
    WIDTH1_SIGNATURES,
    LatticePolytope,
    white_canonical,
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


@dataclass(frozen=True)
class ColumnPartition:
    """Columns grouped by (x, z, y^t)."""

    t: int
    cells: dict


def column_partition(code: ToricCode) -> ColumnPartition:
    """Partition of the torus columns by first coordinate, last
    coordinate, and the t-th power of the middle one."""
    fam = code.polytope.family
    if fam not in (EMPTY_TETRA, SIG21):
        raise UnsupportedFamily(f"column partition is defined for T and P21, not {fam}")
    _, t = code.polytope.params
    exp, n1 = code.field.exp_table, code.field.q - 1
    # x = alpha^i, y = alpha^j, z = alpha^l per column, so y^t = alpha^(j*t)
    i, j, l = _torus_logs(n1, code.m)
    keys = zip(exp[i].tolist(), exp[l].tolist(), exp[j * t % n1].tolist())
    cells: dict = {}
    for idx, key in enumerate(keys):
        cells.setdefault(key, []).append(idx)
    return ColumnPartition(t, cells)


def witness_equivalence(c1: ToricCode, c2: ToricCode) -> EquivalenceVerdict:
    """Constructive test: equal column keys, so equal column multisets,
    give an explicit permutation witness from the two sorted column
    orders, checked on G; unequal keys are INEQUIVALENT only when a
    separating invariant corroborates, else INCONCLUSIVE."""
    if c1.field.q != c2.field.q:
        raise ShapeMismatch("codes live over different fields")
    if c1.n != c2.n or c1.k != c2.k:
        raise ShapeMismatch(
            f"parameter mismatch: [{c1.n},{c1.k}] vs [{c2.n},{c2.k}]"
        )
    if c1._column_key == c2._column_key:
        # perm[j] = column of G1 equal to column j of G2
        perm = np.empty(c1.n, dtype=np.int64)
        perm[c2._column_order] = c1._column_order
        if not np.array_equal(c1.G[:, perm], c2.G):
            raise InternalCheckFailed("column multisets match, yet G1[:, perm] != G2")
        return EquivalenceVerdict(EQUIVALENT, "WITNESS", perm)
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
    for s, t in ((s1, t1), (s2, t2)):
        if t < 1 or gcd(s, t) != 1:
            raise InvalidParams(f"invalid tetrahedron parameters ({s},{t})")
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
    """Criteria for width-1 five-point codes.

    Signature (2,1) with equal t, g = gcd(t, q-1): equivalent iff
    sa = +-sb mod g, reported as ``(2,1):residue-mod-gcd`` for
    sa = sb and ``(2,1):reflection-mod-gcd`` for sa = -sb.  The "if"
    half is proved by exponent maps mod q-1 that fix 0, e3 and the pair
    {e1, -e1} and so need no diagonal: p -> (p1 + k*p2, p2, p3) with
    k*t = sb - sa for the residue, p -> (-p1 + k*p2, p2, p3) with
    k*t = sa + sb for the reflection.  The "only if" half rests on the
    paper's stated theorem and is not checked in this library.
    """
    for sig in (sig_a, sig_b):
        if sig not in ((2, 1), (2, 2), (3, 1), (3, 2)):
            raise InvalidParams(f"unknown width-1 signature {sig}")
    if sig_a != sig_b:
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "distinct-signature")
    if sig_a in ((2, 2), (3, 1)):
        return EquivalenceVerdict(EQUIVALENT, "THEOREM", "single-class-signature")
    (sa, ta), (sb, tb) = params_a, params_b
    if sig_a == (3, 2):
        if (sa, ta) == (sb, tb):
            return EquivalenceVerdict(EQUIVALENT, "THEOREM", "(3,2):identical-params")
        return EquivalenceVerdict(INEQUIVALENT, "THEOREM", "(3,2):distinct-params")
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
    """The theorem verdict for two family representatives: the dim-4
    criteria for two empty tetrahedra, the width-1 criteria for two
    width-1 representatives, INCONCLUSIVE for any other pair."""
    if pa.family == EMPTY_TETRA and pb.family == EMPTY_TETRA:
        return dim4_theorem_verdict(q, *pa.params, *pb.params)
    if pa.family in WIDTH1_SIGNATURES and pb.family in WIDTH1_SIGNATURES:
        return dim5_theorem_verdict(
            q,
            WIDTH1_SIGNATURES[pa.family],
            pa.params or (0, 0),
            WIDTH1_SIGNATURES[pb.family],
            pb.params or (0, 0),
        )
    return EquivalenceVerdict(INCONCLUSIVE, "NONE")


# -- census --------------------------------------------------------------------


@dataclass
class CensusEntry:
    family: str
    s: int
    t: int
    polytope: LatticePolytope
    code: ToricCode = None
    d_brute: int = 0
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
            "d_brute": self.d_brute,
            "class_id": self.class_id,
            # a theorem/witness disagreement raises before any row exists
            "theorem_agrees": True,
        }


def dim4_parameter_sweep(q: int):
    """All (s, t) with 1 <= t <= q-2, gcd(s,t)=1, 0 <= s < t, plus (1,1)."""
    out = []
    for t in range(1, q - 1):
        for s in range(t):
            if gcd(s, t) == 1:
                out.append((s, t))
        if t == 1:
            out.append((1, 1))
    return out


def dim5_parameter_sweep(q: int):
    """Width-1 tuples fitting [-(q-2), q-2] exponents with t <= q-2."""
    out = []
    for t in range(1, q - 1):
        for s in range(t + 1):
            if 2 * s <= t and gcd(s, t) == 1:
                out.append((SIG21, s, t))
    out.append((SIG22, 0, 0))
    out.append((SIG31, 0, 0))
    for t in range(1, q - 1):
        for s in range(1, t + 1):
            if gcd(s, t) == 1:
                out.append((SIG32, s, t))
    return out


def _build_entry(field: FieldSpec, family: str, s: int, t: int) -> CensusEntry:
    poly = FAMILIES[family].make(s, t)
    formula = distance_formula(poly, field.q)
    code = build_code(field, poly)
    d_brute = code.min_distance_brute().value
    return CensusEntry(family, s, t, poly, code=code, d_brute=d_brute, formula=formula)


def _census_entries(field: FieldSpec, dim: int):
    """One entry per in-scope parameter tuple, its kernel pass already run."""
    q = field.q
    if dim == 4:
        tuples = [(EMPTY_TETRA, s, t) for s, t in dim4_parameter_sweep(q)]
    elif dim == 5:
        tuples = dim5_parameter_sweep(q)
    else:
        raise InvalidParams(f"dim must be 4 or 5; got {dim}")
    return [_build_entry(field, *ft) for ft in tuples]


def _group_classes(q: int, entries: list[CensusEntry]) -> list[CensusEntry]:
    """Set each entry's class_id by union-find, seeded with each entry's
    parent the first entry with its column key (one checked witness
    each); a theorem EQUIVALENT joins two classes."""
    first: dict = {}
    parent = [first.setdefault(e.code._column_key, i) for i, e in enumerate(entries)]
    for i, r in enumerate(parent):
        if r != i:
            witness_equivalence(entries[r].code, entries[i].code)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def mismatch(a, b, said):
        names = f"{a.polytope.describe()} vs {b.polytope.describe()}"
        return TheoremWitnessMismatch(f"q={q}: {names}: {said}; d_brute={a.d_brute},{b.d_brute}")

    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            thm = theorem_verdict(q, a.polytope, b.polytope)
            if thm.status == INEQUIVALENT and a.code._column_key == b.code._column_key:
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
    classes: codes with equal column keys by one checked witness each,
    any pair by a theorem EQUIVALENT verdict.  A theorem INEQUIVALENT
    between equal keys, or a class whose weight enumerators differ,
    raises TheoremWitnessMismatch with reproduction data.
    """
    return _group_classes(field.q, _census_entries(field, dim))
