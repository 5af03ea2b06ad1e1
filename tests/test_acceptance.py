"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

All tolerances are exact integer equalities or exact interval
membership; there is nothing to calibrate.
"""

from math import gcd

import numpy as np
import pytest

from toric3.classify import (
    EQUIVALENT,
    census,
    dim4_theorem_verdict,
    dim5_theorem_verdict,
    witness_equivalence,
)
from toric3.codes import build_code
from toric3.errors import TheoremWitnessMismatch
from toric3.formulas import degenerate_distance, dim4_distance, dim5_distance
from toric3.galois import make_field
from toric3.polytopes import (
    WIDTH1_VOLUMES,
    WIDTH2_VOLUMES,
    LatticePolytope,
    affine_dependence,
    embedded_polygon,
    empty_tetrahedron,
    lattice_width,
    parameter_sweep,
    white_canonical,
    white_equivalence_map,
    width1_representative,
    width2_representative,
)
from toric3.polytopes import WIDTH1_SIGNATURES as _SIG_OF_FAMILY

from oracle import column_partition, is_monomial_map, projective_reference


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# p -> A(p - e1) mod 12, det A = -1: sends (0, e1, e3, (1,9,1)) of T(1,9)
# onto (e1, 0, e3, (2,9,1)) of T(2,9); the shift -A e1 is (1, 0, 0).
_GF13_T9_MAP = (((-1, 3, -1), (0, 1, 0), (0, 0, 1)), (1, 0, 0))


def test_criterion_1_dim4_formula_vs_brute():
    failures = []
    for q in (5, 7, 8, 9):
        field = make_field(q)
        for _, s, t in parameter_sweep(q, 4):
            brute = build_code(field, empty_tetrahedron(s, t)).min_distance_brute()
            formula = dim4_distance(q, t)
            if brute.value != formula.value:
                failures.append((q, s, t, brute.value, formula.value))
    _report(1, f"dim-4 formula == brute for q in 5,7,8,9 ({failures or 'all exact'})",
            not failures)


def test_criterion_2_dim5_width1_formulas():
    failures = []
    for q in (5, 7):
        field = make_field(q)
        for family, s, t in parameter_sweep(q, 5):
            sig = _SIG_OF_FAMILY[family]
            poly = width1_representative(sig, s, t)
            brute = build_code(field, poly).min_distance_brute().value
            res = dim5_distance(sig, q, s, t)
            if sig in ((2, 1), (2, 2)):
                ok = res.exact and brute == res.value
            else:
                ok = res.lower <= brute <= res.upper
            if not ok:
                failures.append((q, family, s, t, brute, (res.lower, res.upper)))
    _report(2, f"dim-5 width-1 formulas/bounds over q in 5,7 ({failures or 'all hold'})",
            not failures)


def test_criterion_3_degenerate_and_product_theorem():
    failures = []
    for q in (5, 7):
        field = make_field(q)
        n = (q - 1) ** 3
        expected_exact = {
            1: n - 3 * (q - 1) ** 2,
            2: n - 2 * (q - 1) ** 2,
            3: n - (2 * q - 3) * (q - 1),
        }
        for i in range(1, 5):
            poly = embedded_polygon(i)
            d3 = build_code(field, poly).min_distance_brute().value
            if i < 4:
                if d3 != expected_exact[i]:
                    failures.append(("exact", q, i, d3))
            else:
                # strict: d must exceed the irrational bound
                if d3 < degenerate_distance(4, q).lower:
                    failures.append(("bound", q, i, d3))
            planar = LatticePolytope(tuple(p[:2] for p in poly.points))
            d2 = projective_reference(build_code(field, planar))[1]
            if d3 != (q - 1) * d2:
                failures.append(("product", q, i, d3, d2))
    _report(3, f"degenerate distances + product theorem ({failures or 'all hold'})",
            not failures)


def test_criterion_4_census_concordance():
    ok = True
    detail = "zero mismatches"
    try:
        for q in (5, 7):
            field = make_field(q)
            census(field, 4)
            census(field, 5)
    except TheoremWitnessMismatch as e:
        ok = False
        detail = str(e)
    _report(4, f"census concordance q=5,7 dim 4 and 5 ({detail})", ok)


def test_criterion_4_spot_gf7_t4():
    field = make_field(7)
    thm = dim4_theorem_verdict(7, 1, 4, 3, 4)
    wit = witness_equivalence(
        build_code(field, empty_tetrahedron(1, 4)),
        build_code(field, empty_tetrahedron(3, 4)),
    )
    ok = thm.status == EQUIVALENT and wit.status == EQUIVALENT
    _report(4, f"GF(7) t=4 s=1,3 equivalent (theorem {thm.status}, witness {wit.status})", ok)


def test_criterion_4_spot_gf13_t9_theorem():
    thm = dim4_theorem_verdict(13, 1, 9, 2, 9)
    field = make_field(13)
    mapped = is_monomial_map(
        field, empty_tetrahedron(1, 9), empty_tetrahedron(2, 9), *_GF13_T9_MAP
    )
    _report(4, f"GF(13) t=9 s=1 vs 2 theorem verdict ({thm.status}, {thm.detail}); "
               f"torus map verified on G ({mapped})",
            thm.status == EQUIVALENT and thm.detail == "same-t:orbit-mod-gcd" and mapped)


def test_criterion_4_spot_gf13_t9_enumerators_differ():
    # The name keeps the old claim that these enumerators differ.  They
    # cannot: the torus automorphism plus diagonal of _GF13_T9_MAP is a
    # monomial equivalence of the two codes (lattice equivalence mod
    # q-1, Little & Schwarz 2007).  The map is verified on the generator
    # matrices, independently of weight_enumerator, which must then agree.
    field = make_field(13)
    p1, p2 = empty_tetrahedron(1, 9), empty_tetrahedron(2, 9)
    mapped = is_monomial_map(field, p1, p2, *_GF13_T9_MAP)
    w1 = build_code(field, p1).weight_enumerator()
    w2 = build_code(field, p2).weight_enumerator()
    _report(4, f"GF(13) t=9 s=1 vs 2 monomially equivalent by torus map ({mapped}), "
               f"weight enumerators equal ({w1 == w2})",
            mapped and w1 == w2)


def test_criterion_4_closure_pairs_have_torus_maps():
    # Every pair that only the closure criteria call equivalent gets an
    # explicit exponent map mod q-1, checked on the generator matrices:
    # dim 4, White's map to s' = +-s2^(+-1) mod t with s' = s1 mod g,
    # then a shear; width-1 (2,1), the reflection (-p1 + k*p2, p2, p3).
    failures, checked = [], 0
    for q in (13, 16, 17, 29):
        field = make_field(q)
        n1 = q - 1
        for t in range(2, q - 1):
            g = gcd(t, n1)
            units = [s for s in range(t) if gcd(s, t) == 1]
            for s1 in units:
                for s2 in units:
                    thm = dim4_theorem_verdict(q, s1, t, s2, t)
                    if thm.detail != "same-t:orbit-mod-gcd":
                        continue
                    inv = pow(s2, -1, t)
                    s_mid = next(r % t for r in (-s2, inv, -inv) if (s1 - r) % g == 0)
                    white = white_equivalence_map(s_mid, s2, t)
                    a = (s1 - s_mid) // g * pow(t // g, -1, n1 // g)
                    shear = np.array(((1, a, 0), (0, 1, 0), (0, 0, 1)))
                    A, b = shear @ white.matrix, shear @ white.shift
                    checked += 1
                    if not is_monomial_map(
                        field, empty_tetrahedron(s2, t), empty_tetrahedron(s1, t), A, b
                    ):
                        failures.append((q, "T", s1, s2, t))
            halves = [s for s in units if 2 * s <= t]
            for sa in halves:
                for sb in halves:
                    thm = dim5_theorem_verdict(q, (2, 1), (sa, t), (2, 1), (sb, t))
                    if thm.detail != "(2,1):reflection-mod-gcd":
                        continue
                    k = (sa + sb) // g * pow(t // g, -1, n1 // g)
                    A = ((-1, k, 0), (0, 1, 0), (0, 0, 1))
                    checked += 1
                    if not is_monomial_map(
                        field,
                        width1_representative((2, 1), sa, t),
                        width1_representative((2, 1), sb, t),
                        A, (0, 0, 0),
                    ):
                        failures.append((q, "P21", sa, sb, t))
    _report(4, f"closure-only equivalences over GF(13,16,17,29) carry verified torus "
               f"maps ({checked} ordered pairs, {failures or 'all verified'})",
            checked > 0 and not failures)


def test_criterion_5_white_orbit_certification():
    failures = []
    for t in range(1, 13):
        residues = [s for s in range(max(t, 2)) if gcd(s, t) == 1]
        for s1 in residues:
            for s2 in residues:
                orbit = {s2 % t, (-s2) % t}
                if t > 1:
                    inv = pow(s2, -1, t)
                    orbit |= {inv, (-inv) % t}
                in_orbit = (s1 % t) in orbit
                m = white_equivalence_map(s1, s2, t)
                if (m is not None) != in_orbit:
                    failures.append(("existence", s1, s2, t))
                    continue
                if m is None:
                    continue
                image = {m.apply_point(p) for p in empty_tetrahedron(s2, t).points}
                if image != set(empty_tetrahedron(s1, t).points):
                    failures.append(("image", s1, s2, t))
                if white_canonical(s1, t) != white_canonical(s2, t):
                    failures.append(("canonical", s1, s2, t))
    # orbit partition spot check from the theorem: t=7
    orbits = {}
    for s in range(1, 7):
        orbits.setdefault(white_canonical(s, 7), set()).add(s)
    if set(map(frozenset, orbits.values())) != {frozenset({1, 6}), frozenset({2, 3, 4, 5})}:
        failures.append(("t=7 orbits", orbits))
    _report(5, f"White orbit maps and canonical forms, t <= 12 ({failures or 'all certified'})",
            not failures)


def test_criterion_6_structural_invariants():
    failures = []
    cases = [
        (5, empty_tetrahedron(1, 2)),
        (5, width1_representative((3, 2), 1, 1)),
        (7, empty_tetrahedron(2, 3)),
        (8, empty_tetrahedron(1, 3)),
        (9, empty_tetrahedron(1, 4)),
    ]
    for q, poly in cases:
        field = make_field(q)
        code = build_code(field, poly)
        d = code.min_distance_brute().value  # three-way check is internal
        if d != code.n - code.max_zeros():
            failures.append(("three-way", q, poly.describe()))
        enum = code.weight_enumerator()
        if min(w for w in enum if w) != d:
            failures.append(("enum-min", q, poly.describe()))
        if any(w and c % (q - 1) for w, c in enum.items()):
            failures.append(("divisibility", q, poly.describe()))
        u = [1] * code.k
        base = code.count_zeros(u)
        if any(
            code.count_zeros([field.mul(c, x) for x in u]) != base
            for c in field.units()
        ):
            failures.append(("scaling", q, poly.describe()))
        if poly.family in ("EMPTY_TETRA", "SIG21"):
            t = poly.params[1]
            g = gcd(t, q - 1)
            part = column_partition(code)
            if any(len(v) != g for v in part.cells.values()):
                failures.append(("cell-size", q, poly.describe()))
    _report(6, f"structural invariants on constructed codes ({failures or 'all hold'})",
            not failures)


def test_criterion_7_table_fidelity():
    failures = []
    width1_cases = [
        ((2, 1), 0, 1), ((2, 1), 1, 2), ((2, 1), 1, 3), ((2, 1), 2, 5),
        ((2, 2), 0, 0), ((3, 1), 0, 0),
        ((3, 2), 1, 1), ((3, 2), 1, 2), ((3, 2), 2, 3), ((3, 2), 3, 4),
    ]
    for sig, s, t in width1_cases:
        poly = width1_representative(sig, s, t)
        dep = affine_dependence(poly)
        printed = WIDTH1_VOLUMES[sig](s, t)
        if dep.volumes != printed and dep.volumes != tuple(-c for c in printed):
            failures.append(("volumes", sig, s, t, dep.volumes))
        if lattice_width(poly) != 1:
            failures.append(("width", sig, s, t))
    for row in range(1, 10):
        poly = width2_representative(row)
        dep = affine_dependence(poly)
        printed = WIDTH2_VOLUMES[row - 1]
        if dep.volumes != printed and dep.volumes != tuple(-c for c in printed):
            failures.append(("volumes", "W2", row, dep.volumes))
        if lattice_width(poly) != 2:
            failures.append(("width", "W2", row))
    _report(7, f"table volume vectors and widths ({failures or 'all match'})",
            not failures)
