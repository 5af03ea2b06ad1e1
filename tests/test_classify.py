from math import gcd

import numpy as np
import pytest

from toric3.classify import (
    EQUIVALENT,
    INCONCLUSIVE,
    INEQUIVALENT,
    _criteria,
    census,
    dim4_gcd_corollary,
    dim4_theorem_verdict,
    dim5_theorem_verdict,
    theorem_verdict,
    witness_equivalence,
)
from toric3.codes import build_code
from toric3.errors import InvalidField, InvalidParams, ShapeMismatch, UnsupportedFamily
from toric3.galois import make_field
from toric3.polytopes import (
    EMPTY_TETRA,
    FAMILIES,
    empty_tetrahedron,
    parameter_sweep,
    parse_polytope_spec,
    width1_representative,
    width2_representative,
)

from oracle import column_partition, is_monomial_map, lattice_map


class TestColumnPartition:
    @pytest.mark.parametrize(
        "q,t,occupied_per_xz",
        [(5, 2, 2), (5, 1, 4), (7, 6, 1)],
    )
    def test_cell_size_law(self, q, t, occupied_per_xz):
        f = make_field(q)
        code = build_code(f, empty_tetrahedron(1, t))
        part = column_partition(code)
        g = gcd(t, q - 1)
        per_xz = {}
        total = 0
        for (x, z, _a), idxs in part.cells.items():
            assert len(idxs) == g
            per_xz[(x, z)] = per_xz.get((x, z), 0) + 1
            total += len(idxs)
        assert total == code.n
        assert set(per_xz.values()) == {occupied_per_xz}
        assert occupied_per_xz == (q - 1) // g

    def test_unsupported_family(self):
        code = build_code(make_field(5), width2_representative(1))
        with pytest.raises(UnsupportedFamily):
            column_partition(code)

    def test_sig21_supported(self):
        code = build_code(make_field(5), width1_representative((2, 1), 1, 2))
        part = column_partition(code)
        assert all(len(v) == 2 for v in part.cells.values())


class TestWitness:
    def test_identity(self):
        code = build_code(make_field(5), empty_tetrahedron(1, 2))
        v = witness_equivalence(code, code)
        assert v.status == EQUIVALENT
        assert np.array_equal(v.detail, np.arange(code.n))

    def test_equivalent_pair_with_permutation(self):
        f = make_field(5)
        c1 = build_code(f, empty_tetrahedron(1, 2))
        c2 = build_code(f, empty_tetrahedron(3, 2))
        v = witness_equivalence(c1, c2)
        assert v.status == EQUIVALENT
        perm = v.detail
        assert np.array_equal(c1.G[:, perm], c2.G)
        assert sorted(perm) == list(range(c1.n))

    def test_gf13_t9_not_matchable(self):
        # theorem-equivalent pair whose monomial map needs a non-identity
        # diagonal and a row permutation, which the identity-diagonal
        # witness cannot produce; distance and enumerator coincide, so
        # INEQUIVALENT here would be a bug
        f = make_field(13)
        c1 = build_code(f, empty_tetrahedron(1, 9))
        c2 = build_code(f, empty_tetrahedron(2, 9))
        v = witness_equivalence(c1, c2)
        assert v.status == INCONCLUSIVE

    def test_shape_mismatch(self):
        c1 = build_code(make_field(5), empty_tetrahedron(1, 2))
        c2 = build_code(make_field(5), width1_representative((2, 2)))
        with pytest.raises(ShapeMismatch):
            witness_equivalence(c1, c2)
        c3 = build_code(make_field(7), empty_tetrahedron(1, 2))
        with pytest.raises(ShapeMismatch):
            witness_equivalence(c1, c3)


class TestDim4Theorem:
    def test_same_s_gcd(self):
        assert dim4_theorem_verdict(7, 1, 1, 1, 5).status == EQUIVALENT
        assert dim4_theorem_verdict(7, 1, 2, 1, 3).status == INEQUIVALENT

    def test_same_t_white_orbit(self):
        v = dim4_theorem_verdict(7, 1, 4, 3, 4)
        assert v.status == EQUIVALENT  # 3 = -1 mod 4

    def test_same_t_neither(self):
        # 2 is not +-1^(+-1) mod gcd(5, 10) = 5
        v = dim4_theorem_verdict(11, 1, 5, 2, 5)
        assert v.status == INEQUIVALENT
        assert v.detail == "same-t:neither-condition"
        v = dim4_theorem_verdict(13, 1, 9, 2, 9)
        assert v.status == EQUIVALENT
        assert v.detail == "same-t:orbit-mod-gcd"

    def test_same_t_orbit_mod_gcd(self):
        # 1 ~ 8 by the orbit mod 9 and 8 ~ 2 mod gcd(9, 12) = 3, so 1 ~ 2
        assert dim4_theorem_verdict(13, 1, 9, 8, 9).detail == "same-t:lattice-orbit"
        assert dim4_theorem_verdict(13, 8, 9, 2, 9).detail == "same-t:residue-mod-gcd"
        # 4 = 2^-1 mod gcd(21, 28) = 7, but not +-2 mod 7 nor +-2^(+-1) mod 21
        assert dim4_theorem_verdict(29, 4, 21, 2, 21).detail == "same-t:orbit-mod-gcd"

    def test_both_differ_inconclusive(self):
        assert dim4_theorem_verdict(7, 1, 2, 2, 3).status == INCONCLUSIVE

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            dim4_theorem_verdict(7, 2, 4, 1, 4)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16, 17, 29])
def test_same_t_verdicts_match_lattice_maps_mod_q1(q):
    # Over the census sweep, a same-t pair is EQUIVALENT exactly when an
    # exponent map mod q-1 relates the two polytopes (the closure is
    # complete for such maps; equivalences of any other kind are not
    # searched here)
    for t in range(2, q - 1):
        units = [s for s in range(t) if gcd(s, t) == 1]
        for s1 in units:
            for s2 in units:
                thm = dim4_theorem_verdict(q, s1, t, s2, t)
                pa, pb = empty_tetrahedron(s1, t), empty_tetrahedron(s2, t)
                found = lattice_map(pa.points, pb.points, q) is not None
                assert (thm.status == EQUIVALENT) == found, (q, s1, s2, t, thm.detail)
        halves = [s for s in units if 2 * s <= t]
        for sa in halves:
            for sb in halves:
                thm = dim5_theorem_verdict(q, (2, 1), (sa, t), (2, 1), (sb, t))
                pa, pb = (width1_representative((2, 1), s, t) for s in (sa, sb))
                found = lattice_map(pa.points, pb.points, q) is not None
                assert (thm.status == EQUIVALENT) == found, (q, sa, sb, t, thm.detail)


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_no_theorem_inequivalent_between_lattice_mapped_point_sets(q, dim):
    # An exponent map p -> A p + b mod q-1 with det A a unit permutes the
    # torus and scales the columns by x^b, so no INEQUIVALENT may stand
    # between the two point sets it relates
    polys = [FAMILIES[f].make(s, t) for f, s, t in parameter_sweep(q, dim)]
    wrong = []
    for i, pa in enumerate(polys):
        for pb in polys[i + 1 :]:
            thm = theorem_verdict(q, pa, pb)
            if thm.status == INEQUIVALENT and lattice_map(pa.points, pb.points, q):
                wrong.append((pa.describe(), pb.describe(), thm.detail))
    assert not wrong, (q, wrong)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_lattice_mapped_pairs_across_params_are_inconclusive(q):
    # P32(1,1) ~ P32(1,q-3) and P22 ~ P32(1,q-2) by an exponent map mod q-1,
    # checked on G as rows permuted and a diagonal from b, so no theorem
    # may call them inequivalent
    field = make_field(q)
    pairs = [
        (width1_representative((3, 2), 1, 1), width1_representative((3, 2), 1, q - 3)),
        (width1_representative((2, 2)), width1_representative((3, 2), 1, q - 2)),
    ]
    for pa, pb in pairs:
        found = lattice_map(pa.points, pb.points, q)
        assert found and is_monomial_map(field, pa, pb, *found), (pa.describe(), pb.describe())
        assert theorem_verdict(q, pa, pb).status == INCONCLUSIVE


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_only_pairs_sharing_a_family_and_s_or_t_get_a_verdict(q):
    # every criterion needs equal s or equal t, so the census asks the
    # theorem only pairs of one family that share s or t (P22 and P31 as
    # s = t = 0); every other ordered pair must be INCONCLUSIVE
    polys = [FAMILIES[f].make(s, t) for dim in (4, 5) for f, s, t in parameter_sweep(q, dim)]
    polys += [parse_polytope_spec(f"W2:{i}") for i in range(1, 10)]
    polys += [parse_polytope_spec(f"E:{i}") for i in range(1, 5)]

    def buckets(p):
        s, t = p.params if len(p.params) == 2 else (0, 0)
        return {(p.family, "s", s), (p.family, "t", t)}

    decided = [
        (pa.describe(), pb.describe(), v.detail)
        for pa in polys
        for pb in polys
        if not buckets(pa) & buckets(pb)
        and (v := theorem_verdict(q, pa, pb)).status != INCONCLUSIVE
    ]
    assert not decided, (q, decided[:5])


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_verdicts_are_equal_last_keys_in_the_first_shared_bucket(q):
    # the census groups by last keys alone, so over every ordered pair the
    # verdict must be EQUIVALENT exactly when two polytopes of one family
    # have equal last keys in the first bucket both have, named by the first
    # equal key; and any equal key must make the last keys equal
    polys = [FAMILIES[f].make(s, t) for dim in (4, 5) for f, s, t in parameter_sweep(q, dim)]
    polys += [parse_polytope_spec(f"W2:{i}") for i in range(1, 10)]
    polys += [parse_polytope_spec(f"E:{i}") for i in range(1, 5)]
    criteria = [_criteria(q, p) for p in polys]
    for pa, ca in zip(polys, criteria):
        for pb, cb in zip(polys, criteria):
            v = theorem_verdict(q, pa, pb)
            theirs = {bucket: keys for bucket, keys, _ in cb}
            shared = [(ka, theirs[b], otherwise) for b, ka, otherwise in ca if b in theirs]
            if pa.family != pb.family or not shared:
                assert v.status == INCONCLUSIVE, (pa, pb)
                continue
            verdicts = []
            for ka, kb, otherwise in shared:
                equal = [name for (name, a), (_, b) in zip(ka, kb) if a == b]
                assert bool(equal) == (ka[-1][1] == kb[-1][1]), (pa, pb)
                verdicts.append((EQUIVALENT, equal[0]) if equal else (INEQUIVALENT, otherwise))
            assert (v.status, v.detail) == verdicts[0], (pa, pb)


@pytest.mark.parametrize("call", [
    lambda: dim4_theorem_verdict(6, 1, 4, 3, 4),
    lambda: dim5_theorem_verdict(10, (2, 1), (1, 3), (2, 1), (1, 5)),
    lambda: theorem_verdict(2, empty_tetrahedron(0, 1), empty_tetrahedron(0, 1)),
    lambda: dim4_gcd_corollary(12, 5),
])
def test_theorem_entries_reject_a_q_that_is_not_a_field(call):
    # GF(6) once got EQUIVALENT same-t:residue-mod-gcd, while dim4_distance
    # rejected q=6
    with pytest.raises(InvalidField):
        call()


def test_no_criterion_for_width2_pairs():
    for row in (1, 2):
        v = theorem_verdict(7, width2_representative(1), width2_representative(row))
        assert (v.status, v.evidence_kind) == (INCONCLUSIVE, "NONE")


def test_dim4_gcd_corollary():
    assert dim4_gcd_corollary(7, 5) is True
    assert dim4_gcd_corollary(7, 4) is False
    assert dim4_gcd_corollary(8, 7) is False


@pytest.mark.parametrize("t", [0, 2.0, "2"])
def test_dim4_gcd_corollary_needs_an_integer_t(t):
    # as dim4_distance does; 2.0 and "2" once reached gcd and < as a bare TypeError
    with pytest.raises(InvalidParams, match="t must be an integer >= 1"):
        dim4_gcd_corollary(7, t)


class TestDim5Theorem:
    def test_cross_signature(self):
        # no criterion spans two signatures; the witness separates this pair
        v = dim5_theorem_verdict(11, (2, 2), (0, 0), (3, 1), (0, 0))
        assert v.status == INCONCLUSIVE
        field = make_field(11)
        pa, pb = width1_representative((2, 2)), width1_representative((3, 1))
        wit = witness_equivalence(build_code(field, pa), build_code(field, pb))
        assert (wit.status, wit.detail) == (INEQUIVALENT, ("min_distance", 810, 850))

    def test_single_class_signatures(self):
        assert dim5_theorem_verdict(7, (2, 2), (0, 0), (2, 2), (0, 0)).status == EQUIVALENT
        assert dim5_theorem_verdict(7, (3, 1), (0, 0), (3, 1), (0, 0)).status == EQUIVALENT

    def test_sig32_params(self):
        assert (
            dim5_theorem_verdict(7, (3, 2), (1, 2), (3, 2), (1, 2)).status == EQUIVALENT
        )
        # distinct (3,2) parameters are not decided; the witness separates these
        v = dim5_theorem_verdict(7, (3, 2), (1, 1), (3, 2), (1, 2))
        assert v.status == INCONCLUSIVE
        field = make_field(7)
        pa, pb = (width1_representative((3, 2), 1, t) for t in (1, 2))
        wit = witness_equivalence(build_code(field, pa), build_code(field, pb))
        assert (wit.status, wit.detail) == (INEQUIVALENT, ("min_distance", 177, 171))

    def test_sig21_criteria(self):
        assert dim5_theorem_verdict(7, (2, 1), (1, 2), (2, 1), (1, 4)).status == EQUIVALENT
        assert dim5_theorem_verdict(7, (2, 1), (1, 2), (2, 1), (1, 3)).status == INEQUIVALENT
        assert dim5_theorem_verdict(5, (2, 1), (0, 1), (2, 1), (1, 2)).status == INCONCLUSIVE
        # 1 = -2 mod gcd(9, 12) = 3: the reflection p1 -> -p1 + k*p2
        v = dim5_theorem_verdict(13, (2, 1), (1, 9), (2, 1), (2, 9))
        assert v.status == EQUIVALENT
        assert v.detail == "(2,1):reflection-mod-gcd"

    def test_invalid_signature(self):
        with pytest.raises(InvalidParams):
            dim5_theorem_verdict(7, (4, 1), (0, 0), (2, 2), (0, 0))
        with pytest.raises(InvalidParams):  # a list, not a signature tuple
            dim5_theorem_verdict(7, [2, 1], (0, 1), (2, 2), (0, 0))

    @pytest.mark.parametrize("sig,params", [((2, 1), (2, 4)), ((2, 1), (5, 3)), ((3, 2), (0, 0))])
    def test_parameters_that_name_no_polytope(self, sig, params):
        # P21(2,4), P21(5,3) and P32(0,0) have no representative, so no verdict
        with pytest.raises(InvalidParams):
            dim5_theorem_verdict(7, sig, params, sig, params)
        with pytest.raises(InvalidParams):
            dim5_theorem_verdict(7, (2, 2), (0, 0), sig, params)


class TestCensus:
    def test_dim4_sweep_definition(self):
        assert parameter_sweep(5, 4) == [
            (EMPTY_TETRA, s, t) for s, t in ((0, 1), (1, 1), (1, 2), (1, 3), (2, 3))
        ]

    def test_q5_dim4_classes(self):
        entries = census(make_field(5), 4)
        by_class = {}
        for e in entries:
            by_class.setdefault(e.class_id, set()).add((e.s, e.t))
        classes = sorted(by_class.values(), key=len, reverse=True)
        assert {(0, 1), (1, 1), (1, 3), (2, 3)} in classes
        assert {(1, 2)} in classes
        assert all(e.row(5)["theorem_agrees"] for e in entries)

    def test_q7_t5_single_class(self):
        # gcd(5, 6) = 1: every s collapses into one class
        entries = census(make_field(7), 4)
        t5 = {e.class_id for e in entries if e.t == 5}
        assert len(t5) == 1

    def test_q5_dim5_singletons(self):
        entries = census(make_field(5), 5)
        by_family = {}
        for e in entries:
            by_family.setdefault(e.family, []).append(e)
        assert len(by_family["SIG22"]) == 1
        assert len(by_family["SIG31"]) == 1
        sig22_class = by_family["SIG22"][0].class_id
        sig31_class = by_family["SIG31"][0].class_id
        others = {e.class_id for e in entries if e.family not in ("SIG22", "SIG31")}
        assert sig22_class != sig31_class
        assert sig22_class not in others and sig31_class not in others

    def test_equivalent_classes_share_invariants(self):
        entries = census(make_field(5), 4)
        by_class = {}
        for e in entries:
            by_class.setdefault(e.class_id, []).append(e)
        for members in by_class.values():
            assert len({m.code.min_distance_brute().value for m in members}) == 1

    def test_rows_are_serializable(self):
        import json

        entries = census(make_field(5), 4)
        rows = [e.row(5) for e in entries]
        payload = json.loads(json.dumps(rows))
        assert payload[0]["q"] == 5
        assert set(payload[0]) == {
            "q", "family", "s", "t", "n", "k",
            "d_formula_lower", "d_formula_upper", "d_brute",
            "class_id", "theorem_agrees",
        }
