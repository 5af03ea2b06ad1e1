"""Columns matched as rows of G's own view, and codewords from the one
evaluator, each against a plain Python reference."""

import random
from collections import Counter
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from toric3 import classify
from toric3.classify import EQUIVALENT, _census_entries, census, witness_equivalence
from toric3.codes import ToricCode, _orbit_box, build_code
from toric3.errors import InternalCheckFailed
from toric3.galois import make_field
from toric3.polytopes import (
    EMBEDDED_POLYGON,
    FAMILIES,
    WIDTH2,
    LatticePolytope,
    det,
    empty_tetrahedron,
    parameter_sweep,
    parse_polytope_spec,
)

from oracle import certificate_holds, exponent_perm, is_hermite_normal_form, torus_points


def _reference_perm(c1, c2):
    """A permutation pairing equal columns, by a stable Python sort of the
    column tuples, or None when the column multisets differ."""
    cols1, cols2 = (list(map(tuple, c.G.T.tolist())) for c in (c1, c2))
    order1 = sorted(range(c1.n), key=cols1.__getitem__)
    order2 = sorted(range(c2.n), key=cols2.__getitem__)
    if [cols1[i] for i in order1] != [cols2[j] for j in order2]:
        return None
    perm = [0] * c1.n
    for i, j in zip(order1, order2):
        perm[j] = i
    return perm


@pytest.mark.parametrize("q, dim", [(7, 5), (9, 4)])
def test_witness_permutation_equals_the_reference(q, dim):
    # each tuple's own code: the census keeps only one code per column key
    field = make_field(q)
    codes = [build_code(field, e.polytope) for e in _census_entries(field, dim)]
    matched = tied = 0
    for c1, c2 in combinations(codes, 2):
        wit = witness_equivalence(c1, c2)
        ref = _reference_perm(c1, c2)
        A = classify._unit_exponent_map(c1, c2.polytope.points)
        # equal column multisets, and only they, give a certificate and a witness
        assert (A is not None) == (ref is not None) == (wit.evidence_kind == "WITNESS")
        if ref is not None:
            assert wit.status == EQUIVALENT
            assert certificate_holds(c1, c2, A)
            assert np.array_equal(wit.detail, exponent_perm(c1, A))
            matched += 1
            # repeated columns, where many permutations pair equal columns
            tied += np.unique(c1.G, axis=1).shape[1] < c1.n
    assert matched and tied


def _random_points(rng, q, m, k):
    """k exponent vectors of length m, distinct mod q-1, with negative
    entries and entries beyond q."""
    while True:
        pts = [tuple(rng.randint(-2 * q, 2 * q) for _ in range(m)) for _ in range(k)]
        if len({tuple(a % (q - 1) for a in p) for p in pts}) == k:
            return pts


def _related_points(rng, q, pts):
    """pts with a random unimodular change of torus coordinates, random
    multiples of q-1 added, and, one time in three, two rows swapped:
    the first two keep the column multiset, the swap in general does not."""
    m = len(pts[0])
    A = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        if i == j:
            A[i] = [-a for a in A[i]]
        else:
            c = rng.randint(-2, 2)
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    out = [
        tuple(
            sum(p[l] * A[l][j] for l in range(m)) + (q - 1) * rng.randint(-1, 1)
            for j in range(m)
        )
        for p in pts
    ]
    if rng.random() < 1 / 3:
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13])
def test_column_key_decides_equal_column_multisets(q):
    rng, field = random.Random(q), make_field(q)
    pairs = equal = 0
    for m, k in product((1, 2, 3), range(2, 6)):
        if k > (q - 1) ** m:
            continue
        codes = []
        for _ in range(4):
            pts = _random_points(rng, q, m, k)
            codes.append(build_code(field, LatticePolytope(tuple(pts))))
            for _ in range(2):
                codes.append(build_code(field, LatticePolytope(tuple(_related_points(rng, q, pts)))))
        keys = [_orbit_box(c.polytope.points, q - 1) for c in codes]
        for c, hnf in zip(codes, keys):
            assert is_hermite_normal_form(hnf), (c.polytope.points, hnf)
            assert type(hnf) is tuple and all(type(row) is tuple for row in hnf)
        cols = [sorted(map(tuple, c.G.T.tolist())) for c in codes]
        for (c1, key1, s1), (c2, key2, s2) in combinations(zip(codes, keys, cols), 2):
            pairs += 1
            equal += s1 == s2
            assert (key1 == key2) == (s1 == s2), (c1.polytope.points, c2.polytope.points)
    assert 0 < equal < pairs


def test_column_tuples_is_a_read_only_view_of_g():
    code = build_code(make_field(7), empty_tetrahedron(1, 3))
    cols = code.column_tuples()
    assert cols.shape == (code.n, code.k)
    assert np.shares_memory(cols, code.G)
    assert not cols.flags.writeable
    assert [tuple(c) for c in cols.tolist()] == [
        tuple(int(v) for v in code.G[:, j]) for j in range(code.n)
    ]


def test_witness_reads_the_columns_once_per_code(monkeypatch):
    calls = Counter()
    column_tuples = ToricCode.column_tuples

    def counted(self):
        calls[id(self)] += 1
        return column_tuples(self)

    monkeypatch.setattr(ToricCode, "column_tuples", counted)
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(s, 4)) for s in (1, 3))
    assert witness_equivalence(c1, c2).status == EQUIVALENT
    assert calls == Counter({id(c1): 1, id(c2): 1})


def _stable_sort_perm(c1, c2):
    """The witness permutation from two stable numpy sorts of the columns."""
    perm = np.empty(c1.n, dtype=np.intp)
    perm[np.lexsort(c2.G[::-1])] = np.lexsort(c1.G[::-1])
    return perm


CENSUS_RUNS = [(q, 4) for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)] + [
    (q, 5) for q in (5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)
]


@pytest.mark.parametrize("q, dim", CENSUS_RUNS)
def test_every_census_witness_is_the_stable_sort_permutation(q, dim):
    # each code against the first code with its key: the witness is x -> A*x,
    # checked on G, and the stable-sort permutation where no column repeats
    field = make_field(q)
    first = {}
    witnessed = 0
    for family, s, t in parameter_sweep(q, dim):
        code = build_code(field, FAMILIES[family].make(s, t))
        if (kept := first.setdefault(_orbit_box(code.polytope.points, q - 1), code)) is not code:
            wit = witness_equivalence(kept, code)
            A = classify._unit_exponent_map(kept, code.polytope.points)
            assert certificate_holds(kept, code, A)
            assert np.array_equal(wit.detail, exponent_perm(kept, A))
            if not _repeats_a_column(kept):
                assert np.array_equal(wit.detail, _stable_sort_perm(kept, code))
            witnessed += 1
    assert witnessed


@pytest.mark.parametrize("q, dim", CENSUS_RUNS)
def test_every_census_certificate_permutes_the_columns_of_g(q, dim):
    # the census sweep with E:1-4 (dim 4) or W2:1-9 (dim 5) added: every code
    # whose key an earlier code has gets a unit-determinant A, checked on both
    # codes' G by the oracle for q <= 16
    field = make_field(q)
    extra, count = [(EMBEDDED_POLYGON, 4), (WIDTH2, 9)][dim - 4]
    polys = [FAMILIES[f].make(s, t) for f, s, t in parameter_sweep(q, dim)]
    polys += [FAMILIES[extra].make(i) for i in range(1, count + 1)]
    first = {}
    certified = 0
    for poly in polys:
        if len({tuple(a % (q - 1) for a in p) for p in poly.points}) < poly.k:
            continue  # two points collide mod q-1: no code over GF(q)
        key = _orbit_box(poly.points, q - 1)
        if key not in first:
            first[key] = build_code(field, poly)
            continue
        kept = first[key]
        A = classify._unit_exponent_map(kept, poly.points)
        assert A is not None and gcd(det(A), q - 1) == 1, poly.describe()
        if q <= 16:
            assert certificate_holds(kept, build_code(field, poly), A), poly.describe()
        certified += 1
    assert certified


def test_gf7_singular_first_map_is_certified_by_the_kernel_search(monkeypatch):
    # P21(1,2) ~ P21(1,4) over GF(7): back-substitution gives A0 = diag(1, 2, 1),
    # even det, and adding 1 times the kernel row (0, 3, 0) to its middle
    # column gives diag(1, 5, 1), a unit mod 6
    field = make_field(7)
    c1, c2 = (build_code(field, parse_polytope_spec(f"P21(1,{t})")) for t in (2, 4))
    assert c1._tracked_basis[1] == [(6, 0, 0), (0, 3, 0), (0, 0, 6)]
    dets = []
    monkeypatch.setattr(classify, "det", lambda rows: dets.append(rows) or det(rows))
    A = classify._unit_exponent_map(c1, c2.polytope.points)
    assert dets[0] == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    assert A == [[1, 0, 0], [0, 5, 0], [0, 0, 1]]
    assert certificate_holds(c1, c2, A)


def _repeats_a_column(code):
    return len(set(map(bytes, np.ascontiguousarray(code.G.T)))) < code.n


def _tied_census_pairs(q, dim):
    """(first code with the key, code) for the census witnesses whose
    codes have repeated columns."""
    field = make_field(q)
    first, repeats, pairs = {}, {}, []
    for family, s, t in parameter_sweep(q, dim):
        code = build_code(field, FAMILIES[family].make(s, t))
        kept = first.setdefault(_orbit_box(code.polytope.points, q - 1), code)
        if kept is code:
            # a key's codes share one column multiset
            repeats[kept] = _repeats_a_column(kept)
        elif repeats[kept]:
            pairs.append((kept, code))
    return pairs


@pytest.mark.parametrize("q, dim", [(16, 4), (16, 5), (25, 4), (25, 5)])
def test_tied_census_witnesses_equal_the_reference(q, dim):
    pairs = _tied_census_pairs(q, dim)
    assert pairs
    for c1, c2 in pairs[:8]:
        A = classify._unit_exponent_map(c1, c2.polytope.points)
        assert _reference_perm(c1, c2) is not None and certificate_holds(c1, c2, A)
        assert np.array_equal(witness_equivalence(c1, c2).detail, exponent_perm(c1, A))


@pytest.mark.parametrize("q", [5, 7, 9, 13, 16])
def test_witness_on_related_points_equals_the_reference(q):
    # points related by a unimodular map, on m = 1, 2, 3, whose first exponent
    # map A0 may be singular mod q-1; first coordinates spaced by a divisor p
    # of q-1 repeat every column p times
    rng, field = random.Random(q), make_field(q)
    p = min(d for d in range(2, q) if (q - 1) % d == 0)
    matched, tied = Counter(), Counter()
    for m, k in product((1, 2, 3), range(2, 6)):
        if k > (q - 1) ** m:
            continue
        spaced = [
            [(p * a, *(rng.randint(-q, q) for _ in range(m - 1))) for a in range(k)]
        ] if k <= (q - 1) // p else []
        for pts in spaced + [_random_points(rng, q, m, k) for _ in range(3)]:
            c1 = build_code(field, LatticePolytope(tuple(pts)))
            for _ in range(3):
                c2 = build_code(field, LatticePolytope(tuple(_related_points(rng, q, pts))))
                A = classify._unit_exponent_map(c1, c2.polytope.points)
                if _orbit_box(c1.polytope.points, q - 1) != _orbit_box(c2.polytope.points, q - 1):
                    assert A is None and _reference_perm(c1, c2) is None
                    continue
                assert _reference_perm(c1, c2) is not None and certificate_holds(c1, c2, A)
                wit = witness_equivalence(c1, c2)
                assert np.array_equal(wit.detail, exponent_perm(c1, A))
                # the witness reads basis and kernel as one normal form gives them
                basis, kernel = c1._tracked_basis
                rows = [b + c for b, c in basis] + [(0,) * c1.k + h for h in kernel]
                assert is_hermite_normal_form(rows), rows
                matched[m] += 1
                tied[m] += _repeats_a_column(c1)
    assert all(matched[m] and tied[m] for m in (1, 2, 3)), (matched, tied)


def test_a_faked_key_with_a_non_bijective_map_raises(monkeypatch):
    field = make_field(5)
    c1, c2 = (build_code(field, empty_tetrahedron(s, t)) for s, t in ((0, 1), (1, 2)))
    monkeypatch.setattr(classify, "_orbit_box", lambda points, n1: ())
    # E2 = E1*A mod 4 holds for this A of det 2, but for no A of odd det:
    # the lattices differ, so the kernel search finds no unit determinant
    singular = [[1, 0, 0], [1, 2, 0], [0, 0, 1]]
    assert certificate_holds(c1, c2, singular) is False
    assert np.array_equal(c1.G[:, exponent_perm(c1, singular)], c2.G)
    with pytest.raises(InternalCheckFailed, match="T.0,1. vs T.1,2.*no exponent map"):
        witness_equivalence(c1, c2)
    # the other way round, E1 = E2*A mod 4 has no solution
    with pytest.raises(InternalCheckFailed, match="T.1,2. vs T.0,1.*no exponent map"):
        witness_equivalence(c2, c1)
    # handed the singular map, z = A*x hits half the torus, yet it maps each
    # column of G2 to an equal column of G1: the bijection check stops it
    monkeypatch.setattr(classify, "_unit_exponent_map", lambda c1, points: singular)
    with pytest.raises(InternalCheckFailed, match="T.0,1. vs T.1,2.*not a bijection"):
        witness_equivalence(c1, c2)


@pytest.fixture
def sorts(monkeypatch):
    """Calls of np.lexsort, np.argsort and np.sort, by name."""
    calls = []
    for name in ("lexsort", "argsort", "sort"):
        def counted(*args, _name=name, _sort=getattr(np, name), **kwargs):
            calls.append(_name)
            return _sort(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls


def test_census_sorts_no_columns(sorts, monkeypatch):
    # GF(7) width 1: 18 entries, 3 with the key of an earlier entry, all 3
    # proved by an integer certificate, 1 after the kernel search; no witness
    witnessed = []
    witness = classify.witness_equivalence
    monkeypatch.setattr(
        classify, "witness_equivalence", lambda c1, c2: witnessed.append(c2) or witness(c1, c2)
    )
    entries = census(make_field(7), 5)
    assert len(entries) == 18 and witnessed == []
    assert sorts == []


def test_witness_on_unmatched_codes_sorts_and_reads_nothing(sorts, monkeypatch):
    read = []
    column_tuples = ToricCode.column_tuples
    monkeypatch.setattr(
        ToricCode, "column_tuples", lambda self: read.append(self) or column_tuples(self)
    )
    field = make_field(7)
    c1, c2 = (build_code(field, empty_tetrahedron(1, t)) for t in (2, 3))
    assert witness_equivalence(c1, c2).evidence_kind == "INVARIANT"
    assert sorts == [] and read == []
    assert "_tracked_basis" not in vars(c1) and "_tracked_basis" not in vars(c2)


@pytest.mark.parametrize("q, specs", [(8, ("T(1,3)", "T(2,3)")), (7, ("T(1,4)", "T(3,4)"))])
def test_witness_sorts_nothing(sorts, q, specs):
    # GF(7) T(s,4): gcd(4, 6) = 2, so every column repeats twice
    field = make_field(q)
    c1, c2 = (build_code(field, parse_polytope_spec(spec)) for spec in specs)
    assert witness_equivalence(c1, c2).status == EQUIVALENT
    assert witness_equivalence(c2, c1).status == EQUIVALENT
    assert sorts == []
    assert _repeats_a_column(c1) == (q == 7)


@pytest.mark.parametrize("q, spec", [(5, "T(1,2)"), (7, "P21(1,3)"), (8, "T(1,3)")])
def test_codewords_equal_pointwise_evaluation(q, spec):
    field = make_field(q)
    poly = parse_polytope_spec(spec)
    code = build_code(field, poly)
    rng = np.random.default_rng(0)
    block = rng.integers(0, q, size=(6, code.k))
    words = code._words(block)
    for u, word in zip(block.tolist(), words):
        expected = []
        for x in torus_points(field, code.m):
            v = 0
            for c, a in zip(u, poly.points):
                mono = 1
                for xi, ai in zip(x, a):
                    mono = field.mul(mono, field.pow(xi, ai))
                v = field.add(v, field.mul(c, mono))
            expected.append(v)
        assert word.tolist() == expected
        assert code.encode(u).tolist() == expected


# every prime power 3 <= q <= 64
ALL_ORDERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47,
              49, 53, 59, 61, 64]


@pytest.mark.parametrize("q", ALL_ORDERS)
def test_every_field_sums_codewords_like_its_scalar_arithmetic(q):
    # 1-D torus, n = q-1: XOR for p = 2, add-and-reduce for m = 1,
    # the add-table gather for q = 9, 25, 27, 49
    field = make_field(q)
    points = tuple((a,) for a in range(min(4, q - 1)))
    code = build_code(field, LatticePolytope(points))
    block = np.random.default_rng(q).integers(0, q, size=(16, code.k))
    words = code._words(block)
    assert words.dtype == np.uint8
    xs = torus_points(field, code.m)
    for u, word in zip(block.tolist(), words.tolist()):
        expected = []
        for (x,) in xs:
            v = 0
            for c, (a,) in zip(u, points):
                v = field.add(v, field.mul(c, field.pow(x, a)))
            expected.append(v)
        assert word == expected, u
    # every sum a + b*x: all q^2 coefficient pairs against the int64 tables
    two = build_code(field, LatticePolytope(((0,), (1,))))
    pairs = np.array(list(product(range(q), repeat=2)))
    x = field.exp_table
    expected = field.add_table[pairs[:, :1], field.mul_table[pairs[:, 1:], x]]
    assert np.array_equal(two._words(pairs), expected)
