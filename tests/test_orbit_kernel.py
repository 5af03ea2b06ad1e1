"""The torus-orbit kernel: equal to the projective-class loop it replaced
in torus dimensions 1, 2 and 3, orbit representatives checked against
breadth-first orbits, and the declared range q <= 64 computable."""

import json
import random
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from toric3 import codes
from toric3.classify import _census_entries
from toric3.cli import main
from toric3.codes import _box_sides, _orbit_box, build_code
from toric3.errors import ShapeMismatch
from toric3.formulas import degenerate_distance, dim5_distance
from toric3.galois import make_field
from toric3.polytopes import (
    FAMILIES,
    LatticePolytope,
    embedded_polygon,
    parameter_sweep,
    parse_polytope_spec,
)

from oracle import generator_matrix_reference, is_hermite_normal_form, projective_reference

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def kernel(code):
    return code.max_zeros(), code.min_distance_brute().value, code.weight_enumerator()


def alone(code):
    """The kernel's (zeros, classes) blocks for a batch of code alone."""
    sides = _box_sides([code._points], code.field.q - 1)
    blocks = codes._zero_counts(code.field, [code._points], sides)
    return [(zeros, classes) for _, zeros, classes in blocks]


@pytest.mark.parametrize("q,dim", [(5, 4), (7, 4), (8, 4), (9, 4), (5, 5), (7, 5)])
def test_census_entries_match_the_projective_loop(q, dim):
    # an entry inherits the distance and the enumerator from the first code
    # with its column key; each is checked against the tuple's own code
    field = make_field(q)
    for e in _census_entries(field, dim):
        mz, d, enum = projective_reference(build_code(field, e.polytope))
        assert (e.row(q)["d_brute"], kernel(e.code)) == (d, (mz, d, enum)), e.polytope.describe()


SPECS = [f"W2:{i}" for i in range(1, 10)] + [f"E:{i}" for i in range(1, 5)] + [
    "[(0,0,0);(1,0,0);(0,1,0);(0,0,1);(-1,-1,2);(2,1,-1)]",
]


@pytest.mark.parametrize("spec", SPECS)
def test_other_polytopes_match_the_projective_loop(spec):
    code = build_code(make_field(7), parse_polytope_spec(spec))
    assert kernel(code) == projective_reference(code)


def planar(i):
    return LatticePolytope(tuple(p[:2] for p in embedded_polygon(i).points))


LOW_DIM = [planar(i) for i in range(1, 5)] + [
    LatticePolytope(((0, 0), (1, 0), (0, 1), (-1, -1), (2, -1))),
    LatticePolytope(((0,), (1,), (2,))),
]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
@pytest.mark.parametrize("poly", LOW_DIM, ids=lambda p: str(p.points))
def test_low_dimensional_tori_match_the_projective_loop(q, poly):
    code = build_code(make_field(q), poly)
    assert code.n == (q - 1) ** code.m
    assert kernel(code) == projective_reference(code)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_blocks_split_across_supports_match_the_projective_loop(monkeypatch, rows):
    code = build_code(make_field(7), parse_polytope_spec("P32(1,1)"))
    monkeypatch.setattr(codes, "_WORD_BYTES", 8 * code.n * rows)
    sizes = [len(z) for z, _ in alone(code)]
    assert set(sizes[:-1]) <= {rows} and 0 < sizes[-1] <= rows
    assert kernel(code) == projective_reference(code)


@pytest.mark.parametrize("q,poly", [
    (7, parse_polytope_spec("P32(1,1)")),
    (7, planar(2)),
    (5, parse_polytope_spec("W2:9")),
], ids=["P32(1,1)@GF(7)", "E:2-planar@GF(7)", "W2:9@GF(5)"])
def test_every_block_size_numbers_the_same_representatives(monkeypatch, q, poly):
    # a block of any size, from one row up to the whole range, is built from
    # its index range alone, so the stream concatenates to the same arrays
    code = build_code(make_field(q), poly)

    def stream(rows):
        monkeypatch.setattr(codes, "_WORD_BYTES", 8 * code.n * rows)
        blocks = list(alone(code))
        assert all(len(z) == rows for z, _ in blocks[:-1])
        assert 0 < len(blocks[-1][0]) <= rows
        return [np.concatenate(a) for a in zip(*blocks)]

    whole = stream(1 << 20)
    total = len(whole[0])
    assert total > 20
    for rows in range(1, total + 1):
        got = stream(rows)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole)), rows


@pytest.mark.parametrize("q,poly", [
    (7, parse_polytope_spec("P32(1,1)")),
    (7, parse_polytope_spec("W2:1")),
    (5, LOW_DIM[4]),
    (7, LatticePolytope(((0,), (1,), (2,), (3,)))),
], ids=["P32(1,1)@GF(7)", "W2:1@GF(7)", "pentagon@GF(5)", "segment@GF(7)"])
def test_representatives_run_in_mask_then_c_order(q, poly):
    # supports in mask order, each support's orbit box in np.unravel_index
    # order, which the last three codes pin with boxes of two sides > 1:
    # the enumerator's key order follows this numbering
    field = make_field(q)
    code = build_code(field, poly)
    hom = [(1, *p) for p in code.polytope.points]
    zeros, classes = [], []
    for mask in range(1, 2**code.k):
        support = [i for i in range(code.k) if mask >> i & 1]
        pivots = _orbit_box([hom[i] for i in support], q - 1)
        box = tuple(abs(b[i]) for i, b in enumerate(pivots))
        for digits in zip(*np.unravel_index(np.arange(prod(box)), box)):
            u = [0] * code.k
            for i, e in zip(support, digits):
                u[i] = field.exp_table[e]
            zeros.append(code.count_zeros(u))
            classes.append((q - 1) ** (len(support) - 1) // prod(box))
    got = [np.concatenate(a).tolist() for a in zip(*alone(code))]
    assert got == [zeros, classes]


@pytest.mark.parametrize("q, dim", [(7, 4), (9, 4), (16, 4), (7, 5), (9, 5), (16, 5)])
def test_a_support_box_is_one_then_its_translated_box(q, dim):
    # a lemma on support boxes: the column of ones of H_S is the pivot at
    # the first point p of S, and the other sides are the box of S - p
    for family, s, t in parameter_sweep(q, dim):
        points = FAMILIES[family].make(s, t).points
        for mask in range(1, 2 ** len(points)):
            first, *rest = [p for i, p in enumerate(points) if mask >> i & 1]
            hom = _orbit_box([(1, *p) for p in (first, *rest)], q - 1)
            diffs = _orbit_box([[a - b for a, b in zip(p, first)] for p in rest], q - 1)
            assert [abs(b[i]) for i, b in enumerate(hom)] == [1] + [
                abs(b[i]) for i, b in enumerate(diffs)
            ]


def orbit_box_sides(points, n1):
    """_box_sides the slow way: one _orbit_box of H_S per support."""
    k = len(points)
    sides = np.ones((2**k - 1, k), dtype=np.int64)
    for mask in range(1, 2**k):
        support = [i for i in range(k) if mask >> i & 1]
        pivots = _orbit_box([(1, *points[i]) for i in support], n1)
        sides[mask - 1, support] = [abs(b[i]) for i, b in enumerate(pivots)]
    return sides


@pytest.mark.parametrize("q, dim", [(7, 4), (9, 4), (16, 4), (7, 5), (9, 5), (16, 5)])
def test_box_sides_recurrence_matches_one_reduction_per_support(q, dim):
    for family, s, t in parameter_sweep(q, dim):
        points = FAMILIES[family].make(s, t).points
        assert np.array_equal(_box_sides(points, q - 1), orbit_box_sides(points, q - 1))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_box_sides_recurrence_on_random_point_sets(m):
    # coordinates well past q-1, repeated points and q-1 = 1 included
    rng = random.Random(m)
    for _ in range(150):
        k, n1 = rng.randint(1, 6), rng.randint(1, 63)
        points = [tuple(rng.randint(-70, 70) for _ in range(m)) for _ in range(k)]
        if rng.random() < 0.2:
            points[-1] = points[0]
        assert np.array_equal(_box_sides(points, n1), orbit_box_sides(points, n1)), (points, n1)


@pytest.mark.parametrize(
    "q, dim", [(q, dim) for q in (5, 7, 8, 9, 11, 13, 16, 25) for dim in (4, 5)]
)
def test_a_batch_gives_each_code_what_a_pass_of_it_alone_gives(monkeypatch, q, dim):
    # census representatives (the first tuple with each column key, the
    # first 12 of them), enumerated in batches of two codes with 7-row
    # blocks, so that blocks hold rows of two codes and batches cut
    # the sweep, against a pass of each code alone at the default budgets;
    # q = 9 and 25 add in their nibble layout
    field = make_field(q)
    first = {}
    for family, s, t in parameter_sweep(q, dim):
        poly = FAMILIES[family].make(s, t)
        first.setdefault(_orbit_box(poly.points, q - 1), poly)
    polys = list(first.values())[:12]
    alone = [build_code(field, p)._invariants for p in polys]
    batched = [build_code(field, p) for p in polys]
    n = batched[0].n
    # a code's table rows and weight counts, and the shared zero row
    tops = _box_sides([p.points for p in polys], q - 1).max(axis=1)
    sizes = tops.sum(axis=1) * n + 8 * (n + 1)
    monkeypatch.setattr(codes, "_WORD_BYTES", 8 * n * 7)
    monkeypatch.setattr(codes, "_BATCH_BYTES", int(n + sizes[:2].sum()))
    batches, spans, kernel = [], [], codes._zero_counts

    def recorded(field, points, sides):
        batches.append(len(points))
        for c, zeros, classes in kernel(field, points, sides):
            spans.append(len(set(c.tolist())))
            yield c, zeros, classes

    monkeypatch.setattr(codes, "_zero_counts", recorded)
    codes._fill_invariants(batched)
    for code, (d, enum) in zip(batched, alone):
        assert code._invariants[0] == d, code.polytope.describe()
        assert code._invariants[1] == enum
        assert list(code._invariants[1]) == sorted(enum)
    assert sum(batches) == len(polys) and batches[0] == min(2, len(polys))
    # a block whose code indices hold two values spans two codes
    assert len(polys) == 1 or max(spans) == 2


def test_a_batch_refuses_codes_of_different_k():
    # one kernel pass numbers the supports of one k, so T (k=4) and P22
    # (k=5) cannot share it; neither code is left half enumerated
    field = make_field(7)
    pair = [build_code(field, parse_polytope_spec(spec)) for spec in ("T(1,2)", "P22")]
    with pytest.raises(ShapeMismatch):
        codes._fill_invariants(pair)
    assert all(c._enumerated is None for c in pair)


@pytest.mark.parametrize("q,spec", [(7, "P32(1,1)"), (9, "W2:9"), (16, "T(1,9)"), (8, "E:3")])
def test_classes_per_orbit_by_orbit_stabilizer(q, spec):
    # the stabilizer of a codeword of support S in F_q* x torus is one unit
    # per torus point at which S's monomials agree, so an orbit holds
    # (q-1)^(m+1) / agree codewords; N(S) orbits share the (q-1)^|S| of
    # support S, so (q-1)^(|S|-1) / N(S) projective classes per orbit is
    # n / agree
    code = build_code(make_field(q), parse_polytope_spec(spec))
    sides = _box_sides(code.polytope.points, q - 1)
    for mask in range(1, 2**code.k):
        support = [i for i in range(code.k) if mask >> i & 1]
        agree = np.count_nonzero((code.G[support] == code.G[support[0]]).all(axis=0))
        orbits = int(sides[mask - 1].prod())
        assert (q - 1) ** (len(support) - 1) % orbits == 0
        assert (q - 1) ** (len(support) - 1) // orbits * agree == code.n, support


@pytest.mark.parametrize("q,spec", [(7, "P32(1,1)"), (16, "T(1,9)")])
def test_zero_counts_per_row_equal_the_whole_block_count(monkeypatch, q, spec):
    code = build_code(make_field(q), parse_polytope_spec(spec))

    def stream(width):
        monkeypatch.setattr(codes, "_ROW_COUNT_WIDTH", width)
        return [np.concatenate(a) for a in zip(*alone(code))]

    whole, per_row = stream(code.n + 1), stream(code.n)
    assert all(np.array_equal(a, b) for a, b in zip(whole, per_row))


@pytest.mark.parametrize("q", [7, 8, 9, 16, 25, 27, 49])
def test_the_pass_table_holds_the_scaled_rows_of_the_oracle_g(monkeypatch, q):
    # row 0 is zero, and row first_cr + d is alpha^d * G_c[r] in the
    # field's layout, G_c the oracle's product of exponents and torus logs;
    # E:1 has tops q-1 at two points
    field = make_field(q)
    batch = [build_code(field, parse_polytope_spec(spec)) for spec in ("E:1", "T(1,3)")]
    sides = _box_sides([c._points for c in batch], q - 1)
    tops = sides.max(axis=1)
    assert tops.max() > 1
    tables, build = [], codes._monomial_rows

    def recorded(points, digits, words, out):
        tables.append(out.base)  # out is the table without its zero row
        return build(points, digits, words, out)

    monkeypatch.setattr(codes, "_monomial_rows", recorded)
    next(codes._zero_counts(field, [c._points for c in batch], sides))
    [table] = tables
    layout = codes._layout(field)
    words = np.arange(q) if layout is None else layout
    assert table.shape == (1 + tops.sum(), batch[0].n) and not table[0].any()
    rows = iter(table[1:])
    for code, top in zip(batch, tops):
        G = generator_matrix_reference(field, code.polytope.points)
        for r, d in ((r, d) for r in range(code.k) for d in range(top[r])):
            scaled = field.mul_u8[field.exp_u8[d]][G[r]]
            assert np.array_equal(next(rows), words[scaled]), (code.polytope.describe(), r, d)
    assert next(rows, None) is None


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_the_nibble_add_decodes_to_the_add_table(q):
    # every pair (a, b) of GF(p^m), p odd, m > 1, in the kernel's layout
    field = make_field(q)
    layout = codes._layout(field)
    decode = np.zeros(1 << 12, dtype=np.uint8)
    decode[layout] = np.arange(q)
    assert layout[0] == 0 and len(set(layout.tolist())) == q
    a, b = np.repeat(layout, q), np.tile(layout, q)
    assert np.array_equal(decode[codes._add_words(field, a, b)], field.add_table.ravel())
    assert all(codes._layout(make_field(q)) is None for q in (7, 8, 16, 61, 64))


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_the_kernel_reads_no_add_table_in_a_nibble_field(monkeypatch, q):
    # the pass passes its sum and moment checks and gives the closed form,
    # and encode and count_zeros, whose _words gathered from add_u8, give
    # with the add tables patched away what they gave before
    field = make_field(q)
    code = build_code(field, parse_polytope_spec("P21(1,3)"))
    u = np.random.default_rng(q).integers(0, q, code.k).tolist()
    word, zeros = code.encode(u), code.count_zeros(u)
    for name in ("add_table", "add_u8"):
        if hasattr(field, name):
            monkeypatch.setattr(field, name, None)
    d = code.min_distance_brute().value
    assert d == dim5_distance((2, 1), q, 1, 3).value and code.n - zeros >= d
    assert np.array_equal(code.encode(u), word) and code.count_zeros(u) == zeros


def test_product_theorem_at_q32():
    # d3 = (q-1) d2 for the polygons with a closed form
    q = 32
    d2 = [build_code(make_field(q), planar(i)).min_distance_brute().value for i in (1, 2, 3)]
    assert d2 == [868, 899, 900]
    assert [(q - 1) * d for d in d2] == [degenerate_distance(i, q).value for i in (1, 2, 3)]


def test_recorded_invariants_match():
    # perfbench/reference.json was recorded with the projective-class loop
    records = json.loads(REFERENCE.read_text())["invariants"]
    assert records
    for key, rec in records.items():
        spec, q = key.split("@GF(")
        code = build_code(make_field(int(q.rstrip(")"))), parse_polytope_spec(spec))
        enum = {int(w): c for w, c in rec["enumerator"].items()}
        assert (code.n, code.k, code.min_distance_brute().value) == (rec["n"], rec["k"], rec["d"])
        assert code.weight_enumerator() == enum, key


def orbit_of_zero(gens, r, n1):
    """Breadth-first orbit of 0 in (Z/n1)^r under adding the generators."""
    seen = {(0,) * r}
    frontier = list(seen)
    while frontier:
        nxt = []
        for y in frontier:
            for g in gens:
                z = tuple((a + b) % n1 for a, b in zip(y, g))
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def check_orbit_box(r, n1, gens):
    rows = [[g[i] for g in gens] for i in range(r)]  # generators are columns
    pivots = _orbit_box(rows, n1)
    assert is_hermite_normal_form(pivots), (n1, gens, pivots)
    box = [b[i] for i, b in enumerate(pivots)]
    orbit = orbit_of_zero(gens, r, n1)
    assert prod(box) * len(orbit) == n1**r, (n1, gens)
    cosets = {
        min(tuple((a + b) % n1 for a, b in zip(y, z)) for z in orbit)
        for y in product(*(range(h) for h in box))
    }
    assert len(cosets) == prod(box), (n1, gens)


@pytest.mark.parametrize("r,n1", list(product(range(1, 4), range(2, 9))))
def test_orbit_box_against_breadth_first_orbit(r, n1):
    rng = random.Random(r * 100 + n1)
    for c in range(4):
        for _ in range(6):
            check_orbit_box(r, n1, [[rng.randint(-7, 7) for _ in range(r)] for _ in range(c)])


def test_orbit_box_of_homogenized_exponents():
    # columns (1, p) with negative exponents, as the kernel passes them
    check_orbit_box(3, 6, [[1, 1, 1], [0, -1, 2], [-1, 0, 1], [2, 3, -1]])
    check_orbit_box(2, 8, [[1, 1], [-4, 4], [0, 2], [0, 0]])


def test_mindist_at_q64(capsys):
    argv = ["mindist", "--q", "64", "--poly", "T(1,4)", "--method", "both"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["consistent"] is True
    assert out["brute"]["lower"] == out["brute"]["upper"] == 246078


def test_dim5_at_q19():
    code = build_code(make_field(19), parse_polytope_spec("P32(1,1)"))
    f = dim5_distance((3, 2), 19, 1, 1)
    assert (f.lower, f.upper) == (5505, 5506)
    assert f.lower <= code.min_distance_brute().value <= f.upper
    assert sum(code.weight_enumerator().values()) == 19**5


def test_dim5_at_q64():
    # the top of the range: k = 5, n = 63^3, G one byte per entry
    code = build_code(make_field(64), parse_polytope_spec("P32(1,1)"))
    assert code.G.dtype == np.uint8 and not code.G.flags.writeable
    assert code.G.nbytes == code.k * code.n
    f = dim5_distance((3, 2), 64, 1, 1)
    assert f.lower <= code.min_distance_brute().value == 246075 <= f.upper
    assert sum(code.weight_enumerator().values()) == 64**5


def test_verify_up_to_q13(capsys):
    assert main(["verify", "--q", "8,9,11,13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * 5
    assert all(" PASS " in line for line in lines)


@pytest.mark.parametrize("spec,d", [("P21(1,3)", 242109), ("W2:9", 245979), ("E:1", 238140)])
def test_distances_at_q64(spec, d):
    # k=5 codes whose boxes have sides of 3 and 63 (P21(1,3)) and the k=4
    # segment E:1, whose pass scales G's rows the most times
    code = build_code(make_field(64), parse_polytope_spec(spec))
    assert code.min_distance_brute().value == d
    assert sum(code.weight_enumerator().values()) == 64**code.k


@pytest.mark.parametrize("q,spec", [(16, "T(1,9)"), (11, "P32(1,1)"), (9, "W2:9"), (7, "E:1")])
def test_the_kernel_never_evaluates_through_words(monkeypatch, q, spec):
    # the kernel copies rows of its scaled table; _words stays the
    # evaluator of encode, count_zeros and the projective reference
    code = build_code(make_field(q), parse_polytope_spec(spec))
    want = projective_reference(code)

    def refuse(self, block):
        raise AssertionError("_invariants called ToricCode._words")

    monkeypatch.setattr(codes.ToricCode, "_words", refuse)
    assert kernel(code) == want


def test_scaled_tables_fit_the_budget_at_q64():
    # a pass keeps one zero row and top_r rows alpha^d * G[r] per point r,
    # d below the largest box side top_r at r; k + sum(top_r) rows bound them
    n1 = 63
    polytopes = [FAMILIES[f].make(s, t).points for dim in (4, 5)
                 for f, s, t in parameter_sweep(64, dim)]
    polytopes += [parse_polytope_spec(f"W2:{i}").points for i in range(1, 10)]
    polytopes += [parse_polytope_spec(f"E:{i}").points for i in range(1, 5)]
    worst = max((len(p) + int(_box_sides(p, n1).max(axis=0).sum())) * n1**3 for p in polytopes)
    assert worst <= 1 << 25
