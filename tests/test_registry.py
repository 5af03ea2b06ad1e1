"""The family registry and the dispatches that read it."""

import json
import re

import numpy as np
import pytest
from oracle import dim4_parameter_sweep, dim5_parameter_sweep

from toric3 import classify, formulas
from toric3.classify import (
    INCONCLUSIVE,
    EquivalenceVerdict,
    census,
    dim4_theorem_verdict,
    dim5_theorem_verdict,
    theorem_verdict,
)
from toric3.cli import main
from toric3.errors import InvalidParams, NoFormulaForFamily, OutOfRange
from toric3.formulas import dim5_distance, distance_formula
from toric3.galois import _factor_prime_power, make_field
from toric3.polytopes import (
    CUSTOM,
    EMBEDDED_POLYGON,
    EMPTY_TETRA,
    FAMILIES,
    SIG21,
    SIG22,
    SIG31,
    SIG32,
    WIDTH2,
    LatticePolytope,
    affine_dependence,
    embedded_polygon,
    empty_tetrahedron,
    parameter_sweep,
    parse_polytope_spec,
    width1_representative,
    width2_representative,
)

POLYTOPES = [
    empty_tetrahedron(0, 1),
    empty_tetrahedron(3, 7),
    width1_representative((2, 1), 1, 3),
    width1_representative((2, 2)),
    width1_representative((3, 1)),
    width1_representative((3, 2), 2, 3),
    *(width2_representative(i) for i in range(1, 10)),
    *(embedded_polygon(i) for i in range(1, 5)),
    LatticePolytope(((0, 0, 0), (1, 0, 0), (-1, -1, 0))),
]


def test_every_family_is_covered():
    assert {p.family for p in POLYTOPES} == set(FAMILIES) | {CUSTOM}


@pytest.mark.parametrize("poly", POLYTOPES, ids=lambda p: p.describe())
def test_describe_parses_back(poly):
    assert parse_polytope_spec(poly.describe()) == poly


@pytest.mark.parametrize("tag", [t for t, f in FAMILIES.items() if f.signature])
def test_registered_signature_is_the_affine_dependence_signature(tag):
    fam = FAMILIES[tag]
    poly = fam.make(1, 2) if "%d" in fam.spec else fam.make()
    assert affine_dependence(poly).pair == fam.signature


@pytest.mark.parametrize("spec", ["W2:3", "[(0,0,0);(1,0,0);(0,1,0);(0,0,1)]"])
def test_no_formula_outside_the_formula_families(spec):
    with pytest.raises(NoFormulaForFamily):
        distance_formula(parse_polytope_spec(spec), 7)


def _sweep(q, dim):
    return [FAMILIES[fam].make(s, t) for fam, s, t in parameter_sweep(q, dim)]


@pytest.mark.parametrize("q,dim", [(7, 5), (9, 4)])
def test_equiv_theorem_matches_census_dispatch(capsys, q, dim):
    polys = _sweep(q, dim)
    for pa in polys:
        for pb in polys:
            argv = ["equiv", "--q", str(q), "--a", pa.describe(), "--b", pb.describe(),
                    "--method", "theorem"]
            assert main(argv) == 0
            got = json.loads(capsys.readouterr().out)["theorem"]
            assert got == theorem_verdict(q, pa, pb).to_dict(), (pa, pb)


ORDERS = [q for q in range(3, 65) if _factor_prime_power(q)]


def test_orders_are_the_26_supported_prime_powers():
    assert len(ORDERS) == 26


@pytest.mark.parametrize("q", ORDERS)
def test_parameter_sweep_is_the_old_pair_of_sweeps(q):
    assert parameter_sweep(q, 4) == [(EMPTY_TETRA, s, t) for s, t in dim4_parameter_sweep(q)]
    assert parameter_sweep(q, 5) == dim5_parameter_sweep(q)


@pytest.mark.parametrize("dim", [3, 6])
def test_parameter_sweep_rejects_other_dims(dim):
    with pytest.raises(InvalidParams, match="dim must be 4 or 5"):
        parameter_sweep(7, dim)


def _accepts(call) -> bool:
    try:
        call()
    except InvalidParams:
        return False
    return True


GRID_Q = 16  # the sweep's t <= q-2 covers the whole grid


def _gates(tag, s, t):
    """Whether each function that takes a family's (s, t) accepts this one:
    the constructor, the formula or dim-4 theorem, the width-1 theorem
    (with the pair on either side of a valid one), and the sweep, inside
    the box 1 <= t <= q-2, 0 <= s <= t that it covers."""
    fam = FAMILIES[tag]
    q = GRID_Q
    gates = {"constructor": _accepts(lambda: fam.make(s, t))}
    if tag == EMPTY_TETRA:
        gates["dim4_theorem_verdict a"] = _accepts(lambda: dim4_theorem_verdict(q, s, t, 0, 1))
        gates["dim4_theorem_verdict b"] = _accepts(lambda: dim4_theorem_verdict(q, 0, 1, s, t))
    else:
        sig = fam.signature
        gates["dim5_distance"] = _accepts(lambda: dim5_distance(sig, q, s, t))
        gates["dim5_theorem_verdict a"] = _accepts(
            lambda: dim5_theorem_verdict(q, sig, (s, t), (2, 2), (0, 0)))
        gates["dim5_theorem_verdict b"] = _accepts(
            lambda: dim5_theorem_verdict(q, (2, 2), (0, 0), sig, (s, t)))
    if 1 <= t <= q - 2 and 0 <= s <= t:
        dim = 4 if tag == EMPTY_TETRA else 5
        gates["parameter_sweep"] = (tag, s, t) in parameter_sweep(q, dim)
    return gates


@pytest.mark.parametrize("tag", [EMPTY_TETRA, SIG21, SIG22, SIG31, SIG32])
def test_every_gate_accepts_the_same_parameters(tag):
    # a family without parameters accepts only (0, 0), what the sweep emits
    disagree, accepted = [], []
    for t in range(-1, 14):
        for s in range(-3, 15):
            gates = _gates(tag, s, t)
            if gates["constructor"]:
                accepted.append((s, t))
            if len(set(gates.values())) != 1:
                disagree.append((s, t, gates))
    assert not disagree, disagree[:3]
    if FAMILIES[tag].admits is None:
        assert accepted == [(0, 0)]
        assert (tag, 0, 0) in parameter_sweep(GRID_Q, 5)
    else:
        assert len(accepted) > 20


@pytest.mark.parametrize("tag,message", [
    (EMPTY_TETRA, "empty tetrahedron needs t >= 1, gcd(s,t)=1; got (2,4)"),
    (SIG21, "(2,1) needs 0 <= s <= t/2, gcd(s,t)=1; got (2,4)"),
    (SIG32, "(3,2) needs 0 < s <= t, gcd(s,t)=1; got (2,4)"),
])
def test_rejections_keep_their_messages(tag, message):
    fam = FAMILIES[tag]
    calls = [lambda: fam.make(2, 4)]
    if fam.signature:
        calls.append(lambda: dim5_distance(fam.signature, 7, 2, 4))
    for call in calls:
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("tag,params", [(EMPTY_TETRA, (2, 4)), (SIG22, (5, 7)), (SIG21, (1,))])
def test_a_tagged_polytope_meets_its_family_rule(tag, params):
    # T(2,4) over GF(7) used to get a formula distance while theorem_verdict
    # rejected it; now no polytope carries params its constructor rejects
    fam = FAMILIES[tag]
    points = (fam.make(1, 4) if fam.admits else fam.make()).points
    with pytest.raises(InvalidParams) as made:
        fam.make(*params)
    with pytest.raises(InvalidParams, match=f"^{re.escape(str(made.value))}$"):
        LatticePolytope(points, tag, params)


@pytest.mark.parametrize("tag,params", [(EMPTY_TETRA, (1, 4, 3)), (SIG22, (0, 0)), (SIG32, ())])
def test_a_tagged_polytope_has_its_family_arity(tag, params):
    fam = FAMILIES[tag]
    points = (fam.make(1, 4) if fam.admits else fam.make()).points
    with pytest.raises(InvalidParams):
        LatticePolytope(points, tag, params)


@pytest.mark.parametrize("poly", [p for p in POLYTOPES if p.family != CUSTOM],
                         ids=lambda p: p.describe())
def test_a_tagged_polytope_has_its_row_points(poly):
    assert LatticePolytope(poly.points, poly.family, poly.params) == poly
    # equal floats are kept as the row's integers
    floats = tuple(tuple(map(float, p)) for p in poly.points)
    kept = LatticePolytope(floats, poly.family, poly.params).points
    assert kept == poly.points and all(type(a) is int for p in kept for a in p)
    others = {p.points for p in POLYTOPES} - {poly.points} | {poly.points[::-1]}
    for points in others:
        with pytest.raises(InvalidParams):
            LatticePolytope(points, poly.family, poly.params)


@pytest.mark.parametrize("points,tag,params,error", [
    # over GF(7), theorem_verdict called these T(1,3) points, tagged T(1,2),
    # EQUIVALENT to T(1,2), though the distances are 171 and 178
    (empty_tetrahedron(1, 3).points, EMPTY_TETRA, (1, 2), InvalidParams),
    (((0, 0, 0), (1, 0, 0), (0, 0, 1), (5, 7, 1)), EMPTY_TETRA, (1, 2), InvalidParams),
    # describe() raised a bare TypeError on it
    (((0, 0, 0), (1, 0, 0)), EMBEDDED_POLYGON, (), InvalidParams),
    # accepted as W2:42
    (width2_representative(1).points, WIDTH2, (42,), OutOfRange),
], ids=["T(1,3) as T(1,2)", "not a family's as T(1,2)", "E without i", "W2:42"])
def test_a_tagged_polytope_is_refused_off_its_row(points, tag, params, error):
    with pytest.raises(error):
        LatticePolytope(points, tag, params)


def test_every_theorem_entry_reaches_the_one_dispatch(monkeypatch):
    pairs, read = [], []

    def recorded(q, pa, pb):
        pairs.append((pa.describe(), pb.describe()))
        return EquivalenceVerdict(INCONCLUSIVE, "NONE")

    criteria = classify._criteria

    def counted(q, poly):
        read.append(poly.describe())
        return criteria(q, poly)

    monkeypatch.setattr(classify, "theorem_verdict", recorded)
    monkeypatch.setattr(classify, "_criteria", counted)
    dim4_theorem_verdict(7, 1, 4, 3, 4)
    dim5_theorem_verdict(7, (2, 2), (0, 0), (2, 1), (1, 3))
    assert pairs == [("T(1,4)", "T(3,4)"), ("P22", "P21(1,3)")]
    # the census asks no pair: it reads each entry's criteria once
    entries = census(make_field(5), 5)
    assert pairs[2:] == []
    assert read == [e.polytope.describe() for e in entries]


@pytest.mark.parametrize("make", [
    lambda: empty_tetrahedron(1.0, 2),
    lambda: empty_tetrahedron(1, "2"),
    lambda: width1_representative((3, 2), 1, 2.5),
    lambda: width1_representative((2, 1), 0.5, 3),
    lambda: LatticePolytope(empty_tetrahedron(1, 2).points, EMPTY_TETRA, (1, 2.0)),
    lambda: dim5_distance((3, 2), 7, 1.0, 2),
])
def test_non_integer_params_are_invalid(make):
    # the rule's gcd took a float with a bare TypeError
    with pytest.raises(InvalidParams):
        make()


def test_integer_params_of_any_integer_type_are_accepted():
    for s, t in [(1, 2), (np.int64(1), 2), (1, np.int32(2)), (True, 2)]:
        assert empty_tetrahedron(s, t).params == (s, t)
        assert width1_representative((3, 2), s, t).params == (s, t)


def test_distance_formula_trusts_a_tagged_polytope(monkeypatch):
    # a width-1 polytope met its rule when it was made, so its formula
    # builds no second representative; dim5_distance builds one
    polys = [FAMILIES[f].make(s, t) for f, s, t in parameter_sweep(13, 5)]
    want = [dim5_distance(FAMILIES[p.family].signature, 13, *p.params) for p in polys]

    def refuse(*args):
        raise AssertionError("width1_representative called")

    monkeypatch.setattr(formulas, "width1_representative", refuse)
    assert [distance_formula(p, 13) for p in polys] == want
    with pytest.raises(AssertionError):
        dim5_distance((2, 2), 13)
