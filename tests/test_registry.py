"""The family registry and the dispatches that read it."""

import json

import pytest

from toric3.classify import dim4_parameter_sweep, dim5_parameter_sweep, theorem_verdict
from toric3.cli import main
from toric3.errors import NoFormulaForFamily
from toric3.formulas import distance_formula
from toric3.polytopes import (
    CUSTOM,
    EMPTY_TETRA,
    FAMILIES,
    LatticePolytope,
    affine_dependence,
    embedded_polygon,
    empty_tetrahedron,
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
    if dim == 4:
        tuples = [(EMPTY_TETRA, s, t) for s, t in dim4_parameter_sweep(q)]
    else:
        tuples = dim5_parameter_sweep(q)
    return [FAMILIES[fam].make(s, t) for fam, s, t in tuples]


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
