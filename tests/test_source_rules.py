"""Rules that every module of the package keeps."""

import ast
import builtins
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "toric3").glob("*.py"))


def test_modules_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    """Internal failures raise a Toric3Error subclass: ``python -O``
    strips assert statements, and the CLI turns only Toric3Error into
    exit code 1."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
        or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")
    ]
    assert not bad, f"{path.name}: assert or AssertionError at lines {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_builtin_exception_raised(path):
    """Errors raise a Toric3Error subclass, never a builtin exception
    class such as ValueError: the CLI turns only Toric3Error into an
    exit code, anything else into a traceback."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                bad.append((node.lineno, exc.id))
    assert not bad, f"{path.name}: builtin exception raised at {bad}"


SRC = Path(__file__).resolve().parents[1] / "src" / "toric3"
DISTANCE_PATH = {
    "codes.py": {
        "build_generator_matrix", "_monomial_rows", "_reduced_points", "_words", "_add_words",
        "_layout", "_zero_counts", "_box_sides",
        "_wedge_steps", "_mask_tables", "_invariants", "_fill_invariants",
        "_orbit_box", "_extended_gcd",
    },
    "classify.py": {"_unit_exponent_map", "witness_equivalence"},
    "polytopes.py": {"det"},
}


def test_no_float_in_the_distance_path():
    """Distances, enumerators and merges stay exact: the functions that
    build G, evaluate codewords, count zeros, sum the enumerator, key the
    columns, certify a merge and check a witness use no true division and
    no float type or dtype."""
    bad = []
    for module, names in DISTANCE_PATH.items():
        tree = ast.parse((SRC / module).read_text(), filename=module)
        found = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names
        }
        assert set(found) == names, module
        for name, fn in found.items():
            body = fn.body[ast.get_docstring(fn) is not None:]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    bad.append((module, name, node.lineno, "/"))
                words = [getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "value", None) if isinstance(node, ast.Constant) else None]
                for w in words:
                    if isinstance(w, str) and ("float" in w or w in ("divide", "true_divide")):
                        bad.append((module, name, node.lineno, w))
    assert not bad, f"float arithmetic at {bad}"


CLASSIFY = SRC / "classify.py"


def test_classify_trusts_the_polytopes_it_is_given():
    """A tagged polytope met its family's rule when it was made, so
    classify.py checks no (s, t) rule itself, and no function there picks
    its criteria by a function-valued default: the census, ``equiv`` and
    both theorem entries reach the criteria through one dispatch."""
    import toric3.classify

    tree = ast.parse(CLASSIFY.read_text(), filename=str(CLASSIFY))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if (isinstance(f, ast.Attribute) and name == "check") or name == "width1_tag":
                bad.append((node.lineno, name))
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            for d in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                value = getattr(toric3.classify, d.id, None) if isinstance(d, ast.Name) else None
                if isinstance(d, ast.Lambda) or inspect.isroutine(value):
                    bad.append((d.lineno, "function default"))
    assert not bad, f"classify.py: rule checks or function-valued defaults at {bad}"


class _Scopes(ast.NodeVisitor):
    """The scopes, such as ``Family.make``, of the nodes that ``hit`` names,
    as (scope, name) pairs; ``hit`` takes a node and its scope."""

    def __init__(self, hit):
        self.hit, self.scope, self.found = hit, [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef

    def generic_visit(self, node):
        name = self.hit(node, self.scope)
        if name:
            self.found.append((".".join(self.scope), name))
        super().generic_visit(node)


def _scopes(hit):
    """(module, scope, name) of every node in the package that ``hit`` names."""
    found = set()
    for path in MODULES:
        scopes = _Scopes(hit)
        scopes.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= {(path.name, *f) for f in scopes.found}
    return found


def _tags_a_polytope(node, scope):
    """A call that passes ``LatticePolytope`` a family other than CUSTOM."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        family = node.args[1:2] + [k.value for k in node.keywords if k.arg == "family"]
        if name == "LatticePolytope" and any(getattr(f, "id", None) != "CUSTOM" for f in family):
            return name


def test_only_family_make_tags_a_polytope():
    """A family's points, rule and arity are stated once, in its
    ``FAMILIES`` row, so ``Family.make`` is the one place in the package
    that makes a tagged polytope."""
    assert _scopes(_tags_a_polytope) == {("polytopes.py", "Family.make", "LatticePolytope")}


def _reads_a_row(node, scope):
    """A read of a ``Family``'s ``table`` or ``admits``, or of its
    ``points``: a call, since a polytope's points are a tuple, or any read
    of ``self.points`` in the class ``Family``."""
    if isinstance(node, ast.Attribute) and node.attr in ("table", "admits"):
        return node.attr
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "points":
        return "points"
    if (scope[:1] == ["Family"] and isinstance(node, ast.Attribute) and node.attr == "points"
            and getattr(node.value, "id", None) == "self"):
        return "points"


def test_only_the_polytope_reads_a_family_row():
    """A tagged polytope reads its family's row once, as it is made, so
    ``LatticePolytope.__post_init__`` is the one function that reads a
    row's points or table, and the sweep's filter the only other one that
    calls its rule."""
    row = "LatticePolytope.__post_init__"
    assert _scopes(_reads_a_row) == {
        ("polytopes.py", row, "table"), ("polytopes.py", row, "admits"),
        ("polytopes.py", row, "points"), ("polytopes.py", "parameter_sweep", "admits"),
    }


def _reads_an_add_table(node, scope):
    """A read of a field's ``add_table``, or of ``add_u8``, its old uint8 copy."""
    if isinstance(node, ast.Attribute) and node.attr in ("add_table", "add_u8"):
        return node.attr


def test_codes_add_through_no_table():
    """``codes._add_words`` is the one adder of GF(q) words, in every word
    format, and reads no table, so no function in codes.py reads a field's
    add table: only ``FieldSpec`` builds it, for its scalar ``add`` and
    ``sub``."""
    assert _scopes(_reads_an_add_table) == {
        ("galois.py", f"FieldSpec.{name}", "add_table") for name in ("_build_tables", "add", "sub")
    }


def _integer_guard_calls():
    """(name, function, a valid argument tuple) for every public entry that
    takes integers; each int in the tuple, nested ones included, is a slot."""
    from toric3 import (
        degenerate_distance, dim4_distance, dim4_gcd_corollary, dim4_theorem_verdict,
        dim5_distance, dim5_theorem_verdict, make_field, power_image, solve_power,
    )
    from toric3.codes import build_generator_matrix
    from toric3.polytopes import (
        AffineUnimodularMap, LatticePolytope, det4, embedded_polygon,
        hull_lattice_points, lattice_width, parameter_sweep, white_canonical,
        white_equivalence_map, width2_representative,
    )

    f = make_field(7)
    tetra = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [
        ("make_field", make_field, (7,)),
        ("FieldSpec.pow", f.pow, (3, 2)),
        ("FieldSpec.exp", f.exp, (2,)),
        ("dim4_distance", dim4_distance, (7, 3)),
        ("dim5_distance", dim5_distance, ((2, 1), 7, 1, 3)),
        ("degenerate_distance", degenerate_distance, (2, 7)),
        ("dim4_gcd_corollary", dim4_gcd_corollary, (7, 3)),
        ("dim4_theorem_verdict", dim4_theorem_verdict, (7, 1, 3, 2, 3)),
        ("dim5_theorem_verdict", dim5_theorem_verdict, (7, (2, 1), (1, 3), (2, 1), (1, 4))),
        ("width2_representative", width2_representative, (1,)),
        ("embedded_polygon", embedded_polygon, (1,)),
        ("white_canonical", white_canonical, (2, 5)),
        ("white_equivalence_map", white_equivalence_map, (2, 3, 5)),
        ("solve_power", solve_power, (f, 2, 2)),
        ("power_image", power_image, (f, 2)),
        ("LatticePolytope", LatticePolytope, (tetra,)),
        ("build_generator_matrix", build_generator_matrix, (f, tetra)),
        ("parameter_sweep", parameter_sweep, (7, 4)),
        ("AffineUnimodularMap", AffineUnimodularMap, (identity, (0, 0, 0))),
        ("AffineUnimodularMap.apply_point",
         AffineUnimodularMap(identity, (0, 0, 0)).apply_point, ((0, 1, 0),)),
        ("det4", det4, tetra),
        # not a LatticePolytope, so that the points reach lattice_width's own
        # check, not the one a polytope makes as it is built
        ("lattice_width", lambda *p: lattice_width(SimpleNamespace(points=p)), tetra),
        ("hull_lattice_points", hull_lattice_points, (tetra,)),
    ]


def _with_slot_replaced(args, bad):
    """Every copy of args with one int, at any depth, replaced by bad."""
    for i, a in enumerate(args):
        if isinstance(a, tuple):
            subs = _with_slot_replaced(a, bad)
        else:
            subs = [bad] if isinstance(a, int) else []
        yield from ((*args[:i], sub, *args[i + 1 :]) for sub in subs)


@pytest.mark.parametrize("bad", [2.5, "2", [2]], ids=["float", "str", "list"])
def test_a_non_integer_in_an_integer_slot_raises_a_toric3_error(bad):
    """A float, a string or a list where an integer belongs raises a
    Toric3Error subclass, never a bare TypeError or IndexError, and is
    never read as an integer."""
    from toric3.errors import Toric3Error

    escaped = []
    for name, fn, args in _integer_guard_calls():
        fn(*args)
        for call in _with_slot_replaced(args, bad):
            try:
                fn(*call)
            except Toric3Error:
                continue
            except Exception as e:
                escaped.append((name, call, type(e).__name__))
            else:
                escaped.append((name, call, "no error"))
    assert not escaped, f"non-integer slots not guarded: {escaped}"
