"""Command-line front end.

Subcommands: field-info, mindist, equiv, census, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from functools import cache

from . import classify, formulas
from .codes import build_code
from .errors import InvalidField, NoFormulaForFamily, ParseError, Toric3Error
from .galois import make_field
from .polytopes import LatticePolytope, embedded_polygon, parse_polytope_spec


def cmd_field_info(args) -> int:
    f = make_field(args.q)
    info = {
        "q": f.q,
        "p": f.p,
        "m": f.m,
        "modulus": list(f.modulus) if f.modulus else None,
        "alpha": f.alpha,
        "alpha_order": f.alpha_order,
        "units": f.units(),
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_mindist(args) -> int:
    """Under ``both``, no closed form for this q gives "formula": null."""
    poly = parse_polytope_spec(args.poly)
    field = make_field(args.q)
    out = {"q": args.q, "poly": poly.describe(), "method": args.method}
    f = None
    if args.method in ("formula", "both"):
        try:
            f = formulas.distance_formula(poly, args.q)
        except (NoFormulaForFamily, InvalidField):
            if args.method == "formula":
                raise
        out["formula"] = None if f is None else f.to_dict()
    if args.method in ("brute", "both"):
        brute = build_code(field, poly).min_distance_brute()
        out["brute"] = brute.to_dict()
        if f is not None:
            out["consistent"] = f.lower <= brute.value <= f.upper
    print(json.dumps(out, indent=2))
    return 0 if out.get("consistent", True) else 1


def cmd_equiv(args) -> int:
    field = make_field(args.q)
    pa = parse_polytope_spec(args.a)
    pb = parse_polytope_spec(args.b)
    out = {"q": args.q, "a": pa.describe(), "b": pb.describe(), "method": args.method}
    if args.method in ("theorem", "both"):
        out["theorem"] = classify.theorem_verdict(args.q, pa, pb).to_dict()
    if args.method in ("witness", "both"):
        wit = classify.witness_equivalence(build_code(field, pa), build_code(field, pb))
        wd = wit.to_dict()
        if args.verbose and wit.evidence_kind == "WITNESS":
            wd["permutation"] = wit.detail.tolist()
        out["witness"] = wd
    if args.method == "both":
        ts, ws = out["theorem"]["status"], out["witness"]["status"]
        out["agreement"] = (
            ts == ws
            or classify.INCONCLUSIVE in (ts, ws)
        )
    print(json.dumps(out, indent=2))
    return 0 if out.get("agreement", True) else 1


def cmd_census(args) -> int:
    field = make_field(args.q)
    # opened before the census; one writer for either destination, same bytes
    try:
        out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with out as fh:
        rows = [e.row(args.q) for e in classify.census(field, args.dim)]
        if args.format == "json":
            fh.write(_json_rows(rows))
        else:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _json_rows(rows: list[dict]) -> str:
    """``json.dumps(rows, indent=2) + "\\n"`` for a nonempty list of flat
    rows, from the C encoder, which ``indent`` turns off: one dump with the
    separator of a row's items, then each boundary between rows re-indented.
    "}" meets that separator only at such a boundary, as the rows are flat
    and a string ends in a quote."""
    text = json.dumps(rows, separators=(",\n    ", ": "))
    return "[\n  {\n    " + text[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n"


def _formula_error(q: int, poly, d: int, f) -> str | None:
    """Why d violates the formula interval f, or None if it does not."""
    if f.lower <= d <= f.upper:
        return None
    return f"q={q}: {poly.describe()}: d={d} outside [{f.lower}, {f.upper}]"


def _verify_one(q: int) -> list[tuple[str, bool, str | None]]:
    """Desk-scale verification battery for one field order: (name, ok,
    error naming the first polytope that failed, or None) per check."""
    field = make_field(q)
    checks = []

    # formula vs brute force on each full sweep, then its census grouping
    sweeps = {4: "dim4 formula == brute", 5: "dim5 width-1 formulas/bounds"}
    for dim in (4, 5) if q >= 5 else (4,):
        entries = classify._census_entries(field, dim)
        errors = (_formula_error(q, e.polytope, e.code.min_distance_brute().value, e.formula)
                  for e in entries)
        error = next(filter(None, errors), None)
        checks.append((sweeps[dim], error is None, error))
        try:
            classify._group_classes(q, entries)
            error = None
        except Toric3Error as e:
            error = str(e)
        checks.append((f"dim{dim} census concordance", error is None, error))

    if q >= 5:
        # degenerate distances and the product theorem
        for i in range(1, 5):
            poly = embedded_polygon(i)
            planar = LatticePolytope(tuple(p[:2] for p in poly.points))
            d3, d2 = (build_code(field, c).min_distance_brute().value for c in (poly, planar))
            error = _formula_error(q, poly, d3, formulas.degenerate_distance(i, q))
            if error is None and d3 != (q - 1) * d2:
                error = f"q={q}: {poly.describe()}: d3={d3} != (q-1)*d2={(q - 1) * d2}"
            if error:
                break
        checks.append(("degenerate + product theorem", error is None, error))

    return checks


def cmd_verify(args) -> int:
    all_ok = True
    for q in args.q:
        checks = _verify_one(q)
        for name, ok, error in checks:
            print(f"q={q:<3} {'PASS' if ok else 'FAIL'}  {name}")
            if error:
                print(f"error: {error}", file=sys.stderr)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def _int_list(text: str) -> list[int]:
    """argparse type for a comma-separated list of ints."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of ints: {text!r}"
        ) from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every ``main`` call shares it."""
    ap = argparse.ArgumentParser(
        prog="toric3",
        description="Toric 3-fold codes of dimensions 4 and 5: distances, "
        "equivalence, census.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="describe GF(q) and its tables")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("mindist", help="minimum distance of a code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", required=True, help="e.g. T(1,2), P21(0,1), P22, W2:1, E:3")
    p.add_argument("--method", choices=["brute", "formula", "both"], default="both")

    p = sub.add_parser("equiv", help="decide monomial equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=["theorem", "witness", "both"], default="both")
    p.add_argument("--verbose", action="store_true", help="dump the witness permutation")

    p = sub.add_parser("census", help="equivalence-class census")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, choices=[4, 5], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--q", type=_int_list, required=True, help="comma-separated field orders")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up when it runs, so a command replaced since the parser was
    # built is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Toric3Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
