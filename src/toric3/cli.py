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

from . import classify, formulas
from .codes import build_code, brute_min_distance_generic
from .errors import ParseError, Toric3Error
from .galois import make_field
from .polytopes import embedded_polygon, parse_polytope_spec


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
    poly = parse_polytope_spec(args.poly)
    field = make_field(args.q)
    out = {"q": args.q, "poly": poly.describe(), "method": args.method}
    ok = True
    if args.method in ("formula", "both"):
        out["formula"] = formulas.distance_formula(poly, args.q).to_dict()
    if args.method in ("brute", "both"):
        code = build_code(field, poly)
        out["brute"] = code.min_distance_brute().to_dict()
    if args.method == "both":
        fr, br = out["formula"], out["brute"]
        ok = fr["lower"] <= br["lower"] <= fr["upper"]
        if fr["exact"]:
            ok = ok and br["lower"] == fr["lower"]
        out["consistent"] = ok
    print(json.dumps(out, indent=2))
    return 0 if ok else 1


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
            wd["permutation"] = [int(x) for x in wit.detail]
        out["witness"] = wd
    if args.method == "both":
        ts, ws = out["theorem"]["status"], out["witness"]["status"]
        out["agreement"] = (
            ts == ws
            or classify.INCONCLUSIVE in (ts, ws)
        )
    print(json.dumps(out, indent=2))
    return 0


def cmd_census(args) -> int:
    field = make_field(args.q)
    entries = classify.census(field, args.dim, max_workers=args.threads)
    rows = [e.row(args.q) for e in entries]
    # one writer for both destinations, so they get the same bytes
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _concordance(name: str, q: int, entries) -> tuple[str, bool, str | None]:
    """Census grouping of the entries as a check; a mismatch it raises
    fails the check and its message is kept."""
    try:
        classify._group_classes(q, entries)
    except Toric3Error as e:
        return name, False, str(e)
    return name, True, None


def _verify_one(q: int) -> list[tuple[str, bool, str | None]]:
    """Desk-scale verification battery for one field order: (name, ok,
    error message or None) per check."""
    field = make_field(q)
    checks = []

    # dim-4 formula vs brute force on the full sweep, then its census
    entries = classify._census_entries(field, 4)
    ok = all(e.d_brute == e.formula.value for e in entries)
    checks.append(("dim4 formula == brute", ok, None))
    checks.append(_concordance("dim4 census concordance", q, entries))

    if q >= 5:
        entries = classify._census_entries(field, 5)
        ok = all(e.formula.lower <= e.d_brute <= e.formula.upper for e in entries)
        checks.append(("dim5 width-1 formulas/bounds", ok, None))
        checks.append(_concordance("dim5 census concordance", q, entries))

        # degenerate distances and the product theorem
        ok = True
        for i in range(1, 5):
            poly = embedded_polygon(i)
            d3 = build_code(field, poly).min_distance_brute().value
            f = formulas.degenerate_distance(i, q)
            if f.exact and d3 != f.value:
                ok = False
            if not f.exact and d3 < f.lower:
                ok = False
            d2 = brute_min_distance_generic(
                field, [p[:2] for p in poly.points], 2
            )
            if d3 != (q - 1) * d2:
                ok = False
        checks.append(("degenerate + product theorem", ok, None))

    return checks


def cmd_verify(args) -> int:
    qs = [int(x) for x in args.q.split(",")]
    all_ok = True
    for q in qs:
        checks = _verify_one(q)
        for name, ok, error in checks:
            print(f"q={q:<3} {'PASS' if ok else 'FAIL'}  {name}")
            if error:
                print(f"error: {error}", file=sys.stderr)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toric3",
        description="Toric 3-fold codes of dimensions 4 and 5: distances, "
        "equivalence, census.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="describe GF(q) and its tables")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("mindist", help="minimum distance of a code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", required=True, help="e.g. T(1,2), P21(0,1), P22, W2:1, E:3")
    p.add_argument("--method", choices=["brute", "formula", "both"], default="both")
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("equiv", help="decide monomial equivalence")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=["theorem", "witness", "both"], default="both")
    p.add_argument("--verbose", action="store_true", help="dump the witness permutation")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("census", help="equivalence-class census")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dim", type=int, choices=[4, 5], required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--q", required=True, help="comma-separated field orders")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Toric3Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
