"""Spans around the public functions of toric3, recorded from outside.

The tracer patches every public function of the layer modules at every
``toric3.*`` module attribute that refers to it (classify and cli import
functions by name), and the public methods of ``ToricCode``.  No file of the
library changes.  Spans hold name, start, end, parent span and instance id;
they stay in memory until the run ends.  ``uninstall`` restores the originals,
so traced and untraced passes can alternate in one process.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("galois", "polytopes", "codes", "formulas", "classify", "cli")

KERNEL = frozenset({
    "codes.ToricCode.min_distance_brute",
    "codes.ToricCode.weight_enumerator",
    "codes.ToricCode.max_zeros",
})
THEOREM = frozenset({"classify.dim4_theorem_verdict", "classify.dim5_theorem_verdict"})
MAKE_FIELD = "galois.make_field"
GEN_MATRIX = "codes.build_generator_matrix"
WITNESS = "classify.witness_equivalence"


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "info")

    def __init__(self, name, parent, instance):
        self.name, self.start, self.end = name, 0.0, 0.0
        self.parent, self.instance, self.info = parent, instance, None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.instance, self.info]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = None  # tag given to new spans
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._fields_seen: dict = {}  # id -> field, kept alive so ids stay unique

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        import toric3.cli  # noqa: F401  (loads every layer module)
        from toric3.codes import ToricCode

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"toric3.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    originals[id(obj)] = (obj, f"{layer}.{name}")
        wrappers = {i: self._wrap(fn, name) for i, (fn, name) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "toric3" or modname.startswith("toric3.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and obj is originals[id(obj)][0]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for name, obj in list(vars(ToricCode).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                self._patches.append((ToricCode, name, obj))
                setattr(ToricCode, name, self._wrap(obj, f"codes.ToricCode.{name}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.info = hook(self, name, args, result)
            return result

        return traced


# -- span info, computed after the span has ended ----------------------------------


def _kernel_key(tracer, name, args, result):
    code = args[0]
    return (code.field.q, code.polytope.points, name.rsplit(".", 1)[1])


def _matrix_bytes(tracer, name, args, result):
    return int(result.nbytes)


def _witness_outcome(tracer, name, args, result):
    return (result.status, result.evidence_kind)


def _field_built(tracer, name, args, result):
    """True when make_field returned a field object not seen before."""
    new = id(result) not in tracer._fields_seen
    tracer._fields_seen[id(result)] = result
    return new


_HOOKS = {
    GEN_MATRIX: _matrix_bytes,
    WITNESS: _witness_outcome,
    MAKE_FIELD: _field_built,
    **{name: _kernel_key for name in KERNEL},
}


# -- per-layer metrics ----------------------------------------------------------

UNITS = {
    "galois.make_field_s": "s",
    "galois.fields_built": "count",
    "polytopes.parse_s": "s",
    "polytopes.specs_parsed": "count",
    "codes.build_s": "s",
    "codes.G_bytes": "bytes",
    "codes.column_tuples_s": "s",
    "codes.column_tuples_calls": "count",
    "codes.kernel_s": "s",
    "codes.kernel_calls": "count",
    "codes.kernel_useful_ratio": "ratio",
    "formulas.s": "s",
    "formulas.calls": "count",
    "classify.witness_s": "s",
    "classify.witness_self_s": "s",
    "classify.witness_calls": "count",
    "classify.witness_hits": "count",
    "classify.witness_fallbacks": "count",
    "classify.theorem_calls": "count",
    "classify.theorem_s": "s",
    "classify.census_s": "s",
    "classify.census_self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, child)]


def _outermost(spans, i, names) -> bool:
    """True when no ancestor of span i has a name in names."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return False
        p = spans[p].parent
    return True


def pass_metrics(spans, indices, selfs, output_bytes: int) -> dict:
    """Per-layer metrics of one pass from the spans at the given indices."""
    def pick(names):
        return [i for i in indices if spans[i].name in names and _outermost(spans, i, names)]

    def total(ix):
        return sum((spans[i].duration for i in ix), 0.0)

    def self_total(ix):
        return sum((selfs[i] for i in ix), 0.0)

    formulas = {spans[i].name for i in indices if spans[i].name.startswith("formulas.")}
    make_field = pick({MAKE_FIELD})
    parse = pick({"polytopes.parse_polytope_spec"})
    build = pick({GEN_MATRIX})
    cols = pick({"codes.ToricCode.column_tuples"})
    kernel = pick(KERNEL)
    form = pick(formulas)
    wit = pick({WITNESS})
    thm = pick(THEOREM)
    cen = pick({"classify.census"})
    main = pick({"cli.main"})
    keys = {spans[i].info for i in kernel}
    outcomes = [spans[i].info for i in wit]
    return {
        "galois.make_field_s": total(make_field),
        "galois.fields_built": sum(1 for i in make_field if spans[i].info),
        "polytopes.parse_s": total(parse),
        "polytopes.specs_parsed": len(parse),
        "codes.build_s": total(build),
        "codes.G_bytes": sum(spans[i].info for i in build),
        "codes.column_tuples_s": total(cols),
        "codes.column_tuples_calls": len(cols),
        "codes.kernel_s": total(kernel),
        "codes.kernel_calls": len(kernel),
        # 1 when the kernel is not called: no call was wasted
        "codes.kernel_useful_ratio": len(keys) / len(kernel) if kernel else 1.0,
        "formulas.s": total(form),
        "formulas.calls": len(form),
        "classify.witness_s": total(wit),
        "classify.witness_self_s": self_total(wit),
        "classify.witness_calls": len(wit),
        "classify.witness_hits": outcomes.count(("EQUIVALENT", "WITNESS")),
        "classify.witness_fallbacks": sum(1 for o in outcomes if o[1] != "WITNESS"),
        "classify.theorem_calls": len(thm),
        "classify.theorem_s": total(thm),
        "classify.census_s": total(cen),
        "classify.census_self_s": self_total(cen),
        "cli.main_s": total(main),
        "cli.self_s": self_total(main),
        "cli.output_bytes": output_bytes,
    }


def layer_metrics(spans, setup_tag, traced_passes: list, output_bytes: dict) -> dict:
    """Median over traced passes of each per-pass metric.

    galois.* add the set-up spans (tagged ``setup_tag``) to the per-pass
    median, since field tables are built during set-up.
    """
    selfs = _self_times(spans)
    by_pass = defaultdict(list)
    for i, sp in enumerate(spans):
        tag = sp.instance[0] if sp.instance else None
        by_pass[tag].append(i)
    per_pass = [pass_metrics(spans, by_pass[p], selfs, output_bytes[p]) for p in traced_passes]
    out = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    setup = pass_metrics(spans, by_pass[setup_tag], selfs, 0)
    for name in ("galois.make_field_s", "galois.fields_built"):
        out[name] += setup[name]
    return out
