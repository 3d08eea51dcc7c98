"""Per-layer tracing of repdual from outside the package.

A Tracer wraps the public functions of each layer module (plus the few
private ones a metric needs) at every binding inside ``repdual``: module
globals, including the names other modules pulled in with ``from ... import``,
class attributes and module-level dispatch dicts.  Calls between layers
therefore nest, and every wrapped call records a span
``(function id, start, end, parent span, op id)`` in memory.  Functions that
run once per element or word (Cyclotomic arithmetic, word products,
projections) only bump a counter, because a span each would swamp the run.
``uninstall`` puts every original object back.

Span times use ``time.perf_counter``; parent indices refer to the same
process, so spans merged from a CLI subprocess keep their own nesting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter

LAYERS = (
    "groups",
    "chartable",
    "cyclotomic",
    "codes",
    "duality",
    "identities",
    "polynomials",
    "specfiles",
    "cli",
)

# private functions that carry a metric of their own
EXTRA_FUNCTIONS = {"chartable": ("_compute_character_table", "_load_cached")}
# methods traced as spans
SPAN_METHODS = {"polynomials": ("MultiPoly.compose",)}
# called once per element, word or field operation: counted, never spanned
COUNTED = (
    "cyclotomic.Cyclotomic.__mul__",
    "cyclotomic.Cyclotomic.__add__",
    "groups.word_mul",
    "groups.word_inv",
    "groups.word_weight",
    "codes.project_cardinality",
)

GROUP_BUILDERS = tuple(
    f"groups.{f}"
    for f in (
        "builtin_group",
        "cyclic_group",
        "symmetric_group",
        "dihedral_group",
        "quaternion_group",
        "product_group",
        "group_from_generators",
        "group_from_table",
    )
)
CODE_BUILDERS = tuple(
    f"codes.{f}"
    for f in ("code_from_generators", "code_from_words", "trivial_code", "full_code", "diagonal_code")
)
CHECKS = {
    "greene": "identities.verify_greene",
    "mw1": "identities.verify_macwilliams1",
    "mw2": "identities.verify_macwilliams2",
    "extension": "identities.verify_extension_lemma",
    "abelian": "identities.verify_abelian_specialization",
}

# metric -> functions whose outermost spans are summed (time busy)
BUSY = {
    "groups.build_s": GROUP_BUILDERS,
    "groups.classes_s": ("groups.conjugacy_classes",),
    "chartable.build_s": ("chartable._compute_character_table",),
    "chartable.classmult_s": ("chartable.class_multiplication_coefficients",),
    "chartable.load_s": ("chartable._load_cached",),
    "codes.closure_s": ("codes.code_from_generators",),
    "codes.rank_profile_s": ("codes.rank_profile",),
    "codes.pattern_counts_s": ("codes.class_pattern_counts",),
    "codes.cwe_s": ("codes.complete_weight_enumerator",),
    "duality.dual_multiset_s": ("duality.dual_multiset",),
    "duality.permchar_s": ("duality.permutation_character",),
    "duality.decompose_s": ("duality.decompose_permutation_character",),
    "polynomials.compose_s": ("polynomials.MultiPoly.compose",),
    "specfiles.load_s": ("specfiles.load_group_spec", "specfiles.load_code_spec"),
    **{f"identities.{short}_s": (fn,) for short, fn in CHECKS.items()},
}
# metric -> functions whose spans' self time is summed
SELF = {f"identities.{short}_self_s": (fn,) for short, fn in CHECKS.items()}
# metric -> function whose calls are counted
CALLS = {
    "duality.dual_multiset_calls": "duality.dual_multiset",
    "polynomials.compose_calls": "polynomials.MultiPoly.compose",
    "cyclotomic.mul_calls": "cyclotomic.Cyclotomic.__mul__",
    "cyclotomic.add_calls": "cyclotomic.Cyclotomic.__add__",
    "codes.project_calls": "codes.project_cardinality",
}
# layers that record spans get a self-time metric
SELF_LAYERS = ("groups", "chartable", "codes", "duality", "identities", "polynomials", "specfiles", "cli")


def _observe_table(tr: "Tracer", ct) -> None:
    if ct is not None:
        tr.counts["chartable.k_sum"] += ct.k
        tr.maximum("chartable.conductor_max", ct.conductor)


def _observe_computed(tr, args, ct):
    tr.counts["chartable.computed"] += 1
    _observe_table(tr, ct)


def _observe_loaded(tr, args, ct):
    if ct is not None:
        tr.counts["chartable.disk_hits"] += 1
    _observe_table(tr, ct)


def _observe_dual(tr, args, dm):
    tr.counts["duality.nonzero_tuples"] += len(dm.mult)
    key = (tr.op, id(args[0]))
    if key not in tr.seen_codes:
        tr.seen_codes.add(key)
        tr.counts["duality.distinct_codes"] += 1


def _observe_permchar(tr, args, pc):
    code = args[0]
    tr.counts["duality.cosets"] += code.group.order**code.n // code.size


def _observe_code(tr, args, code):
    tr.counts["codes.words"] += code.size


OBSERVERS = {
    "chartable._compute_character_table": _observe_computed,
    "chartable._load_cached": _observe_loaded,
    "duality.dual_multiset": _observe_dual,
    "duality.permutation_character": _observe_permchar,
    **{name: _observe_code for name in CODE_BUILDERS},
}


def _lookup(module, dotted: str):
    obj = module
    for part in dotted.split("."):
        obj = obj.__dict__.get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def traced_functions() -> list[tuple[str, types.FunctionType]]:
    """(qualified name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"repdual.{layer}")
        extra = EXTRA_FUNCTIONS.get(layer, ())
        for name, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and (not name.startswith("_") or name in extra)
            ):
                out.append((f"{layer}.{name}", obj))
        for dotted in SPAN_METHODS.get(layer, ()):
            obj = _lookup(module, dotted)
            if isinstance(obj, types.FunctionType):
                out.append((f"{layer}.{dotted}", obj))
    for qual in COUNTED:
        layer, dotted = qual.split(".", 1)
        obj = _lookup(importlib.import_module(f"repdual.{layer}"), dotted)
        if isinstance(obj, types.FunctionType):
            out = [(q, f) for q, f in out if f is not obj]
            out.append((qual, obj))
    return out


def _binding_holders():
    """Every namespace inside repdual that can bind a function: module
    globals, classes defined there and module-level dicts."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repdual" or name.startswith("repdual.")):
            continue
        yield module.__dict__
        for key, value in list(vars(module).items()):
            if isinstance(value, type) and value.__module__ == name:
                yield value
            elif type(value) is dict and not key.startswith("__"):
                yield value


def _items(holder):
    return list(vars(holder).items()) if isinstance(holder, type) else list(holder.items())


def _assign(holder, key, value) -> None:
    if isinstance(holder, type):
        setattr(holder, key, value)
    else:
        holder[key] = value


class Tracer:
    """Spans and counters for one benchmark run; install/uninstall the
    wrappers around the timed region."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.seen_codes: set = set()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def maximum(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def _span_wrapper(self, qual: str, func):
        fid = len(self.names)
        self.names.append(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(qual)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, qual: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for qual, func in traced_functions():
            make = self._count_wrapper if qual in COUNTED else self._span_wrapper
            wrappers[id(func)] = (func, make(qual, func))
        for holder in _binding_holders():
            for key, value in _items(holder):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((holder, key, value))
                    _assign(holder, key, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            _assign(holder, key, original)

    # -- merging and reporting ---------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}

    def merge(self, blob: dict, op: int) -> None:
        """Fold in the dump of a traced subprocess, relabelled with op."""
        fid_map = []
        for qual in blob["names"]:
            if qual not in self.names:
                self.names.append(qual)
            fid_map.append(self.names.index(qual))
        base = len(self.spans)
        for fid, t0, t1, parent, _ in blob["spans"]:
            self.spans.append((fid_map[fid], t0, t1, parent + base if parent >= 0 else -1, op))
        for key, value in blob["counts"].items():
            if key.endswith("_max"):
                self.maximum(key, value)
            else:
                self.counts[key] += value

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers a run never reached read 0."""
        spans = self.spans
        name_of = [self.names[s[0]] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        self_time = [d - c for d, c in zip(dur, child)]

        def busy(funcs) -> float:
            wanted = set(funcs)
            inside = [False] * len(spans)  # an ancestor is one of funcs
            total = 0.0
            for i, s in enumerate(spans):
                p = s[3]
                if p >= 0:
                    inside[i] = inside[p] or name_of[p] in wanted
                if name_of[i] in wanted and not inside[i]:
                    total += dur[i]
            return total

        calls = Counter(name_of)
        out: dict[str, float] = {m: busy(f) for m, f in BUSY.items()}
        for metric, funcs in SELF.items():
            out[metric] = sum(t for t, n in zip(self_time, name_of) if n in funcs)
        for layer in SELF_LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                t for t, n in zip(self_time, name_of) if n.startswith(prefix)
            )
        c = self.counts
        for metric, qual in CALLS.items():
            out[metric] = calls[qual] + c[qual]
        for key in ("chartable.computed", "chartable.disk_hits", "chartable.k_sum",
                    "chartable.conductor_max", "codes.words", "duality.nonzero_tuples",
                    "duality.cosets"):
            out[key] = c[key]
        out["chartable.memo_hits"] = (
            calls["chartable.character_table"] - c["chartable.computed"] - c["chartable.disk_hits"]
        )
        dm_calls = out["duality.dual_multiset_calls"]
        out["duality.dual_reuse_ratio"] = c["duality.distinct_codes"] / dm_calls if dm_calls else 1.0
        out["cli.import_s"] = c["cli.import_s"]
        return out
