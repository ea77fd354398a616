"""Per-layer tracing, installed from outside the program at run time.

``Tracer.install`` replaces the functions and methods named in ``SPANS``
with wrappers that record one span each (name, start, end, parent, flags)
in flat arrays, kept in memory until the run ends.  ``RationalComplex``
arithmetic is too frequent for a span per call: it is counted, and timed
only at its outermost calls, so scalar time also stays inside the self
time of the spans around it.  A name that the program no longer has is
reported as missing and skipped.

``Tracer.metrics`` turns the spans into the per-layer metrics, each per
traced round (one pass over the workload's operation list):

* ``<layer>.<op>_calls``: spans of that name;
* ``<layer>.<op>_s``: time in spans of that name, not counting spans nested
  in a span of the same name;
* ``<layer>.self_s`` / ``surd.classify_self_s``: span time minus the time
  of its direct child spans.

For ``cli`` the wrappers run inside each child process (``cli_child.py``),
which hands its spans back to the parent through a file.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array

# (span name, module, attribute path)
SPANS = (
    ("multicomplex.mul", "hypercomplex.multicomplex", "Multicomplex.__mul__"),
    ("multicomplex.mul", "hypercomplex.multicomplex", "Multicomplex.__rmul__"),
    ("multicomplex.split", "hypercomplex.multicomplex", "Multicomplex.split"),
    ("multicomplex.unsplit", "hypercomplex.multicomplex", "Multicomplex.unsplit"),
    ("multicomplex.zero_divisor", "hypercomplex.multicomplex", "Multicomplex.is_zero_divisor"),
    ("multicomplex.pow", "hypercomplex.multicomplex", "Multicomplex.__pow__"),
    ("bicomplex.mul", "hypercomplex.bicomplex", "Bicomplex.__mul__"),
    ("bicomplex.mul", "hypercomplex.bicomplex", "Bicomplex.__rmul__"),
    ("bicomplex.decompose", "hypercomplex.bicomplex", "Bicomplex.decompose"),
    ("bicomplex.recompose", "hypercomplex.bicomplex", "Bicomplex.recompose"),
    ("bicomplex.inverse", "hypercomplex.bicomplex", "Bicomplex.inverse"),
    ("biquaternion.mul", "hypercomplex.biquaternion", "Biquaternion.__mul__"),
    ("biquaternion.mul", "hypercomplex.biquaternion", "Biquaternion.__rmul__"),
    ("biquaternion.solve_quadratic", "hypercomplex.biquaternion", "solve_quadratic"),
    ("quadruple.derive", "hypercomplex.quadruple", "derive_table"),
    ("polysolve.solve", "hypercomplex.polysolve", "solve"),
    ("polysolve.solve", "hypercomplex.polysolve", "mc_solve"),
    ("polysolve.substitute", "hypercomplex.polysolve", "BicomplexPoly.__call__"),
    ("polysolve.complex_roots", "hypercomplex.polysolve", "complex_roots"),
    ("numpy.roots", "numpy", "roots"),
    ("ratpoly.mul", "hypercomplex.ratpoly", "mul"),
    ("ratpoly.rational_roots", "hypercomplex.ratpoly", "rational_roots"),
    ("ratpoly.numpy_roots", "hypercomplex.ratpoly", "numpy_roots"),
    ("surd.parse", "hypercomplex.surd", "parse_surd"),
    ("surd.stock", "hypercomplex.surd", "stock_equation"),
    ("surd.classify", "hypercomplex.surd", "classify_roots"),
    ("cli.main", "hypercomplex.cli", "main"),
    ("cli.parse_args", "hypercomplex.cli", "build_parser"),
    ("cli.parse_args", "argparse", "ArgumentParser.parse_args"),
    ("cli.dispatch", "hypercomplex.cli", "_dispatch"),
    ("cli.corpus", "hypercomplex.cli", "_cmd_corpus"),
)
RC_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
NO_CONVERGENCE = 1  # span flag: the call raised NoConvergence
RAISED = 2          # span flag: the call raised something else

# Spans that decide whether a product under a solve is substitution or
# recombination: the nearest of these above it.
_CONTEXT = {
    "polysolve.solve", "polysolve.substitute", "polysolve.complex_roots",
    "multicomplex.mul", "multicomplex.split", "multicomplex.unsplit",
    "bicomplex.mul", "bicomplex.decompose", "bicomplex.recompose",
}

# span name -> (count, its value from the call's result)
_COUNT_AFTER = {
    "polysolve.solve": ("polysolve.roots_returned", lambda out: len(out.roots)),
    "surd.stock": ("surd.stock_degree", lambda out: len(out) - 1),
}

# name -> unit, in the order they are reported
METRICS = {
    "multicomplex.mul_calls": "count", "multicomplex.mul_s": "s", "multicomplex.mul_terms": "count",
    "multicomplex.split_s": "s", "multicomplex.unsplit_s": "s",
    "multicomplex.zero_divisor_s": "s", "multicomplex.pow_s": "s",
    "bicomplex.mul_calls": "count", "bicomplex.mul_s": "s", "bicomplex.decompose_s": "s",
    "bicomplex.recompose_s": "s", "bicomplex.inverse_s": "s",
    "scalars.rc_calls": "count", "scalars.rc_s": "s",
    "biquaternion.mul_s": "s", "biquaternion.solve_quadratic_s": "s",
    "quadruple.derive_calls": "count", "quadruple.derive_s": "s",
    "polysolve.solve_calls": "count", "polysolve.solve_s": "s", "polysolve.self_s": "s",
    "polysolve.complex_roots_calls": "count", "polysolve.complex_roots_s": "s",
    "polysolve.companion_fallbacks": "count", "polysolve.no_convergence": "count",
    "polysolve.roots_returned": "count",
    "polysolve.substitution_s": "s", "polysolve.recombine_s": "s",
    "ratpoly.mul_calls": "count", "ratpoly.mul_s": "s", "ratpoly.rational_roots_s": "s",
    "ratpoly.numpy_roots_calls": "count", "ratpoly.numpy_roots_s": "s",
    "surd.parse_s": "s", "surd.stock_s": "s", "surd.classify_self_s": "s", "surd.stock_degree": "count",
    "cli.import_s": "s", "cli.numpy_import_s": "s", "cli.parse_args_s": "s",
    "cli.dispatch_s": "s", "cli.corpus_s": "s", "cli.process_s": "s",
    "trace.missing_names": "count",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _nonzero_count(value) -> int:
    coeffs = getattr(value, "coeffs", None)
    return sum(1 for c in coeffs if c) if coeffs is not None else 1


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, ctx=None):
        self.ctx = ctx
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("b")
        self.stack: list = []
        self.values = {"multicomplex.mul_terms": 0, "polysolve.roots_returned": 0, "surd.stock_degree": 0}
        self.rc_calls = 0
        self.rc_ns = 0
        self.rc_depth = 0
        self.missing: list = []
        self.installed: list = []
        self.children: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        clock = time.perf_counter_ns
        tracer = self
        values = self.values
        counts_terms = name == "multicomplex.mul"
        count_after = _COUNT_AFTER.get(name)

        def wrapper(*args, **kwargs):
            if counts_terms:
                values["multicomplex.mul_terms"] += _nonzero_count(args[0]) * _nonzero_count(args[1])
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.flags.append(0)
            tracer.stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.flags[index] = NO_CONVERGENCE if type(exc).__name__ == "NoConvergence" else RAISED
                raise
            finally:
                tracer.end[index] = clock()
                tracer.start[index] = t0
                tracer.stack.pop()
            if count_after is not None:
                key, count = count_after
                values[key] += count(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_rc(self, fn):
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.rc_calls += 1
            if tracer.rc_depth:
                return fn(*args, **kwargs)
            tracer.rc_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.rc_ns += clock() - t0
                tracer.rc_depth = 0

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        if raw is None:  # inherited attribute: wrap what lookup finds
            raw = getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self.installed.append((owner, attr, raw))

    def install(self) -> None:
        for name, module_name, path in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._replace(*found, lambda fn, name=name: self._wrap(name, fn))
        found = _resolve("hypercomplex.scalars", "RationalComplex")
        if found is None:
            self.missing.append("hypercomplex.scalars.RationalComplex")
            return
        rc = getattr(*found)
        for attr in RC_METHODS:
            if hasattr(rc, attr):
                self._replace(rc, attr, self._wrap_rc)
            else:
                self.missing.append(f"hypercomplex.scalars.RationalComplex.{attr}")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self.installed):
            setattr(owner, attr, raw)
        self.installed.clear()

    # -- child processes ---------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(t) for t in zip(self.span_name, self.parent, self.start, self.end, self.flags)],
            "values": self.values,
            "rc": [self.rc_calls, self.rc_ns],
            "missing": self.missing,
        }

    def absorb(self, child: dict) -> None:
        """Append a child process's spans (from ``dump``) to this store."""
        offset = len(self.span_name)
        ids = [self._id(n) for n in child["names"]]
        for name, parent, start, end, flags in child["spans"]:
            self.span_name.append(ids[name])
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.start.append(start)
            self.end.append(end)
            self.flags.append(flags)
        for key, value in child["values"].items():
            self.values[key] = self.values.get(key, 0) + value
        self.rc_calls += child["rc"][0]
        self.rc_ns += child["rc"][1]
        for name in child["missing"]:
            if name not in self.missing:
                self.missing.append(name)
        self.children.append({k: child[k] for k in ("import_s", "numpy_import_s", "wall_s") if k in child})

    # -- metrics -----------------------------------------------------------

    def metrics(self, rounds: int, setup: list) -> dict:
        if self.ctx is not None:
            for child in self.ctx.child_traces:
                self.absorb(child)
        n = len(self.span_name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += dur[i]

        calls: dict = {}
        total: dict = {}
        self_ns: dict = {}
        sub = rec = fallbacks = no_conv = 0
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            # nearest ancestor of the same name, and nearest context span
            same = False
            context = None
            p = self.parent[i]
            in_complex_roots = False
            while p >= 0:
                pname = names[self.span_name[p]]
                if pname == name:
                    same = True
                if pname == "polysolve.complex_roots":
                    in_complex_roots = True
                if context is None and pname in _CONTEXT:
                    context = pname
                p = self.parent[p]
            if not same:
                total[name] = total.get(name, 0) + dur[i]
                self_ns[name] = self_ns.get(name, 0) + dur[i] - child_ns[i]
            if context == "polysolve.solve":
                if name in ("bicomplex.mul", "multicomplex.mul", "polysolve.substitute"):
                    sub += dur[i]
                elif name in ("bicomplex.recompose", "multicomplex.unsplit"):
                    rec += dur[i]
            if name == "numpy.roots" and in_complex_roots:
                fallbacks += 1
            if name == "polysolve.complex_roots" and self.flags[i] == NO_CONVERGENCE:
                no_conv += 1

        per = max(rounds, 1)

        def s(name):
            return total.get(name, 0) / 1e9 / per

        def c(name):
            return calls.get(name, 0) / per

        if self.children:
            imports = [ch["import_s"] for ch in self.children]
            numpy_imports = [ch["numpy_import_s"] for ch in self.children]
            process_s = sum(ch["wall_s"] for ch in self.children) / per
        else:
            imports = [x["import_s"] for x in setup]
            numpy_imports = [x["numpy_import_s"] for x in setup]
            process_s = 0.0
        values = {
            "multicomplex.mul_calls": c("multicomplex.mul"),
            "multicomplex.mul_s": s("multicomplex.mul"),
            "multicomplex.mul_terms": self.values["multicomplex.mul_terms"] / per,
            "multicomplex.split_s": s("multicomplex.split"),
            "multicomplex.unsplit_s": s("multicomplex.unsplit"),
            "multicomplex.zero_divisor_s": s("multicomplex.zero_divisor"),
            "multicomplex.pow_s": s("multicomplex.pow"),
            "bicomplex.mul_calls": c("bicomplex.mul"),
            "bicomplex.mul_s": s("bicomplex.mul"),
            "bicomplex.decompose_s": s("bicomplex.decompose"),
            "bicomplex.recompose_s": s("bicomplex.recompose"),
            "bicomplex.inverse_s": s("bicomplex.inverse"),
            "scalars.rc_calls": self.rc_calls / per,
            "scalars.rc_s": self.rc_ns / 1e9 / per,
            "biquaternion.mul_s": s("biquaternion.mul"),
            "biquaternion.solve_quadratic_s": s("biquaternion.solve_quadratic"),
            "quadruple.derive_calls": c("quadruple.derive"),
            "quadruple.derive_s": s("quadruple.derive"),
            "polysolve.solve_calls": c("polysolve.solve"),
            "polysolve.solve_s": s("polysolve.solve"),
            "polysolve.self_s": self_ns.get("polysolve.solve", 0) / 1e9 / per,
            "polysolve.complex_roots_calls": c("polysolve.complex_roots"),
            "polysolve.complex_roots_s": s("polysolve.complex_roots"),
            "polysolve.companion_fallbacks": fallbacks / per,
            "polysolve.no_convergence": no_conv / per,
            "polysolve.roots_returned": self.values["polysolve.roots_returned"] / per,
            "polysolve.substitution_s": sub / 1e9 / per,
            "polysolve.recombine_s": rec / 1e9 / per,
            "ratpoly.mul_calls": c("ratpoly.mul"),
            "ratpoly.mul_s": s("ratpoly.mul"),
            "ratpoly.rational_roots_s": s("ratpoly.rational_roots"),
            "ratpoly.numpy_roots_calls": c("ratpoly.numpy_roots"),
            "ratpoly.numpy_roots_s": s("ratpoly.numpy_roots"),
            "surd.parse_s": s("surd.parse"),
            "surd.stock_s": s("surd.stock"),
            "surd.classify_self_s": self_ns.get("surd.classify", 0) / 1e9 / per,
            "surd.stock_degree": self.values["surd.stock_degree"] / per,
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cli.numpy_import_s": statistics.median(numpy_imports) if numpy_imports else 0.0,
            "cli.parse_args_s": s("cli.parse_args"),
            "cli.dispatch_s": s("cli.dispatch"),
            "cli.corpus_s": s("cli.corpus"),
            "cli.process_s": process_s,
            "trace.missing_names": len(self.missing),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write(self, path) -> None:
        """Spans as arrays (numpy .npz) plus the names and missing list."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names or [""]),
            span_name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            flags=np.asarray(self.flags, dtype=np.int8),
            missing=np.array(self.missing or [""]),
            meta=np.array(json.dumps({"rc_calls": self.rc_calls, "rc_ns": self.rc_ns})),
        )
