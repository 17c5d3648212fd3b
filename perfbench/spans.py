"""Span tracer for orbitscope, installed from outside the package.

`Tracer.install()` wraps the public functions of the layer modules and
rebinds every module-level name that refers to them, so each call that
goes through a module's namespace (the cross-module calls, and a layer's
own calls to its public functions) records a span: name, start, end,
parent and whether it returned.  Spans stay in compact in-memory arrays
and are written out once, by `write()`.  `uninstall()` restores every
binding.

`numeric` is too hot for spans.  `log2_abs` and `sum_sqrt_cmp` are only
counted, and the QC operations are counted with one in `QC_SAMPLE` of
them timed; `numeric.qc_s` scales the sampled time up by that factor.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "certificates", "limit_sets", "orbits", "operators", "spaces")
# witness classes whose verify() is a span of its module's layer
VERIFY_CLASSES = {"limit_sets": ("JWitness", "DWitness"), "orbits": ("CoarseWitness",)}
COUNTED = ("log2_abs", "sum_sqrt_cmp")
QC_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "abs2")
QC_SAMPLE = 16


class Tracer:
    def __init__(self, package: str = "orbitscope"):
        self.modules = {name: importlib.import_module(f"{package}.{name}")
                        for name in LAYERS + ("numeric",)}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_ok = array("b")
        self._stack: list[int] = []
        self.calls_via: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[str, list[int]] = {}
        self._qc_count = itertools.count()
        self._qc_sampled = [0.0]
        self.qc_ops = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name_of, via: list[int]):
        names, parents = self.span_name, self.span_parent
        starts, ends, oks = self.span_start, self.span_end, self.span_ok
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            via[0] += 1
            idx = len(names)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            oks.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            oks[idx] = 1
            return out

        return wrapper

    def _counter(self, fn, cell: list[int]):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _qc_wrap(self, fn, unary: bool):
        count, sampled, perf = self._qc_count, self._qc_sampled, time.perf_counter

        if unary:
            def wrapper(a):
                if next(count) % QC_SAMPLE:
                    return fn(a)
                t0 = perf()
                out = fn(a)
                sampled[0] += perf() - t0
                return out
        else:
            def wrapper(a, b):
                if next(count) % QC_SAMPLE:
                    return fn(a, b)
                t0 = perf()
                out = fn(a, b)
                sampled[0] += perf() - t0
                return out
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, make_wrapper) -> None:
        """Point every module-level name bound to fn at a per-module wrapper."""
        for consumer, mod in self.modules.items():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, make_wrapper(consumer))

    def install(self) -> "Tracer":
        for layer in LAYERS:
            mod = self.modules[layer]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                if name == "spaces.cone_contains":
                    ids = {}

                    def name_of(args, ids=ids):
                        norm = args[0].norm.value
                        if norm not in ids:
                            ids[norm] = self._name_id(f"spaces.cone_contains[{norm}]")
                        return ids[norm]
                else:
                    nid = self._name_id(name)

                    def name_of(args, nid=nid):
                        return nid

                def make(consumer, fn=fn, name=name, name_of=name_of):
                    via = self.calls_via.setdefault((name, consumer), [0])
                    return self._span(fn, name_of, via)

                self._rebind(fn, make)
        for layer, classes in VERIFY_CLASSES.items():
            for cls_name in classes:
                cls = getattr(self.modules[layer], cls_name)
                nid = self._name_id(f"{layer}.{cls_name}.verify")
                via = self.calls_via.setdefault((f"{layer}.{cls_name}.verify", ""), [0])
                self._set(cls, "verify", self._span(cls.verify, lambda a, n=nid: n, via))
        certs = self.modules["certificates"].CERTIFICATES
        for cert, fn in list(certs.items()):
            nid = self._name_id(f"certificates.{cert.replace('-', '_')}")
            via = self.calls_via.setdefault((f"certificates.{cert}", ""), [0])
            self._restore.append((certs, cert, fn))
            certs[cert] = self._span(fn, lambda a, n=nid: n, via)
        numeric = self.modules["numeric"]
        for fname in COUNTED:
            cell = self.counts.setdefault(f"numeric.{fname}", [0])
            self._rebind(getattr(numeric, fname), lambda consumer, f=getattr(
                numeric, fname), c=cell: self._counter(f, c))
        for op in QC_OPS:
            self._set(numeric.QC, op, self._qc_wrap(getattr(numeric.QC, op),
                                                    unary=op == "abs2"))
        return self

    def uninstall(self) -> None:
        if self._restore:
            self.qc_ops = next(self._qc_count)
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def qc_s(self) -> float:
        return self._qc_sampled[0] * QC_SAMPLE

    def summary(self) -> dict:
        """Per-name call count, outermost total time and self time."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name = {name: {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0}
                    for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = per_name[name]
            row["calls"] += 1
            row["ok"] += self.span_ok[i]
            row["self_s"] += dur[i] - child[i]
            p = self.span_parent[i]
            nested = False
            while p >= 0:
                if self.span_name[p] == self.span_name[i]:
                    nested = True
                    break
                p = self.span_parent[p]
            if not nested:
                row["total_s"] += dur[i]
        return per_name

    def group_total(self, names: set[str]) -> float:
        """Time in spans of the group, not counting spans nested in the group."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for i in range(len(self.span_name)):
            if self.span_name[i] not in ids:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path: Path) -> None:
        """Header line of JSON, then the raw name/parent/start/end/ok arrays."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"], ["ok", "b"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_ok):
                arr.tofile(fh)
