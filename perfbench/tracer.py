"""Timing wrappers around the public functions of each mobiustree layer.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span, and rebinds it in every ``mobiustree`` module that holds
the function by name (``mobiustree.store.matrix_to_interval`` as well as
``mobiustree.encoding.matrix_to_interval``).  ``uninstall()`` puts the
originals back.

Kernel spans number in the millions per run, so spans are folded into
per-name totals as they close: calls, total seconds and self seconds
(duration minus the time covered by direct child spans).  Each span is
also counted under the outermost enclosing store or persistence span,
the operation the caller issued, which gives ratios such as ``encloses``
calls per ``descendants`` query.  Work that ``move_subtree`` does through
its own ``descendants`` call counts under ``move_subtree``.
"""

from __future__ import annotations

import os
import sys
import time

KERNELS = (
    "ext_gcd_raw",
    "euclid_quotients_raw",
    "cf_eval_raw",
    "path_to_matrix_raw",
    "matrix_to_path_raw",
    "mat_mul_raw",
    "cmp_raw",
)
ENCODING_FUNCS = (
    "parent",
    "child",
    "relative",
    "concat",
    "is_ancestor",
    "matrix_to_interval",
    "matrix_to_path",
    "path_to_matrix",
    "interval_to_matrix",
    "ratio_to_matrix",
)
STORE_METHODS = (
    "resolve",
    "all_nodes",
    "children",
    "descendants",
    "ancestors",
    "stats",
    "add_child",
    "delete_subtree",
    "move_subtree",
)


class Tracer:
    def __init__(self):
        self.table: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.scoped: dict[tuple, int] = {}  # (scope or None, name) -> calls
        self.extra: dict[str, float] = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, scope=False, on_exit=None):
        stack, table, scoped = self._stack, self.table, self.scoped
        table.setdefault(name, [0, 0.0, 0.0])
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            enclosing = stack[-1][1] if stack else None
            frame = [0.0, name if scope and enclosing is None else enclosing]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                rec = table[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                key = (enclosing, name)
                scoped[key] = scoped.get(key, 0) + 1
            if on_exit is not None and enclosing is None:
                on_exit(args, result)
            return result

        return wrapper

    def _count(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("mobiustree"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, **kw)))
        else:
            setattr(cls, attr, self._wrap(name, raw, **kw))
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        from mobiustree import encoding, exactmath, kernels, store

        for k in KERNELS:
            fn = getattr(kernels, k)
            self._rebind_everywhere(fn, self._wrap(f"kernels.{k}", fn))

        ratio = exactmath.Ratio
        self._patch_method(ratio, "__init__", "exactmath.ratio_new")
        for op in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            self._patch_method(ratio, op, "exactmath.ratio_compare")
        fn = exactmath.ratio_cmp
        self._rebind_everywhere(fn, self._wrap("exactmath.ratio_compare", fn))

        self._patch_method(encoding.MobiusMatrix, "__init__", "encoding.matrix_new")
        self._patch_method(encoding.NestedInterval, "encloses", "encoding.encloses")
        self._patch_method(encoding.Path, "parse", "encoding.path_parse")
        for f in ENCODING_FUNCS:
            fn = getattr(encoding, f)
            self._rebind_everywhere(fn, self._wrap(f"encoding.{f}", fn))

        def returned(args, result):
            self._count("store.descendants.returned", len(result))

        def written(args, result):
            self._count("persistence.bytes_written", os.path.getsize(args[1]))

        def read(args, result):
            self._count("persistence.bytes_read", os.path.getsize(args[1]))

        ts = store.TreeStore
        for m in STORE_METHODS:
            on_exit = returned if m == "descendants" else None
            self._patch_method(ts, m, f"store.{m}", scope=True, on_exit=on_exit)
        self._patch_method(ts, "save", "persistence.save", scope=True, on_exit=written)
        self._patch_method(ts, "load", "persistence.load", scope=True, on_exit=read)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "table": self.table,
            "scoped": [[s, n, c] for (s, n), c in self.scoped.items()],
            "extra": self.extra,
        }

    def merge(self, dumped: dict) -> None:
        """Add the totals of another tracer (a CLI child process)."""
        for name, (calls, total, self_s) in dumped["table"].items():
            rec = self.table.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for scope, name, calls in dumped["scoped"]:
            self.scoped[(scope, name)] = self.scoped.get((scope, name), 0) + calls
        for key, amount in dumped["extra"].items():
            self._count(key, amount)

    def calls(self, name: str) -> int:
        return self.table.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.table.get(name, (0, 0.0, 0.0))[2]

    def under(self, scope: str | None, name: str) -> int:
        """Calls of name inside operations of scope; None counts the
        operations themselves."""
        return self.scoped.get((scope, name), 0)

    def layer_metrics(self) -> dict:
        """Per-layer figures as {name: (value, unit)}."""
        out = {}

        def per(num, den):
            return num / den if den else 0.0

        kernel_names = [f"kernels.{k}" for k in KERNELS]
        out["kernels.calls"] = (sum(self.calls(k) for k in kernel_names), "count")
        out["kernels.self_s"] = (sum(self.self_s(k) for k in kernel_names), "s")
        for k in ("cmp_raw", "matrix_to_path_raw", "mat_mul_raw", "path_to_matrix_raw"):
            out[f"kernels.{k}.calls"] = (self.calls(f"kernels.{k}"), "count")
            out[f"kernels.{k}.self_s"] = (self.self_s(f"kernels.{k}"), "s")
        for k in ("ratio_new", "ratio_compare"):
            out[f"exactmath.{k}.calls"] = (self.calls(f"exactmath.{k}"), "count")
            out[f"exactmath.{k}.self_s"] = (self.self_s(f"exactmath.{k}"), "s")
        for k in ("matrix_new", "parent", "child", "relative", "concat",
                  "matrix_to_interval", "encloses", "path_parse"):
            out[f"encoding.{k}.calls"] = (self.calls(f"encoding.{k}"), "count")
            out[f"encoding.{k}.self_s"] = (self.self_s(f"encoding.{k}"), "s")
        out["encoding.matrix_new.per_insert"] = (
            per(self.under("store.add_child", "encoding.matrix_new"),
                self.under(None, "store.add_child")), "count")
        for m in STORE_METHODS:
            out[f"store.{m}.calls"] = (self.calls(f"store.{m}"), "count")
            out[f"store.{m}.self_s"] = (self.self_s(f"store.{m}"), "s")
        desc_calls = self.under(None, "store.descendants")
        returned = self.extra.get("store.descendants.returned", 0)
        scanned = self.under("store.descendants", "encoding.encloses")
        out["store.descendants.returned"] = (returned, "count")
        out["store.descendants.scanned"] = (scanned, "count")
        out["store.descendants.returned_per_scanned"] = (per(returned, scanned), "ratio")
        out["store.descendants.interval_builds_per_call"] = (
            per(self.under("store.descendants", "encoding.matrix_to_interval"), desc_calls),
            "count")
        out["store.ancestors.parent_steps_per_call"] = (
            per(self.under("store.ancestors", "encoding.parent"),
                self.under(None, "store.ancestors")), "count")
        for p in ("save", "load"):
            out[f"persistence.{p}.calls"] = (self.calls(f"persistence.{p}"), "count")
            out[f"persistence.{p}.self_s"] = (self.self_s(f"persistence.{p}"), "s")
        out["persistence.bytes_written"] = (self.extra.get("persistence.bytes_written", 0), "bytes")
        out["persistence.bytes_read"] = (self.extra.get("persistence.bytes_read", 0), "bytes")
        out["persistence.load.matrix_new.calls"] = (
            self.under("persistence.load", "encoding.matrix_new"), "count")
        return out
