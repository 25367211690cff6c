"""Span tracing from outside the program.

Each traced function is replaced, at the module or class attribute where its
caller looks it up, by a wrapper that records a span (name, start, end,
parent, returned-normally flag).  Spans live in flat in-memory arrays while
the workload runs and are written out only after it ends.  A span's self
time is its duration minus the time its direct children cover.

The hottest F_q methods are only counted, never spanned: a span per field
operation would cost more than the operation itself.
"""

from __future__ import annotations

import importlib
import itertools
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.stack = [-1]
        self.counters: dict[str, itertools.count] = {}
        self.hooks: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _target(owner, attr: str):
        """The function to wrap, or None when this version has no such name
        (its metric then reads zero instead of the benchmark failing)."""
        return None if owner is None else vars(owner).get(attr)

    def span(self, owner, attr: str, name: str, post=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `post(result, hooks)` may add to the `hooks` counters for the call.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        fn = self._target(owner, attr)
        if fn is None:
            return
        names, parents, starts, ends, oks = (self.name, self.parent, self.start,
                                             self.end, self.ok)
        stack, hooks, clock = self.stack, self.hooks, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            oks.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            oks[idx] = 1
            if post is not None:
                post(result, hooks)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr under `name` (several attrs may share it)."""
        counter = self.counters.setdefault(name, itertools.count())
        fn = self._target(owner, attr)
        if fn is None:
            return

        def wrapper(*args):
            next(counter)
            return fn(*args)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        """Calls per counter.  Read once, after uninstall(): next() on an
        itertools.count returns how often it was advanced, and advances it."""
        return {name: next(c) for name, c in self.counters.items()}

    def summary(self, np):
        """Per span name: calls, calls that returned, self and inclusive seconds.

        Inclusive time skips spans whose direct parent has the same name, so a
        function nested in itself (parse_matrix -> parse_element share one
        name) is not counted twice.
        """
        k = len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        ok = np.array(self.ok, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        outer = np.ones(len(name), dtype=bool)
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        calls = np.bincount(name, minlength=k)
        returned = np.bincount(name, weights=ok, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        incl_s = np.bincount(name[outer], weights=dur[outer], minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "returned": int(returned[i]),
                                "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
                for i in range(k)}

    def write(self, path, np) -> None:
        """Write every span to an .npz file: names, name id, parent, start, end, ok."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 ok=np.frombuffer(self.ok, dtype=np.int8))


def _gcd_useful(g, hooks) -> None:
    if g.degree > 0:
        hooks["ratfunc.gcd_useful"] = hooks.get("ratfunc.gcd_useful", 0) + 1


def _grid_points(grid, hooks) -> None:
    hooks["batch.points"] = hooks.get("batch.points", 0) + grid.n


def _module(name: str):
    try:
        return importlib.import_module(f"hopforders.{name}")
    except ImportError:
        return None


def install(tr: Tracer, hf) -> None:
    """Wrap the layer boundaries of `hf`, the imported hopforders package."""
    fields, ratfunc, matrix, orders, families, batch, cli = (
        _module(m) for m in
        ("fields", "ratfunc", "matrix", "orders", "families", "_batch", "cli"))

    for attr in ("__mul__", "__rmul__"):
        tr.count(getattr(fields, "FqElem", None), attr, "fields.mul")
    tr.count(getattr(fields, "FqElem", None), "__bool__", "fields.bool")

    tr.span(ratfunc, "poly_gcd", "ratfunc.poly_gcd", post=_gcd_useful)
    for attr, op in (("__init__", "init"), ("__add__", "add"), ("__radd__", "add"),
                     ("__sub__", "sub"), ("__rsub__", "sub"), ("__mul__", "mul"),
                     ("__rmul__", "mul"), ("__truediv__", "div"),
                     ("__rtruediv__", "div"), ("__neg__", "neg"),
                     ("inverse", "inverse"), ("pth_power", "pth_power"),
                     ("__pow__", "pow")):
        tr.span(getattr(ratfunc, "RatFunc", None), attr, f"ratfunc.RatFunc.{op}")

    for attr, op in (("inv", "inv"), ("det", "det"), ("__matmul__", "matmul"),
                     ("twist", "twist"), ("is_integral", "is_integral"),
                     ("is_unit", "is_unit")):
        tr.span(getattr(matrix, "Mat", None), attr, f"matrix.Mat.{op}")

    # Public functions are looked up in their own module, in the package
    # namespace (the benchmark's own calls) and, by from-import, in the
    # modules that use them; each lookup site gets the same span name.
    sites = (hf, orders, families, cli)
    for fn in ("order_from_theta", "ddl_normalize", "same_order", "special_fibre",
               "is_ddl"):
        for owner in sites:
            tr.span(owner, fn, f"orders.{fn}")
    for fn in ("oracle_check_family", "enumerate_orders"):
        for owner in sites:
            tr.span(owner, fn, f"families.{fn}")
    tr.span(families, "oracle_is_order", "families.oracle_is_order")
    tr.span(families, "_record_from_row", "families.record_build")

    tr.span(batch, "CellGrid", "_batch.grid", post=_grid_points)
    for fn in ("oracle_verdicts", "predicate_verdicts", "loose_alpha_p2_verdicts"):
        tr.span(batch, fn, "_batch.kernel")

    for fn in ("parse_matrix", "parse_element", "parse_field_spec"):
        for owner in sites:
            tr.span(owner, fn, "cli.parse")
    tr.span(cli, "main", "cli.main")
