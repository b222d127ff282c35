"""Span tracing of the stburgers layers, done from outside the program.

`Tracer.install()` replaces every public function of each package module
with a wrapper that records one span per call.  The wrapper is also set
on every other module that re-imports the name (`solver.product_cosine`
is the same function as `fields.product_cosine`), so calls between
layers are seen.  A few extra callables are wrapped by name: `gmres` as
bound in `solver`, the private Newton loop `solver._newton`, and the
`PeriodMap` constructor and `apply` method.

A span is one row of six floats: span id, name id, start, end, parent
span id (-1 at the top of an op) and op id.  Rows are appended to one
flat array with a single call, so an alarm that abandons an op can never
leave half a row; `abandon_op` then drops every row of that op.  Self
time is computed at the end from parentage: a span's duration minus the
durations of its direct children (calls are nested on one thread, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import time
import types
from array import array

import numpy as np

LAYERS = ("fields", "operators", "norms", "solver", "colehopf", "scaling", "verify")

# names that are not public stburgers functions but whose time and
# results the per-layer metrics need, as {module: (attribute, ...)}
EXTRA = {"solver": ("gmres", "_newton")}
METHODS = {("colehopf", "PeriodMap"): ("__init__", "apply")}

ROW = 6  # sid, name id, start, end, parent sid, op id


def _product_cosine_flops(args, kwargs) -> int:
    """Real flops of the four complex matmul chains in product_cosine,
    computed from their shapes (8 flops per complex multiply-add)."""
    u = args[0]
    n_t_out = kwargs.get("n_t_out", args[2] if len(args) > 2 else None)
    n_x_out = kwargs.get("n_x_out", args[3] if len(args) > 3 else None)
    n_t_out = 2 * u.n_t if n_t_out is None else n_t_out
    n_x_out = 2 * u.n_x if n_x_out is None else n_x_out
    m_t = 2 * u.n_t + n_t_out + 1
    m_x = 2 * u.n_x + n_x_out + 2
    rows_in, rows_out = 2 * u.n_t + 1, 2 * n_t_out + 1
    to_grid = m_t * rows_in * u.n_x + m_t * u.n_x * m_x
    analyse = rows_out * m_t * m_x + rows_out * m_x * (n_x_out + 1)
    return 8 * (2 * to_grid + analyse)


class Tracer:
    def __init__(self):
        self.spans = array("d")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._next = 0
        self.op = 0
        self.active = False
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._op_mark = (0, {})
        self.hooks = {
            "fields.time_eval_matrix": self._count_bytes,
            "fields.space_eval_matrix": self._count_bytes,
            "fields.product_cosine": self._count_flops,
            "solver.gmres": self._count_gmres,
            "solver._newton": self._count_newton,
            "solver.newton_solve": self._track_residual,
            "solver.homotopy_solve": self._track_residual,
            "verify.run_suite": self._track_margin,
        }

    # -- counters filled from call results -------------------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _count_bytes(self, args, kwargs, result):
        self._add("fields.eval_matrix.bytes", result.nbytes)

    def _count_flops(self, args, kwargs, result):
        self._add("fields.product_cosine.flops", _product_cosine_flops(args, kwargs))

    def _count_gmres(self, args, kwargs, result):
        self._add("solver.gmres.nonconverged", int(result[1] != 0))

    def _count_newton(self, args, kwargs, result):
        self._add("solver.newton_iters", result.newton_iters)

    def _track_residual(self, args, kwargs, result):
        key = "solver.residual_dual.max"
        self.counters[key] = max(self.counters.get(key, 0.0), result.residual_dual)

    def _track_margin(self, args, kwargs, result):
        # margin of every invariant with a positive tolerance; the
        # zero-tolerance ones report a violation that is 0 when they hold
        key = "verify.invariant_margin.min"
        margins = [r.tolerance - r.value for r in result if r.tolerance > 0]
        if margins:
            self.counters[key] = min(self.counters.get(key, np.inf), min(margins))

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self.hooks.get(name)
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, nid, t0, t1, stack[-1], tracer.op))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layers; `uninstall` puts the originals back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("stburgers")
        modules = {m: importlib.import_module(f"stburgers.{m}") for m in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr in EXTRA.get(layer, ()):
                    name = f"{layer}.{attr}"
                elif attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                elif obj.__module__.startswith("stburgers."):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                else:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patch(mod, attr, wrappers[id(obj)])
        for attr, obj in list(vars(package).items()):
            if id(obj) in wrappers:
                self._patch(package, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            for meth in methods:
                fn = getattr(cls, meth, None) if cls is not None else None
                if isinstance(fn, types.FunctionType):
                    label = f"{layer}.{cls_name}.{meth.strip('_')}"
                    self._patch(cls, meth, self._wrap(fn, label))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- op boundaries ---------------------------------------------------

    def begin_op(self) -> None:
        """Start the next op: spans get a new op id and a fresh stack."""
        self.op += 1
        del self._stack[1:]
        self._op_mark = (len(self.spans), dict(self.counters))

    def abandon_op(self) -> None:
        """Drop every span and counter update of the op in progress."""
        length, counters = self._op_mark
        del self.spans[length:]
        del self._stack[1:]
        self.counters = counters

    # -- summaries -------------------------------------------------------

    def table(self):
        """(rows, duration, self time, parent row) as numpy arrays."""
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, ROW)
        sid = rows[:, 0].astype(np.int64)
        parent = rows[:, 4].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        pos = np.full(max(self._next, 1), -1, dtype=np.int64)
        pos[sid] = np.arange(len(rows))
        prow = np.where(parent >= 0, pos[np.maximum(parent, 0)], -1)
        child = np.zeros(len(rows))
        has = prow >= 0
        np.add.at(child, prow[has], dur[has])
        return rows, dur, dur - child, prow

    def per_name(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        rows, _, self_t, _ = self.table()
        nid = rows[:, 1].astype(np.int64)
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=self_t, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def child_count(self, child: str, parent: str) -> int:
        """Spans named `child` whose parent span is named `parent`."""
        if child not in self._ids or parent not in self._ids:
            return 0
        rows, _, _, prow = self.table()
        nid = rows[:, 1].astype(np.int64)
        mask = (nid == self._ids[child]) & (prow >= 0)
        return int((nid[prow[mask]] == self._ids[parent]).sum())

    def save(self, path) -> None:
        """Write the spans as columns, times in seconds from the first span."""
        rows = np.frombuffer(self.spans, dtype=float).reshape(-1, ROW)
        t0 = rows[:, 2].min() if len(rows) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            span_id=rows[:, 0].astype(np.int32),
            name_id=rows[:, 1].astype(np.int16),
            start_s=rows[:, 2] - t0,
            end_s=rows[:, 3] - t0,
            parent_span_id=rows[:, 4].astype(np.int32),
            op_id=rows[:, 5].astype(np.int32),
        )
