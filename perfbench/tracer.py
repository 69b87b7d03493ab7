"""In-memory span tracer that wraps rabicav's functions from outside the package.

Every module binding of a traced function is replaced by one shared wrapper,
so a ``from .closed_form import opencavity_rho`` copy in ``entangle`` records
the same span name as the original.  Spans are kept in a list with a link to
the span that was open when they started; :func:`summarize` turns them into
per-name call counts, inclusive time and self time (span length minus the
union of its children).  Spans live in flat per-thread arrays, so a traced
pass with a million calls stays within a few tens of megabytes and sweep
threads record without a lock.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from array import array
from time import perf_counter

PACKAGE = "rabicav"
MODULES = ("core", "models", "closed_form", "evolve", "dephase", "davies",
           "entangle", "fitting", "acceptance", "cli")

# Private helpers that carry a per-layer metric of their own.
PRIVATE = {
    "closed_form": ("_fallback_rho",),
    "dephase": ("_quadrature",),
    "fitting": ("_residuals",),
    "cli": ("_simulate_rows", "_energy_rows", "_entangle_rows"),
}
# Public leaf helpers called once per CSV value: a span would cost more than
# the call and would swamp the CSV layer's own timing.
SKIP = {"cli.fmt"}
# Methods traced as "<module>.<Class>.<method>".
METHODS = {"core": (("DensityMatrix", "__post_init__"), ("DensityMatrix", "validate"))}


def _size(value) -> float:
    import numpy as np
    return float(np.size(value))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _csv_info(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    size = os.path.getsize(path) if path is not None else 0
    return (float(len(_arg(args, kwargs, 2, "rows"))), float(size))


def _fit_info(args, kwargs, result):
    inf = sum(1 for v in result.stderr.values() if v == float("inf"))
    return (float(result.iterations), float(result.converged), float(inf))


# Span name -> info(args, kwargs, result) giving numbers summed per name.
INFO = {
    "closed_form.opencavity_pg": lambda a, k, r: (_size(_arg(a, k, 3, "t")),),
    "dephase.convolve_pg": lambda a, k, r: (_size(_arg(a, k, 5, "t")),),
    "evolve.nstep_propagate": lambda a, k, r: (float(_arg(a, k, 5, "n")),),
    "evolve.integrate": lambda a, k, r: (float(len(r.states)),),
    "fitting.levenberg_marquardt": _fit_info,
    "cli.write_csv": _csv_info,
    "cli._entangle_rows": lambda a, k, r: (float(len(r[1])),),
}

# (child, ancestor) pairs whose nested call counts are reported.
NESTED = (("closed_form.damping_basis", "closed_form.opencavity_rho"),
          ("closed_form.opencavity_rho", "cli._entangle_rows"))


class _Buffer:
    """One thread's spans: name id, parent index, start and end columns.

    A parent index >= 0 is a span of the same thread; -2 - i is span i of the
    main thread, for the first span of a pool thread; -1 is no parent.
    """

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, tuple] = {}
        self.stack: list[int] = []


class Tracer:
    """Keeps one span buffer per thread, so recording takes no lock."""

    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = [_Buffer()]   # the main thread's first
        self._local = threading.local()
        self._local.buf = self.buffers[0]
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        nid = len(self.names)
        self.names.append(name)
        main = self.buffers[0]
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif buf is main or not main.stack:
                parent = -1
            else:
                # A pool thread's first span hangs under the main thread's
                # open span, which is blocked waiting for the pool.
                parent = -2 - main.stack[-1]
            idx = len(buf.start)
            buf.name_id.append(nid)
            buf.parent.append(parent)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                stack.pop()
            if info is not None:
                buf.info[idx] = info(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions."""
        import importlib

        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}

        def target(fn) -> str | None:
            if not inspect.isfunction(fn) or getattr(fn, "__wrapped_by_tracer__", False):
                return None
            home = fn.__module__ or ""
            if not home.startswith(PACKAGE + "."):
                return None
            short = home[len(PACKAGE) + 1:]
            public = not fn.__name__.startswith("_")
            if not (public or fn.__name__ in PRIVATE.get(short, ())):
                return None
            name = f"{short}.{fn.__name__}"
            return None if name in SKIP else name

        def wrapped(fn):
            name = target(fn)
            if name is None:
                return fn
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(name, fn)
            return wrappers[id(fn)]

        package = importlib.import_module(PACKAGE)
        for module in (package, *mods.values()):
            for attr, value in list(vars(module).items()):
                if isinstance(value, tuple) and value and all(map(inspect.isfunction, value)):
                    setattr(module, attr, tuple(wrapped(v) for v in value))
                elif wrapped(value) is not value:
                    setattr(module, attr, wrapped(value))
        for short, pairs in METHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(mods[short], cls_name)
                setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))


def _union_length(start, end) -> float:
    """Length of the union of the intervals [start_i, end_i]."""
    import numpy as np

    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.sum(np.maximum(reach - np.maximum(s, before), 0.0)))


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive time, self time, summed info and nested counts.

    Inclusive time is the union of a name's span intervals, so a recursive
    call, or calls overlapping in sweep threads, are not counted twice;
    ``module_s`` is the same union over every span of a module.  Self time
    subtracts same-thread children by sum and pool-thread children by union.
    """
    import numpy as np

    names = tracer.names
    cols = {"nid": [], "parent": [], "thread": [], "start": [], "end": []}
    infos: dict[int, tuple] = {}
    offset = 0
    for k, buf in enumerate(tracer.buffers):
        par = np.frombuffer(buf.parent, dtype=np.int64)
        glob = np.where(par >= 0, par + offset, np.where(par <= -2, -2 - par, -1))
        cols["nid"].append(np.frombuffer(buf.name_id, dtype=np.intc).astype(np.int64))
        cols["parent"].append(glob)
        cols["thread"].append(np.full(par.size, k))
        cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
        cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
        infos.update({i + offset: v for i, v in buf.info.items()})
        offset += par.size
    nid, parent, thread, start, end = (np.concatenate(cols[c]) for c in
                                       ("nid", "parent", "thread", "start", "end"))
    n = start.size
    dur = end - start
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
    child_s = np.bincount(parent[same], weights=dur[same], minlength=n)
    self_s = dur - child_s
    cross = np.flatnonzero(has_parent & ~same)
    for p in np.unique(parent[cross]):
        kids = cross[parent[cross] == p]
        self_s[p] -= _union_length(np.clip(start[kids], start[p], end[p]),
                                   np.clip(end[kids], start[p], end[p]))

    stats = {}
    for k in np.unique(nid):
        mask = nid == k
        stats[names[k]] = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum()),
                           "incl_s": _union_length(start[mask], end[mask]), "info": None}
    for idx, info in infos.items():
        st = stats[names[nid[idx]]]
        st["info"] = list(info) if st["info"] is None else [x + y for x, y in zip(st["info"], info)]
    modules = np.array([name.split(".", 1)[0] for name in names])[nid] if n else np.array([])
    module_s = {m: _union_length(start[modules == m], end[modules == m])
                for m in np.unique(modules)}

    nested = {}
    ids = {name: i for i, name in enumerate(names)}
    for child, ancestor in NESTED:
        found = np.zeros(0, dtype=bool)
        if child in ids and ancestor in ids:
            cur = parent[nid == ids[child]]
            found = np.zeros(cur.size, dtype=bool)
            while np.any(cur >= 0):
                live = cur >= 0
                found[live] |= nid[cur[live]] == ids[ancestor]
                cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        nested[f"{child}<{ancestor}"] = int(found.sum())
    return {"stats": stats, "module_s": module_s, "nested": nested, "spans": int(n)}
