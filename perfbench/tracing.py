"""In-memory span tracer that wraps urnwalk's public functions from outside.

Functions are wrapped at the names their callers bind: a function the CLI
imports by name is replaced in ``urnwalk.cli``, a module function called
through its own module's globals in that module, and a method on its
class.  Each call becomes a span with a name, start, end and parent; the
parent is the innermost open span on the same thread, or, for a span
opened by a worker thread of a scan pool, the innermost open span of the
main thread.

Spans are folded into aggregates when they close, so memory stays flat on
workloads with millions of calls:

* per name and per module: call count, inclusive seconds, self seconds;
* per kind (law evaluation, walk step, ...): outermost calls only, so a
  ``weights`` call that evaluates through ``log_weights`` counts once;
* per (kind, top) where top is the first library call under ``cli.main``;
* per (name, parent name): call count;
* counters reported by hooks at the call boundary.

Self time is a span's length minus the time its child spans cover; child
spans on other threads may overlap, so their union is taken.  ``cli.main``
spans and the spans directly under them are also kept as records and
written out.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from itertools import count
from pathlib import Path

RECORD_DEPTH = 1


class _Frame:
    __slots__ = ("id", "name", "kind", "module", "start", "parent", "top", "depth",
                 "child", "cross", "thread")

    def __init__(self, id, name, kind, module, start, parent, top, depth, thread):
        self.id = id
        self.name = name
        self.kind = kind
        self.module = module
        self.start = start
        self.parent = parent
        self.top = top
        self.depth = depth
        self.child = 0.0        # same-thread child time (children nest, never overlap)
        self.cross = []         # (start, end) of child spans on other threads
        self.thread = thread


class _Local:
    """One thread's open spans and aggregates; merged across threads at the end."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.clear()

    def clear(self) -> None:
        self.by_name = defaultdict(lambda: [0, 0.0, 0.0])      # count, incl, self
        self.by_module = defaultdict(lambda: [0, 0.0])         # count, self
        self.by_kind = defaultdict(lambda: [0, 0.0])           # outermost count, incl
        self.by_kind_top = defaultdict(lambda: [0, 0.0])
        self.by_parent = Counter()
        self.counters = Counter()
        self.records: list[tuple] = []


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Collects spans while ``active``; ``patch`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.active = False
        self._ids = count()
        self._lock = threading.Lock()
        self._locals: list[_Local] = []
        self._tls = threading.local()
        self._main_stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _local(self) -> _Local:
        loc = getattr(self._tls, "loc", None)
        if loc is None:
            loc = _Local()
            self._tls.loc = loc
            with self._lock:
                self._locals.append(loc)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = loc.stack
        return loc

    def _open(self, loc: _Local, name: str, kind: str, module: str) -> _Frame:
        stack = loc.stack
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]   # a scan-pool thread: the main thread's open span
        else:
            parent = None
        if parent is None:
            top, depth = None, 0
        else:
            top = parent.top if parent.top is not None else name
            depth = parent.depth + 1
        frame = _Frame(next(self._ids), name, kind, module, time.perf_counter(), parent, top,
                       depth, threading.get_ident())
        stack.append(frame)
        return frame

    def _close(self, loc: _Local, frame: _Frame) -> None:
        end = time.perf_counter()
        loc.stack.pop()
        dur = end - frame.start
        covered = frame.child + (_union(frame.cross, frame.start, end) if frame.cross else 0.0)
        self_t = dur - covered
        s = loc.by_name[frame.name]
        s[0] += 1
        s[1] += dur
        s[2] += self_t
        m = loc.by_module[frame.module]
        m[0] += 1
        m[1] += self_t
        parent = frame.parent
        if parent is None or parent.kind != frame.kind:
            k = loc.by_kind[frame.kind]
            k[0] += 1
            k[1] += dur
            kt = loc.by_kind_top[(frame.kind, frame.top)]
            kt[0] += 1
            kt[1] += dur
        if parent is not None:
            loc.by_parent[(frame.name, parent.name)] += 1
            if parent.thread == frame.thread:
                parent.child += dur
            else:
                parent.cross.append((frame.start, end))
        if frame.depth <= RECORD_DEPTH:
            loc.records.append((frame.id, frame.name, frame.start, end,
                                None if parent is None else parent.id))

    def wrap(self, fn, kind: str, hook=None):
        """Traced version of ``fn``; ``hook(args, result)`` returns counter increments."""
        tracer = self
        module = fn.__module__.rsplit(".", 1)[-1]
        name = f"{module}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            loc = tracer._local()
            frame = tracer._open(loc, name, kind, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(loc, frame)
            if hook is not None:
                loc.counters.update(hook(args, result))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, kind: str, hook=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, kind, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for loc in self._locals:
                loc.clear()

    def merged(self) -> dict:
        """Aggregates of every thread, summed."""
        out = {"by_name": defaultdict(lambda: [0, 0.0, 0.0]),
               "by_module": defaultdict(lambda: [0, 0.0]),
               "by_kind": defaultdict(lambda: [0, 0.0]),
               "by_kind_top": defaultdict(lambda: [0, 0.0]),
               "by_parent": Counter(), "counters": Counter(), "records": []}
        with self._lock:
            locals_ = list(self._locals)
        for loc in locals_:
            for key in ("by_name", "by_module", "by_kind", "by_kind_top"):
                for k, vals in getattr(loc, key).items():
                    acc = out[key][k]
                    for i, v in enumerate(vals):
                        acc[i] += v
            out["by_parent"].update(loc.by_parent)
            out["counters"].update(loc.counters)
            out["records"].extend(loc.records)
        out["records"].sort(key=lambda r: r[2])
        return out

    @staticmethod
    def write(agg: dict, path: Path) -> None:
        payload = {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in agg["records"]],
            "by_name": {k: {"count": v[0], "incl_s": v[1], "self_s": v[2]}
                        for k, v in sorted(agg["by_name"].items())},
            "by_parent": [{"name": n, "parent": p, "count": c}
                          for (n, p), c in sorted(agg["by_parent"].items())],
            "counters": dict(sorted(agg["counters"].items())),
        }
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
