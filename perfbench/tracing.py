"""Span tracing from outside the library.

The benchmark records a span around each wrapped call by replacing a
name where its caller resolves it (for example ``bqtru.quat.conv_mul``,
which the quaternion products call).  Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, op, error]`` and written out at
the end of the run.  Wrapping changes no argument or result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def _traced(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        label = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label(*args) if label else name, 0, 0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (used for the op root)."""
        return self._traced(fn, name)(*args)

    def wrap(self, owner: str, attr: str, name) -> bool:
        """Replace ``owner.attr`` by a traced version; name may be a function
        of the call's arguments.  Returns False when the attribute is absent,
        so the benchmark keeps working on library versions without it."""
        obj = _resolve(owner)
        fn = getattr(obj, attr, None) if obj is not None else None
        if not callable(fn):
            return False
        setattr(obj, attr, self._traced(fn, name))
        self._patched.append((obj, attr, fn))
        return True

    def restore(self):
        while self._patched:
            obj, attr, fn = self._patched.pop()
            setattr(obj, attr, fn)

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every (owner, attr, name) target for the duration of the block."""
        try:
            for owner, attr, name in targets:
                self.wrap(owner, attr, name)
            yield self
        finally:
            self.restore()

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds, errors by
        type, and the count of direct children by child name.

        Self time is a span's duration minus the part its children cover;
        spans nest strictly because the benchmark runs on one thread.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0,
                                   "errors": defaultdict(int),
                                   "children": defaultdict(int)})
        for i, (name, start, end, parent, _op, err) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_ns"] += end - start
            rec["self_ns"] += end - start - covered[i]
            if err:
                rec["errors"][err] += 1
            if parent >= 0:
                out[self.spans[parent][0]]["children"][name] += 1
        return out

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]},
                      fh, separators=(",", ":"))


def _resolve(dotted: str):
    """Object at a dotted path such as ``bqtru.lattice.np.linalg``, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
