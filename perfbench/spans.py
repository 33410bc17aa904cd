"""Spans recorded around calls into cyclorbit, and the patching that places them.

A span is (op, id, parent, name, start, end): the operation it belongs to,
its own id, the id of the span open when it started (None for an
operation's root), the layer-qualified name of the call, and perf_counter
times.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next = 0

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")

    def per_op(self):
        """{op: {span name: summed duration}}; the root span is named "op"."""
        out = {}
        for op, _, _, name, start, end in self.spans:
            totals = out.setdefault(op, {})
            totals[name] = totals.get(name, 0.0) + (end - start)
        return out


@contextmanager
def patched(replacements):
    """Temporarily set obj.attr = value for each (obj, attr, value)."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
