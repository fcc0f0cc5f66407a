"""Span tracing of a program's functions, installed from outside the program.

`SpanTracer` replaces named module attributes (the bindings calling modules
look up at call time, such as ``dkf_admm.filtering:unvech``) with wrappers
that record one span per call: span name, parent span, request id, start and
end. Spans are held in compact in-memory arrays and written out once, at the
end, with `save`. A binding that no longer exists is recorded in `absent`
instead of raising, so a refactor of the program never breaks the trace.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from functools import wraps

import numpy as np


@dataclass(frozen=True)
class SpanStats:
    """Aggregate of every span of one name inside a span range."""

    calls: int
    total_s: float  # summed duration
    self_s: float  # summed duration minus the time covered by direct children
    durations_s: np.ndarray  # per-call duration, in call order


def resolve(binding):
    """(owner, attribute) for ``"package.module:Attr.path"``; None if missing."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class SpanTracer:
    """Wraps the given bindings while installed (use as a context manager).

    `bindings` maps a span name to the bindings that should record it; one
    function bound under several names records under the one span name.
    The last value returned under each span name in `keep` is kept in
    `returned`, so callers can inspect it (for example, array sizes).
    """

    def __init__(self, bindings, keep=()):
        self.bindings = {name: tuple(b) for name, b in bindings.items()}
        self.names = list(self.bindings)
        self.keep = frozenset(keep)
        self.absent = []
        self.returned = {}
        self.request = -1  # id shared by the spans of one request
        self._patched = []
        self._stack = []
        self._name = array("i")
        self._parent = array("q")
        self._request = array("q")
        self._t0 = array("d")
        self._t1 = array("d")

    # -- installation ---------------------------------------------------
    def __enter__(self):
        for idx, name in enumerate(self.names):
            for binding in self.bindings[name]:
                found = resolve(binding)
                if found is None:
                    self.absent.append(binding)
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, idx, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, idx, name):
        stack, keep = self._stack, name in self.keep
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, clock = self._t0, self._t1, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if keep:
                self.returned[name] = result
            return result

        return traced

    # -- reading --------------------------------------------------------
    def _arrays(self):
        # Copies, so no numpy view pins the buffers while spans are appended.
        return tuple(
            np.frombuffer(buf, dtype=dtype).copy()
            for buf, dtype in (
                (self._name, np.int32),
                (self._parent, np.int64),
                (self._request, np.int64),
                (self._t0, np.float64),
                (self._t1, np.float64),
            )
        )

    def summary(self, request=None) -> dict:
        """SpanStats per span name, every name present; only the spans of
        one request when `request` is given."""
        names, parents, requests, t0, t1 = self._arrays()
        dur = t1 - t0
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        chosen = np.ones(len(dur), dtype=bool) if request is None else requests == request
        out = {}
        for idx, name in enumerate(self.names):
            sel = chosen & (names == idx)
            out[name] = SpanStats(
                calls=int(sel.sum()),
                total_s=float(dur[sel].sum()),
                self_s=float(own[sel].sum()),
                durations_s=dur[sel],
            )
        return out

    def save(self, path):
        """Write every span recorded so far as one compressed .npz file."""
        names, parents, requests, t0, t1 = self._arrays()
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=names,
            parent=parents,
            request=requests,
            start_s=t0,
            end_s=t1,
            absent=np.array(self.absent, dtype=str),
        )
