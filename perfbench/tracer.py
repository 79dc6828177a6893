"""Call wrapping for the benchmark: counting hooks and span tracing.

A Tracer replaces functions at the attribute names their callers look them
up by (for example ``cmalab.badset.construct_section_chain``, which is the
name ``sample_badset_chains`` calls), and puts the originals back on
``uninstall``.  Two modes:

* counting (``spans=False``): each call bumps a per-name call count, and
  each call that raises bumps a per-(name, error type, level) failure count.
  No clock is read; this is what the untraced, end-to-end runs install.
* spans (``spans=True``): each call also records a span (name, start, end,
  parent, error type).  Spans stay in memory until ``dump``.

Self time of a span is its duration minus the time covered by its children;
calls are nested and single-threaded, so the children of one span never
overlap and their durations can simply be subtracted.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager


class ModuleProxy:
    """Stand-in for a module whose attributes can be wrapped without
    touching the real module (so other importers keep the originals)."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def resolve(dotted: str):
    """Return (owner, attribute) for ``package.module[.Class].attr``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {dotted!r}")


class Tracer:
    def __init__(self, spans: bool):
        self.record_spans = spans
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()   # (name, error type, level) -> n
        self.counters: Counter = Counter()   # counts taken from results
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: list[str | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.errors.append(None)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int, exc: BaseException | None) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.errors[sid] = type(exc).__name__

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (roots, phases); yields its id."""
        sid = self._open(name)
        try:
            yield sid
        except BaseException as exc:
            self._close(sid, exc)
            raise
        self._close(sid, None)

    # -- wrapping -----------------------------------------------------------

    def _record_failure(self, name: str, exc: BaseException) -> None:
        level = getattr(exc, "level", None)
        self.failures[(name, type(exc).__name__, level)] += 1

    def wrap(self, dotted: str, name: str, post=None) -> None:
        """Replace the function at ``dotted`` by a recording wrapper.

        ``post(tracer, result, args, kwargs)`` runs after a successful call
        in span mode and may add to ``tracer.counters``.
        """
        owner, attr = resolve(dotted)
        fn = getattr(owner, attr)
        tracer = self

        if self.record_spans:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                sid = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer._close(sid, exc)
                    tracer._record_failure(name, exc)
                    raise
                tracer._close(sid, None)
                if post is not None:
                    post(tracer, result, args, kwargs)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    tracer._record_failure(name, exc)
                    raise

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def proxy_module(self, dotted: str) -> None:
        """Swap the module bound at ``dotted`` for a ModuleProxy so its
        functions can be wrapped for this caller only."""
        owner, attr = resolve(dotted)
        real = getattr(owner, attr)
        self._patches.append((owner, attr, real))
        setattr(owner, attr, ModuleProxy(real))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self, root: int) -> dict[int, float]:
        """Self time of every span in the tree under ``root``."""
        dur = {root: self.ends[root] - self.starts[root]}
        selft = dict(dur)
        for sid in range(root + 1, len(self.names)):
            parent = self.parents[sid]
            if parent not in dur:
                break
            dur[sid] = self.ends[sid] - self.starts[sid]
            selft[sid] = dur[sid]
            selft[parent] -= dur[sid]
        return selft

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, error]."""
        rows = [[n, s, e, p, err] for n, s, e, p, err in zip(
            self.names, self.starts, self.ends, self.parents, self.errors)]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "error"],
                       "spans": rows}, fh)
