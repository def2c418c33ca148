"""In-memory span tracer that wraps coarseset's public layer functions.

The wrappers live here, not in the program: ``install`` swaps each target
attribute for a timing wrapper and ``restore`` puts the originals back.
A target that no longer exists is recorded in ``missing`` and skipped, so
a renamed layer shows up in the report instead of failing the run.

Every span has an id, a parent id, the run id shared by all spans of one
command, a name, a thread and perf_counter start/end times. Spans opened on
a worker thread with nothing open on that thread take the innermost span
open on the installing thread as their parent (the sweep's thread pool is
started from ``harness.run_budget_sweep``). Spans stay in memory until
``write`` dumps them as JSON.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import threading
from contextlib import contextmanager
from itertools import count
from time import perf_counter

import numpy as np

# (owner, attribute, span name, wrapper kind). The CLI binds the store
# loaders at import, so they are wrapped where the CLI looks them up.
TARGETS = (
    ("coarseset.cli", "load_embeddings", "store.load", "load"),
    ("coarseset.cli", "load_labels", "store.load", "load"),
    ("coarseset.selector", "save_order", "selector.save_order", "plain"),
    ("coarseset.selector", "select_prefix", "selector.select_prefix", "plain"),
    ("coarseset.selector", "kcenter_greedy", "selector.kcenter_greedy", "plain"),
    ("coarseset.selector", "greedy_steps", "selector.greedy_steps", "greedy"),
    ("coarseset.selector", "random_order", "selector.random_order", "plain"),
    ("coarseset.harness", "run_budget_sweep", "harness.sweep", "plain"),
    ("coarseset.proxy", "train", "proxy.train", "train"),
    ("coarseset.proxy", "accuracy", "proxy.accuracy", "plain"),
    ("coarseset.proxy", "extract_features", "proxy.extract_features", "plain"),
    ("coarseset.rng:Rng", "shuffle", "rng.shuffle", "plain"),
)


def resolve(owner: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> class. Raises ImportError or
    AttributeError when it no longer exists."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Yields a dict of attributes that is stored with the span."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._home and self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid, "parent": parent, "run_id": self.run_id, "name": name,
                "thread": threading.get_ident(), "start": start, "end": end,
                "attrs": attrs,
            })

    # --- wrappers ------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for owner_name, attr, span_name, kind in targets:
            try:
                owner = resolve(owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            make = getattr(self, f"_wrap_{kind}")
            setattr(owner, attr, make(original, span_name))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_plain(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_load(self, fn, name):
        tracer = self

        def wrapper(path, *args, **kwargs):
            with tracer.span(name) as attrs:
                attrs["bytes"] = os.path.getsize(path)
                return fn(path, *args, **kwargs)

        return wrapper

    def _wrap_train(self, fn, name):
        tracer = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            cfg = bound.arguments["cfg"]
            m = len(bound.arguments["subset"])
            with tracer.span(name) as attrs:
                attrs["sgd_steps"] = cfg.epochs * math.ceil(m / cfg.batch_size)
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_greedy(self, fn, name):
        """Times the seeding (to the first yield) and each pick (between
        later yields), and counts points whose min-dist dropped per pick."""
        tracer = self

        def wrapper(e, initial_centers, budget, *args, **kwargs):
            with tracer.span(name) as attrs:
                attrs.update(n=e.n, d=e.d, seeds=len(initial_centers))
                steps = fn(e, initial_centers, budget, *args, **kwargs)
                t0 = perf_counter()
                state = next(steps)
                attrs["seed_s"] = perf_counter() - t0
                prev = state.min_dist.copy()
                picks: list[float] = []
                attrs["pick_s"] = picks
                attrs["useful"] = 0
                yield state
                while True:
                    t0 = perf_counter()
                    try:
                        state = next(steps)
                    except StopIteration:
                        break
                    picks.append(perf_counter() - t0)
                    cur = state.min_dist
                    attrs["useful"] += int(np.count_nonzero(cur < prev))
                    prev[:] = cur
                    yield state

        return wrapper

    # --- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        doc = {"run_id": self.run_id, "missing": self.missing, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
