"""Spans around calls into the layers of `fourier_minors`, from outside it.

`install` replaces selected public functions and two `CycRing` methods by
recording wrappers, at every module binding of each function (modules
import by name, so `theorems.is_singular` and `minors.is_singular` are two
bindings of one function).  A wrapper only times the call and passes
arguments and results through unchanged, so no verdict or record payload
depends on tracing.

A span is (name, start, end, parent, task, items): `parent` is the index of
the enclosing span, `task` the index of the CLI task running, `items` the
batch size of a kernel call.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute) -> span name.  The module-level functions a CLI task
# reaches, one entry per layer boundary.
FUNCTIONS = {
    ("cyclotomic", "ring_new"): "cyclotomic.ring_new",
    ("powerdet", "det_power_batch"): "powerdet.exact",
    ("powerdet", "det_power_single"): "powerdet.single",
    ("powerdet", "approx_det_batch"): "powerdet.approx",
    ("minors", "det_exact"): "minors.det_exact",
    ("minors", "is_singular"): "minors.is_singular",
    ("minors", "minor_record"): "minors.minor_record",
    ("theorems", "scan_all"): "theorems.scan",
    ("theorems", "verify_theorem1"): "theorems.theorem1",
    ("theorems", "witness_sweep"): "theorems.witness",
    ("theorems", "build_witness"): "theorems.build_witness",
    ("search", "find_good_permutation"): "search.find",
    ("search", "is_good_permutation"): "search.verify",
    ("cli", "main"): "cli.main",
}

MODULES = ("cyclotomic", "powerdet", "minors", "theorems", "search", "cli")

# Kernel entry points whose first argument after the ring is a (B, r, r) batch.
_BATCHED = {"powerdet.exact", "powerdet.approx"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task: int | None = None
        self.bindings: list[str] = []

    def _open(self, name: str, items: int) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, self.task, items]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        batched = name in _BATCHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = len(args[1]) if batched else 1
            span = self._open(name, items)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self, package: str = "fourier_minors") -> None:
        """Wrap every binding of FUNCTIONS plus ring construction."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        all_mods = [sys.modules[package], *mods.values()]
        originals = {}
        for (mod, attr), name in FUNCTIONS.items():
            fn = getattr(mods[mod], attr)
            originals[id(fn)] = (fn, self.wrap(name, fn))
        for module in all_mods:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.bindings.append(f"{module.__name__}.{attr}")
        self._install_ring_build(mods["cyclotomic"].CycRing)

    def _install_ring_build(self, ring_cls) -> None:
        """A ring build is its constructor plus its first `np_tables` call."""
        tracer = self
        init, np_tables = ring_cls.__init__, ring_cls.np_tables
        tabled = weakref.WeakKeyDictionary()

        @functools.wraps(init)
        def traced_init(self, *args, **kwargs):
            span = tracer._open("cyclotomic.ring_build", 1)
            try:
                return init(self, *args, **kwargs)
            finally:
                tracer._close(span)

        @functools.wraps(np_tables)
        def traced_np_tables(self):
            if self in tabled:
                return np_tables(self)
            tabled[self] = True
            span = tracer._open("cyclotomic.ring_build", 0)
            try:
                return np_tables(self)
            finally:
                tracer._close(span)

        ring_cls.__init__ = traced_init
        ring_cls.np_tables = traced_np_tables
        self.bindings += [f"{ring_cls.__module__}.CycRing.__init__",
                          f"{ring_cls.__module__}.CycRing.np_tables"]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span run one after another in this single-threaded
    program, so the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, task, items in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def has_ancestor(spans: list[list], i: int, names: set[str]) -> bool:
    p = spans[i][3]
    while p is not None:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False
