"""Spans around the simulator's public functions, recorded from outside.

The tracer replaces public functions of `mimopilots` with wrappers that
record one span per call: span name, parent span, drop, start and end, in
flat arrays kept in memory until the run ends. A function is looked up in
the module that defines it and every alias of it inside the package is
replaced, so the call sites in `harness`, `allocators` and `detection` are
all covered and a later re-import is still seen. Nothing under `src/` is
edited.

Times come from a clock that stops while a probe runs (the rank check on
ZF inputs), so a probe's cost lands in no span.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

# A ZF input counts as rank deficient when sigma_min < RANK_RCOND * sigma_max,
# the cutoff below which the combiner's pseudo-inverse drops a singular value.
RANK_RCOND = 1e-8


def _zf_rank_probe(tracer: "Tracer", args, kwargs, out) -> None:
    ghat = args[0] if args else kwargs["ghat"]
    try:
        s = np.linalg.svd(ghat, compute_uv=False)
    except np.linalg.LinAlgError:
        return
    tracer.count("zf_input.checked")
    if s[-1] < RANK_RCOND * s[0]:
        tracer.count("zf_input.rank_deficient")


def _draw_bytes(tracer: "Tracer", args, kwargs, out) -> None:
    # arrays a draw writes: the scatter block and the combined channel
    tracer.count("channel.draw.bytes_computed", out.g.nbytes + out.htilde.nbytes)


# (span name, defining module, attribute, hook run after the call outside
# every span)
FUNCTIONS = (
    ("model.sample_users", "mimopilots.model", "sample_users", None),
    ("los_metric.los_interference", "mimopilots.los_metric", "los_interference", None),
    ("channel.crandn", "mimopilots.channel", "crandn", None),
    ("estimation.ls_estimate", "mimopilots.estimation", "ls_estimate", None),
    ("estimation.los_rx", "mimopilots.estimation", "estimated_los_rx", None),
    ("estimation.los_rx", "mimopilots.estimation", "estimated_los_channel", None),
    ("estimation.synthesize_rx", "mimopilots.estimation", "synthesize_rx", None),
    ("pilots", "mimopilots.pilots", "build_pilot_book", None),
    ("pilots", "mimopilots.pilots", "pilot_matrix", None),
    ("detection.estimate_sinr", "mimopilots.detection", "estimate_sinr", None),
    ("detection.zf_combiner", "mimopilots.detection", "zf_combiner", _zf_rank_probe),
)

# (span name, defining module, class, method, hook)
METHODS = (
    ("channel.sampler_init", "mimopilots.channel", "ChannelSampler", "__init__", None),
    ("channel.draw", "mimopilots.channel", "ChannelSampler", "draw", _draw_bytes),
)

ROOT = "harness"


class Patches:
    """Attribute and dict-entry replacements that can be undone in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def undo(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mimopilots" or n.startswith("mimopilots."))]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.drop = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._paused = 0.0
        self.current_drop = -1
        self.counters: dict[str, dict[int, float]] = {}
        self.present: set[str] = set()
        self.absent: dict[str, str] = {}    # span name -> vanished attribute
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def clock(self) -> float:
        """perf_counter minus the time spent in probes."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: float = 1.0) -> None:
        per_drop = self.counters.setdefault(name, {})
        per_drop[self.current_drop] = per_drop.get(self.current_drop, 0.0) + value

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        names, parents, drops = self.name, self.parent, self.drop
        starts, ends, stack, clock = self.start, self.end, self._stack, self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            drops.append(self.current_drop)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                with self.paused():
                    hook(self, args, kwargs, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def install(self, allocator_table: dict, allocators) -> None:
        """Wrap every traced function. A name that no longer exists is
        recorded in `absent`, so it reads as missing instead of as zero."""
        mods = package_modules()
        for name, modname, attr, hook in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.absent[name] = f"{modname}.{attr}"
                continue
            self.present.add(name)
            wrapper = self.wrap(name, fn, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.set(mod, key, wrapper)
        for name, modname, clsname, meth, hook in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                self.absent[name] = f"{modname}.{clsname}.{meth}"
                continue
            self.present.add(name)
            self._patches.set(cls, meth, self.wrap(name, fn, hook))
        for alloc in allocators:
            name = f"allocators.{alloc}"
            if alloc not in allocator_table:
                self.absent[name] = f"mimopilots.harness.ALLOCATORS[{alloc!r}]"
                continue
            self.present.add(name)
            self._patches.set(allocator_table, alloc,
                              self.wrap(name, allocator_table[alloc]))

    @property
    def missing(self) -> set[str]:
        """Span names none of whose functions could be wrapped."""
        return set(self.absent) - self.present

    def uninstall(self) -> None:
        self._patches.undo()

    # -- reading -----------------------------------------------------------

    def per_drop(self) -> dict[int, dict[str, tuple[int, float]]]:
        """drop -> span name -> (calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, so the self times of one drop add up to its root span.
        """
        # copies: a view would pin the arrays against further appends
        start, end = np.array(self.start), np.array(self.end)
        name, parent, drop = np.array(self.name), np.array(self.parent), np.array(self.drop)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out: dict[int, dict[str, tuple[int, float]]] = {}
        for d in np.unique(drop):
            sel = drop == d
            calls = np.bincount(name[sel], minlength=len(self.names))
            secs = np.bincount(name[sel], weights=own[sel], minlength=len(self.names))
            out[int(d)] = {n: (int(calls[i]), float(secs[i]))
                           for i, n in enumerate(self.names)}
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), drop=np.array(self.drop),
                 start=np.array(self.start), end=np.array(self.end))
