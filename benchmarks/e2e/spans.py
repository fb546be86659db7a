"""Spans around each call into a layer, and the self-time ledger.

Everything here observes the product from outside: spans are opened by
the harness's own loops, by a timing proxy around the store client the
harness hands to the supervisor, and by wrappers installed for one
traced run on a handful of public entry points.  A wrapper whose entry
point no longer exists degrades to a warning and a ``None`` metric
instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
import warnings
import weakref
from collections import defaultdict
from typing import Callable, Optional

#: Root span of one measured scenario; its self time is ``harness.other``.
SCENARIO = "scenario"


class Tracer:
    """In-memory span recorder.

    A span row is ``[name, start, end, parent, rep, on_driver]`` with
    ``parent`` an index into :attr:`spans` (-1 for a root).  Parents are
    tracked per thread, so a span opened on a daemon thread (the
    standby applying a generation while the driver waits in ``ship``)
    never becomes a child of the driver's stack.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.rep = -1
        self._driver = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def on_driver(self) -> bool:
        return threading.get_ident() == self._driver

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the plain baseline run)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def begin(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep,
               self.on_driver()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(row)
        stack.append(idx)
        row[1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> float:
        now = time.perf_counter()
        row = self.spans[idx]
        row[2] = now
        self._local.stack.pop()
        return now - row[1]

    @contextlib.contextmanager
    def _open(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def span(self, name: str):
        """Context manager recording one span (a no-op when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(name)


def self_times(spans: list[list], root: str = SCENARIO) -> dict[str, float]:
    """Self time per span name over the driver-thread spans under a
    ``root`` span: each span's duration minus what its children cover.
    The roots' own self time is returned under ``root``, so the values
    sum to the roots' total duration exactly."""
    under_root = [False] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _rep, on_driver) in enumerate(spans):
        if not on_driver:
            continue
        if parent < 0:
            under_root[i] = name == root
        else:
            under_root[i] = under_root[parent]
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _p, _rep, on_driver) in enumerate(spans):
        if on_driver and under_root[i]:
            out[name] += (end - start) - child_time[i]
    return dict(out)


class LayerLog:
    """Counts and per-call samples the probes harvest from the stats
    objects the wrapped functions already return."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Probe names whose entry point was missing.
        self.missing: set[str] = set()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def take(self) -> "LayerLog":
        """Hand over what was logged so far and start afresh."""
        taken = LayerLog()
        taken.counts, self.counts = self.counts, defaultdict(float)
        taken.samples, self.samples = self.samples, defaultdict(list)
        taken.missing = set(self.missing)
        return taken


def conversion_class(stats) -> str:
    """Which Figure-12 conversion a restart performed."""
    swap = bool(getattr(stats, "converted_endianness", False))
    widen = bool(getattr(stats, "converted_word_size", False))
    return {(False, False): "same", (True, False): "swap",
            (False, True): "widen", (True, True): "swap_widen"}[swap, widen]


GC_COUNTS = ("minor_collections", "major_cycles", "mark_slices",
             "sweep_slices", "promoted_words")


class Probes:
    """Wrappers installed on product entry points for one traced run."""

    def __init__(self, tracer: Tracer, log: LayerLog) -> None:
        self.tracer = tracer
        self.log = log
        self._undo: list[Callable[[], None]] = []
        self._gc_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- plumbing ----------------------------------------------------------

    def wrap(
        self,
        module: str,
        path: str,
        span: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> bool:
        """Wrap ``module:path`` (``Class.method`` or ``function``) in a
        span.  ``before(args)`` runs ahead of the span and ``after(args,
        result, seconds)`` behind it, so what they cost lands in the
        caller's self time, not the layer's.  Returns False (and warns)
        when the entry point is missing."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as e:
            warnings.warn(f"probe {module}:{path} unavailable: {e}")
            self.log.missing.add(span)
            return False
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.end(idx)
            if after is not None:
                after(args, result, seconds)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, fn))
        return True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- the probe set -----------------------------------------------------

    def install(self) -> None:
        self.wrap("repro", "VirtualMachine.run", "interpreter",
                  before=self._before_run, after=self._after_run)
        self.wrap("repro", "CheckpointWriter.checkpoint",
                  "checkpoint.writer", after=self._after_checkpoint)
        for entry in ("minor_collection", "full_major"):
            self.wrap("repro.gc", f"GCController.{entry}", "gc")
        # ``restart_vm`` / ``fetch_chain`` are plain functions, bound by
        # name in each module that calls them.
        for user in ("repro.store.ha", "repro.replication.live",
                     "repro.replication.standby"):
            self.wrap(user, "restart_vm", "checkpoint.reader",
                      after=self._after_restart)
        for user in ("repro.store.ha", "repro.replication.live"):
            self.wrap(user, "fetch_chain", "store.get")

    def _gc_stat(self, vm) -> Optional[dict]:
        try:
            return vm.gc.stat()
        except AttributeError:
            self.log.missing.add("gc")
            return None

    def _before_run(self, args) -> None:
        vm = args[0]
        if vm not in self._gc_seen:
            stat = self._gc_stat(vm)
            if stat is not None:
                self._gc_seen[vm] = (stat, vm.interp.instructions)

    def _after_run(self, args, result, seconds) -> None:
        if not self.tracer.on_driver():
            return
        vm = args[0]
        log = self.log
        log.add("interpreter.slices")
        seen = self._gc_seen.get(vm)
        stat = self._gc_stat(vm)
        if seen is None or stat is None:
            return
        last, last_instr = seen
        log.add("interpreter.instructions", result.instructions - last_instr)
        for key in GC_COUNTS:
            log.add(f"gc.{key}", stat[key] - last[key])
        log.counts["memory.heap_words"] = stat["heap_words"]
        log.counts["memory.live_words"] = stat["live_words"]
        self._gc_seen[vm] = (stat, result.instructions)

    def _after_checkpoint(self, args, stats, seconds) -> None:
        log = self.log
        log.add("checkpoint.writer.count")
        log.add(f"checkpoint.writer.{stats.kind}_count")
        log.add("checkpoint.writer.file_bytes", stats.file_bytes)
        for phase, sec in stats.phases.seconds.items():
            log.add(f"checkpoint.writer.{phase}_s", sec)
        if stats.kind == "delta" and stats.total_words:
            log.sample("memory.dirty_ratio",
                       stats.dirty_words / stats.total_words)

    def _after_restart(self, args, result, seconds) -> None:
        _vm, stats = result
        log = self.log
        if not self.tracer.on_driver():
            # The standby applying a shipped generation while the
            # driver waits inside ``ship``.
            log.add("replication.standby.apply_s", seconds)
            return
        log.add("checkpoint.reader.count")
        log.add("checkpoint.reader.heap_words", stats.heap_words)
        for phase, sec in stats.phases.seconds.items():
            log.add(f"checkpoint.reader.{phase}_s", sec)
        log.sample(f"restart_ms.{conversion_class(stats)}", seconds * 1e3)


class TimingClient:
    """A store client seen through a stopwatch.

    Forwards every attribute to the wrapped ``FleetClient``; the upload
    and download calls on the checkpoint path additionally open a
    ``store.put`` / ``store.get`` span and log their duration and sizes.
    """

    PUTS = frozenset({"put_checkpoint", "put_checkpoint_file"})
    LOOKUPS = frozenset({"get_manifest", "ls"})

    def __init__(self, inner, tracer: Tracer, log: LayerLog) -> None:
        self._inner = inner
        self._tracer = tracer
        self._log = log

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name in self.PUTS:
            return self._timed(attr, "store.put", self._after_put)
        if name == "get_checkpoint_file":
            return self._timed(attr, "store.get", self._after_get)
        if name in self.LOOKUPS:
            return self._timed(attr, "store.get", self._after_lookup)
        return attr

    def _timed(self, fn, span: str, after):
        def call(*args, **kwargs):
            if not self._tracer.enabled:
                return fn(*args, **kwargs)
            idx = self._tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._tracer.end(idx)
            after(result, seconds)
            return result

        return call

    def _after_put(self, result, seconds) -> None:
        _generation, stats = result
        log = self._log
        log.add("store.put_count")
        log.sample("store.put_ms", seconds * 1e3)
        for field in ("bytes_total", "bytes_new", "chunks_total",
                      "chunks_new"):
            log.add(f"store.{field}", getattr(stats, field))

    def _after_get(self, manifest, seconds) -> None:
        self._after_lookup(manifest, seconds)
        self._log.add("store.get_bytes", manifest.payload_len)

    def _after_lookup(self, result, seconds) -> None:
        self._log.add("store.get_count")
        self._log.sample("store.get_ms", seconds * 1e3)
