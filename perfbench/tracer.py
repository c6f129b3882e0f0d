"""Layer tracing done from outside the package.

`Tracer.install()` wraps every public function of each layer module and
rebinds every module-level reference to it across the loaded ``advreg``
modules (``advreg.baselines.solve_spd``, ``advreg.cli.cross_validate``,
the ``verify.ALL_CHECKS`` table, ...), so calls between layers go through
the wrappers no matter which module made them. `uninstall()` puts the
original objects back, so untraced runs execute unmodified code.

Each wrapped call is a span with a parent. Parents come from a
thread-local stack; work submitted to the sweep thread pool inherits the
submitting span as its parent, so spans of the ``--jobs 2`` workers hang
under their ``run_sweep``. Span counts, durations and self times are
aggregated as spans close (self time = duration minus the union of the
intervals its child spans cover), and the first `MAX_SPANS` span records
per thread are kept in memory and written as JSONL at the end.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("linalg", "game", "equilibrium", "baselines", "data", "evaluate",
          "serialize", "cli", "verify")
# span records kept in memory per thread; later spans are only aggregated
MAX_SPANS = 100_000


class _Frame:
    __slots__ = ("key", "layer", "mask", "span_id", "parent", "start", "child_ns",
                 "xchildren", "state")

    def __init__(self, key, layer, mask, span_id, parent, start, state):
        self.key = key
        self.layer = layer
        self.mask = mask
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.child_ns = 0
        self.xchildren = None
        self.state = state


class _ThreadState:
    """Per-thread aggregates, merged when the tracer reports."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.stack = []
        self.inherited = None
        self.stats = {}      # key -> [calls, total_ns, self_ns]
        self.layers = {}     # layer -> [calls, busy_ns, self_ns]
        self.counters = {}
        self.spans = []
        self.dropped = 0


def _union_ns(intervals):
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Span recorder for the advreg layers; off until `install()`."""

    def __init__(self, hooks):
        self._hooks = hooks
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._restore = []
        self.wrapped = {}    # key -> original function

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap each layer's public functions at every module-level binding."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}
        for bit, layer in enumerate(LAYERS):
            mod = sys.modules[f"advreg.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                originals[id(fn)] = self._wrap(fn, key, layer, 1 << bit)
                self.wrapped[key] = fn
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "advreg" or modname.startswith("advreg.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and inspect.isfunction(val):
                    setattr(mod, attr, originals[id(val)])
                    self._restore.append((mod, attr, val))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in originals and inspect.isfunction(v):
                            val[k] = originals[id(v)]
                            self._restore.append((val, k, v))
        evaluate = sys.modules["advreg.evaluate"]
        self._restore.append((evaluate, "ThreadPoolExecutor", evaluate.ThreadPoolExecutor))
        evaluate.ThreadPoolExecutor = self._pool_class()

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore = []

    def reset(self):
        """Drop everything recorded so far (installation is unaffected)."""
        with self._lock:
            self._states = []
        self._local = threading.local()

    # ----------------------------------------------------------- recording

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def count(self, name, amount=1):
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def _wrap(self, fn, key, layer, bit):
        hook = self._hooks.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1] if st.stack else st.inherited
            pmask = parent.mask if parent is not None else 0
            frame = _Frame(key, layer, pmask | bit, next(tracer._ids), parent,
                           time.perf_counter_ns(), st)
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                st.stack.pop()
                tracer._close(frame, end, not (pmask & bit))
            if hook is not None:
                hook(tracer, args, kwargs, result, end - frame.start, not (pmask & bit))
            return result

        return traced

    def _close(self, frame, end, outermost):
        st = frame.state
        dur = end - frame.start
        covered = frame.child_ns
        if frame.xchildren:
            with self._lock:
                covered += _union_ns(frame.xchildren)
        self_ns = dur - covered
        rec = st.stats.get(frame.key)
        if rec is None:
            rec = st.stats[frame.key] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += self_ns
        lay = st.layers.get(frame.layer)
        if lay is None:
            lay = st.layers[frame.layer] = [0, 0, 0]
        lay[0] += 1
        lay[2] += self_ns
        if outermost:
            lay[1] += dur
        parent = frame.parent
        if parent is not None:
            if parent.state is st:
                parent.child_ns += dur
            else:
                with self._lock:
                    if parent.xchildren is None:
                        parent.xchildren = []
                    parent.xchildren.append((frame.start, end))
        if len(st.spans) < MAX_SPANS:
            st.spans.append((frame.span_id, parent.span_id if parent else 0, frame.key,
                             st.thread_name, frame.start, end, self_ns))
        else:
            st.dropped += 1

    def _pool_class(self):
        tracer = self

        class TracedThreadPool(ThreadPoolExecutor):
            """Thread pool whose tasks inherit the submitting span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1] if st.stack else st.inherited

                def run_with_parent():
                    wst = tracer._state()
                    saved = wst.inherited
                    wst.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        wst.inherited = saved

                return super().submit(run_with_parent)

        return TracedThreadPool

    # ----------------------------------------------------------- reporting

    def snapshot(self):
        """Merged aggregates: (function stats, layer stats, counters, span count, dropped)."""
        with self._lock:
            states = list(self._states)
        stats, layers, counters = {}, {}, {}
        spans = dropped = 0
        for st in states:
            for key, (c, tot, slf) in st.stats.items():
                rec = stats.setdefault(key, [0, 0, 0])
                rec[0] += c
                rec[1] += tot
                rec[2] += slf
            for layer, (c, busy, slf) in st.layers.items():
                rec = layers.setdefault(layer, [0, 0, 0])
                rec[0] += c
                rec[1] += busy
                rec[2] += slf
            for name, v in st.counters.items():
                counters[name] = counters.get(name, 0) + v
            spans += len(st.spans)
            dropped += st.dropped
        return stats, layers, counters, spans, dropped

    def write_jsonl(self, path, header):
        """Write a header line, then one line per kept span, sorted by start."""
        with self._lock:
            states = list(self._states)
        rows = sorted((s for st in states for s in st.spans), key=lambda s: s[4])
        t0 = rows[0][4] if rows else 0
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent_id, key, thread, start, end, self_ns in rows:
                f.write(json.dumps({
                    "id": span_id, "parent": parent_id, "name": key, "thread": thread,
                    "start_ns": start - t0, "dur_ns": end - start, "self_ns": self_ns,
                }) + "\n")
        return len(rows)
