"""In-memory span recording around the simulator's layer entry points.

A traced worker installs a :class:`SpanRecorder` before it builds its
scenario.  :func:`install` replaces each public entry point listed in
:data:`ENTRY_POINTS` with a wrapper that records one span per call:
``(name, start, end, parent)``, where ``parent`` is the index of the
enclosing span or ``-1``.  Spans live in compact arrays while the run
goes and are written out once it ends (:meth:`SpanRecorder.write`).

A span's self time is its duration minus the durations of its direct
children (:func:`self_times`); calls are synchronous and the simulator
is single-threaded, so children never overlap one another.

Garbage-collector pauses are counted through ``gc.callbacks``; the
program's GC thresholds are left as they are.
"""

import gc
import importlib
import json
import sys
import time
from array import array

#: (span name, module, attribute path) of every wrapped entry point.
#: Several entry points may share one span name.
ENTRY_POINTS = (
    ("sim.run_until", "repro.sim.events", "EventLoop.run_until"),
    ("sim.run_until", "repro.sim.timers_wheel", "WheelEventLoop.run_until"),
    ("sim.net", "repro.sim.network", "Network.send"),
    ("sim.cpu", "repro.sim.cpu", "CpuModel.submit"),
    ("sip.copy", "repro.sip.message", "SipRequest.copy"),
    ("sip.copy", "repro.sip.message", "SipResponse.copy"),
    ("sip.parse", "repro.sip.parser", "parse_message"),
    ("sip.serialize", "repro.sip.message", "SipMessage.to_wire"),
    ("servers.proxy_receive", "repro.servers.proxy", "ProxyServer.receive"),
    ("servers.location_read", "repro.servers.location", "LocationService.lookup"),
    ("servers.location_write", "repro.servers.location", "LocationService.register"),
    ("core.decide", "repro.core.servartuka", "ServartukaPolicy.decide"),
    ("core.period", "repro.core.servartuka", "ServartukaPolicy.on_period"),
)


class SpanRecorder:
    """Records spans in parallel arrays and GC pauses via ``gc.callbacks``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        """Start a span by hand; returns its index for :meth:`close`."""
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.starts.append(self.clock())
        self._stack.append(index)
        return index

    def close(self, index):
        self.ends[index] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so each call records a span ``name``."""
        name_id = self.name_id(name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents)

        # open()/close() inlined: this runs on every traced call.
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def spans(self):
        """All spans as ``(name, start, end, parent)`` tuples."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_ids, self.starts,
                                  self.ends, self.parents)
        ]

    # -- garbage collector ---------------------------------------------
    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_pause_s += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def watch_gc(self):
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ----------------------------------------------------------
    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.starts),
                  "arrays": ["name_ids:i", "starts:d", "ends:d", "parents:i"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_ids, self.starts, self.ends,
                           self.parents):
                column.tofile(handle)


def read_spans(path):
    """Read a file written by :meth:`SpanRecorder.write` back as tuples."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        columns = []
        for spec in header["arrays"]:
            column = array(spec.split(":")[1])
            column.fromfile(handle, count)
            columns.append(column)
    names = header["names"]
    name_ids, starts, ends, parents = columns
    return [(names[n], s, e, p)
            for n, s, e, p in zip(name_ids, starts, ends, parents)]


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _name, start, end, _parent in spans]
    result = list(own)
    for index, (_name, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            result[parent] -= own[index]
    return result


def aggregate(spans, window=None):
    """Per span name: ``{"calls": n, "self_s": seconds}``.

    With ``window=(start, end)`` only spans lying inside that interval
    are counted (self time is still computed over all spans).
    """
    selfs = self_times(spans)
    totals = {}
    for (name, start, end, _parent), own in zip(spans, selfs):
        if window is not None and not (window[0] <= start
                                       and end <= window[1]):
            continue
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return totals


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder, entry_points=ENTRY_POINTS):
    """Wrap every entry point; returns a list of undo records.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so call sites that bound the name
    at import time are traced as well.
    """
    undo = []
    for name, module_name, path in entry_points:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapped = recorder.wrap(name, original)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if (module is not owner and module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original):
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
