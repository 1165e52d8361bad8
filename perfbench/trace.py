"""Per-layer self time, measured by wrapping each layer's entry points.

The program's hot paths hoist bound methods when their objects are
built (``SnapshotIsolationTM.__init__`` keeps ``caches.access`` and
``mvm.snapshot_read``; the engine's fast loop keeps ``tm.read``), so
the wrappers replace *class* attributes and must be installed before
any machine, TM system or server is constructed.  Untraced runs install
nothing from here except the per-cell counters of :func:`count_calls`.

Self time of a call is its duration minus the durations of the wrapped
calls it made.  A layer listed in ``absorbing`` keeps the time of the
wrapped calls beneath it (a workload's ``setup`` charges its cache and
MVM traffic to itself; the end-of-run folds charge their metric
updates to themselves).  Only synchronous functions are timed with the
span stack, so the asyncio server's interleaving cannot mis-nest them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

clock = time.perf_counter


class Spans:
    """Accumulates self time and call counts per layer."""

    def __init__(self, absorbing: Iterable[str] = ()):
        self.self_s: Dict[str, float] = defaultdict(float)
        #: inclusive time per counter (a call plus everything beneath it)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: wrapped calls made directly from each layer
        self.children: Dict[str, int] = defaultdict(int)
        self.absorbing = frozenset(absorbing)
        self._stack: List[list] = []
        self._overhead_s: Optional[float] = None

    def reset(self) -> None:
        """Forget everything measured so far."""
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.children.clear()

    def snapshot(self) -> dict:
        """Per-layer self times (wrapper cost removed) and counter totals.

        A wrapped call costs its caller some host time outside the
        call's own span (the wrapper's bookkeeping); that cost, measured
        once by :meth:`overhead_s`, is taken off the caller's self time
        for every wrapped call it made.
        """
        cost = self.overhead_s()
        self_s = {layer: max(0.0, t - cost * self.children.get(layer, 0))
                  for layer, t in self.self_s.items()}
        return {"self_s": self_s, "total_s": dict(self.total_s),
                "calls": dict(self.calls)}

    def overhead_s(self) -> float:
        """Caller-side host time of one wrapped call (fastest of 5 trials)."""
        if self._overhead_s is None:
            trials = []
            for _ in range(5):
                probe = Spans()
                noop = probe.wrap(lambda: None, "inner")

                def wrapped_loop(n=20_000):
                    for _ in range(n):
                        noop()

                def plain_loop(n=20_000, fn=lambda: None):
                    for _ in range(n):
                        fn()

                probe.wrap(wrapped_loop, "outer")()
                start = clock()
                plain_loop()
                plain = clock() - start
                trials.append((probe.self_s["outer"] - plain) / 20_000)
            self._overhead_s = max(0.0, min(trials))
        return self._overhead_s

    def wrap(self, fn: Callable, layer: str,
             count: Optional[str] = None) -> Callable:
        """``fn`` timed into ``layer``; ``count`` names its call counter."""
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        children = self.children
        absorbing = self.absorbing
        counter = count or layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            target = layer
            if stack and stack[-1][0] in absorbing:
                target = stack[-1][0]
            frame = [target, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self_s[target] += span - frame[1]
                total_s[counter] += span
                calls[counter] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += span
                    children[parent[0]] += 1

        return traced

    def patch(self, owner: object, names: Iterable[str], layer: str,
              counts: Optional[Dict[str, str]] = None) -> None:
        """Wrap each ``owner.<name>`` that ``owner`` itself defines."""
        counts = counts or {}
        for name in names:
            if isinstance(owner, type) and name not in vars(owner):
                continue
            setattr(owner, name,
                    self.wrap(getattr(owner, name), layer,
                              counts.get(name)))


def count_calls(owner: type, name: str, tally: Dict[str, int],
                key: str) -> None:
    """Wrap ``owner.name`` to bump ``tally[key]`` per call, untimed."""
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tally[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, counted)


class TimedBody:
    """A transaction-body generator whose resumptions are timed.

    The engine drives bodies only through ``send`` and ``close``.
    """

    __slots__ = ("send", "close")

    def __init__(self, gen, send: Callable):
        self.send = send
        self.close = gen.close


def timed_factory(spans: Spans, factory: Callable) -> Callable:
    """Wrap a ``TransactionSpec.body_factory`` so bodies are timed."""
    def make():
        gen = factory()
        return TimedBody(gen, spans.wrap(gen.send, "workloads.body"))
    return make


# ----------------------------------------------------------------------
# layer maps

#: MVM controller entry points (simulator TM backends and store shards)
MVM_METHODS = (
    "snapshot_read", "validate_line", "words_conflict", "validate_many",
    "install_line", "newest_many", "install_many", "bundle_copy_lines",
    "rollback_line", "plain_read", "plain_write", "store_transient",
    "load_transient", "drop_transients", "truncate_after", "collect_all",
    "newest_installer", "live_version_count")

CACHE_METHODS = ("access", "access_tracked", "shared_access",
                 "invalidate_everywhere", "sharer_count",
                 "invalidate_core")

HOOK_METHODS = ("on_begin", "on_read", "on_write", "on_commit",
                "on_abort", "on_stall", "account", "sub_account",
                "mvm_event")


def install_sim(spans: Spans) -> None:
    """Wrap the simulator's layers (call before building any machine)."""
    import repro.obs as obs
    from repro.mem.cache import CacheHierarchy
    from repro.mvm.controller import MVMController
    from repro.obs.live import TimeSeriesSampler
    from repro.obs.metrics import MetricsRegistry, _Histogram
    from repro.obs.profile import CycleProfiler
    from repro.obs.spans import MultiTracer, Span, SpanRecorder
    from repro.sim.engine import Engine
    from repro.tm import SYSTEMS
    from repro.workloads import REGISTRY

    spans.patch(Engine, ["run"], "sim.engine")
    for cls in set(SYSTEMS.values()):
        spans.patch(cls, ["read"], "tm.read")
        spans.patch(cls, ["write"], "tm.write")
        spans.patch(cls, ["commit"], "tm.commit")
        spans.patch(cls, ["begin", "abort"], "tm.begin_abort")
    spans.patch(CacheHierarchy, CACHE_METHODS, "mem.cache")
    spans.patch(MVMController, MVM_METHODS, "mvm",
                {"snapshot_read": "mvm.snapshot_reads"})
    for name in REGISTRY.names():
        spans.patch(type(REGISTRY.create(name)), ["setup"],
                    "workloads.setup")
    for cls in (SpanRecorder, MultiTracer, CycleProfiler,
                TimeSeriesSampler):
        spans.patch(cls, HOOK_METHODS, "obs.hooks")
    spans.patch(MetricsRegistry, ["inc", "set_gauge", "observe"],
                "obs.hooks")
    spans.patch(_Histogram, ["observe"], "obs.hooks")
    # end-of-run folds; run_once imports the two functions from
    # repro.obs at call time, so patching the package attribute works
    spans.patch(obs, ["collect_run_metrics", "record_provenance_metrics"],
                "obs.fold")
    spans.patch(TimeSeriesSampler, ["export"], "obs.fold")
    spans.patch(MetricsRegistry, ["snapshot"], "obs.fold")
    spans.patch(Span, ["to_dict"], "obs.fold")
    spans.patch(CycleProfiler, ["check_conservation", "snapshot"],
                "obs.fold")


SIM_ABSORBING = ("workloads.setup", "obs.fold")


def install_store(spans: Spans) -> dict:
    """Wrap the store server's layers (call before building the server).

    Returns the live record the wrappers fill: per-kind shard latencies
    (``Shard.submit`` to the future resolved, queue wait included), the
    dispatch-to-encoded-response latencies, the OVERLOADED count and
    the monitors built.
    """
    import asyncio
    import json
    import types

    from repro.mvm.controller import MVMController
    from repro.oracle.live import LiveHistoryMonitor
    from repro.store import protocol
    from repro.store.server import StoreServer
    from repro.store.shard import Shard

    record = {"submit": defaultdict(list), "handle": [], "shed": 0,
              "monitors": []}
    # the decode runs after the frame's bytes arrived, so timing
    # json.loads keeps the wait for the peer out of the decode figure
    protocol.json = types.SimpleNamespace(
        loads=spans.wrap(json.loads, "store.protocol.decode"),
        dumps=json.dumps)
    timed_encode = spans.wrap(protocol.encode_frame, "store.protocol.encode")
    dispatched: Dict[object, float] = {}

    def encode_frame(obj):
        frame = timed_encode(obj)
        began = dispatched.pop(asyncio.current_task(), None)
        if began is not None:
            record["handle"].append(clock() - began)
        if obj.get("error") == "OVERLOADED":
            record["shed"] += 1
        return frame

    protocol.encode_frame = encode_frame
    dispatch = StoreServer._dispatch

    async def timed_dispatch(self, session, request):
        # the connection handler dispatches a decoded frame, then encodes
        # the response in the same task
        dispatched[asyncio.current_task()] = clock()
        return await dispatch(self, session, request)

    StoreServer._dispatch = timed_dispatch
    submit = Shard.submit

    def timed_submit(self, kind, txn, payload=None):
        start = clock()
        future = submit(self, kind, txn, payload)
        samples = record["submit"][kind]
        future.add_done_callback(
            lambda _f: samples.append(clock() - start))
        return future

    Shard.submit = timed_submit
    spans.patch(Shard, ["apply"], "store.shard.apply")
    spans.patch(MVMController, MVM_METHODS, "store.mvm")
    spans.patch(LiveHistoryMonitor, ["feed_row"], "store.oracle.feed")
    init = LiveHistoryMonitor.__init__

    def monitor_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record["monitors"].append(self)

    LiveHistoryMonitor.__init__ = monitor_init
    return record


def reset_store(spans: Spans, record: dict) -> None:
    """Start the server-side figures afresh (the monitor's rows too)."""
    spans.reset()
    record["submit"].clear()
    record["handle"].clear()
    record["shed"] = 0
    record["rows0"] = record["monitors"][-1].rows_seen


def store_report(spans: Spans, record: dict) -> dict:
    """The server-side per-layer figures, from :func:`install_store`."""
    calls = spans.calls
    total = spans.total_s

    def mean_us(counter: str) -> float:
        n = calls.get(counter, 0)
        return total.get(counter, 0.0) / n * 1e6 if n else 0.0

    def p50_us(samples) -> float:
        return statistics.median(samples) * 1e6 if samples else 0.0

    submits = record["submit"]
    monitor = record["monitors"][-1]
    return {
        "store.protocol.frames": calls.get("store.protocol.decode", 0),
        "store.protocol.decode_us": mean_us("store.protocol.decode"),
        "store.protocol.encode_us": mean_us("store.protocol.encode"),
        "store.server.handle_us": p50_us(record["handle"]),
        "store.server.shed": record["shed"],
        "store.shard.snapshot_us": p50_us(submits.get("snapshot")),
        "store.shard.read_us": p50_us(submits.get("read")),
        "store.shard.prepare_us": p50_us(submits.get("prepare")),
        "store.shard.prepares": len(submits.get("prepare", ())),
        "store.shard.apply_us": mean_us("store.shard.apply"),
        "store.shard.commands": sum(len(v) for v in submits.values()),
        "store.mvm.self_s": spans.self_s.get("store.mvm", 0.0),
        "store.oracle.feed_us": mean_us("store.oracle.feed"),
        "store.oracle.rows": monitor.rows_seen - record.get("rows0", 0),
        "store.oracle.retained": monitor.retained(),
    }
