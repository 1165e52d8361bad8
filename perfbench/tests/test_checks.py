"""The benchmark's output checks must catch the faults they exist for.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import asyncio
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import sim, store  # noqa: E402
from perfbench.common import CheckFailed, pass_schedule, percentile  # noqa: E402


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(list(range(1, 101)), 90) == 90


def test_pass_schedule_runs_a_warm_up_then_at_least_min_passes():
    assert list(pass_schedule(0, 3)) == [True, False, False, False]


@pytest.fixture(scope="module")
def probe():
    return sim.Probe()


def test_fast_loop_check_passes_on_a_plain_cell(probe):
    rec = sim.run_cell(probe, ("kmeans", "SI-TM"), 1, observed=False)
    sim.check_cell(rec, observed=False)
    assert rec["fast_loop"] == 1
    assert rec["result"].commits == rec["specs"] > 0


def test_fast_loop_check_fails_when_a_tracer_is_attached(probe):
    rec = sim.run_cell(probe, ("kmeans", "SI-TM"), 1, observed=True)
    with pytest.raises(CheckFailed, match="_run_fast 0 times"):
        sim.check_cell(rec, observed=False)
    plain = sim.run_cell(probe, ("kmeans", "SI-TM"), 1, observed=False)
    sim.check_cell(rec, observed=True, plain=sim.sim_stats(plain["result"]))


def test_observer_equality_check_fails_when_a_statistic_differs(probe):
    rec = sim.run_cell(probe, ("kmeans", "SI-TM"), 1, observed=True)
    plain = sim.sim_stats(rec["result"])
    plain["aborts"] += 1
    with pytest.raises(CheckFailed, match="differs from the plain run"):
        sim.check_cell(rec, observed=True, plain=plain)


def _drive(server, workload, passes: int = 1) -> dict:
    async def go():
        sessions = await store.open_sessions(server, workload)
        done = [await store.one_pass(sessions, workload, server)
                for _ in range(passes)]
        return await store.finish(workload, server, sessions, done)
    return asyncio.run(go())


def _shorten(workload, per_session: int) -> None:
    workload.txns = [t[:per_session] for t in workload.txns]


@pytest.mark.parametrize("tamper", [False, True])
def test_read_check_fails_when_one_preloaded_value_is_altered(tamper):
    workload = store.ReadWorkload(seed=3)
    _shorten(workload, 60)
    items = workload.preload_items()
    if tamper:
        # every READ of this key must now disagree with the derived value
        hot = workload.txns[0][0][0]
        items[hot] = "tampered"
    workload.preload_items = lambda: items
    end = _drive(store.Server(seed=3, traced=False), workload)
    if tamper:
        assert any("READs returned" in p for p in end["problems"])
    else:
        assert end["problems"] == []


class InProcessServer:
    """A StoreServer on its own event-loop thread, with a custom config."""

    def __init__(self, config):
        from repro.oracle.live import LiveHistoryMonitor
        from repro.store.server import StoreServer
        self.monitor = LiveHistoryMonitor(config.shards)
        self.server = StoreServer(config, monitor=self.monitor)
        self.loop = asyncio.new_event_loop()
        self.pid = os.getpid()
        ready = threading.Event()

        def serve():
            asyncio.set_event_loop(self.loop)
            self.port = self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        ready.wait(30)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()
        violations = len(self.monitor.violations)
        return (1 if violations else 0), "", f"{violations} violations"


@pytest.mark.parametrize("validate_fcw", [True, False])
def test_transfer_check_fails_without_first_committer_wins(validate_fcw):
    from repro.store.session import StoreConfig
    workload = store.TransferWorkload(seed=5)
    _shorten(workload, 300)
    server = InProcessServer(StoreConfig(shards=store.SHARDS,
                                         validate_fcw=validate_fcw))
    end = _drive(server, workload)
    if validate_fcw:
        assert end["problems"] == []
    else:
        assert any("accounts differ" in p for p in end["problems"])
        assert any("exited 1" in p for p in end["problems"])


def test_inputs_are_a_function_of_the_seed():
    a, b = store.TransferWorkload(7), store.TransferWorkload(7)
    assert a.txns == b.txns and a.initial == b.initial
    assert store.TransferWorkload(8).txns != a.txns
    assert store.ReadWorkload(7).txns == store.ReadWorkload(7).txns
