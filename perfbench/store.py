"""store-read and store-transfer: the real server under a closed loop.

The server is ``python3 -m repro.store.cli serve`` (the ``sitm-store
serve`` entry point) in its own process, with 4 shards and the live SI
monitor on.  The load comes from this process: 2 sessions (the host has
2 CPUs) in one asyncio loop, each sending its next request only after
the previous answer arrived.  The client speaks the wire format itself
(4-byte big-endian length, then JSON) so that none of the program's
code runs on the client side.

A traced run starts ``perfbench/serve.py`` instead, which installs the
layer wrappers of :mod:`perfbench.trace` and then runs the same
``serve`` command.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import random
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from perfbench import hostref
from perfbench.common import (ROOT, SRC, CheckFailed, check, pass_schedule,
                              peak_rss_mb, percentile, proc_cpu_s)

SHARDS = 4
SESSIONS = 2
#: logical transactions per pass, split evenly over the sessions; a
#: pass replays the same list, and 500 transfers per session average out
#: how a seed's hot pairs line up between the two sessions
TXNS_PER_PASS = 1000
#: timed passes at least (a traced run makes exactly this many); with
#: 1000 transactions a pass, p99 always has ten samples beyond it
MIN_PASSES = 3
READ_KEYS = 512
READS_PER_TXN = 8
ACCOUNTS = 256
ZIPF_THETA = 0.99
PRELOAD_BATCH = 64
#: server launches per untraced run; ``setup_s`` is their median
SETUPS = 5
#: pause between the sessions closing and SIGINT (see README finding)
CLOSE_GRACE_S = 0.2

_LEN = struct.Struct(">I")


class Session:
    """One client connection speaking the store's framing."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.requests = 0

    @classmethod
    async def open(cls, port: int) -> "Session":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def call(self, request: dict) -> dict:
        payload = json.dumps(request, separators=(",", ":")).encode()
        self.writer.write(_LEN.pack(len(payload)) + payload)
        (length,) = _LEN.unpack(await self.reader.readexactly(_LEN.size))
        self.requests += 1
        return json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        """Half-close, then wait until the server has closed its side."""
        self.writer.write_eof()
        await self.reader.read()
        self.writer.close()
        await self.writer.wait_closed()


class Server:
    """A store server process; ``traced`` adds the layer wrappers."""

    def __init__(self, seed: int, traced: bool):
        entry = ([os.path.join(ROOT, "perfbench", "serve.py")] if traced
                 else ["-m", "repro.store.cli"])
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--host", "127.0.0.1",
             "--port", "0", "--metrics-port", "0", "--shards", str(SHARDS),
             "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self._stderr: List[str] = []
        self._drain = threading.Thread(
            target=lambda: self._stderr.extend(self.proc.stderr),
            daemon=True)
        self._drain.start()
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.proc.kill()
            self.proc.wait()
            self._drain.join()
            raise RuntimeError("store server did not start: "
                               + "".join(self._stderr)[-2000:])
        self.port = int(line.split("serving on ", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def mark(self, signum: int) -> None:
        """Signal a traced server and wait for its acknowledgement."""
        self.proc.send_signal(signum)
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("traced store server exited early")
            if line.strip() == "PERFBENCH-MARK":
                return

    def stop(self) -> Tuple[int, str, str]:
        """SIGINT, wait; returns (exit code, rest of stdout, stderr).

        The server's remaining stdout is a line or two, well within a
        pipe's buffer, so it is read after the exit; a server that does
        not exit within 60 s is killed.
        """
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        out = self.proc.stdout.read()
        self._drain.join()
        return code, out, "".join(self._stderr)


# ----------------------------------------------------------------------
# inputs (a pure function of the seed)

def read_value(seed: int, key: str) -> str:
    """The value store-read preloads under ``key``."""
    return hashlib.blake2b(f"{seed}/{key}".encode(),
                           digest_size=8).hexdigest()


def initial_balance(seed: int, key: str) -> int:
    """The balance store-transfer preloads under account ``key``."""
    digest = hashlib.blake2b(f"{seed}/{key}".encode(), digest_size=2)
    return 1000 + int.from_bytes(digest.digest(), "big") % 1000


class ZipfPicker:
    """Zipf(theta) ranks over ``items``, ranks placed by a seeded shuffle."""

    def __init__(self, items: Sequence[str], theta: float,
                 rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        weights = [1.0 / (rank ** theta)
                   for rank in range(1, len(items) + 1)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def pick(self, rng: random.Random) -> str:
        i = bisect.bisect_left(self.cdf, rng.random())
        return self.items[min(i, len(self.items) - 1)]


class Tally:
    """Client-side counts of one pass."""

    def __init__(self) -> None:
        self.committed = 0
        self.attempts = 0
        self.failed = 0
        self.backoff_s = 0.0
        self.latencies: List[float] = []
        self.wrong_values = 0
        #: net balance change per account from acknowledged COMMITs
        self.net: Counter = Counter()


class ReadWorkload:
    """BEGIN, 8 READs of uniformly chosen keys, COMMIT."""

    name = "store-read"

    def __init__(self, seed: int):
        self.seed = seed
        self.keys = [f"k{i:04d}" for i in range(READ_KEYS)]
        self.values = {k: read_value(seed, k) for k in self.keys}
        rng = random.Random(f"store-read/{seed}")
        per_session = TXNS_PER_PASS // SESSIONS
        self.txns = [[rng.sample(self.keys, READS_PER_TXN)
                      for _ in range(per_session)]
                     for _ in range(SESSIONS)]

    def preload_items(self) -> Dict[str, object]:
        return dict(self.values)

    def ops(self, keys: Sequence[str]) -> List[dict]:
        return [{"op": "READ", "key": k} for k in keys]

    def writes(self, keys: Sequence[str],
               answers: List[dict]) -> List[dict]:
        return []

    def observe(self, keys: Sequence[str], answers: List[dict],
                tally: Tally) -> None:
        for key, answer in zip(keys, answers):
            if answer.get("value") != self.values[key]:
                tally.wrong_values += 1

    def check(self, tally_total: Tally, final: Dict[str, object]) -> None:
        check(tally_total.wrong_values == 0,
              f"{tally_total.wrong_values} READs returned a value other "
              "than the one preloaded under their key")
        check(tally_total.attempts == tally_total.committed,
              f"read-only transactions aborted: {tally_total.attempts} "
              f"attempts for {tally_total.committed} commits")


class TransferWorkload:
    """Read two Zipf-hot accounts, write back balance-1 and balance+1."""

    name = "store-transfer"

    def __init__(self, seed: int):
        self.seed = seed
        self.keys = [f"acct{i:03d}" for i in range(ACCOUNTS)]
        self.initial = {k: initial_balance(seed, k) for k in self.keys}
        rng = random.Random(f"store-transfer/{seed}")
        zipf = ZipfPicker(self.keys, ZIPF_THETA, rng)
        per_session = TXNS_PER_PASS // SESSIONS
        self.txns = []
        for _ in range(SESSIONS):
            txns = []
            for _ in range(per_session):
                src = zipf.pick(rng)
                dst = zipf.pick(rng)
                while dst == src:
                    dst = zipf.pick(rng)
                txns.append((src, dst))
            self.txns.append(txns)

    def preload_items(self) -> Dict[str, object]:
        return dict(self.initial)

    def ops(self, pair: Sequence[str]) -> List[dict]:
        return [{"op": "READ", "key": k} for k in pair]

    def writes(self, pair: Sequence[str],
               answers: List[dict]) -> List[dict]:
        src, dst = pair
        return [{"op": "WRITE", "key": src,
                 "value": answers[0]["value"] - 1},
                {"op": "WRITE", "key": dst,
                 "value": answers[1]["value"] + 1}]

    def observe(self, pair: Sequence[str], answers: List[dict],
                tally: Tally) -> None:
        tally.net[pair[0]] -= 1
        tally.net[pair[1]] += 1

    def check(self, tally_total: Tally, final: Dict[str, object]) -> None:
        wrong = [k for k in self.keys
                 if final[k] != self.initial[k] + tally_total.net[k]]
        check(not wrong,
              f"{len(wrong)} of {len(self.keys)} accounts differ from their "
              "initial balance plus the acknowledged transfers (first: "
              + ", ".join(f"{k}={final[k]} expected "
                          f"{self.initial[k] + tally_total.net[k]}"
                          for k in wrong[:3]) + ")")
        check(sum(final.values()) == sum(self.initial.values()),
              "transfers did not conserve the total balance")


WORKLOADS = {w.name: w for w in (ReadWorkload, TransferWorkload)}


# ----------------------------------------------------------------------
# the closed loop

async def _attempt(session: Session, workload, txn):
    """One attempt; returns (final response, READ answers)."""
    answer = await session.call({"op": "BEGIN", "label": workload.name})
    if not answer["ok"]:
        return answer, []
    reads = []
    for request in workload.ops(txn):
        answer = await session.call(request)
        if not answer["ok"]:
            return answer, reads
        reads.append(answer)
    for request in workload.writes(txn, reads):
        answer = await session.call(request)
        if not answer["ok"]:
            return answer, reads
    return await session.call({"op": "COMMIT"}), reads


async def run_txn(session: Session, workload, txn, tally: Tally) -> None:
    """Run one logical transaction to its commit, honouring backoff."""
    start = time.perf_counter()
    while True:
        tally.attempts += 1
        answer, reads = await _attempt(session, workload, txn)
        if answer["ok"]:
            tally.latencies.append(time.perf_counter() - start)
            tally.committed += 1
            workload.observe(txn, reads, tally)
            return
        if answer.get("error") != "ABORTED":
            tally.failed += 1
            return
        delay = answer.get("retry_after_ms", 0) / 1000.0
        tally.backoff_s += delay
        await asyncio.sleep(delay)


async def preload(session: Session, items: Dict[str, object]) -> None:
    keys = sorted(items)
    for i in range(0, len(keys), PRELOAD_BATCH):
        answers = [await session.call({"op": "BEGIN", "label": "preload"})]
        for key in keys[i:i + PRELOAD_BATCH]:
            answers.append(await session.call(
                {"op": "WRITE", "key": key, "value": items[key]}))
        answers.append(await session.call({"op": "COMMIT"}))
        bad = [a for a in answers if not a["ok"]]
        if bad:
            raise RuntimeError(f"preload failed: {bad[0]}")


async def read_all(session: Session, keys: Sequence[str]) -> Dict[str, object]:
    """One read-only transaction reading every key."""
    answers = [await session.call({"op": "BEGIN", "label": "final-read"})]
    values = {}
    for key in keys:
        answer = await session.call({"op": "READ", "key": key})
        answers.append(answer)
        values[key] = answer.get("value")
    answers.append(await session.call({"op": "COMMIT"}))
    bad = [a for a in answers if not a["ok"]]
    if bad:
        raise RuntimeError(f"final read failed: {bad[0]}")
    return values


async def one_pass(sessions: List[Session], workload, server) -> dict:
    """Every session runs its transactions once; raw host times."""
    tally = Tally()
    requests0 = sum(s.requests for s in sessions)
    cpu0 = proc_cpu_s(server.pid)
    start = time.perf_counter()

    async def loop(session: Session, txns) -> None:
        for txn in txns:
            await run_txn(session, workload, txn, tally)

    await asyncio.gather(*(loop(s, t) for s, t in
                           zip(sessions, workload.txns)))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "tally": tally,
            "server_cpu_s": proc_cpu_s(server.pid) - cpu0,
            "requests": sum(s.requests for s in sessions) - requests0}


def normalise(done: dict, factor: float) -> dict:
    """Scale a pass's host times by a :mod:`perfbench.hostref` factor."""
    done["wall_s"] *= factor
    done["server_cpu_s"] *= factor
    done["tally"].latencies = [lat * factor
                               for lat in done["tally"].latencies]
    return done


async def open_sessions(server, workload) -> List[Session]:
    """Connect the sessions and commit the workload's preload."""
    sessions = [await Session.open(server.port) for _ in range(SESSIONS)]
    await preload(sessions[0], workload.preload_items())
    return sessions


async def finish(workload, server, sessions: List[Session],
                 passes: List[dict]) -> dict:
    """Final read, orderly shutdown and the output checks.

    ``server`` is anything with ``pid``, ``port`` and ``stop()``; the
    sessions are closed, and given :data:`CLOSE_GRACE_S` to be reaped,
    before the server is told to stop.
    """
    final = await read_all(sessions[0], workload.keys)
    rss = peak_rss_mb(server.pid)
    for session in sessions:
        await session.close()
    await asyncio.sleep(CLOSE_GRACE_S)
    code, out, err = server.stop()
    total = Tally()
    for p in passes:
        t = p["tally"]
        total.committed += t.committed
        total.attempts += t.attempts
        total.failed += t.failed
        total.wrong_values += t.wrong_values
        total.net.update(t.net)
    problems = []
    if code != 0:
        problems.append(f"store server exited {code} (a live SI monitor "
                        f"violation or a crash): {err[-2000:]}")
    try:
        workload.check(total, final)
    except CheckFailed as exc:
        problems.append(str(exc))
    return {"problems": problems, "peak_rss_mb": rss, "stdout": out,
            "failed": total.failed}


def run(workload_name: str, seed: int, seconds: float,
        traced: bool) -> dict:
    """Run one store workload; returns the result object to print."""
    workload = WORKLOADS[workload_name](seed)
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(
            _run(workload, seed, seconds, traced))
    finally:
        loop.close()


async def _run(workload, seed: int, seconds: float, traced: bool) -> dict:
    setups = []
    launches = 1 if traced else SETUPS
    for i in range(launches):
        bracket = hostref.Bracket()
        start = time.perf_counter()
        server = Server(seed, traced)
        sessions = await open_sessions(server, workload)
        setups.append((time.perf_counter() - start) * bracket.factor())
        if i < launches - 1:
            for session in sessions:
                await session.close()
            await asyncio.sleep(CLOSE_GRACE_S)
            code, _, err = server.stop()
            check(code == 0, f"store server exited {code}: {err[-2000:]}")

    # a traced run makes exactly MIN_PASSES timed passes, and the
    # server-side figures cover exactly those
    schedule = pass_schedule(0 if traced else seconds, MIN_PASSES)
    next(schedule)
    bracket = hostref.Bracket()

    async def run_pass() -> dict:
        done = await one_pass(sessions, workload, server)
        return normalise(done, bracket.factor())

    passes = [await run_pass()]  # warm-up
    if traced:
        server.mark(signal.SIGUSR1)
    for _ in schedule:
        passes.append(await run_pass())
    if traced:
        server.mark(signal.SIGUSR2)
    end = await finish(workload, server, sessions, passes)
    timed = passes[1:]
    result = {"attempted": TXNS_PER_PASS * len(passes),
              "failed": end["failed"], "problems": end["problems"]}
    committed = sum(p["tally"].committed for p in timed)
    attempts = sum(p["tally"].attempts for p in timed)
    wall = sum(p["wall_s"] for p in timed)
    if traced:
        lines = [line for line in end["stdout"].splitlines()
                 if line.startswith("PERFBENCH-TRACE ")]
        layers = json.loads(lines[-1].split(" ", 1)[1])
        layers["store.client.attempts_per_txn"] = attempts / committed
        layers["store.client.backoff_s"] = sum(p["tally"].backoff_s
                                               for p in timed)
        result["layers"] = layers
        result["traced_txn_per_s"] = committed / wall
        return result
    latencies = [lat for p in timed for lat in p["tally"].latencies]
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "txn_per_s": committed / wall,
        "steps_per_s": sum(p["requests"] for p in timed) / wall,
        "cpu_us_per_txn":
            sum(p["server_cpu_s"] for p in timed) / committed * 1e6,
        "peak_rss_mb": end["peak_rss_mb"],
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": percentile(latencies, 99) * 1e3,
    }
    return result
