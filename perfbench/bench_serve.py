"""The serving workloads: ``serve-read`` and ``serve-write``.

Both run ``python -m repro.serving serve --tcp`` as its own process on a
synthetic 2,000 x 4,000, K=32 posterior snapshot, and drive it from this
process over the framed TCP protocol from one thread and at most two
connections.

* ``serve-read``: the server's defaults (one replica, fused dispatch,
  256-entry score cache).  Top-10 reads of Zipf-skewed users: an open
  loop at a fixed rate near half of saturation, and a closed loop with
  a fixed in-flight window on one pipelined connection.
* ``serve-write``: ``--replicas 2 --wal DIR`` with an fsync per append.
  Uniform reads with about one ``rate`` write per four reads, to users
  folded in during set-up, over one connection to the leader and one to
  the follower (whose writes take the forward hop): an open loop at a
  low fixed rate, and a closed loop with a fixed window per connection.

Both alternate short open- and closed-loop rounds, so each phase samples
the whole run and one slow stretch of the host moves one round, not the
median.

Open-loop requests are timed from their due time, so a stall also counts
against the requests queued behind it.
"""

from __future__ import annotations

import re
import selectors
import socket
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    SETUP_REPEATS,
    BenchError,
    Child,
    Outcome,
    WorkDir,
    percentile,
)
from layers import LayerClock


@dataclass(frozen=True)
class ServeSize:
    n_users: int
    n_items: int
    num_latent: int


#: ``full`` is the benchmark; ``tiny`` is for the self-tests only.
SIZES = {"full": ServeSize(2000, 4000, 32), "tiny": ServeSize(200, 300, 8)}

TOP_N = 10
#: serve-read open-loop rate: about half the closed-loop saturation
#: (~1,000-1,500 reads/s on 2 cores with the client on the same host).
READ_RATE = 400.0
#: serve-write open-loop rate: low enough that a fusion window holds
#: about one request.
MIXED_RATE = 100.0
WRITES_PER_READ = 0.25
#: Zipf exponent of serve-read's user popularity: the hot set fits the
#: server's 256-entry cache.
ZIPF_A = 1.2
N_FOLDED = 16
#: Closed-loop requests in flight per connection (serve-read has one
#: connection, serve-write two).
WINDOW = {"serve-read": 8, "serve-write": 4}
OPEN_SHARE = 0.6       # share of --seconds in the open loop
ROUNDS = 10            # open/closed alternations per run
CHECK_EVERY = 16       # every Nth read reply is checked bit for bit
LATE_MS = 1.0          # a request sent this far behind its due time is late
REPLY_TIMEOUT_S = 10.0


# ---------------------------------------------------------------------------
# the client side: raw pipelined connections
# ---------------------------------------------------------------------------

class Connection:
    """One pipelined connection speaking the framed protocol."""

    def __init__(self, address: Tuple[str, int]):
        from repro.serving.net import protocol

        self.protocol = protocol
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = protocol.FrameDecoder()
        self.binary = False
        self.sock.sendall(protocol.encode_frame(protocol.hello_frame()))
        frames: List = []
        while not frames:
            frames = self.read()
        reply = frames.pop(0)
        if reply.is_error:
            raise BenchError(f"handshake refused: {reply.payload}")
        self.binary = protocol.negotiated_encoding(reply.payload) == "binary"
        self.backlog = frames

    def send(self, frame) -> None:
        self.sock.sendall(self.protocol.encode_frame(frame,
                                                     binary=self.binary))

    def read(self) -> List:
        data = self.sock.recv(1 << 16)
        if not data:
            raise BenchError("server closed the connection")
        return self.decoder.feed(data)

    def close(self) -> None:
        self.sock.close()


@dataclass
class Request:
    kind: str                      # "read" or "write"
    conn: int
    user: int
    items: Optional[List[int]] = None
    values: Optional[List[float]] = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    reply: Optional[Dict[str, object]] = None

    def frame(self, request_id: int, write_id: str):
        from repro.serving.net.protocol import Frame

        if self.kind == "read":
            return Frame("top_n", {"user": self.user, "n": TOP_N,
                                   "exclude_seen": True, "id": request_id})
        return Frame("rate", {"user": self.user, "items": self.items,
                              "values": self.values, "write_id": write_id,
                              "id": request_id})


class Traffic:
    """The seeded request stream of one workload run."""

    def __init__(self, workload: str, seed: int, size: ServeSize,
                 folded: Sequence[int], n_conns: int):
        self.rng = np.random.default_rng([seed, 7])
        self.workload = workload
        self.size = size
        self.folded = list(folded)
        self.n_conns = n_conns
        self.count = 0
        # Zipf rank r is the user at position r of a seeded permutation.
        self.popularity = self.rng.permutation(size.n_users)

    def next(self) -> Request:
        conn = self.count % self.n_conns
        self.count += 1
        rng = self.rng
        if self.workload == "serve-read":
            rank = int(rng.zipf(ZIPF_A)) - 1
            user = int(self.popularity[rank % self.size.n_users])
            return Request("read", conn, user)
        if rng.random() < WRITES_PER_READ / (1 + WRITES_PER_READ):
            items = sorted(int(i) for i in rng.choice(
                self.size.n_items, size=2, replace=False))
            values = [float(v) for v in rng.uniform(1.0, 5.0, size=2)]
            return Request("write", conn,
                           self.folded[int(rng.integers(len(self.folded)))],
                           items, values)
        return Request("read", conn, int(rng.integers(self.size.n_users)))


class LoadClient:
    """Sends requests over the connections and matches replies by id."""

    def __init__(self, conns: List[Connection], seed: int):
        self.conns = conns
        self.seed = seed
        self.next_id = 0
        self.inflight: Dict[int, Request] = {}

    def send(self, request: Request) -> None:
        request_id = self.next_id
        self.next_id += 1
        frame = request.frame(request_id, f"bench-{self.seed}-{request_id}")
        keep = request.kind == "write" or request_id % CHECK_EVERY == 0
        request.reply = {} if keep else None
        self.inflight[request_id] = request
        request.sent = time.perf_counter()
        self.conns[request.conn].send(frame)

    def _complete(self, frame, now: float) -> Request:
        request = self.inflight.pop(frame.payload.get("id"))
        request.done = now
        request.ok = not frame.is_error
        if request.reply is not None or not request.ok:
            request.reply = dict(frame.payload)
        return request

    def pump(self, selector, timeout: float) -> List[Request]:
        """Read whatever replies are ready; returns the completed ones."""
        finished = []
        for key, _ in selector.select(timeout):
            conn = key.data
            frames = conn.backlog + conn.read()
            conn.backlog = []
            now = time.perf_counter()
            finished.extend(self._complete(frame, now) for frame in frames)
        return finished

    def selector(self):
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make every send up to 1 ms late.
        selector = selectors.SelectSelector()
        for conn in self.conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        return selector


def open_loop(load: LoadClient, traffic: Traffic, rate: float,
              seconds: float) -> List[Request]:
    """Send at fixed intervals regardless of replies.

    One thread sends when a request falls due and reads replies while it
    waits for the next due time, so no lock hand-off between a sender
    and a receiver thread delays either.  Returns every request with its
    due, send and completion times (one never answered keeps
    ``ok=False``).
    """
    n = max(int(rate * seconds), 1)
    requests = [traffic.next() for _ in range(n)]
    start = time.perf_counter() + 0.005
    for index, request in enumerate(requests):
        request.due = start + index / rate
    selector = load.selector()
    try:
        sent = answered = 0
        give_up = None
        while answered < n:
            while sent < n and requests[sent].due <= time.perf_counter():
                load.send(requests[sent])
                sent += 1
            if sent < n:
                timeout = max(requests[sent].due - time.perf_counter(), 0.0)
            else:
                give_up = give_up or time.perf_counter() + REPLY_TIMEOUT_S
                if time.perf_counter() > give_up:
                    break
                timeout = 0.05
            answered += len(load.pump(selector, timeout))
    finally:
        selector.close()
    return requests


def closed_loop(load: LoadClient, traffic: Traffic, window: int,
                seconds: float) -> Tuple[float, List[Request]]:
    """Keep ``window`` requests in flight per connection for ``seconds``;
    returns operations completed per second and every request sent."""
    selector = load.selector()
    sent: List[Request] = []
    outstanding = [0] * len(load.conns)

    def send_on(conn: int) -> None:
        request = traffic.next()
        request.conn = conn
        request.due = time.perf_counter()
        load.send(request)
        sent.append(request)
        outstanding[conn] += 1

    try:
        start = time.perf_counter()
        end = start + seconds
        for conn in range(len(load.conns)):
            for _ in range(window):
                send_on(conn)
        completed = 0
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            for request in load.pump(selector, end - now):
                outstanding[request.conn] -= 1
                if request.done <= end:
                    completed += 1
                send_on(request.conn)
        drain_until = time.perf_counter() + REPLY_TIMEOUT_S
        while sum(outstanding) and time.perf_counter() < drain_until:
            for request in load.pump(selector, 0.05):
                outstanding[request.conn] -= 1
    finally:
        selector.close()
    return completed / seconds, sent


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

def _server_argv(workload: str, snapshot: Path, wal: Path) -> List[str]:
    argv = [sys.executable, "-m", "repro.serving", "serve",
            "--snapshot", str(snapshot), "--tcp", "127.0.0.1:0"]
    if workload == "serve-write":
        argv += ["--replicas", "2", "--wal", str(wal)]
    return argv


def start_server(workload: str, snapshot: Path,
                 wal: Path) -> Tuple[Child, List[Tuple[str, int]], float]:
    """Launch the server; returns it, its replica addresses (leader
    first) and the seconds from launch until a request was answered."""
    from repro.serving.net import ServingClient

    server = Child(_server_argv(workload, snapshot, wal),
                   wal.with_name(wal.name + ".log"))
    line = server.readline()
    addresses = [(host, int(port)) for host, port
                 in re.findall(r"(\d+\.\d+\.\d+\.\d+):(\d+)", line)]
    if not addresses:
        server.close()
        raise BenchError(f"unexpected server banner: {line!r}")
    with ServingClient(addresses[:1]) as client:
        client.health()
    return server, addresses, time.perf_counter() - server.launched


def stop_server(server: Child, outcome: Outcome) -> None:
    """SIGTERM (graceful drain) and reap; the exit must be clean."""
    server.terminate()
    outcome.check("exit", server.reap() == 0)
    server.close()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def reply_matches(reply: Dict[str, object], reference) -> bool:
    """A top-n reply is bit-equal to the in-process recommendation."""
    try:
        items = np.asarray(reply["items"], dtype=np.int64)
        scores = np.asarray(reply["scores"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        return False
    return (int(reply.get("user", -1)) == int(reference.user)
            and items.tobytes() == np.asarray(reference.items,
                                              np.int64).tobytes()
            and scores.tobytes() == np.asarray(reference.scores,
                                               np.float64).tobytes())


def writes_applied(applied_seqno: int, acked: int) -> bool:
    """Every acked write is applied on the leader, and nothing else."""
    return int(applied_seqno) == int(acked)


def replicas_agree(digests: Sequence[str]) -> bool:
    return len(digests) >= 2 and len(set(digests)) == 1


def _check_reads(requests: Sequence[Request], service,
                 outcome: Outcome) -> None:
    checked = 0
    for request in requests:
        if request.kind == "read" and request.ok and request.reply:
            reference = service.top_n(request.user, n=TOP_N)
            outcome.check("read.bit_equal_in_process",
                          reply_matches(request.reply, reference))
            checked += 1
    outcome.check("read.sampled", checked > 0)
    outcome.notes["reads_checked"] = checked


def _final_write_checks(addresses, acked: int, outcome: Outcome) -> None:
    from repro.serving.net import ServingClient

    leader = ServingClient(addresses[:1])
    follower = ServingClient(addresses[1:2])
    try:
        applied = leader.metrics().get("wal.applied_seqno{replica=0}", -1)
        outcome.check("write.all_acked_applied",
                      writes_applied(applied, acked))
        outcome.notes["acked_writes"] = acked
        # The follower applies shipped records asynchronously.
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            digests = [leader.health(digest=True)["digest"],
                       follower.health(digest=True)["digest"]]
            if replicas_agree(digests) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        outcome.check("write.replicas_equal_digest", replicas_agree(digests))
    finally:
        leader.close()
        follower.close()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _latencies_ms(requests: Sequence[Request], kind: str) -> List[float]:
    """Latency from due time; a failed request counts as infinitely late."""
    return [(r.done - r.due) * 1e3 if r.ok else float("inf")
            for r in requests if r.kind == kind]


def _registry_layers(metrics: Dict[str, object], outcome: Outcome,
                     workload: str) -> None:
    """Per-layer numbers the server already exports."""
    table = outcome.per_layer

    def total(prefix: str) -> float:
        return float(sum(value for name, value in metrics.items()
                         if name.startswith(prefix + "{")
                         and isinstance(value, (int, float))))

    queue = metrics.get("serving.server.queue_wait_ms{replica=0}") or {}
    table["server.queue_wait_ms.p50"] = float(queue.get("p50", 0.0))
    table["server.queue_wait_ms.p99"] = float(queue.get("p99", 0.0))
    requests = total("serving.fusion.requests")
    windows = total("serving.fusion.windows")
    table["fusion.batch"] = requests / windows if windows else 0.0
    table["fusion.dedup_share"] = (total("serving.fusion.deduplicated")
                                   / requests if requests else 0.0)
    hits = total("serving.service.cache_hits")
    lookups = hits + total("serving.service.cache_misses")
    table["service.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    execute = metrics.get("serving.server.execute_ms{replica=0}") or {}
    outcome.notes["server.execute_ms.count"] = execute.get("count", 0)
    if workload == "serve-write":
        fsync = metrics.get("wal.append.fsync_ms{replica=0}") or {}
        table["wal.fsync_ms.p50"] = float(fsync.get("p50", 0.0))
        table["wal.fsync_ms.p99"] = float(fsync.get("p99", 0.0))
        appended = total("wal.appended")
        table["wal.forwarded_share"] = (total("wal.forwarded") / appended
                                        if appended else 0.0)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def make_snapshot(path: Path, seed: int, size: ServeSize) -> None:
    from repro.bench.serving import make_bench_snapshot
    from repro.serving.checkpoint import save_snapshot

    save_snapshot(make_bench_snapshot(size.n_users, size.n_items,
                                      size.num_latent, seed=seed), path)


def _fold_in(address, seed: int, size: ServeSize) -> List[int]:
    """Fold in the users the writes will target (through the leader)."""
    from repro.serving.net import ServingClient

    rng = np.random.default_rng([seed, 11])
    users = []
    with ServingClient([address]) as client:
        for _ in range(N_FOLDED):
            items = rng.choice(size.n_items, size=5, replace=False)
            users.append(client.fold_in(items, rng.uniform(1.0, 5.0, 5)))
    return users


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full") -> Outcome:
    """One run of a serving workload."""
    from repro.serving.net import ServingClient
    from repro.serving.net import protocol
    from repro.serving.service import PredictionService

    size = SIZES[size_name]
    outcome = Outcome(workload)
    with WorkDir(workload) as work:
        snapshot = work / "snapshot.npz"
        make_snapshot(snapshot, seed, size)
        setups = []
        for attempt in range(SETUP_REPEATS - 1):
            server, _, setup_s = start_server(workload, snapshot,
                                              work / f"wal-setup{attempt}")
            setups.append(setup_s)
            stop_server(server, outcome)
        server, addresses, setup_s = start_server(workload, snapshot,
                                                  work / "wal")
        setups.append(setup_s)
        conns: List[Connection] = []
        try:
            folded = (_fold_in(addresses[0], seed, size)
                      if workload == "serve-write" else [])
            n_conns = 2 if workload == "serve-write" else 1
            conns = [Connection(address) for address in addresses[:n_conns]]
            traffic = Traffic(workload, seed, size, folded, n_conns)
            load = LoadClient(conns, seed)
            rate = READ_RATE if workload == "serve-read" else MIXED_RATE
            # Warm-up: the score cache and the server's lazy paths.
            warmup = open_loop(load, traffic, rate, 1.0)
            rates: List[float] = []
            closed: List[Request] = []
            if trace:
                plain = open_loop(load, traffic, rate, seconds / 2)
                clock = LayerClock()
                clock.wrap(protocol, "encode_frame", "client.encode")
                clock.wrap(protocol.FrameDecoder, "feed", "client.decode")
                try:
                    timed = open_loop(load, traffic, rate, seconds / 2)
                finally:
                    clock.uninstall()
                everything = warmup + plain + timed
            else:
                timed = []
                for _ in range(ROUNDS):
                    timed += open_loop(load, traffic, rate,
                                       seconds * OPEN_SHARE / ROUNDS)
                    round_rate, sent = closed_loop(
                        load, traffic, WINDOW[workload],
                        seconds * (1 - OPEN_SHARE) / ROUNDS)
                    rates.append(round_rate)
                    closed += sent
                plain = timed
                everything = warmup + timed + closed
            with ServingClient(addresses[:1]) as client:
                metrics = client.metrics()
            reference = PredictionService(snapshot)
            _check_reads(everything, reference, outcome)
            acked = sum(1 for r in everything if r.kind == "write" and r.ok)
            if workload == "serve-write":
                _final_write_checks(addresses, acked + len(folded), outcome)
        finally:
            for conn in conns:
                conn.close()
            stop_server(server, outcome)
            rss_kb = server.maxrss_kb

    outcome.attempted = len(everything)
    outcome.failed = sum(1 for r in everything if not r.ok)
    outcome.check("requests.all_answered", outcome.failed == 0)
    # Latency figures come from the untraced open loop.
    reads = _latencies_ms(plain, "read")
    writes = _latencies_ms(plain, "write")
    late_ms = [(r.sent - r.due) * 1e3 for r in timed]
    figures = outcome.end_to_end
    figures["setup_s"] = setups
    figures["peak_rss_mb"] = [rss_kb / 1024.0]
    if rates:
        figures["throughput_per_s"] = rates
    figures["read_p50_ms"] = [statistics.median(reads)]
    figures["read_p99_ms"] = [percentile(reads, 99)]
    if workload == "serve-write":
        figures["write_p50_ms"] = [statistics.median(writes)]
        figures["write_p99_ms"] = [percentile(writes, 99)]
    figures["op_p50_ms"] = figures["write_p50_ms" if workload == "serve-write"
                                   else "read_p50_ms"]
    outcome.notes["open_loop"] = {"reads": len(reads), "writes": len(writes),
                                  "rate_per_s": rate}
    if closed:
        outcome.notes["closed_loop"] = {
            "requests": len(closed), "window": WINDOW[workload],
            "connections": n_conns}
    outcome.notes["gen.late_ms_p99"] = percentile(late_ms, 99)
    outcome.notes["gen.late_n"] = sum(1 for late in late_ms if late > LATE_MS)

    if trace:
        _registry_layers(metrics, outcome, workload)
        table = outcome.per_layer
        for name in ("read_p50_ms", "read_p99_ms", "write_p50_ms",
                     "write_p99_ms"):
            if name in figures:
                table[name] = figures[name][0]
        table["gen.late_ms_p99"] = outcome.notes["gen.late_ms_p99"]
        table["gen.late_n"] = outcome.notes["gen.late_n"]
        n_timed = len(timed)
        table["client.encode_us"] = clock.totals["client.encode"] * 1e6 \
            / n_timed
        table["client.decode_us"] = clock.totals["client.decode"] * 1e6 \
            / n_timed
        table["service.topn_us"] = _in_process_topn_us(reference, timed)
        plain_p50 = statistics.median(reads)
        timed_p50 = statistics.median(_latencies_ms(timed, "read"))
        table["obs.trace_overhead"] = timed_p50 / plain_p50
        parts = {"client.encode_ms": table["client.encode_us"] / 1e3,
                 "client.decode_ms": table["client.decode_us"] / 1e3,
                 "server.queue_wait_ms.p50": table["server.queue_wait_ms.p50"],
                 "service.topn_ms": table["service.topn_us"] / 1e3}
        table["read.unattributed_ms"] = timed_p50 - sum(parts.values())
        outcome.sum_check = {"read_p50_ms": timed_p50, **parts,
                             "read.unattributed_ms":
                             table["read.unattributed_ms"]}
        # The parts are measured separately, so they must not add up to
        # more than the whole.
        outcome.check("trace.sum", table["read.unattributed_ms"] >= 0)
    return outcome


def _in_process_topn_us(service, requests: Sequence[Request]) -> float:
    """Median in-process ``top_n`` time over the same user stream."""
    times = []
    for request in requests:
        if request.kind != "read":
            continue
        start = time.perf_counter()
        service.top_n(request.user, n=TOP_N)
        times.append((time.perf_counter() - start) * 1e6)
    return statistics.median(times)
